"""Run one `anonet` CLI invocation in a fresh interpreter and record timings.

    python3 perfbench/launcher.py META TRACE -- ARGV...

Times a fixed calibration loop, records the monotonic time, imports
`anonet.cli` from the checkout's `src/`, records the time again and calls
`main(ARGV)`; it times the calibration loop again after the import and after
`main`, so that the readings span the invocation. With
TRACE=1 it first rebinds the public names the CLI calls to span-recording
wrappers (see `install`). Timings, calibration readings, spans and counters go
to the JSON file META; the exit code is the CLI's.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[0] = SRC  # in place of this script's directory, whose modules must not shadow any


def calibrate() -> float:
    """Seconds this process takes for a fixed loop of plain Python that is no
    `anonet` code and imports nothing: how fast the host runs the interpreter
    at this moment. The benchmark scales its times by it (see `run.py`)."""
    t0 = time.perf_counter()
    x, table = 1, {}
    for _ in range(100_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 63, x >> 6 & 63)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - t0


CALIBRATION_S = [calibrate()]
T_IMPORT = time.monotonic()
import anonet.cli as cli  # noqa: E402

T_IMPORTED = time.monotonic()
CALIBRATION_S.append(calibrate())
# an anonet installed elsewhere must not stand in for the checkout's sources
if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"launcher: anonet.cli came from {cli.__file__}, not {SRC}")


def _memory() -> dict:
    """Current RSS and the process's peak RSS so far, in bytes."""
    import resource

    with open("/proc/self/statm", encoding="ascii") as fh:
        rss = int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    return {"rss": rss, "maxrss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024}


def install(tracer) -> None:
    """Rebind the names `anonet.cli` and `anonet.oracle` call through to
    span-recording wrappers. Protocols that `resolve_protocol` returns get
    counted `transition`, `output` and `quiescent` callables."""
    import dataclasses

    from anonet import engine, oracle

    resolve_protocol = cli.resolve_protocol

    def resolve(spec):
        resolved = resolve_protocol(spec)
        proto = resolved.protocol
        timed = {}
        for kind in ("transition", "output", "quiescent"):
            fn = getattr(proto, kind)
            if fn is not None:
                module = fn.__module__.rsplit(".", 1)[-1]  # protocols | circuits
                timed[kind] = tracer.wrap_callable(module, kind, fn)
        return dataclasses.replace(resolved, protocol=dataclasses.replace(proto, **timed))

    run = tracer.wrap(
        "engine.run",
        engine.run,
        attrs=lambda r: {"activations": r.total_steps, "stopped_by": r.stopped_by},
    )
    cli.run = run
    oracle.run = run
    cli.verify_exhaustive = tracer.wrap(
        "oracle.verify_exhaustive",
        cli.verify_exhaustive,
        attrs=lambda r: {"configs": r.states_explored},
        probe=_memory,
    )
    cli.audit_memory = tracer.wrap("oracle.audit_memory", cli.audit_memory)
    cli.scaling_report = tracer.wrap("oracle.scaling_report", cli.scaling_report)
    cli.build_graph = tracer.wrap("engine.build_graph", cli.build_graph)
    cli.parse_inputs = tracer.wrap("catalog.parse_inputs", cli.parse_inputs)
    cli.resolve_protocol = tracer.wrap("catalog.resolve_protocol", resolve)
    # cli imported write_trace by name, so its own binding is the one to wrap
    cli.write_trace = tracer.wrap("engine.write_trace", cli.write_trace)


def launch(meta_path: str, trace: bool, argv: list) -> int:
    main = cli.main
    tracer = None
    if trace:
        sys.path.append(HERE)
        from tracing import Tracer

        tracer = Tracer()
        install(tracer)
        main = tracer.wrap("cli.main", main)
    try:
        return main(argv)
    finally:
        CALIBRATION_S.append(calibrate())
        meta = {"import_start": T_IMPORT, "imported": T_IMPORTED, "calibration_s": CALIBRATION_S}
        if tracer is not None:
            meta.update(tracer.dump())
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: launcher.py META TRACE -- ARGV...")
    sys.exit(launch(sys.argv[1], sys.argv[2] == "1", sys.argv[4:]))
