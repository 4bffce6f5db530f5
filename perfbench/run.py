"""Benchmark of the `anonet` CLI, driven from outside through real invocations.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh interpreter through `launcher.py`, one
at a time from this single process (one busy core; no threads, no pool).
The workloads and the correctness gate are in `workloads.py`.

--trace 0 launches one untimed warm-up (`--version`, which imports the
package and so fills the page cache), then repeats the workload's invocations
round-robin for about S seconds and reports the end-to-end metrics: `wall_s`
(the sum over the workload's invocations of each one's median spawn-to-exit
time), `setup_s` (median over invocations of spawn to `anonet.cli`
imported), `peak_rss_mb` (largest max-RSS from `os.wait4`).

The shared host runs the same code up to 1.5 times slower for a minute or
more at a time, which moves every time of a run together. So each launched
process also times a fixed loop of plain Python, before and after the import
and after `main` (`launcher.calibrate`), and `wall_s` and `setup_s` are scaled by
CALIBRATION_NOMINAL_S over the run's mean reading: they are times on a host
where that loop takes CALIBRATION_NOMINAL_S. The loop is benchmark code, so
no change to `anonet` moves it; its own time is taken out of every interval.
The unscaled times and the factor are kept in the results file.
--trace 1 runs one untraced and one traced pass and reports per-layer
metrics from the traced pass's spans (see `tracing.py`) and the tracing
overhead. Both modes check that every repeat of an invocation produces
byte-identical outputs.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-run results, with the net line count of `src/anonet`, are written to
`.perfbench_out/results/` in the checkout; the CLI's outputs stay under
`.perfbench_out/work/` only when a run is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import package_import_s, parse_importtime, self_times
from workloads import WARM_UP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "anonet"
OUT = ROOT / ".perfbench_out"
LAUNCHER = HERE / "launcher.py"
# An invocation still running this long after its workload started is killed
# and counts as failed, so that one workload's run ends within 180 s.
WORKLOAD_LIMIT_S = 150
# Seconds `launcher.calibrate` takes on a typical quiet stretch of a 2-core
# Xeon host at 2.0 GHz under Python 3.11; a fixed constant, so scaled times
# compare across runs and commits.
CALIBRATION_NOMINAL_S = 0.06


def unit_of(metric: str) -> str:
    """Units follow from the metric names' suffixes."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                         ("ns_per_activation", "ns"), ("us_per_config", "us"),
                         ("bytes_per_config", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


class InvocationTimeout(Exception):
    pass


@dataclass
class Invoked:
    wall_s: float
    setup_s: float
    import_s: float
    maxrss_kb: int
    attempted: int
    failed: int
    activations: int
    digest: str
    meta: dict
    stderr: str
    calibration_s: list  # the launcher's readings, taken out of wall_s and setup_s


@dataclass
class Pass:
    invoked: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invoked)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(i.digest for i in self.invoked).encode()).hexdigest()


def _alarm(signum, frame):
    raise InvocationTimeout


def invoke(inv, workdir: Path, index: int, trace: bool, deadline: float) -> Invoked:
    for name, content in inv.files.items():
        (workdir / name).write_text(content, encoding="utf-8")
    meta_path = workdir / f"{index}.meta.json"
    out_path, err_path = workdir / f"{index}.stdout", workdir / f"{index}.stderr"
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(LAUNCHER), str(meta_path), "1" if trace else "0", "--", *inv.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.alarm(max(1, int(deadline - t0)))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except InvocationTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
        t1 = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)

    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    files = {}
    digest = hashlib.sha256(stdout.encode())
    for name in inv.outputs:
        path = workdir / name
        files[name] = path.read_text(encoding="utf-8") if path.exists() else ""
        digest.update(name.encode() + b"\0" + files[name].encode())
    attempted, failed, activations = inv.check(rc, stdout, files)
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        meta = {}
    imported = meta.get("imported", t1)
    calibration = meta.get("calibration_s", [])
    return Invoked(
        wall_s=t1 - t0 - sum(calibration),
        setup_s=imported - t0 - sum(calibration[:1]),
        import_s=imported - meta.get("import_start", t0),
        maxrss_kb=usage.ru_maxrss,
        attempted=attempted,
        failed=failed,
        activations=activations,
        digest=digest.hexdigest(),
        meta=meta,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        calibration_s=calibration,
    )


def run_pass(invocations, workdir: Path, trace: bool, deadline: float) -> Pass:
    workdir.mkdir(parents=True, exist_ok=True)
    return Pass([invoke(inv, workdir, i, trace, deadline) for i, inv in enumerate(invocations)])


def warm_up(workdir: Path, deadline: float) -> None:
    """One untimed `anonet --version`: it imports everything a timed
    invocation imports, so no timed one pays for a cold page cache. Its
    result is dropped: a program that fails here fails the timed ones too."""
    workdir.mkdir(parents=True, exist_ok=True)
    invoke(WARM_UP, workdir, 0, False, deadline)


def run_timed(invocations, workdir: Path, seconds: float, deadline: float) -> list:
    """Passes over `invocations`, round-robin, for about `seconds`.

    The first pass always completes. After it, an invocation starts only if
    its previous time still fits, so the last pass may be partial.
    """
    passes: list = []
    last = [0.0] * len(invocations)
    started = time.monotonic()
    while True:
        current = Pass()
        workdir_k = workdir / f"pass{len(passes)}"
        workdir_k.mkdir(parents=True, exist_ok=True)
        for k, inv in enumerate(invocations):
            if passes and time.monotonic() - started + last[k] > seconds:
                return passes + [current] if current.invoked else passes
            current.invoked.append(invoke(inv, workdir_k, k, False, deadline))
            last[k] = current.invoked[-1].wall_s
        passes.append(current)


def columns(passes) -> list:
    """The samples of each invocation: column k holds invocation k of every pass."""
    return [[p.invoked[k] for p in passes if k < len(p.invoked)]
            for k in range(len(passes[0].invoked))]


def net_source_lines() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics


def host_factor(passes) -> float:
    """CALIBRATION_NOMINAL_S over the mean calibration reading of the passes;
    1 if no launch got as far as calibrating."""
    readings = [c for p in passes for i in p.invoked for c in i.calibration_s]
    return CALIBRATION_NOMINAL_S / statistics.fmean(readings) if readings else 1.0


def end_to_end(passes, factor: float = 1.0) -> dict:
    """The end-to-end metrics, with times multiplied by `factor`."""
    cols = columns(passes)
    invoked = [i for col in cols for i in col]
    return {
        "wall_s": factor * sum(statistics.median(i.wall_s for i in col) for col in cols),
        "setup_s": factor * statistics.median(i.setup_s for i in invoked),
        "peak_rss_mb": max(i.maxrss_kb for i in invoked) / 1024,
    }


def activations_per_s(invoked) -> float:
    """Σ activations over Σ (wall − set-up) of the given invocations."""
    work_s = sum(i.wall_s - i.setup_s for i in invoked)
    return sum(i.activations for i in invoked) / work_s if work_s > 0 else 0.0


def _calls(invoked, module: str, kind: str, within: str | None = None):
    count, seconds = 0, 0.0
    for inv in invoked:
        for key, (c, s) in inv.meta.get("calls", {}).items():
            name, _, owner = key.partition("@")
            if name == f"{module}.{kind}" and (within is None or owner == within):
                count += c
                seconds += s
    return count, seconds


def per_layer(untraced: Pass, traced: Pass) -> dict:
    inv = traced.invoked
    spans = []  # (span, self time) over every traced invocation
    for i in inv:
        selfs = self_times(i.meta.get("spans", []))
        spans += [(s, selfs[s["id"]]) for s in i.meta.get("spans", [])]

    def total(name, self_time=False):
        return sum((st if self_time else s["end"] - s["start"] for s, st in spans
                    if s["name"] == name), 0.0)

    runs = [s for s, _ in spans if s["name"] == "engine.run"]
    activations = sum(s["activations"] for s in runs)
    run_self = total("engine.run", self_time=True)
    verifies = [s for s, _ in spans if s["name"] == "oracle.verify_exhaustive"]
    configs = sum(s["configs"] for s in verifies)
    verify_s = total("oracle.verify_exhaustive")
    # RSS growth is only known for a call that set a new peak for its process
    peaked = [s for s in verifies if s["after"]["maxrss"] > s["before"]["maxrss"]]
    grown = sum(s["after"]["maxrss"] - s["before"]["rss"] for s in peaked)
    peaked_configs = sum(s["configs"] for s in peaked)
    forests = [parse_importtime(i.stderr) for i in inv]
    engine_transitions = sum(
        _calls(inv, m, "transition", "engine.run")[0] for m in ("protocols", "circuits")
    )

    m = {
        "startup.import_s": statistics.median(i.import_s for i in untraced.invoked),
        "startup.scipy_import_s": statistics.median(package_import_s(f, "scipy") for f in forests),
        "startup.numpy_import_s": statistics.median(package_import_s(f, "numpy") for f in forests),
        "cli.self_s": total("cli.main", self_time=True),
        "catalog.resolve_s": total("catalog.resolve_protocol"),
        "catalog.parse_inputs_s": total("catalog.parse_inputs"),
        "engine.run_calls": len(runs),
        "engine.activations": activations,
        "engine.run_self_s": run_self,
        "engine.ns_per_activation": run_self / activations * 1e9 if activations else 0.0,
        "engine.stops_quiescence": sum(s["stopped_by"] == "quiescence" for s in runs),
        "engine.stops_window": sum(s["stopped_by"] == "window" for s in runs),
        "engine.stops_max_steps": sum(s["stopped_by"] == "max_steps" for s in runs),
        "engine.build_graph_s": total("engine.build_graph"),
        "engine.write_trace_s": total("engine.write_trace"),
        "engine.pair_hit_ratio": 1 - engine_transitions / activations if activations else 0.0,
    }
    for module in ("protocols", "circuits"):
        for kind in ("transition", "quiescent", "output"):
            count, seconds = _calls(inv, module, kind)
            m[f"{module}.{kind}_calls"] = count
            m[f"{module}.{kind}_s"] = seconds
    m.update({
        "oracle.verify_s": verify_s,
        "oracle.verify_configs": configs,
        "oracle.verify_us_per_config": verify_s / configs * 1e6 if configs else 0.0,
        "oracle.verify_bytes_per_config": grown / peaked_configs if peaked_configs else 0.0,
        "oracle.audit_s": total("oracle.audit_memory"),
        "oracle.audit_self_s": total("oracle.audit_memory", self_time=True),
        "oracle.scaling_report_s": total("oracle.scaling_report"),
        "tracing.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return m


# Exact counts that must repeat for a given workload seed and source tree.
ANCHORS = (
    "engine.run_calls", "engine.activations", "engine.stops_quiescence", "engine.stops_window",
    "engine.stops_max_steps", "oracle.verify_configs",
    *(f"{m}.{k}_calls" for m in ("protocols", "circuits")
      for k in ("transition", "quiescent", "output")),
)


def check_anchor(workload: str, seed: int, record: dict) -> bool:
    """Compare `record` with the one an earlier run of the same workload, seed
    and sources stored; store it if there is none."""
    path = OUT / "anchors" / f"{workload}-seed{seed}-{source_hash()}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        return all(stored.get(k, record[k]) == record[k] for k in record)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return True


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    invocations = WORKLOADS[workload](seed)
    rundir = OUT / "work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    deadline = time.monotonic() + WORKLOAD_LIMIT_S
    warm_up(rundir / "warm-up", deadline)
    if trace:
        passes = [run_pass(invocations, rundir / "untraced", False, deadline),
                  run_pass(invocations, rundir / "traced", True, deadline)]
    else:
        passes = run_timed(invocations, rundir, seconds, deadline)
    timed = passes[:1] if trace else passes  # the passes end-to-end metrics come from

    attempted = sum(i.attempted for p in passes for i in p.invoked)
    failed = sum(i.failed for p in passes for i in p.invoked)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "output_digest": passes[0].digest,
        "outputs_identical": all(len({i.digest for i in col}) == 1 for col in columns(passes)),
        "src_net_lines": net_source_lines(),
        "host_factor": host_factor(timed),
        "end_to_end": end_to_end(timed, host_factor(timed)),
        "unscaled": end_to_end(timed),
        "wall_s_samples": [[i.wall_s for i in col] for col in columns(passes)],
        "calibration_s": [c for p in timed for i in p.invoked for c in i.calibration_s],
    }
    sweeps = [i for inv, col in zip(invocations, columns(timed)) if inv.argv[0] == "sweep"
              for i in col]
    if sweeps:
        result["activations_per_s"] = activations_per_s(sweeps)
    correct = failed == 0 and result["outputs_identical"]
    if trace:
        layers = per_layer(passes[0], passes[1])
        result["per_layer"] = layers
        anchor = {k: layers[k] for k in ANCHORS}
        anchor["output_digest"] = result["output_digest"]
        result["anchors_repeat"] = check_anchor(workload, seed, anchor)
        correct = correct and result["anchors_repeat"]
    result["correct"] = correct
    if correct:
        shutil.rmtree(rundir)  # a failed run's outputs stay for inspection

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
    )
    return result


def report(result: dict) -> None:
    w = result["workload"]
    e = result["end_to_end"]
    line = (f"{w:<10} wall_s {e['wall_s']:.4f} s | setup_s {e['setup_s']:.4f} s | "
            f"peak_rss_mb {e['peak_rss_mb']:.1f} MB")
    if "activations_per_s" in result:
        line += f" | activations_per_s {result['activations_per_s']:.0f} 1/s"
    line += (f" | failed_ratio {result['failed_ratio']:.4f} ratio ({result['failed']}/"
             f"{result['attempted']}) | passes {result['passes']}")
    print(line)
    u = result["unscaled"]
    print(f"{w:<10} unscaled wall_s {u['wall_s']:.4f} s | setup_s {u['setup_s']:.4f} s | "
          f"host_factor {result['host_factor']:.4f}")
    print(f"{w:<10} output_digest {result['output_digest'][:16]} "
          f"identical {result['outputs_identical']} | src_net_lines {result['src_net_lines']}")
    if "per_layer" in result:
        for name, value in result["per_layer"].items():
            print(f"{w:<10} {name} {value}")
        print(f"{w:<10} anchors_repeat {result['anchors_repeat']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (PACKAGE / "cli.py").is_file():
        print(f"perfbench: no anonet sources at {PACKAGE}", file=sys.stderr)
        return 2

    # byte-compile first, so that a fresh checkout's first invocation is timed like the rest
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE)], check=True,
                   stdout=subprocess.DEVNULL)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        report(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        values = result["per_layer"] if args.trace else result["end_to_end"]
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit_of(name)}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
