"""Command-line front end: single runs, sweeps, verification, audits.

Exit codes: 0 all matched/passed, 1 usage or configuration error,
2 stabilization or verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import sys
from collections import Counter
from typing import Optional, Sequence

from . import __version__
from .catalog import ConfigError, counts_of, parse_inputs, resolve_protocol
from .engine import (
    ProtocolViolation,
    TransitionTable,
    build_graph,
    graph_family,
    map_jobs,
    measure_meeting_time,
    parse_decimal,
    parse_rewire,
    run,
    write_trace,
)
from .oracle import VerifyResult, audit_memory, orbit_key, scaling_report, verify_exhaustive

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """A usage error raises ConfigError, so that it ends in `error: ...` and
    exit 1 like any other bad input; subparsers inherit the class. Flags are
    not abbreviated: `sweep --seed` would silently be `--seeds`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise ConfigError(message)


def integer(text: str) -> int:
    """The type of the integer flags: `parse_decimal`'s digits, after a '-'
    that is kept, so that a negative value reaches the flag's bound check.
    argparse names the function in its error: invalid integer value."""
    return -parse_decimal(text[1:]) if text.startswith("-") else parse_decimal(text)


_COMMON = {
    "--seed": dict(type=integer, default=0),
    "--max-steps": dict(type=integer, default=10_000_000),
    "--rewire": dict(default="none",
                     help="none | swap:p, where p is an integer period: every p "
                          "activations, try one connectivity-preserving double edge swap"),
    "--trace": dict(default=None, help="write the activation trace here"),
}
_RUN_FLAGS = ("--max-steps", "--rewire")


def _add_common(p: argparse.ArgumentParser, handler, *flags: str) -> None:
    """`p` runs `handler`, and takes `--config`, `--output` and those of the
    shared `flags` that it reads."""
    p.set_defaults(handler=handler)
    p.add_argument("--config", default=None,
                   help="flat key=value file mirroring this command's long flags; "
                        "explicit flags win")
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])
    p.add_argument("--output", default=None, help="write records here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="anonet",
        description="simulate and verify bounded-memory gossip protocols",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one protocol run")
    p_run.add_argument("--protocol", required=True)
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--input", required=True)
    _add_common(p_run, cmd_run, "--seed", *_RUN_FLAGS, "--trace")

    p_sweep = sub.add_parser("sweep", help="grid of runs with a scaling fit")
    p_sweep.add_argument("--protocol", required=True)
    p_sweep.add_argument("--graph", required=True, help="a graph spec without its n: kind[:params]")
    p_sweep.add_argument("--sizes", required=True, help="comma-separated n grid")
    p_sweep.add_argument("--seeds", type=integer, default=20, help="seeds per size")
    p_sweep.add_argument("--input", default="0:50%,1:rest")
    p_sweep.add_argument("--summary", default=None, help="write summary JSON here")
    _add_common(p_sweep, cmd_sweep, *_RUN_FLAGS)

    p_verify = sub.add_parser("verify", help="exhaustive stabilization check")
    p_verify.add_argument("--protocol", required=True)
    p_verify.add_argument("--graph", required=True)
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--input")
    group.add_argument("--all-inputs", action="store_true")
    p_verify.add_argument("--max-configs", type=integer, default=10_000_000)
    _add_common(p_verify, cmd_verify, "--seed")

    p_audit = sub.add_parser("audit", help="memory budget audit")
    p_audit.add_argument("protocols", nargs="+")
    # ignored: the count holds for every n; kept until the benchmark's argv drops it
    p_audit.add_argument("--n", type=integer, default=None, help=argparse.SUPPRESS)
    p_audit.add_argument("--format", choices=("table", "json"), default="table")
    _add_common(p_audit, cmd_audit)

    p_meet = sub.add_parser("meet", help="token meeting-time statistics")
    p_meet.add_argument("--graph", nargs="+", required=True)
    p_meet.add_argument("--trials", type=integer, default=200)
    _add_common(p_meet, cmd_meet, "--seed")

    return parser


def _load_config_defaults(argv: list) -> list:
    """Two-phase parse so a key=value config file, named after the
    subcommand, provides defaults."""
    if argv and argv[0].split("=", 1)[0] == "--config":
        raise ConfigError("--config goes after the subcommand: anonet COMMAND --config FILE")
    pre = _Parser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv[1:])
    if not known.config:
        return argv
    extra = []  # config entries go right after the subcommand, so explicit flags win
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{known.config}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                extra += [f"--{key.strip()}", value.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read config file {known.config}: {exc}") from exc
    return argv[:1] + extra + argv[1:]


@contextlib.contextmanager
def _lines(*paths: Optional[str]):
    """Open each path given for writing; yield the files, None for a path not
    given (`print(..., file=None)` prints to stdout). Every subcommand enters
    it for all it writes before its first run, verification, audit or walk,
    and prints with flush=True, so that a long command holds back no output."""
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(open(path, "w", encoding="utf-8")) if path else None
               for path in paths]


def _flag(flag: str, parse, value, *args, **kwargs):
    """`parse(value, ...)`; a ValueError becomes a ConfigError naming the flag."""
    try:
        return parse(value, *args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{flag} {value!r}: {exc}") from exc


def _at_least(flag: str, value, low: int) -> None:
    if value is not None and value < low:
        raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _run_options(args) -> dict:
    """engine.run's keywords from the flags that `run` and `sweep` share. The
    bounds that engine.run checks are checked here first, so that the error
    names the flag and a sweep fails before its first graph."""
    _at_least("--max-steps", args.max_steps, 0)
    return dict(max_steps=args.max_steps,
                swap_period=_flag("--rewire", parse_rewire, args.rewire))


def cmd_run(args) -> int:
    options = _run_options(args)
    resolved = resolve_protocol(args.protocol)
    graph = build_graph(args.graph, seed=args.seed)
    inputs = _flag("--input", parse_inputs, args.input, graph.n, resolved.protocol.colors,
                   seed=args.seed)
    counts = counts_of(inputs, resolved.protocol.colors)
    try:
        expected = resolved.oracle_fn(counts)
    except ValueError as exc:
        raise ConfigError(f"tie, unsupported: {exc}") from exc
    with _lines(args.output, args.trace) as (out, trace):
        result = run(
            resolved.protocol,
            graph,
            inputs,
            seed=args.seed,
            expected=0 if expected is None else expected,
            record_trace=trace is not None,
            **options,
        )
        if trace:
            write_trace(trace, result)
        record = {
            "schema_version": SCHEMA_VERSION,
            "protocol": args.protocol,
            "graph": args.graph,
            "n": graph.n,
            "edges": graph.m,
            "seed": args.seed,
            "first_correct_step": result.first_correct_step,
            "stabilized": result.stabilized,
            "total_steps": result.total_steps,
            "stopped_by": result.stopped_by,
            "elapsed_time": result.elapsed_time,
            "outputs_histogram": Counter(map(str, result.final_outputs)),  # keys sorted on dump
            "oracle_value": expected,
            "match": bool(result.matched),
            "empty": expected is None,
        }
        print(json.dumps(record, sort_keys=True), file=out, flush=True)
    return EXIT_OK if (result.stabilized and result.matched) else EXIT_FAILURE


def cmd_sweep(args) -> int:
    options = _run_options(args)
    resolved = resolve_protocol(args.protocol)
    sizes = _flag("--sizes", lambda s: [parse_decimal(x) for x in s.split(",") if x], args.sizes)
    repeated = [n for i, n in enumerate(sizes) if n in sizes[:i]]
    if not sizes or repeated:
        raise ConfigError(f"--sizes {args.sizes!r}: " + (
            f"size {repeated[0]} is given more than once" if repeated else "no size given"))
    _at_least("--seeds", args.seeds, 1)
    spec_of = _flag("--graph", graph_family, args.graph)
    colors = resolved.protocol.colors
    # whether a size fits its graph kind and the edge limit, and whether the
    # input spec fits it, depends on n alone, so checking each size's spec and
    # parsing its input of seed 0 first ends a sweep that does not fit some
    # size before its first run; every other input is parsed just before its run
    specs = {n: spec_of(n) for n in sizes}
    first_input = {n: _flag("--input", parse_inputs, args.input, n, colors) for n in sizes}
    with _lines(args.output, args.summary) as (out, summary_out):
        # ids stay internal, so the runs of each process share one table
        table = TransitionTable(resolved.protocol)

        def row(job) -> list:
            n, seed = job
            spec = specs[n]
            inputs = (first_input[n] if seed == 0 else
                      parse_inputs(args.input, n, colors, seed=seed))
            try:
                graph = build_graph(spec, seed=seed)
                expected = resolved.oracle_fn(counts_of(inputs, colors))
            except ValueError as exc:  # a GraphError, or no answer (a plurality tie)
                return [args.protocol, n, "", spec, seed, "", "", "", f"error:{exc}"]
            result = run(
                resolved.protocol,
                graph,
                inputs,
                seed=seed,
                expected=0 if expected is None else expected,
                table=table,
                **options,
            )
            first = result.first_correct_step
            return [args.protocol, n, graph.m, spec, seed, "" if first is None else first,
                    result.total_steps, result.stopped_by, result.stabilized]

        rows = map_jobs(row, [(n, seed) for n in sizes for seed in range(args.seeds)])
        samples: dict = {n: [] for n in sizes}
        excluded = failures = 0
        for _, n, _, _, _, first, _, _, stabilized in rows:
            if isinstance(stabilized, str):  # an error row
                failures += 1
            elif stabilized and first != "":
                samples[n].append(max(1, first))
            else:
                excluded += 1
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["protocol", "n", "edges", "graph", "seed", "first_correct_step", "total_steps",
             "stopped_by", "stabilized"]
        )
        writer.writerows(rows)
        print(buf.getvalue().rstrip("\n"), file=out, flush=True)
        summary: dict = {
            "schema_version": SCHEMA_VERSION,
            "protocol": args.protocol,
            "graph_family": args.graph,
            "sizes": sizes,
            "seeds": args.seeds,
            "excluded_runs": excluded,
        }
        try:
            fit = scaling_report(samples)
            summary["exponent"] = fit.exponent
            summary["exponent_stderr"] = fit.stderr
            summary["means"] = dict(zip([str(s) for s in fit.sizes], fit.means))
        except ValueError as exc:
            summary["exponent"] = None
            summary["fit_error"] = str(exc)
        print(json.dumps(summary, sort_keys=True), file=summary_out or sys.stderr, flush=True)
    return EXIT_FAILURE if (excluded or failures) else EXIT_OK


def cmd_verify(args) -> int:
    _at_least("--max-configs", args.max_configs, 1)
    resolved = resolve_protocol(args.protocol)
    graph = build_graph(args.graph, seed=args.seed)
    colors = resolved.protocol.colors
    if args.all_inputs:
        if colors ** graph.n > 1 << 22:
            raise ConfigError(f"--all-inputs: {colors}^{graph.n} inputs is over the limit of 2^22")
        # little-endian: node 0 varies fastest
        input_sets = (code[::-1] for code in itertools.product(range(colors), repeat=graph.n))
    else:
        input_sets = [_flag("--input", parse_inputs, args.input, graph.n, colors, seed=args.seed)]
    orbit = orbit_key(graph)
    # (orbit key, expected value) -> the result its inputs share
    shared: dict = {}
    any_fail = False
    with _lines(args.output) as (out,):  # each record as soon as its input is done
        for inputs in input_sets:
            counts = counts_of(inputs, colors)
            try:
                expected = resolved.oracle_fn(counts)
            except ValueError as exc:  # e.g. plurality tie
                res = VerifyResult("SKIPPED", 0, None, str(exc))
            else:
                expected = 0 if expected is None else expected
                key = (orbit(inputs), expected) if orbit else None
                res = shared.get(key)
                if res is None:
                    res = verify_exhaustive(resolved.protocol, graph, inputs, expected,
                                            max_configs=args.max_configs)
                    if key:
                        shared[key] = res
            if res.verdict == "FAIL":
                any_fail = True
            print(json.dumps(res.record(args.protocol, args.graph, inputs), sort_keys=True),
                  file=out, flush=True)
    return EXIT_FAILURE if any_fail else EXIT_OK


def cmd_audit(args) -> int:
    """One certified count per protocol (`audit_memory`), in this process:
    it builds no graph and makes no run, so `--n` changes nothing."""
    protocols = [resolve_protocol(spec).protocol for spec in args.protocols]
    with _lines(args.output) as (out,):
        reports = audit_memory(protocols)
        lines = []
        for spec, report in zip(args.protocols, reports):
            if spec.startswith("bit:"):
                report = report._replace(note="output register adds one bit over the counter tuple")
            lines.append(json.dumps({**report._asdict(), "ok": report.ok}, sort_keys=True)
                         if args.format == "json" else report.row())
        print("\n".join(lines), file=out, flush=True)
    return EXIT_OK if all(report.ok for report in reports) else EXIT_FAILURE


def cmd_meet(args) -> int:
    _at_least("--trials", args.trials, 1)
    graphs = [build_graph(spec, seed=args.seed) for spec in args.graph]
    with _lines(args.output) as (out,):
        stats = [measure_meeting_time(graph, args.trials, seed=args.seed) for graph in graphs]
        record: dict = {"schema_version": SCHEMA_VERSION,
                        "measurements": [s._asdict() for s in stats]}
        sizes = [s.n for s in stats]
        if len(sizes) >= 3 and len(set(sizes)) == len(sizes):  # one mean per distinct n
            record["time_exponent"] = scaling_report({s.n: [s.mean_time] for s in stats}).exponent
        print(json.dumps(record, sort_keys=True), file=out, flush=True)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_load_config_defaults(argv))
        return args.handler(args)
    except BrokenPipeError:  # an OSError, so it goes first
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit stays quiet too (the recipe in the docs of the `signal` module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG
    except (ValueError, ProtocolViolation, OSError) as exc:  # ConfigError and GraphError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
