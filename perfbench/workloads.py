"""The benchmark's workloads, their seeded inputs and the correctness gate.

Each workload is a list of CLI invocations made from the workload seed. The
program receives only the argv and the files listed in `Invocation.files`.
The gate recomputes every answer from the counts the benchmark generated,
never from `anonet`'s own oracle.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Invocation:
    argv: list
    # checks stdout and the output files; returns (attempted, failed, activations)
    check: Callable
    files: dict = field(default_factory=dict)  # name -> content, written before the run
    outputs: tuple = ()  # files the CLI writes; digested and passed to `check`


# ---------------------------------------------------------------------------
# Ground truth from colour counts (colour 0 is the counted colour, r its count)


def truth(spec: str, counts) -> int:
    kind, _, params = spec.partition(":")
    n, r = sum(counts), counts[0]
    if kind == "or":
        return 1 if n - r > 0 else 0
    if kind == "lsb":
        return r % (1 << int(params))
    if kind == "threshold":
        a, b = (int(x) for x in params.split(":")[:2])
        return 1 if b * r > a * (n - r) else 0
    if kind == "estimate":
        return r.bit_length() - 1
    if kind == "plurality":
        top = max(counts)
        if counts.count(top) != 1:
            raise ValueError(f"no unique plurality in {counts}")
        return counts.index(top)
    if kind == "circuit":
        return max(counts)  # the benchmark's circuits are MAX trees over all colours
    raise ValueError(f"no ground truth for {spec!r}")


# ---------------------------------------------------------------------------
# Gate: one function per kind of CLI output. A record of the wrong shape
# fails its operation instead of stopping the benchmark.

MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def _exit_gate(rc: int, failed: int) -> int:
    """A non-zero exit fails at least one operation, even if every record looked right."""
    return max(failed, 1 if rc != 0 else 0)


def check_run(spec: str, counts, mode: str):
    """`anonet run`: one JSON record that must agree with the ground truth."""
    expect = truth(spec, counts)

    def check(rc, stdout, files):
        try:
            rec = json.loads(stdout.strip().splitlines()[-1])
            hist = rec["outputs_histogram"]
            if mode == "ones_count":
                outputs_ok = hist.get("1", 0) == expect
            else:
                outputs_ok = hist == {str(expect): sum(counts)}
            ok = (
                rec["oracle_value"] == expect
                and rec["match"] is True
                and rec["stabilized"] is True
                and outputs_ok
            )
            steps = int(rec["total_steps"])
        except (IndexError, *MALFORMED):
            return 1, 1, 0
        return 1, _exit_gate(rc, 0 if ok else 1), steps

    return check


def check_sweep(rows_expected: int, csv_name: str):
    """`anonet sweep`: every CSV row must be stabilized."""

    def check(rc, stdout, files):
        rows = list(csv.DictReader(io.StringIO(files.get(csv_name, ""))))
        bad = sum(1 for row in rows if row.get("stabilized") != "True")
        missing = max(0, rows_expected - len(rows))
        steps = [row.get("total_steps") or "" for row in rows]
        activations = sum(int(v) for v in steps if v.isdigit())
        return rows_expected, _exit_gate(rc, bad + missing), activations

    return check


def check_verify(spec: str, verdicts_expected: int):
    """`anonet verify` of a two-colour protocol: every verdict PASS (SKIPPED
    fails), with the true value."""

    def check(rc, stdout, files):
        bad = 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        for line in lines:
            try:
                rec = json.loads(line)
                counts = [rec["input"].count("0"), rec["input"].count("1")]
                ok = rec["verdict"] == "PASS" and rec["value"] == truth(spec, counts)
            except MALFORMED:
                ok = False
            bad += not ok
        missing = max(0, verdicts_expected - len(lines))
        return verdicts_expected, _exit_gate(rc, bad + missing), 0

    return check


def check_audit(rows_expected: int):
    """`anonet audit --format json`: every row ok."""

    def check(rc, stdout, files):
        bad = 0
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        for line in lines:
            try:
                bad += json.loads(line)["ok"] is not True
            except MALFORMED:
                bad += 1
        missing = max(0, rows_expected - len(lines))
        return rows_expected, _exit_gate(rc, bad + missing), 0

    return check


# ---------------------------------------------------------------------------
# Seeded inputs


def block_spec(counts) -> str:
    return ",".join(f"{c}:{k}" for c, k in enumerate(counts))


def random_counts(rng: random.Random, n: int, k: int) -> list:
    counts = [0] * k
    for _ in range(n):
        counts[rng.randrange(k)] += 1
    return counts


def _percent_counts(n: int, percents, rest: int) -> list:
    """Counts the CLI's `color:p%` blocks give at size n."""
    counts = [0] * (len(percents) + 1)
    for color, p in percents:
        counts[color] = n * p // 100
    counts[rest] = n - sum(counts)
    return counts


def plurality_split(rng: random.Random, sizes) -> str:
    """A 4-colour percentage split with the same unique plurality colour at
    every size, with a margin of at least n/8 so that runs settle quickly."""
    while True:
        order = list(range(4))
        rng.shuffle(order)
        top, second, third = rng.randint(38, 46), rng.randint(22, 28), rng.randint(12, 18)
        percents = list(zip(order[:3], (top, second, third)))
        ok = True
        for n in sizes:
            counts = _percent_counts(n, percents, order[3])
            others = [c for i, c in enumerate(counts) if i != order[0]]
            ok = ok and counts[order[0]] - max(others) >= max(1, n // 8)
        if ok:
            return ",".join(f"{c}:{p}%" for c, p in percents) + f",{order[3]}:rest"


# Many lsb runs at moderate sizes: quiescence times are heavy-tailed, and a
# sum over 160 runs varies far less with the seeded split than one over few.
LSB_SIZES, LSB_SEEDS = (16, 24, 32, 40), 40
# plurality runs end by the window rule, so their length hardly varies
PLURALITY_SIZES, PLURALITY_SEEDS = (8, 12, 16, 20), 10


def sweeps(rng: random.Random) -> list:
    red = rng.randint(40, 60)
    return [
        Invocation(
            ["sweep", "--protocol", "lsb:1", "--graph", "cycle",
             "--sizes", ",".join(map(str, LSB_SIZES)), "--seeds", str(LSB_SEEDS),
             "--input", f"0:{red}%,1:rest", "--output", "lsb.csv", "--summary", "lsb.json"],
            check_sweep(len(LSB_SIZES) * LSB_SEEDS, "lsb.csv"),
            outputs=("lsb.csv", "lsb.json"),
        ),
        Invocation(
            ["sweep", "--protocol", "plurality:4", "--graph", "gnp:0.5",
             "--sizes", ",".join(map(str, PLURALITY_SIZES)), "--seeds", str(PLURALITY_SEEDS),
             "--rewire", "swap:16", "--input", plurality_split(rng, PLURALITY_SIZES),
             "--output", "plurality.csv", "--summary", "plurality.json"],
            check_sweep(len(PLURALITY_SIZES) * PLURALITY_SEEDS, "plurality.csv"),
            outputs=("plurality.csv", "plurality.json"),
        ),
    ]


# Three red agents on a 7-cycle, with 0, 1 and 3 other agents between them.
# Every rotation and reflection reaches the same number of configurations, so
# the seed changes the input but not the amount of work.
CYCLE_PATTERN = (0, 0, 1, 0, 1, 1, 1)


def verify(seed: int) -> list:
    rng = random.Random(seed)
    n = len(CYCLE_PATTERN)
    shift = rng.randrange(n)
    image = CYCLE_PATTERN[shift:] + CYCLE_PATTERN[:shift]
    if rng.randrange(2):
        image = image[::-1]
    return [
        Invocation(
            ["verify", "--protocol", "threshold:2:1", "--graph", f"cycle:{n}",
             "--input", ",".join(map(str, image))],
            check_verify("threshold:2:1", 1),
        ),
        Invocation(
            ["verify", "--protocol", "lsb:2", "--graph", "complete:6", "--input", "0:3,1:3"],
            check_verify("lsb:2", 1),
        ),
        Invocation(
            ["verify", "--protocol", "lsb:2", "--graph", "complete:5", "--all-inputs"],
            check_verify("lsb:2", 2 ** 5),
        ),
    ]


AUDIT_PROTOCOLS = ("lsb:2", "threshold:2:1", "max-gate", "min-gate", "plurality:4",
                   "bit:2:64", "estimate:64")


def audit() -> Invocation:
    # `audit` draws its own run seeds; the workload seed has nothing to vary
    return Invocation(
        ["audit", *AUDIT_PROTOCOLS, "--n", "16", "--format", "json"],
        check_audit(len(AUDIT_PROTOCOLS)),
    )


MAX_TREE = "(max (max 0 1) (max 2 3))\n"


def traced_runs(rng: random.Random) -> list:
    """Two small `anonet run`s with `--trace`: start-up is nearly all their
    time, and they are what covers spec parsing, `circuit:` files and
    `write_trace`."""

    def run(spec, graph, counts, trace, mode="per_node", files=None):
        argv = ["run", "--protocol", spec, "--graph", graph, "--input", block_spec(counts),
                "--seed", str(rng.randrange(1 << 20)), "--trace", trace]
        return Invocation(argv, check_run(spec, counts, mode), files=files or {},
                          outputs=(trace,))

    red = rng.randint(1, 15)
    counts = [1 + c for c in random_counts(rng, 6, 4)]  # every leaf colour present
    return [
        run("lsb:2", "cycle:16", [red, 16 - red], "lsb.trace"),
        run("circuit:max4.circ", "complete:10", counts, "circuit.trace", mode="ones_count",
            files={"max4.circ": MAX_TREE}),
    ]


def engine(seed: int) -> list:
    """Every CLI path that runs the engine; the verifier never runs."""
    rng = random.Random(seed)
    return [*sweeps(rng), audit(), *traced_runs(rng)]


# name -> invocations made from the workload seed; BENCHMARK.json says why each was chosen
WORKLOADS = {"engine": engine, "verify": verify}


def check_exit(rc, stdout, files):
    """An invocation with nothing to check but its exit code."""
    return 1, _exit_gate(rc, 0), 0


# imports everything a workload's invocations import, and runs nothing
WARM_UP = Invocation(["--version"], check_exit)
