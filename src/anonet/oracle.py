"""Ground truth, exhaustive stabilization checking, and budget audits.

`verify_exhaustive` decides the convergence contract on a concrete instance:
it enumerates every configuration reachable from the initial one under all
ordered edge activations, computes the terminal strongly connected
components of that configuration graph, and passes iff every configuration
in every terminal component gives the correct output everywhere. Under any
fair schedule the run ends up in a terminal component, so a PASS certifies
stabilization for all fair schedules, not just sampled ones.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import circuits as _circuits
from .engine import Graph, TransitionTable, run

__all__ = [
    "oracle_value",
    "verify_exhaustive",
    "VerifyResult",
    "audit_memory",
    "AuditReport",
    "scaling_report",
    "ScalingFit",
]


def oracle_value(function: str, counts: Sequence[int], **params):
    """Direct arithmetic ground truth over per-color counts.

    Functions: "or", "lsb" (c), "threshold" (a, b), "bit" (j), "estimate",
    "max_gate", "min_gate", "plurality", "circuit" (circuit=Circuit).
    Color 0 is the counted color; r is its count.
    """
    n = sum(counts)
    r = counts[0] if counts else 0
    if function == "or":
        ones = n - r
        return 1 if ones > 0 else 0
    if function == "lsb":
        return r % (1 << params["c"])
    if function == "threshold":
        a, b = params["a"], params["b"]
        return 1 if b * r > a * (n - r) else 0
    if function == "bit":
        return (r >> params["j"]) & 1
    if function == "estimate":
        if r == 0:
            return None  # reported as an empty run
        return int(math.floor(math.log2(r)))
    if function == "max_gate":
        return max(counts[0], counts[1])
    if function == "min_gate":
        return min(counts[0], counts[1])
    if function == "plurality":
        top = max(counts)
        winners = [i for i, c in enumerate(counts) if c == top]
        if len(winners) != 1:
            raise ValueError(f"plurality tie between colors {winners}")
        return winners[0]
    if function == "circuit":
        return _circuits.evaluate(params["circuit"], counts)
    raise ValueError(f"unknown oracle function {function!r}")


@dataclass
class VerifyResult:
    verdict: str  # "PASS" | "FAIL" | "SKIPPED"
    states_explored: int
    value: object
    detail: str = ""

    def record(self, protocol: str, graph: str, inputs: Sequence[int]) -> dict:
        return {
            "protocol": protocol,
            "graph": graph,
            "input": "".join(str(c) for c in inputs),
            "verdict": self.verdict,
            "states_explored": self.states_explored,
            "value": self.value,
        }


def _matches(protocol, outputs, expected) -> bool:
    if getattr(protocol, "match_mode", "per_node") == "ones_count":
        return sum(1 for o in outputs if o == 1) == expected
    return all(o == expected for o in outputs)


def verify_exhaustive(
    protocol,
    graph: Graph,
    inputs: Sequence[int],
    expected,
    *,
    max_configs: int = 10_000_000,
) -> VerifyResult:
    """Exhaustively check stabilization to `expected` from `inputs`.

    Builds the reachable configuration graph (arcs labeled by ordered edge
    activations), finds its terminal SCCs iteratively, and requires every
    terminal configuration to match the expected output. SKIPPED when the
    reachable set exceeds `max_configs`.

    A configuration is a tuple of state ids; configuration i has one arc per
    ordered edge, succ[i*d : (i+1)*d].
    """
    ordered = []
    for u, v in graph.edges:
        ordered.append((u, v))
        ordered.append((v, u))
    d = len(ordered)

    table = TransitionTable(protocol)
    rows, fill = table.rows, table.fill
    init = tuple(table.intern(protocol.init(c)) for c in inputs)
    index = {init: 0}
    configs = [init]
    succ = array("I")
    for ci, cfg in enumerate(configs):  # configs grows as it is walked: breadth first
        for u, v in ordered:
            a, b = cfg[u], cfg[v]
            na, nb = rows[a].get(b) or fill(a, b)
            if na == a and nb == b:
                succ.append(ci)
                continue
            lst = list(cfg)
            lst[u] = na
            lst[v] = nb
            ncfg = tuple(lst)
            ni = index.get(ncfg)
            if ni is None:
                ni = len(configs)
                index[ncfg] = ni
                configs.append(ncfg)
                if len(configs) > max_configs:
                    return VerifyResult(
                        "SKIPPED",
                        len(configs),
                        expected,
                        f"reachable set exceeds guard ({max_configs})",
                    )
            succ.append(ni)

    n_cfg = len(configs)
    # Tarjan's SCC algorithm, iterative.
    UNVISITED = -1
    ids = [UNVISITED] * n_cfg
    low = [0] * n_cfg
    on_stack = bytearray(n_cfg)
    stack: list[int] = []
    comp_of = [UNVISITED] * n_cfg
    n_comp = 0
    counter = 0
    for root in range(n_cfg):
        if ids[root] != UNVISITED:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                ids[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            base = v * d
            while pi < d:
                w = succ[base + pi]
                pi += 1
                if ids[w] == UNVISITED:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], ids[w])
            if advanced:
                continue
            work.pop()
            if low[v] == ids[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    terminal = bytearray(1 for _ in range(n_comp))
    for v in range(n_cfg):
        cv = comp_of[v]
        for w in succ[v * d : (v + 1) * d]:
            if comp_of[w] != cv:
                terminal[cv] = 0

    for v in range(n_cfg):
        if not terminal[comp_of[v]]:
            continue
        outs = [table.outs[s] for s in configs[v]]
        if not _matches(protocol, outs, expected):
            return VerifyResult(
                "FAIL",
                n_cfg,
                expected,
                f"terminal configuration with outputs {outs}",
            )
    return VerifyResult("PASS", n_cfg, expected)


@dataclass
class AuditReport:
    protocol: str
    declared_bits: int
    distinct_states: int
    measured_bits: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.measured_bits <= self.declared_bits

    def row(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{self.protocol:<24} declared {self.declared_bits:>2}  measured "
            f"{self.measured_bits:>2} ({self.distinct_states} states)  {verdict}"
            + (f"  [{self.note}]" if self.note else "")
        )


def audit_memory(
    protocol,
    graphs: Iterable[Graph],
    input_sets: Iterable[Sequence[int]],
    *,
    seeds: Iterable[int] = range(5),
    max_steps: int = 200_000,
    note: str = "",
) -> AuditReport:
    """Count the distinct agent states reached across sampled runs of every
    (graph, input, seed) combination and compare ceil(log2 count) against
    the declared bit budget.

    All runs share one TransitionTable, whose interned states are exactly
    the initial states and the results of applied transitions.
    """
    table = TransitionTable(protocol)
    graphs = list(graphs)
    input_sets = list(input_sets)
    for graph in graphs:
        for inputs in input_sets:
            if len(inputs) != graph.n:
                continue
            for seed in seeds:
                run(protocol, graph, inputs, seed=seed, max_steps=max_steps, table=table)
    count = len(table.objs)
    measured = max(1, math.ceil(math.log2(count))) if count > 1 else 1
    return AuditReport(protocol.name, protocol.budget_bits, count, measured, note)


@dataclass
class ScalingFit:
    exponent: float
    stderr: float
    intercept: float
    sizes: tuple
    means: tuple
    excluded: int = 0

    @property
    def ci95(self) -> tuple:
        return (self.exponent - 1.96 * self.stderr, self.exponent + 1.96 * self.stderr)


def scaling_report(samples: dict) -> ScalingFit:
    """Least-squares log-log fit of mean statistic against instance size.

    `samples` maps n -> list of per-run statistics (runs that failed to
    stabilize should be dropped by the caller and passed via excluded).
    """
    sizes = sorted(k for k, v in samples.items() if v)
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes for a scaling fit")
    means = [sum(samples[n]) / len(samples[n]) for n in sizes]
    xs = [math.log(n) for n in sizes]
    ys = [math.log(m) for m in means]
    # ordinary least squares, with r and the slope's standard error as
    # scipy.stats.linregress computes them (r clipped to [-1, 1])
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - xm) ** 2 for x in xs)
    syy = sum((y - ym) ** 2 for y in ys)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy))) if syy else math.nan
    slope = sxy / sxx
    return ScalingFit(
        exponent=slope,
        stderr=math.sqrt((1 - r * r) * syy / sxx / (len(xs) - 2)),
        intercept=ym - slope * xm,
        sizes=tuple(sizes),
        means=tuple(means),
    )
