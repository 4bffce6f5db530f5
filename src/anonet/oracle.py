"""Exhaustive stabilization checking, budget audits and scaling fits.

`verify_exhaustive` decides the convergence contract on a concrete instance:
it enumerates every configuration reachable from the initial one under all
ordered edge activations, computes the terminal strongly connected
components of that configuration graph, and passes iff every configuration
in every terminal component gives the correct output everywhere. Under any
fair schedule the run ends up in a terminal component, so a PASS certifies
stabilization for all fair schedules, not just sampled ones.

Agents are anonymous, so configurations are explored up to the graph's
symmetry: `states_explored` counts multisets on complete graphs, classes
under rotation and reflection on cycles, and labelled configurations on any
other graph, as the result's `symmetry` ("complete" | "cycle" | "none") says.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .engine import Graph, TransitionTable, match_rule, run

__all__ = [
    "verify_exhaustive",
    "VerifyResult",
    "audit_memory",
    "AuditReport",
    "scaling_report",
    "ScalingFit",
]


@dataclass
class VerifyResult:
    verdict: str  # "PASS" | "FAIL" | "SKIPPED"
    states_explored: int  # configurations up to `symmetry`
    value: object
    detail: str = ""
    symmetry: str = "none"  # "complete" | "cycle" | "none"

    def record(self, protocol: str, graph: str, inputs: Sequence[int]) -> dict:
        rec = {
            "protocol": protocol,
            "graph": graph,
            "input": "".join(str(c) for c in inputs),
            "verdict": self.verdict,
            "states_explored": self.states_explored,
            "symmetry": self.symmetry,
            "value": self.value,
        }
        if self.detail:
            rec["detail"] = self.detail
        return rec


def _matches(protocol, outputs, expected) -> bool:
    want, target = match_rule(protocol, expected, len(outputs))
    return sum(1 for o in outputs if o == want) == target


def _labelled(graph: Graph):
    """(symmetry, node order, arcs, canonicalizer) of the unreduced search."""
    arcs = graph.arcs
    return "none", range(graph.n), lambda cfg: arcs, tuple


def _multiset_arcs(cfg) -> list:
    """Arcs of a sorted configuration on a complete graph: one per distinct
    ordered pair of states, (a, b) with a != b, and (a, a) if a occurs twice."""
    firsts = [i for i in range(len(cfg)) if i == 0 or cfg[i] != cfg[i - 1]]
    arcs = [(i, j) for i in firsts for j in firsts if i != j]
    arcs += [(i, i + 1) for i in firsts if i + 1 < len(cfg) and cfg[i + 1] == cfg[i]]
    return arcs


def _symmetry(graph: Graph):
    """The reduction the edges admit, as `_labelled` returns it: on complete
    graphs a configuration is its sorted tuple; on cycles, walked from node 0,
    the least of its n rotations and n reflections; otherwise no reduction."""
    n, adj = graph.n, graph.adjacency()
    if graph.m == n * (n - 1) // 2:
        return "complete", range(n), _multiset_arcs, lambda cfg: tuple(sorted(cfg))
    if all(len(nbrs) == 2 for nbrs in adj):  # connected, so a single cycle
        order = [0, adj[0][0]]
        while len(order) < n:
            a, b = adj[order[-1]]
            order.append(b if a == order[-2] else a)
        ordered = [arc for i in range(n) for arc in ((i, (i + 1) % n), ((i + 1) % n, i))]
        images = [(s, itemgetter(*((s + k) % n for k in range(n)))) for s in range(n)]
        images += [(s, itemgetter(*((s - k) % n for k in range(n)))) for s in range(n)]

        def least_image(cfg):  # the least image starts at position s with a least state
            low = min(cfg)
            return min([g(cfg) for s, g in images if cfg[s] == low])

        return "cycle", order, lambda cfg: ordered, least_image
    return _labelled(graph)


def verify_exhaustive(
    protocol,
    graph: Graph,
    inputs: Sequence[int],
    expected,
    *,
    max_configs: int = 10_000_000,
) -> VerifyResult:
    """Exhaustively check stabilization to `expected` from `inputs`.

    Builds the reachable configuration graph up to the graph's symmetry
    (`_symmetry`), finds its terminal SCCs iteratively, and requires every
    terminal configuration to match the expected output. SKIPPED when more
    than `max_configs` configurations are reachable up to symmetry.

    Soundness: a transition reads only states, so an automorphism g maps an
    arc c -> d to g(c) -> g(d), and the orbit of c reaches that of d iff
    c ->* g(d) for some g. So the orbit of a terminal c is terminal.
    Conversely, let c's orbit be terminal and c ->* d; then d ->* g(c) for
    some g, and d ->* g(c) ->* g(d) ->* g^2(c) ->* ... ->* g^k(c) = c with k
    the order of g. Members of an orbit have permuted outputs, which
    `_matches` ignores, so the representatives decide the verdict.
    """
    return _explore(protocol, inputs, expected, max_configs, *_symmetry(graph))


def _explore(protocol, inputs, expected, max_configs, symmetry, order, arcs, canon):
    """The verifier over `canon`ical tuples of state ids in node `order`;
    configuration i has the arcs succ[offsets[i] : offsets[i + 1]]. A null
    activation stores no arc: a self-loop changes no SCC, nor whether an
    SCC is terminal."""
    table = TransitionTable(protocol)
    rows, fill = table.rows, table.fill
    start = [table.intern(protocol.init(c)) for c in inputs]
    init = canon([start[v] for v in order])
    index = {init: 0}
    configs = [init]
    succ = array("I")
    offsets = array("I", [0])
    for ci, cfg in enumerate(configs):  # configs grows as it is walked: breadth first
        for u, v in arcs(cfg):
            a, b = cfg[u], cfg[v]
            na, nb = rows[a].get(b) or fill(a, b)
            if na == a and nb == b:
                continue
            lst = list(cfg)
            lst[u] = na
            lst[v] = nb
            ncfg = canon(lst)
            ni = index.get(ncfg)
            if ni is None:
                ni = len(configs)
                index[ncfg] = ni
                configs.append(ncfg)
                if len(configs) > max_configs:
                    return VerifyResult("SKIPPED", len(configs), expected,
                                        f"reachable set exceeds guard ({max_configs})", symmetry)
            succ.append(ni)
        offsets.append(len(succ))

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
            base = offsets[v]
            deg = offsets[v + 1] - base
            while pi < deg:
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
        for w in succ[offsets[v] : offsets[v + 1]]:
            if comp_of[w] != cv:
                terminal[cv] = 0

    for v in range(n_cfg):
        if not terminal[comp_of[v]]:
            continue
        outs = [table.outs[s] for s in configs[v]]
        if not _matches(protocol, outs, expected):
            return VerifyResult("FAIL", n_cfg, expected,
                                f"terminal configuration with outputs {outs}", symmetry)
    return VerifyResult("PASS", n_cfg, expected, "", symmetry)


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


def scaling_report(samples: dict) -> ScalingFit:
    """Least-squares log-log fit of mean statistic against instance size.

    `samples` maps n -> list of per-run statistics (runs that failed to
    stabilize should be dropped by the caller).
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
