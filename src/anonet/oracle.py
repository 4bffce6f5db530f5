"""Exhaustive stabilization checking, budget audits and scaling fits.

`verify_exhaustive` decides the convergence contract on a concrete instance:
it enumerates every configuration reachable from the initial one under all
ordered edge activations, and passes iff every configuration can reach one
that cannot reach a bad configuration. Two backward reachability closures
decide this, and it holds iff every terminal component is correct throughout.
Under any fair schedule the run ends up in a terminal component, so a PASS
certifies stabilization for all fair schedules, not just sampled ones.

Agents are anonymous, so configurations are explored up to the graph's
symmetry: `states_explored` counts multisets on complete graphs, classes
under rotation and reflection on cycles, and labelled configurations on any
other graph, as the result's `symmetry` ("complete" | "cycle" | "none") says.
Each configuration canonicalizes each of its distinct successors once.
Inputs whose initial configurations lie in one orbit get one result, a
FAIL's detail included, so `orbit_key` lets a caller explore each orbit once.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, chain, compress
from operator import itemgetter
from typing import Iterable, Sequence

from .engine import Graph, TransitionTable, map_jobs, match_rule, run

__all__ = [
    "verify_exhaustive",
    "VerifyResult",
    "orbit_key",
    "audit_memory",
    "audit_inputs",
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
        # the rotation and the reflection that start at position s
        images = [(itemgetter(*((s + k) % n for k in range(n))),
                   itemgetter(*((s - k) % n for k in range(n)))) for s in range(n)]

        def least_image(cfg):  # the least image starts at a position with a least state
            low = min(cfg)
            s = cfg.index(low)
            turn, flip = images[s]
            a, b = turn(cfg), flip(cfg)
            least = a if a < b else b
            for _ in range(cfg.count(low) - 1):
                s = cfg.index(low, s + 1)
                turn, flip = images[s]
                a, b = turn(cfg), flip(cfg)
                if a < least:
                    least = a
                if b < least:
                    least = b
            return least

        return "cycle", order, lambda cfg: ordered, least_image
    return _labelled(graph)


def orbit_key(graph: Graph):
    """A function from an input to the canonical form (`_symmetry`) of its
    colours, or None without a reduction. Equal keys mean an automorphism
    maps one input, and so its initial configuration, to the other: with one
    expected value they get one result (`verify_exhaustive`)."""
    symmetry, order, _, canon = _symmetry(graph)
    if symmetry == "none":
        return None
    return lambda inputs: canon(tuple([inputs[v] for v in order]))


def verify_exhaustive(
    protocol,
    graph: Graph,
    inputs: Sequence[int],
    expected,
    *,
    max_configs: int = 10_000_000,
) -> VerifyResult:
    """Exhaustively check stabilization to `expected` from `inputs`.

    Explores the configuration graph up to the graph's symmetry (`_symmetry`)
    and requires every terminal configuration to match the expected output.
    SKIPPED when more than `max_configs` configurations are reachable.
    ValueError, with `run`'s texts, for an input of another length than
    the graph's n or with a colour outside [0, protocol.colors).

    Soundness: a transition reads only states, so an automorphism g maps an
    arc c -> d to g(c) -> g(d), and the orbit of c reaches that of d iff
    c ->* g(d) for some g. So the orbit of a terminal c is terminal.
    Conversely, let c's orbit be terminal and c ->* d; then d ->* g(c) for
    some g, and d ->* g(c) ->* g(d) ->* g^2(c) ->* ... ->* g^k(c) = c with k
    the order of g. Members of an orbit have permuted outputs, which the
    match rule ignores, so the representatives decide the verdict. Starts
    in one orbit have one canonical form, so they run one exploration and
    get one result (`orbit_key`).
    """
    return _explore(protocol, inputs, expected, max_configs, *_symmetry(graph))


def _explore(protocol, inputs, expected, max_configs, symmetry, order, arcs, canon):
    """The verifier over `canon`ical tuples of state ids in node `order`,
    from `run`'s start (`TransitionTable.start`), whose ids depend only on
    the colours present: every input of an orbit starts from one canonical
    configuration and runs one exploration. Configuration i has the arcs
    succ[offsets[i] : offsets[i + 1]]: one to each distinct canonical form of
    its labelled successors, each of which is canonicalized once (two
    activations often give the same one), and none to itself (a null
    activation, or a swap or rotation onto the same form).

    Let W hold the configurations that cannot reach a bad one. PASS iff all
    reach W, iff every terminal component T is correct. (=>) Each reaches
    some T; a correct T lies in W, since nothing leaves T. (<=) If T holds a
    bad b, all of T reaches b, and nothing reachable from T is in W. A FAIL
    moves from an x that cannot reach W to any y in reach(x) that cannot
    reach x, which shrinks reach(x); when none is left, reach(x) is a
    terminal component, and its lowest-index bad member is the evidence."""
    table = TransitionTable(protocol)
    rows, fill = table.rows, table.fill
    start = table.start(len(order), inputs)
    init = canon([start[v] for v in order])
    index = {init: 0}
    configs = [init]
    succ = array("I")
    offsets = array("I", [0])
    for ci, cfg in enumerate(configs):  # configs grows as it is walked: breadth first
        seen = set()  # the labelled successors of cfg so far
        targets = {}  # the indices of their canonical forms but cfg's own, in order
        for u, v in arcs(cfg):
            a, b = cfg[u], cfg[v]
            try:
                pair = rows[a][b]
            except KeyError:
                fill(a, b)
                pair = rows[a][b]
            if not pair:  # a null pair
                continue
            na, nb = pair
            lst = list(cfg)
            lst[u] = na
            lst[v] = nb
            nxt = tuple(lst)
            if nxt in seen:
                continue
            seen.add(nxt)
            ncfg = canon(nxt)
            ni = index.get(ncfg)
            if ni is None:
                ni = len(configs)
                index[ncfg] = ni
                configs.append(ncfg)
                if len(configs) > max_configs:
                    return VerifyResult("SKIPPED", len(configs), expected,
                                        f"reachable set exceeds guard ({max_configs})", symmetry)
            elif ni == ci:
                continue
            targets[ni] = None
        succ.extend(targets)
        offsets.append(len(succ))
    del index

    n_cfg = len(configs)
    cfgs = range(n_cfg)
    counts = array("I", [0]) * (n_cfg + 1)  # succ reversed, by a counting sort
    for w in succ:
        counts[w] += 1
    pred_off = array("I", accumulate(counts))  # where each block ends, then starts
    pred = array("I", [0]) * len(succ)
    for v in cfgs:
        for w in succ[offsets[v] : offsets[v + 1]]:
            pred_off[w] -= 1
            pred[pred_off[w]] = v

    want, target = match_rule(protocol, expected, len(inputs))
    hit = [o == want for o in table.outs]
    bad = bytearray(sum(map(hit.__getitem__, cfg)) != target for cfg in configs)
    doomed = _grow(bytearray(n_cfg), pred_off, pred, *compress(cfgs, bad))
    # W is the rest; y is the first configuration that cannot reach W
    y = _grow(bytearray(n_cfg), pred_off, pred, *compress(cfgs, doomed.translate(_FLIP))).find(0)
    if y < 0:
        return VerifyResult("PASS", n_cfg, expected, "", symmetry)
    while y >= 0:
        x = y
        reach = _grow(bytearray(n_cfg), offsets, succ, x)
        # unmarked: in reach(x) and not reaching x; the last is deepest breadth
        # first, which shortens the descent
        y = _grow(reach.translate(_FLIP), pred_off, pred, x).rfind(0)
    v = next(v for v in compress(cfgs, reach) if bad[v])
    outs = [table.outs[s] for s in configs[v]]
    return VerifyResult("FAIL", n_cfg, expected,
                        f"terminal configuration with outputs {outs}", symmetry)


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # complements a 0/1 bytearray


def _grow(marked, off, adj, *seeds):
    """Mark `seeds` and all they reach along the arcs adj[off[v] : off[v + 1]]
    out of each v; return `marked`."""
    stack = list(seeds)
    for v in stack:
        marked[v] = 1
    while stack:
        v = stack.pop()
        for w in adj[off[v] : off[v + 1]]:
            if not marked[w]:
                marked[w] = 1
                stack.append(w)
    return marked


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
    """Count the distinct states that agents held across sampled runs of
    every (graph, input, seed) combination and compare ceil(log2 count)
    against the declared bit budget.

    The (graph, input) runs are spread over the CPUs (`map_jobs`). The runs
    of each process share one TransitionTable, whose `held` marks exactly
    the initial states and those an activation moved an agent to; the
    states that only the stop rule's look-ahead interned are not counted.
    The count is the union of those states over the processes' tables. An
    input whose length is not its graph's n raises ValueError, as in `run`.
    """
    table = TransitionTable(protocol)
    seeds, input_sets = list(seeds), list(input_sets)

    def held(job) -> list:
        """The states agents held in this process's runs so far, these included."""
        graph, inputs = job
        for seed in seeds:
            run(protocol, graph, inputs, seed=seed, max_steps=max_steps, table=table)
        return list(compress(table.objs, table.held))

    jobs = [(graph, inputs) for graph in graphs for inputs in input_sets]
    count = len(set(chain.from_iterable(map_jobs(held, jobs))))
    measured = max(1, math.ceil(math.log2(count))) if count > 1 else 1
    return AuditReport(protocol.name, protocol.budget_bits, count, measured, note)


def audit_inputs(colors: int, n: int) -> list[list[int]]:
    """The inputs `anonet audit` runs on n agents: with two colours every
    count of colour 0; with k >= 3 the round-robin (a tie when k divides n),
    the round-robin of n - 2 and two more 0s (0 wins), and its mirror (k - 1 wins)."""
    if colors == 2:
        return [[0] * r + [1] * (n - r) for r in range(n + 1)]
    lead = sorted([0, 0] + [i % colors for i in range(n - 2)])
    return [sorted(i % colors for i in range(n)), lead, [colors - 1 - c for c in lead]]


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
    # scipy.stats.linregress computes them (r clipped to [-1, 1]). An exact
    # fit (syy == 0: every mean equal) leaves no residual: r = 1 there gives
    # a standard error of 0.0, where scipy returns NaN, which is not JSON
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - xm) ** 2 for x in xs)
    syy = sum((y - ym) ** 2 for y in ys)
    sxy = sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy))) if syy else 1.0
    slope = sxy / sxx
    return ScalingFit(
        exponent=slope,
        stderr=math.sqrt((1 - r * r) * syy / sxx / (len(xs) - 2)),
        intercept=ym - slope * xm,
        sizes=tuple(sizes),
        means=tuple(means),
    )
