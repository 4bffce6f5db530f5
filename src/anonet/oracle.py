"""Exhaustive stabilization checking, certified budget audits and scaling fits.

`verify_exhaustive` decides the convergence contract on a concrete instance:
it enumerates every configuration reachable from the initial one under all
ordered edge activations, and one Tarjan pass checks that every terminal
component (a strongly connected component no arc leaves) is correct
throughout. Under any fair schedule a run ends up in a terminal component and
visits all of it forever, so a PASS certifies stabilization for all of them.

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
from itertools import islice
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .engine import Graph, ProtocolViolation, TransitionTable, closure, match_rule

__all__ = [
    "verify_exhaustive",
    "VerifyResult",
    "orbit_key",
    "audit_memory",
    "AuditReport",
    "MAX_AUDIT_MEMBERS",
    "scaling_report",
    "ScalingFit",
]


class VerifyResult(NamedTuple):
    verdict: str  # "PASS" | "FAIL" | "SKIPPED"
    states_explored: int  # configurations up to `symmetry`
    value: object
    detail: str = ""
    symmetry: str = "none"  # "complete" | "cycle" | "none"

    def record(self, protocol: str, graph: str, inputs: Sequence[int]) -> dict:
        rec = {"protocol": protocol, "graph": graph, "input": "".join(str(c) for c in inputs),
               **self._asdict()}
        if not self.detail:
            del rec["detail"]
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

    PASS iff every terminal component is correct: each of its members
    matches `expected`. A fair run enters some terminal component, each one
    for some run, and then visits all its members forever. A FAIL's evidence
    is the lowest-index bad member of the first terminal component that the
    pass completes (`_first_bad_terminal`)."""
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

    want, target = match_rule(protocol, expected, len(inputs))
    hit = [o == want for o in table.outs]
    v = _first_bad_terminal(offsets, succ,
                            lambda v: sum(map(hit.__getitem__, configs[v])) != target)
    if v < 0:
        return VerifyResult("PASS", len(configs), expected, "", symmetry)
    outs = [table.outs[s] for s in configs[v]]
    return VerifyResult("FAIL", len(configs), expected,
                        f"terminal configuration with outputs {outs}", symmetry)


def _first_bad_terminal(offsets, succ, bad) -> int:
    """The lowest-index `bad` member of the first terminal component that
    Tarjan's pass from 0, which reaches every v, completes, or -1. A component
    completes after all it reaches, so it is terminal iff none of its members
    has an arc succ[offsets[v] : offsets[v + 1]] into a completed one."""
    done = len(offsets)  # above every place on the stack, which numbers v while it is there
    low = array("I", [0]) * (done - 1)  # 0 until reached, then the low link; done once completed
    leaves = bytearray(done - 1)  # v has an arc into a completed component
    stack, path = array("I", [0]), array("I")  # path: (v, arc, place) above v
    v, i, place = 0, 0, 1
    low[0] = 1
    while True:
        end = offsets[v + 1]
        while i < end:
            w = succ[i]
            k = low[w]
            if not k:  # descend, and read this arc again on the way back
                path.extend((v, i, place))
                stack.append(w)
                v, i, end = w, offsets[w], offsets[w + 1]
                low[w] = place = len(stack)
                continue
            i += 1
            if k == done:
                leaves[v] = 1
            elif k < low[v]:
                low[v] = k
        if low[v] == place:  # v's component: v and all above it on the stack
            members = stack[place - 1 :]
            del stack[place - 1 :]
            for w in members:
                low[w] = done
            if not any(map(leaves.__getitem__, members)) and any(map(bad, members)):
                return min(filter(bad, members))
        if not path:
            return -1
        v, i, place = path[-3:]
        del path[-3:]


# the most members `_closure` collects before the audit stops with SKIPPED.
# The walk reads each pair of members, so its time grows with their square:
# on a 2-core 2.0 GHz Xeon, `lsb:10` closes this many states in ~5.7 s, and
# `lsb:c` for any larger c stops past them in ~1.5 s. The largest closures
# of the README's table, 1,618 states and 1,428 plurality cores, fit.
MAX_AUDIT_MEMBERS = 1 << 11


class AuditReport(NamedTuple):
    protocol: str
    declared_bits: int
    distinct_states: int
    measured_bits: int
    note: str = ""
    closed: bool = True  # else the walk stopped early and the count is a lower bound

    @property
    def ok(self) -> bool:
        return self.measured_bits <= self.declared_bits

    @property
    def verdict(self) -> str:
        return "FAIL" if not self.ok else "PASS" if self.closed else "SKIPPED"

    def record(self) -> dict:
        rec = {**self._asdict(), "ok": self.ok}
        if self.closed:
            del rec["closed"]
        return rec

    def row(self) -> str:
        return (
            f"{self.protocol:<24} declared {self.declared_bits:>2}  measured "
            f"{self.measured_bits:>2} ({'' if self.closed else 'at least '}"
            f"{self.distinct_states} states)  {self.verdict}"
            + (f"  [{self.note}]" if self.note else "")
        )


def audit_memory(protocols: Iterable) -> list[AuditReport]:
    """One report per protocol: the size of its closure (`_closure`), times
    its `core`'s spread if it has one, and its width, ceil(log2 count) bits
    and at least 1, against the declared bit budget. Every state that any
    run reaches, on any graph and under any rewiring, lies in the closure,
    so the count is an upper bound and a PASS certifies the budget. A walk
    that `_closure` cut short (`closed` False) counts a lower bound: FAIL
    past the budget, which it can only pass further, else SKIPPED."""
    reports = []
    for protocol in protocols:
        spread = protocol.core[1] if protocol.core else 1
        count = len(_closure(protocol)) * spread
        note = (f"stopped past 2^{protocol.budget_bits} states"
                if count > 1 << protocol.budget_bits else
                f"stopped past the guard of {MAX_AUDIT_MEMBERS:,} members"
                if count > MAX_AUDIT_MEMBERS * spread else "")
        reports.append(AuditReport(protocol.name, protocol.budget_bits, count,
                                   max(1, (count - 1).bit_length()), note, not note))
    return reports


def _closure(protocol) -> set:
    """The `closure` of the initial states under all ordered pairs: a reachable
    state is an initial state or a result of two reachable ones. A pair that
    raises ProtocolViolation is skipped, as a run that meets it raises. With
    a `core`, every state is projected, each result included. The walk stops
    at the first member past MAX_AUDIT_MEMBERS, or past 2^budget_bits states
    counted with the core's spread, and returns the members so far."""
    project, spread = protocol.core or ((lambda s: s), 1)
    most = min(MAX_AUDIT_MEMBERS, (1 << protocol.budget_bits) // spread)

    def successors(a, b):
        for x, y in ((a, b), (b, a)):
            try:
                pair = protocol.transition(x, y)
            except ProtocolViolation:
                continue
            yield from map(project, pair)

    start = (project(protocol.init(c)) for c in range(protocol.colors))
    return set(islice(closure(start, successors), most + 1))


class ScalingFit(NamedTuple):
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
