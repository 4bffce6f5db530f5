"""Event-driven executor for pairwise gossip protocols on connected graphs.

A run is a sequence of activations. Each activation picks one ordered edge
(initiator, responder) uniformly at random and applies the protocol's
transition rule to the two endpoint states. Continuous time is bookkept on
the side: every edge carries an independent exponential clock of rate `rate`,
so the superposed process selects edges uniformly and the holding time
between activations is exponential with rate `rate * |E|`.

Randomness follows stream version 2 (`STREAM_VERSION`). Every purpose has its
own `random.Random`, seeded from the string `anonet-2:<purpose>:<seed>`
(`stream`; string seeds go through sha512, the same on every platform):
`graph` (gnp sampling), `inputs` (the block-input shuffle), `schedule`
(activated arcs), `rewire` (swap proposals), `time` (the clock) and `tokens`
(meeting-time start nodes).

- Arcs: the 2|E| ordered edges, arc 2i is edge i as stored and arc 2i+1 its
  reverse (`Graph.arcs`). `arc_chunks` reads raw draws in chunks of 64, 128,
  ... up to CHUNK draws: for 2|E| <= 256, bytes, each masked to the next power
  of two >= 2|E| with values >= 2|E| rejected (two `bytes.translate` calls);
  above, `getrandbits` draws of that width, rejected likewise. Accepted draws
  are exactly uniform. Every chunk size is divisible by 4, so the chunks'
  bytes are those of one long `randbytes` draw: the indices do not depend on
  the chunk sizes, which only spare a short run the draws it never reads.
- Clock: stop rules read steps, never time, so a run stopping at step T
  draws its elapsed time once, Gamma(T, 1/(rate |E|)), and then, with a
  trace only, the T - 1 earlier activation times as sorted uniforms times
  that total: the order statistics of a Poisson process (`clock`).

The arcs of a run are prefix-stable: with a smaller `max_steps` the trace's
arcs are a prefix of the longer run's, rewiring included. Times are a
function of (seed, T) and are not. Identical (protocol, graph, input, seed,
limits) give bit-identical traces and results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Graph",
    "Activation",
    "Trace",
    "RunResult",
    "RewirePolicy",
    "GraphError",
    "ProtocolViolation",
    "TransitionTable",
    "settled",
    "GRAPH_KINDS",
    "build_graph",
    "graph_family",
    "parse_rewire",
    "load_edge_list",
    "write_trace",
    "is_connected",
    "STREAM_VERSION",
    "stream",
    "arc_chunks",
    "clock",
    "match_rule",
    "run",
    "rewire",
    "measure_meeting_time",
]


class GraphError(ValueError):
    """Bad graph specification or a graph violating the model invariants."""


class ProtocolViolation(RuntimeError):
    """A transition produced a state the protocol declares impossible."""


class TransitionTable:
    """The states of one protocol interned as dense int ids, and its rule over
    them: `objs[i]` is state i, `outs[i]` its output, and `rows[a][b]` the
    successor ids when a initiates and b responds, or () for a null pair (one
    that maps to (a, b)), which a run loop skips with one truth test. `fill`
    computes a pair the first time it meets and returns its successor ids,
    for a null pair too; filling eagerly would also meet pairs no run reaches,
    which raise ProtocolViolation for `bit` and `estimate`. So every interned
    state is an initial state or the result of an applied transition. The
    stop rule (`settled`) keeps the pairs it computes ahead of the runs in
    `probed`, uninterned, until `fill` takes them over.
    """

    def __init__(self, protocol):
        self.protocol = protocol
        self.ids: dict = {}
        self.objs, self.outs, self.rows = [], [], []
        self.probed: dict = {}  # (x, y) -> successor states, or the ProtocolViolation raised
        self.closures: dict[frozenset, bool] = {}  # `settled`'s tier (b) verdicts

    def intern(self, state) -> int:
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.objs)
            self.objs.append(state)
            self.outs.append(self.protocol.output(state))
            self.rows.append({})
        return i

    def successors(self, x, y) -> tuple:
        """`protocol.transition(x, y)`, computed once for any two states."""
        a, b = self.ids.get(x), self.ids.get(y)
        if a is not None and b in self.rows[a]:
            return tuple(self.objs[i] for i in self.rows[a][b]) or (x, y)
        if (x, y) not in self.probed:
            try:
                self.probed[x, y] = self.protocol.transition(x, y)
            except ProtocolViolation as exc:
                self.probed[x, y] = exc
        if isinstance(self.probed[x, y], ProtocolViolation):
            raise self.probed[x, y]
        return self.probed[x, y]

    def fill(self, a: int, b: int) -> tuple[int, int]:
        key = self.objs[a], self.objs[b]
        x, y = self.successors(*key)
        self.probed.pop(key, None)
        pair = self.intern(x), self.intern(y)
        self.rows[a][b] = () if pair == (a, b) else pair
        return pair


def _inert(table: TransitionTable, a: int, b: int) -> bool:
    """Whether (a, b) maps to (a, b) or (b, a); if so it is filled (interning nothing)."""
    pair = table.rows[a].get(b)
    if pair is None:
        x, y = table.objs[a], table.objs[b]
        if table.successors(x, y) not in ((x, y), (y, x)):
            return False
        pair = table.fill(a, b)
    return pair in ((), (a, b), (b, a))


def settled(table: TransitionTable, ids: Sequence[int]) -> bool:
    """Whether no output of the configuration `ids` (state ids in `table`) can
    change again, under any schedule and any rewiring: every protocol's stop
    rule (`quiescent`). Let P be the set of states present. It holds if

    (a) every ordered pair (a, b) of P maps to (a, b) or (b, a), counting
        (a, a) only if a is present twice, and, for per-node kinds, all
        present outputs are equal. Then, by induction over activations, the
        multiset of states never changes, so neither do the multiset of
        outputs and the ones-count; when all outputs are equal, swapping
        states changes no agent's output either. Or if
    (b) for per-node kinds, all present outputs equal o, and so do the
        outputs of all states in the closure C of P under all ordered pairs.
        By induction, every state an agent ever holds lies in C.

    Neither tier reads the graph, so both hold under rewiring. A pair that
    raises ProtocolViolation fails the check: a run that meets it raises.
    The table memoizes pairs (`probed`, `rows`) and (b)'s verdicts by P.
    """
    present = frozenset(ids)
    outputs = {table.outs[a] for a in present}
    per_node = table.protocol.match_mode != "ones_count"
    if per_node and len(outputs) > 1:
        return False
    try:
        if all(_inert(table, a, b) for a in present for b in present
               if a != b or ids.count(a) > 1):
            return True
        if per_node and present not in table.closures:
            table.closures[present] = False  # the verdict if a pair raises
            table.closures[present] = _closed(table, present, outputs.pop())
    except ProtocolViolation:
        return False
    return per_node and table.closures[present]


def _closed(table: TransitionTable, present: frozenset, out) -> bool:
    """Whether every state in the closure of `present` under all ordered
    pairs outputs `out`; walked on state objects, so it interns nothing."""
    walk = [table.objs[a] for a in present]
    known = set(walk)
    for i, x in enumerate(walk):  # walk grows as it is read
        for y in walk[: i + 1]:
            for z in (*table.successors(x, y), *table.successors(y, x)):
                if z not in known:
                    if table.protocol.output(z) != out:
                        return False
                    known.add(z)
                    walk.append(z)
    return True


@dataclass
class Graph:
    """Undirected connected graph on nodes 0..n-1.

    Edges are stored as unique (u, v) tuples with u < v, in the order given
    (which fixes the arcs a seed draws). Connectivity is part of the model
    contract and is validated on construction.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    generator_tag: str = "manual"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise GraphError(f"need at least 2 nodes, got {self.n}")
        self.edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not 0 <= u < v < self.n:
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise GraphError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
        if not is_connected(self.n, self.edges):
            raise GraphError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """The 2m ordered edges: arc 2i is edge i, arc 2i + 1 its reverse.
        Built once per graph."""
        return tuple(arc for u, v in self.edges for arc in ((u, v), (v, u)))

    def adjacency(self) -> list[list[int]]:
        return _adjacency(self.n, self.edges)


class Activation(NamedTuple):
    initiator: int
    responder: int
    time: float
    step: int


@dataclass
class Trace:
    activations: list[Activation]
    final_outputs: tuple


@dataclass
class RunResult:
    protocol: str
    n: int
    first_correct_step: Optional[int]
    stabilized: bool
    final_outputs: tuple
    total_steps: int
    elapsed_time: float
    stopped_by: str  # "quiescence" (proved, by the stop rule) | "max_steps" (never stabilized)
    matched: bool
    final_states: tuple = ()
    trace: Optional[Trace] = None


@dataclass(frozen=True)
class RewirePolicy:
    """Connectivity-preserving double edge swaps every `period` activations."""

    kind: str  # "none" | "swap"
    period: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "swap"):
            raise GraphError(f"unknown rewire policy {self.kind!r}")
        if self.kind == "swap" and self.period < 1:
            raise GraphError("swap period must be >= 1")


def parse_rewire(spec: str) -> RewirePolicy:
    if spec == "none":
        return RewirePolicy("none")
    if spec.startswith("swap:"):
        return RewirePolicy("swap", int(spec.split(":", 1)[1]))
    raise GraphError(f"unknown rewire spec {spec!r}")


def _adjacency(n: int, edges: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Each node's neighbours, in the order of `edges`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _reach(adj: Sequence, u: int, stop: Optional[int] = None) -> set:
    """Nodes reachable from `u`, breadth first; may stop early once `stop` is reached."""
    seen, frontier = {u}, {u}
    while frontier and stop not in seen:
        frontier = {w for z in frontier for w in adj[z]} - seen
        seen |= frontier
    return seen


def is_connected(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    """Whether every node reaches node 0."""
    return len(_reach(_adjacency(n, edges), 0)) == n


_GNP_ATTEMPTS = 200


def _cycle(n: int, rng: random.Random):
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return [(i, (i + 1) % n) for i in range(n)]


def _probability(text: str) -> float:
    if not 0 <= float(text) <= 1:
        raise ValueError(f"p must be in [0, 1], got {text}")
    return float(text)


def _gnp(n: int, rng: random.Random, p: float):
    """Every pair an edge with probability p, resampled until connected."""
    for _ in range(_GNP_ATTEMPTS):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if is_connected(n, edges):
            return edges
    raise GraphError(f"gnp:{n}:{p} produced no connected sample in {_GNP_ATTEMPTS} attempts")


# kind -> (parsers of the parameters after n, edges(n, rng, *params)); rng is
# the seed's `graph` stream
GRAPH_KINDS: dict[str, tuple[tuple[Callable, ...], Callable]] = {
    "complete": ((), lambda n, rng: [(u, v) for u in range(n) for v in range(u + 1, n)]),
    "cycle": ((), _cycle),
    "path": ((), lambda n, rng: [(i, i + 1) for i in range(n - 1)]),
    "star": ((), lambda n, rng: [(0, i) for i in range(1, n)]),
    "gnp": ((_probability,), _gnp),
}


def _kind(kind: str, fields: Sequence[str]) -> tuple[Callable, list]:
    """(edges function, parsed parameters) of `kind` given the fields after n."""
    parsers, edges = GRAPH_KINDS.get(kind, (None, None))
    if parsers is None or len(fields) != len(parsers):
        raise GraphError(f"no graph kind {kind!r} with {len(fields)} parameter(s) after n")
    return edges, [parse(f) for parse, f in zip(parsers, fields)]


def build_graph(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a spec `kind:n[:params]`, a `GRAPH_KINDS` kind with
    exactly its parameters (complete:n, cycle:n, path:n, star:n, gnp:n:p),
    or `file:path`. `seed` picks the gnp sample."""
    kind, colon, rest = spec.partition(":")
    if kind == "file" and colon:
        return load_edge_list(rest)
    n, *fields = rest.split(":")
    try:
        edges, params = _kind(kind, fields)
        n = int(n)
    except ValueError as exc:  # GraphError included
        raise GraphError(f"bad graph spec {spec!r}: {exc}") from exc
    if n < 2:
        raise GraphError(f"need at least 2 nodes, got {n}")
    return Graph(n, tuple(edges(n, stream("graph", seed), *params)), spec)


def graph_family(family: str) -> Callable[[int], str]:
    """n -> the spec `kind:n[:params]` of the family `kind[:params]` (a
    `GRAPH_KINDS` spec without its n); ValueError for a bad family."""
    kind, colon, rest = family.partition(":")
    _kind(kind, rest.split(":") if colon else [])
    return lambda n: f"{kind}:{n}{colon}{rest}"


def load_edge_list(path: str) -> Graph:
    """Read a plain-text edge list: one "u v" pair per line, 0-indexed.

    Blank lines are ignored; comments start with '#'.
    """
    edges = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 2 or not all(f.isdecimal() for f in fields):
                    raise GraphError(f"{path}:{lineno}: expected 'u v' with ids >= 0, got {line!r}")
                edges.append(tuple(map(int, fields)))
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    if not edges:
        raise GraphError(f"{path}: no edges")
    return Graph(1 + max(map(max, edges)), tuple(edges), f"file:{path}")


def write_trace(path: str, trace: Trace) -> None:
    """Write a trace file: one "step time initiator responder" line per
    activation, then a final line "outputs o0 o1 ...".
    """
    with open(path, "w", encoding="utf-8") as fh:
        for act in trace.activations:
            fh.write(f"{act.step} {act.time:.9f} {act.initiator} {act.responder}\n")
        fh.write("outputs " + " ".join(str(o) for o in trace.final_outputs) + "\n")


STREAM_VERSION = 2
CHUNK = 4096


def stream(purpose: str, seed: int) -> random.Random:
    """The independent random stream `purpose` of `seed` (see the module docstring)."""
    return random.Random(f"anonet-{STREAM_VERSION}:{purpose}:{seed}")


def arc_chunks(m: int, rng: random.Random) -> Iterator[Sequence[int]]:
    """Uniform arc indices in [0, 2m), from chunks of 64 raw draws of `rng`,
    each chunk twice the last, up to CHUNK (see the module docstring)."""
    two_m = 2 * m
    bits = (two_m - 1).bit_length()
    sizes = chain((64, 128, 256, 512, 1024, 2048), repeat(CHUNK))
    if bits <= 8:
        mask = (1 << bits) - 1
        table = bytes(range(mask + 1)) * (256 >> bits)
        reject = bytes(range(two_m, mask + 1))
        for size in sizes:
            yield rng.randbytes(size).translate(table).translate(None, reject)
    for size in sizes:
        yield [k for k in map(rng.getrandbits, repeat(bits, size)) if k < two_m]


def clock(steps: int, rate_m: float, rng: random.Random, trace: bool = False):
    """(elapsed time of `steps` activations at total rate `rate_m`, the time
    of each activation if `trace` else None)."""
    total = rng.gammavariate(steps, 1.0 / rate_m) if steps else 0.0
    if not trace:
        return total, None
    uniforms = sorted([rng.random() for _ in range(steps - 1)])
    return total, [u * total for u in uniforms] + ([total] if steps else [])


class _Rewirer:
    """A run's edge list, with its adjacency kept across swaps."""

    def __init__(self, edges: Sequence[tuple[int, int]], n: int):
        self.edges = list(edges)
        self.adj = [set(nbrs) for nbrs in _adjacency(n, self.edges)]

    def _move(self, old, new) -> None:
        """Replace the edges `old` by `new` in the adjacency."""
        for u, v in old:
            self.adj[u].remove(v)
            self.adj[v].remove(u)
        for u, v in new:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def swap(self, rng: random.Random) -> tuple[int, ...]:
        """One connectivity-preserving double edge swap: the indices of the
        two replaced edges, or () for a rejected proposal. The three draws
        are made whether or not the proposal is accepted."""
        edges = self.edges
        m = len(edges)
        if m < 2:
            return ()
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        j += j >= i
        flip = rng.randrange(2)
        (u, v), (x, y) = edges[i], edges[j]
        if flip:
            x, y = y, x
        # propose (u,v),(x,y) -> (u,x),(v,y)
        if len({u, v, x, y}) < 4 or x in self.adj[u] or y in self.adj[v]:
            return ()
        old, new = ((u, v), (x, y)), ((u, x), (v, y))
        self._move(old, new)
        # every part left by deleting the old edges holds u, v, x or y, and
        # the new edges join u to x and v to y: connected iff u reaches v
        if v not in _reach(self.adj, u, v):
            self._move(new, old)
            return ()
        edges[i], edges[j] = (min(u, x), max(u, x)), (min(v, y), max(v, y))
        return i, j


def rewire(graph: Graph, policy: RewirePolicy, rng: random.Random) -> Graph:
    """Apply one rewiring event under `policy`, returning a connected graph
    on the same node set (identical graph for policy "none" or a rejected
    proposal). A replaced edge keeps its position, as in `run`."""
    if policy.kind == "none":
        return graph
    rewirer = _Rewirer(graph.edges, graph.n)
    rewirer.swap(rng)
    return Graph(graph.n, tuple(rewirer.edges), graph.generator_tag + "+swap")


def _check_rate(rate: float) -> None:
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be finite and > 0, got {rate}")


def match_rule(protocol, expected: Any, n: int) -> tuple:
    """(want, target): n outputs match `expected` when exactly `target` of
    them equal `want`. Protocols with match_mode "ones_count" match on the
    number of 1 outputs, all others on every output equalling `expected`."""
    if protocol.match_mode == "ones_count":
        return 1, expected
    return expected, n


def run(
    protocol,
    graph: Graph,
    inputs: Sequence[int],
    *,
    seed: int = 0,
    max_steps: int = 10_000_000,
    expected: Any = None,
    rewire_policy: Optional[RewirePolicy] = None,
    rate: float = 1.0,
    record_trace: bool = False,
    on_step: Optional[Callable[[int, list], None]] = None,
    table: Optional[TransitionTable] = None,
) -> RunResult:
    """Execute `protocol` on `graph` until stabilization or `max_steps`.

    The run stops by "quiescence" once `protocol.quiescent(table, ids)`
    (`settled`) proves that no output can change again. The rule is checked
    at step 0, and at every multiple of n activations at which a state
    changed since the last check; with `expected` and a per-node match mode,
    a check while some but not all outputs equal `expected` skips the rule,
    which must fail there (see `ProtocolDef.quiescent`). A run so stopped is
    stabilized if it matches `expected` (`match_rule`) or expected is None.
    Any other run, and every run without a stop rule (`quiescent` None),
    stops by "max_steps", not stabilized. `first_correct_step` is the start
    of the final matching stretch (0: the initial configuration matched);
    None if the run ends unmatched or expected is None.

    Agents hold ids of `table` (pass one to share it across runs); `on_step`
    receives state objects.
    """
    n = graph.n
    if len(inputs) != n:
        raise ValueError(f"input length {len(inputs)} != n {n}")
    colors = dict.fromkeys(inputs)  # each colour once, in order of first occurrence
    for c in colors:
        if not (0 <= c < protocol.colors):
            raise ValueError(f"input color {c} invalid for {protocol.name}")
    _check_rate(rate)
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if table is None:
        table = TransitionTable(protocol)
    elif table.protocol is not protocol:
        raise ValueError("transition table belongs to another protocol")

    initial = {c: table.intern(protocol.init(c)) for c in colors}
    states = [initial[c] for c in inputs]
    objs, outs, rows, fill = table.objs, table.outs, table.rows, table.fill
    quiescent = protocol.quiescent or (lambda table, ids: False)

    m = graph.m
    arcs = graph.arcs
    period = rewire_policy.period if rewire_policy and rewire_policy.kind == "swap" else 0
    if period:
        arcs = list(arcs)  # this run's own arcs, rewired in place
        rewirer, rewire_rng = _Rewirer(graph.edges, n), stream("rewire", seed)

    matched = gated = False
    if expected is not None:
        want, target = match_rule(protocol, expected, n)
        match_count = sum(1 for s in states if outs[s] == want)
        matched = match_count == target
        # per-node outputs differ while 0 < match_count < n: no check then
        # calls the stop rule
        gated = protocol.match_mode != "ones_count"

    streak_start = 0  # where the matching stretch began; read only while matched
    step = 0
    pairs: list[tuple[int, int]] = [] if record_trace else None  # type: ignore
    stopped_by = "max_steps"
    every = record_trace or on_step is not None  # hooks that act at every step
    changed = False  # whether a state changed since the last quiescence check
    never = max_steps + 1
    # No hook, rewiring or check can act before step `due`, so earlier steps
    # skip their tests. It is recomputed at that step, and lowered when
    # `changed` turns true.
    due = 0

    if not (gated and 0 < match_count < n) and quiescent(table, states):
        stopped_by = "quiescence"
    else:
        schedule = chain.from_iterable(arc_chunks(m, stream("schedule", seed)))
        for k in islice(schedule, max_steps):
            u, v = arcs[k]
            step += 1

            a = states[u]
            b = states[v]
            try:
                pair = rows[a][b]
            except KeyError:
                fill(a, b)
                pair = rows[a][b]
            if pair:  # () for a null pair
                na, nb = pair
                if not changed:
                    changed = True
                    due = min(due, step + -step % n)  # the next check, this step included
                if expected is not None:
                    match_count += (outs[na] == want) - (outs[a] == want)
                    match_count += (outs[nb] == want) - (outs[b] == want)
                    if (match_count == target) != matched:
                        matched = not matched
                        streak_start = step
                states[u] = na
                states[v] = nb

            if step >= due:
                if record_trace:
                    pairs.append((u, v))
                if on_step is not None:
                    on_step(step, [objs[s] for s in states])
                if period and step % period == 0:
                    for i in rewirer.swap(rewire_rng):  # the replaced edges
                        x, y = rewirer.edges[i]
                        arcs[2 * i], arcs[2 * i + 1] = (x, y), (y, x)
                if changed and step % n == 0:
                    changed = False
                    if not (gated and 0 < match_count < n) and quiescent(table, states):
                        stopped_by = "quiescence"
                        break
                due = step + 1 if every else min(
                    step - step % period + period if period else never,
                    step - step % n + n if changed else never)

    # a settled run is stabilized if it matches
    stabilized = stopped_by == "quiescence" and (matched or expected is None)

    now, times = clock(step, rate * m, stream("time", seed), record_trace)
    outputs = tuple(outs[s] for s in states)
    return RunResult(
        protocol=protocol.name,
        n=n,
        first_correct_step=streak_start if matched else None,
        stabilized=stabilized,
        final_outputs=outputs,
        total_steps=step,
        elapsed_time=now,
        stopped_by=stopped_by,
        matched=matched if expected is not None else stabilized,
        final_states=tuple(objs[s] for s in states),
        trace=Trace([Activation(u, v, t, i) for i, ((u, v), t) in enumerate(zip(pairs, times), 1)],
                    outputs) if record_trace else None,
    )


@dataclass
class MeetingStats:
    graph: str
    n: int
    trials: int
    mean_steps: float
    stderr_steps: float
    mean_time: float
    stderr_time: float


def measure_meeting_time(
    graph: Graph, trials: int, seed: int = 0, rate: float = 1.0
) -> MeetingStats:
    """Mean activations and elapsed time until two walking tokens interact.

    Tokens start on distinct uniform nodes. When an activated edge has a
    token on exactly one endpoint the token crosses it (swap semantics); the
    trial ends on the first activation whose edge holds both tokens.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_rate(rate)
    edges = graph.edges
    schedule = chain.from_iterable(arc_chunks(len(edges), stream("schedule", seed)))
    time_rng, tokens = stream("time", seed), stream("tokens", seed)
    rate_m = rate * len(edges)
    steps_samples = []
    time_samples = []
    for _ in range(trials):
        a = tokens.randrange(graph.n)
        b = tokens.randrange(graph.n - 1)
        if b >= a:
            b += 1
        steps = 0
        for k in schedule:
            u, v = edges[k >> 1]
            steps += 1
            if (u == a and v == b) or (u == b and v == a):
                break
            if u == a:
                a = v
            elif v == a:
                a = u
            elif u == b:
                b = v
            elif v == b:
                b = u
        steps_samples.append(steps)
        time_samples.append(clock(steps, rate_m, time_rng)[0])

    def mean_se(xs):
        mu = sum(xs) / len(xs)
        if len(xs) < 2:
            return mu, 0.0
        var = sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)
        return mu, (var / len(xs)) ** 0.5

    ms, ses = mean_se(steps_samples)
    mt, set_ = mean_se(time_samples)
    return MeetingStats(graph.generator_tag, graph.n, trials, ms, ses, mt, set_)
