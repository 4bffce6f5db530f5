"""Event-driven executor for pairwise gossip protocols on connected graphs.

A run is a sequence of activations. Each activation picks one ordered edge
(initiator, responder) uniformly at random and applies the protocol's
transition rule to the two endpoint states. Continuous time is bookkept on
the side: every edge carries an independent exponential clock of rate 1, so
the superposed process selects edges uniformly and the holding time between
activations is exponential with rate |E|.

Randomness follows stream version 2 (`STREAM_VERSION`). Every purpose has its
own `random.Random`, seeded from the string `anonet-2:<purpose>:<seed>`
(`stream`; string seeds go through sha512, the same on every platform):
`graph` (gnp sampling), `inputs` (the block-input shuffle), `schedule`
(activated arcs), `rewire` (swap proposals), `time` (the clock) and `tokens`
(meeting-time start nodes).

- Arcs: `schedule` alone defines them, as (arcs, draws): step t activates
  arcs[k] for the t-th draw k. Arc 2i is edge i as stored and arc 2i+1 its
  reverse (`Graph.arcs`); with a swap period p, one double edge swap is
  tried on a copy of them after every p draws. `arc_chunks` reads raw draws
  in chunks of 64, 128, ... up to CHUNK draws: for 2|E| <= 256, bytes, each
  masked to the next power of two >= 2|E| with values >= 2|E| rejected (two
  `bytes.translate` calls); above, `getrandbits` draws of that width,
  rejected likewise. Accepted draws are exactly uniform. Every chunk size is
  divisible by 4, so the chunks' bytes are those of one long `randbytes`
  draw: the indices do not depend on the chunk sizes, which only spare a
  short run the draws it never reads.
- Clock: stop rules read steps, never time, so a run stopping at step T
  draws its elapsed time once, Gamma(T, 1/|E|), and then, with a
  trace only, the T - 1 earlier activation times as sorted uniforms times
  that total: the order statistics of a Poisson process (`clock`).

The arcs of a run are prefix-stable: with a smaller `max_steps` the trace's
arcs are a prefix of the longer run's, rewiring included. Times are a
function of (seed, T) and are not. Identical (protocol, graph, input, seed,
limits) give bit-identical traces and results.
"""

from __future__ import annotations

import random
from contextlib import suppress
from functools import cached_property
from itertools import chain, combinations, islice, repeat
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Graph",
    "Activation",
    "RunResult",
    "GraphError",
    "ProtocolViolation",
    "TransitionTable",
    "settled",
    "closure",
    "GRAPH_KINDS",
    "MAX_EDGES",
    "build_graph",
    "graph_family",
    "parse_decimal",
    "parse_rewire",
    "load_edge_list",
    "write_trace",
    "is_connected",
    "STREAM_VERSION",
    "stream",
    "arc_chunks",
    "clock",
    "schedule",
    "match_rule",
    "run",
    "map_jobs",
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
    for a null pair too; filling eagerly would also meet pairs no run
    reaches, which raise ProtocolViolation for `bit` and `estimate`. A
    violating pair is never stored, so each request raises afresh. The stop
    rule (`settled`) fills the pairs it looks ahead at like any others, so
    not every interned state is one an agent held. `verdicts` is the stop
    rule's memo, keyed by the set of states present. The runs that share a
    table (a sweep's in one process) share its fills and its memo.
    """

    def __init__(self, protocol):
        self.protocol = protocol
        self.ids: dict = {}
        self.objs, self.outs, self.rows = [], [], []
        self.verdicts: dict[frozenset, list] = {}  # `settled`'s, by the states present

    def intern(self, state) -> int:
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.objs)
            self.objs.append(state)
            self.outs.append(self.protocol.output(state))
            self.rows.append({})
        return i

    def start(self, n: int, inputs: Sequence[int]) -> list[int]:
        """The ids of the initial configuration `inputs` of n agents, interned in
        colour order, so that they depend only on the colours present; a
        ValueError for another length or a colour outside [0, protocol.colors)."""
        if len(inputs) != n:
            raise ValueError(f"input length {len(inputs)} != n {n}")
        colors = sorted(set(inputs))
        for c in colors:
            if not (0 <= c < self.protocol.colors):
                raise ValueError(f"input color {c} invalid for {self.protocol.name}")
        initial = {c: self.intern(self.protocol.init(c)) for c in colors}
        return [initial[c] for c in inputs]

    def fill(self, a: int, b: int) -> tuple[int, int]:
        """The successor ids of (a, b), for a null pair too, from `rows`, or
        computed and stored there if the pair is new."""
        pair = self.rows[a].get(b)
        if pair is None:
            x, y = self.protocol.transition(self.objs[a], self.objs[b])
            pair = self.intern(x), self.intern(y)
            self.rows[a][b] = () if pair == (a, b) else pair
        return pair or (a, b)


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
    The rule fills the pairs it reads in `table`, as a run does. Only (a)'s
    self pairs depend on more than P, so
    `table.verdicts[P]` keeps [whether (a) holds but for them, (b)'s verdict
    or None until a call needs it], and a call with a known P reads only the
    self pairs of the states present twice. A pair of P that raises makes
    both False, whichever pair is read first: (b) reads every pair of P
    before it can hold.
    """
    present = frozenset(ids)
    fill, outs = table.fill, table.outs
    try:
        verdict = table.verdicts.get(present)
        if verdict is None:
            # False for both if the outputs differ or a pair raises
            verdict = table.verdicts[present] = [False, False]
            per_node = table.protocol.match_mode != "ones_count"
            if not per_node or len({outs[a] for a in present}) == 1:
                verdict[:] = (all(fill(a, b) in ((a, b), (b, a))
                                  for a in present for b in present if a != b),
                              None if per_node else False)
        if verdict[0] and all(fill(a, a) == (a, a) for a in present if ids.count(a) > 1):
            return True
        if verdict[1] is None:
            verdict[1] = False  # if a pair raises
            out = outs[ids[0]]
            verdict[1] = all(outs[c] == out for c in closure(
                present, lambda a, b: (*fill(a, b), *fill(b, a))))
    except ProtocolViolation:
        return False
    return verdict[1]


def closure(start: Iterable, successors: Callable[[Any, Any], Iterable]) -> Iterator:
    """Each member of the closure of `start` once, `start` first: a member is
    in `start` or among `successors(a, b)` of two members, read once for each
    unordered pair {a, b}, a == b included. Lazy: a consumer that stops early
    (`settled`'s tier (b)) reads no further pair."""
    walk = list(dict.fromkeys(start))
    known = set(walk)
    yield from walk
    for i, a in enumerate(walk):  # walk grows as it is read
        for b in walk[: i + 1]:
            for c in successors(a, b):
                if c not in known:
                    known.add(c)
                    walk.append(c)
                    yield c


class Graph:
    """Undirected connected graph on nodes 0..n-1.

    Edges are stored as unique (u, v) tuples with u < v, in the order given
    (which fixes the arcs a seed draws). Connectivity is part of the model
    contract and is validated on construction.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 generator_tag: str = "manual") -> None:
        self.n, self.generator_tag = n, generator_tag
        if self.n < 2:
            raise GraphError(f"need at least 2 nodes, got {self.n}")
        self.edges = tuple((min(u, v), max(u, v)) for u, v in edges)
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


class RunResult(NamedTuple):
    """What `run` returns; `trace`, with `record_trace` only, is the list of
    the run's activations, which `write_trace` writes with `final_outputs`."""

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
    trace: Optional[list[Activation]] = None


def parse_decimal(text: str) -> int:
    """The integer `text` writes in ASCII digits 0-9 alone, every spec's one
    integer syntax: a sign, an underscore or another script's digit is a ValueError."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"expected an integer >= 0 in digits 0-9, got {text!r}")


def parse_rewire(spec: str) -> int:
    """The swap period of a `--rewire` spec: 0 for "none", p for "swap:p"."""
    if spec == "none":
        return 0
    kind, _, period = spec.partition(":")
    with suppress(ValueError):
        if kind == "swap" and parse_decimal(period) >= 1:
            return int(period)
    raise ValueError("expected none or swap:p with p >= 1")


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
    """Whether every node reaches node 0; fewer than n - 1 edges fail before
    the adjacency, which a huge node id would make huge, is built."""
    return len(edges) >= n - 1 and len(_reach(_adjacency(n, edges), 0)) == n


_GNP_ATTEMPTS = 200


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
    raise GraphError(f"no connected sample in {_GNP_ATTEMPTS} attempts")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# kind -> (parsers of the parameters after n, edges(n, rng, *params), the
# smallest n, the largest edge count of n nodes); rng is the seed's `graph`
# stream. `build_graph` and `graph_family` check both sizes before building
GRAPH_KINDS: dict[str, tuple[tuple[Callable, ...], Callable, int, Callable[[int], int]]] = {
    "complete": ((), lambda n, rng: list(combinations(range(n), 2)), 2, _pairs),
    "cycle": ((), lambda n, rng: [(i, (i + 1) % n) for i in range(n)], 3, lambda n: n),
    "path": ((), lambda n, rng: [(i, i + 1) for i in range(n - 1)], 2, lambda n: n - 1),
    "star": ((), lambda n, rng: [(0, i) for i in range(1, n)], 2, lambda n: n - 1),
    "gnp": ((_probability,), _gnp, 2, _pairs),
}
# a built graph peaks at ~275 bytes per edge (its edges, arcs and adjacency),
# so this many take ~2.7 GB
MAX_EDGES = 10_000_000


def _kind(kind: str, fields: Sequence[str]) -> tuple[Callable, list]:
    """(edges function, parsed parameters) of `kind` given the fields after n."""
    parsers, edges, *_ = GRAPH_KINDS.get(kind, (None, None))
    if parsers is None or len(fields) != len(parsers):
        raise GraphError(f"no graph kind {kind!r} with {len(fields)} parameter(s) after n")
    return edges, [parse(f) for parse, f in zip(parsers, fields)]


def _bounded(spec: str, kind: str, n: int) -> str:
    """`spec`, or a GraphError if `kind` has no graph on n nodes or one that
    may have more than MAX_EDGES edges: checked before anything is built."""
    least, most = GRAPH_KINDS[kind][2:]
    if n < least:
        raise GraphError(f"bad graph spec {spec!r}: need at least {least} nodes, got {n}")
    if most(n) > MAX_EDGES:
        raise GraphError(f"graph {spec!r} may have {most(n):,} edges, over the limit of "
                         f"{MAX_EDGES:,}")
    return spec


def build_graph(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a spec `kind:n[:params]`, a `GRAPH_KINDS` kind with
    exactly its parameters (complete:n, cycle:n, path:n, star:n, gnp:n:p),
    or `file:path`. `seed` picks the gnp sample. `_bounded` checks n against
    its kind before anything is built; every bad spec but one over the edge
    limit is a GraphError `bad graph spec '...': ...` that names it."""
    kind, colon, rest = spec.partition(":")
    if kind == "file" and colon:
        return load_edge_list(rest)
    n, *fields = rest.split(":")
    try:
        edges, params = _kind(kind, fields)
        n = parse_decimal(n)
    except ValueError as exc:  # GraphError included
        raise GraphError(f"bad graph spec {spec!r}: {exc}") from exc
    _bounded(spec, kind, n)
    try:  # a gnp sample never connected
        return Graph(n, tuple(edges(n, stream("graph", seed), *params)), spec)
    except GraphError as exc:
        raise GraphError(f"bad graph spec {spec!r}: {exc}") from exc


def graph_family(family: str) -> Callable[[int], str]:
    """n -> the spec `kind:n[:params]` of the family `kind[:params]` (a
    `GRAPH_KINDS` spec without its n); ValueError for a bad family, and a
    GraphError for an n that `_bounded` rejects."""
    kind, colon, rest = family.partition(":")
    _kind(kind, rest.split(":") if colon else [])
    return lambda n: _bounded(f"{kind}:{n}{colon}{rest}", kind, n)


def load_edge_list(path: str) -> Graph:
    """Read a plain-text edge list: one "u v" pair per line, 0-indexed.

    Blank lines are ignored; comments start with '#'. At most MAX_EDGES
    edges: one more is a GraphError as soon as it is read."""
    edges = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    u, v = map(parse_decimal, line.split())
                except ValueError as exc:
                    raise GraphError(f"{path}:{lineno}: expected 'u v' with ids >= 0, "
                                     f"got {line!r}") from exc
                if len(edges) == MAX_EDGES:
                    raise GraphError(f"{path}:{lineno}: over the limit of {MAX_EDGES:,} edges")
                edges.append((u, v))
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    if not edges:
        raise GraphError(f"{path}: no edges")
    return Graph(1 + max(map(max, edges)), tuple(edges), f"file:{path}")


def write_trace(fh, result: RunResult) -> None:
    """Write the trace file of `result`, a run with `record_trace`, to the
    open text file `fh`: one "step time initiator responder" line per
    activation, then a final line "outputs o0 o1 ...".
    """
    for act in result.trace:
        fh.write(f"{act.step} {act.time:.9f} {act.initiator} {act.responder}\n")
    fh.write("outputs " + " ".join(str(o) for o in result.final_outputs) + "\n")


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
    """A run's arcs (a list of `Graph.arcs`) and adjacency, rewired in place."""

    def __init__(self, graph: Graph):
        self.arcs = list(graph.arcs)
        self.adj = [set(nbrs) for nbrs in graph.adjacency()]

    def _move(self, old, new) -> None:
        """Replace the edges `old` by `new` in the adjacency."""
        for u, v in old:
            self.adj[u].remove(v)
            self.adj[v].remove(u)
        for u, v in new:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def swap(self, rng: random.Random) -> bool:
        """One connectivity-preserving double edge swap of edges i and j, which
        rewrites arcs 2i, 2i + 1, 2j and 2j + 1; False for a rejected proposal.
        The three draws are made whether or not the proposal is accepted."""
        arcs = self.arcs
        m = len(arcs) // 2
        if m < 2:
            return False
        i = rng.randrange(m)
        j = rng.randrange(m - 1)
        j += j >= i
        flip = rng.randrange(2)
        (u, v), (x, y) = arcs[2 * i], arcs[2 * j]
        if flip:
            x, y = y, x
        # propose (u,v),(x,y) -> (u,x),(v,y)
        if len({u, v, x, y}) < 4 or x in self.adj[u] or y in self.adj[v]:
            return False
        old, new = ((u, v), (x, y)), ((u, x), (v, y))
        self._move(old, new)
        # every part left by deleting the old edges holds u, v, x or y, and
        # the new edges join u to x and v to y: connected iff u reaches v
        if v not in _reach(self.adj, u, v):
            self._move(new, old)
            return False
        for k, (p, q) in ((2 * i, sorted((u, x))), (2 * j, sorted((v, y)))):
            arcs[k], arcs[k + 1] = (p, q), (q, p)
        return True


def schedule(graph: Graph, seed: int, swap_period: int = 0):
    """(arcs, draws) of `seed` on `graph`: step t activates arcs[k] for the
    t-th draw k, read as k is drawn, since with `swap_period` p >= 1 one swap
    is tried on this list of arcs between each p draws and the next."""
    draws = chain.from_iterable(arc_chunks(graph.m, stream("schedule", seed)))
    if not swap_period:
        return graph.arcs, draws
    rewirer, rng = _Rewirer(graph), stream("rewire", seed)

    def periods():
        while True:
            yield islice(draws, swap_period)
            rewirer.swap(rng)

    return rewirer.arcs, chain.from_iterable(periods())


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
    swap_period: int = 0,
    record_trace: bool = False,
    table: Optional[TransitionTable] = None,
) -> RunResult:
    """Execute `protocol` on `graph` until stabilization or `max_steps`.

    The run stops by "quiescence" once `protocol.quiescent(table, ids)`
    (`settled`) proves that no output can change again. The rule is checked
    at step 0, and at every multiple of n activations at which a state
    changed since the last check. Every run counts the outputs that match
    `expected` (`match_rule`). For a per-node match mode, a check while some
    but not all outputs equal it skips the rule, which must fail there (see
    `ProtocolDef.quiescent`). No output is None, so a run without `expected`
    matches nothing and calls the rule at every check. A run so stopped is
    stabilized if it matches `expected` or expected is None; any other run
    stops by "max_steps", not stabilized. `first_correct_step` is the start
    of the final matching stretch (0: the initial configuration matched);
    None if the run ends unmatched. `elapsed_time` is the time of the last
    activation, every edge's clock running at rate 1 (`clock`).

    The activations are `schedule(graph, seed, swap_period)`, which tries a
    double edge swap every `swap_period` of them (0: none). The step loop
    does only the pair lookup, the match bookkeeping and the check at step
    `due`; a trace's arcs are drawn from the schedule again after the run.
    Agents hold ids of `table`, which runs may share.
    """
    n = graph.n
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if swap_period < 0:
        raise ValueError(f"swap_period must be >= 0, got {swap_period}")
    if table is None:
        table = TransitionTable(protocol)
    elif table.protocol is not protocol:
        raise ValueError("transition table belongs to another protocol")

    states = table.start(n, inputs)
    objs, outs, rows, fill = table.objs, table.outs, table.rows, table.fill

    # one output count for every run; no output is None, so a run without
    # `expected` matches nothing
    want, target = match_rule(protocol, expected, n)
    match_count = sum(1 for s in states if outs[s] == want)
    matched = match_count == target
    # per-node outputs differ while 0 < match_count < n: no check then
    # calls the stop rule
    gated = protocol.match_mode != "ones_count"

    streak_start = 0  # where the matching stretch began; read only while matched
    step = 0
    stopped_by = "max_steps"
    # The step of the next check: `never` until a state changes, then the
    # first multiple of n from that step on, and `never` again once checked.
    due = never = max_steps + 1

    arcs, draws = schedule(graph, seed, swap_period)
    draws = islice(draws, max_steps)
    while True:  # the check at step 0, then one at each step `due`
        if not (gated and 0 < match_count < n) and protocol.quiescent(table, states):
            stopped_by = "quiescence"
            break
        for k in draws:
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
                if due == never:
                    due = step + -step % n
                match_count += (outs[na] == want) - (outs[a] == want)
                match_count += (outs[nb] == want) - (outs[b] == want)
                if (match_count == target) != matched:
                    matched = not matched
                    streak_start = step
                states[u] = na
                states[v] = nb

            if step == due:
                due = never
                break
        else:  # all max_steps activations done
            break

    # a settled run is stabilized if it matches
    stabilized = stopped_by == "quiescence" and (matched or expected is None)

    now, times = clock(step, graph.m, stream("time", seed), record_trace)
    outputs = tuple(outs[s] for s in states)
    if record_trace:  # the run's arcs, drawn again: only the graph, seed and period fix them
        arcs, draws = schedule(graph, seed, swap_period)
        activations = [Activation(*arcs[k], t, i) for i, (t, k) in enumerate(zip(times, draws), 1)]
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
        trace=activations if record_trace else None,
    )


def map_jobs(job: Callable, jobs: Sequence) -> list:
    """`[job(x) for x in jobs]`, computed on every CPU this process may use.

    With w = min(len(os.sched_getaffinity(0)), len(jobs)) >= 2, the process
    forks w - 1 workers. Worker i computes jobs[i::w] while the process
    computes jobs[0::w], and each worker sends its results back pickled
    through a pipe. So jobs must be independent, and a result must not
    depend on the process that computes it: whatever else a job changes is
    lost in a worker. If jobs raise, the exception of the lowest such job is
    raised, as the loop would raise it. A worker that ends without sending
    its results raises ChildProcessError. stdout and stderr are flushed
    before the first fork, and a worker leaves only by `os._exit`, so it
    writes out no buffer it inherited. A worker exits between jobs once its
    parent is gone, and every worker is reaped before this returns or
    raises. With one CPU, fewer than 2 jobs or no `os.fork`, it is the
    loop, and forks nothing.
    """
    import os
    import pickle
    import signal
    import sys

    jobs = list(jobs)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    w = min(cpus, len(jobs)) if hasattr(os, "fork") else 1
    if w < 2:
        return [job(x) for x in jobs]
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    fds: set = set()  # the pipe ends this process holds, closed at the end
    workers: dict = {}  # pid -> the read end of its pipe, until it is reaped
    try:
        for i in range(1, w):
            r, wr = os.pipe()
            fds |= {r, wr}
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in fds - {wr}:
                        os.close(fd)
                    share = _share(job, jobs, i, w, parent)
                    with open(wr, "wb") as pipe:
                        pickle.dump(share, pipe)
                    code = 0
                finally:
                    os._exit(code)
            workers[pid] = r
            os.close(wr)
            fds.discard(wr)
        shares = [_share(job, jobs, 0, w)]
        for pid, r in list(workers.items()):
            data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if code:
                raise ChildProcessError(f"a worker process ended with exit code {code} "
                                        "before sending its results")
            shares.append(pickle.loads(data))
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
    failed = [fail for _, fail in shares if fail]
    if failed:
        raise min(failed)[1]
    results: list = [None] * len(jobs)
    for i, (share, _) in enumerate(shares):
        results[i::w] = share
    return results


def _share(job: Callable, jobs: Sequence, start: int, step: int, parent: Optional[int] = None):
    """(the results of jobs[start::step] in order up to the first that raises,
    and None or (index, exception) of that one). A worker passes its parent's
    pid, and exits before a job once the parent is gone."""
    import os

    results = []
    for k in range(start, len(jobs), step):
        if parent is not None and os.getppid() != parent:
            raise SystemExit(1)
        try:
            results.append(job(jobs[k]))
        except Exception as exc:  # raised by `map_jobs` if no lower job raises
            return results, (k, exc)
    return results, None


class MeetingStats(NamedTuple):
    graph: str
    n: int
    trials: int
    mean_steps: float
    stderr_steps: float
    mean_time: float
    stderr_time: float


def measure_meeting_time(graph: Graph, trials: int, seed: int = 0) -> MeetingStats:
    """Mean activations and elapsed time until two walking tokens interact,
    every edge's clock running at rate 1.

    Tokens start on distinct uniform nodes. When an activated edge has a
    token on exactly one endpoint the token crosses it (swap semantics); the
    trial ends on the first activation whose edge holds both tokens.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    arcs, draws = schedule(graph, seed)
    time_rng, tokens = stream("time", seed), stream("tokens", seed)
    steps_samples = []
    time_samples = []
    for _ in range(trials):
        a = tokens.randrange(graph.n)
        b = tokens.randrange(graph.n - 1)
        b += b >= a
        for steps, k in enumerate(draws, 1):
            u, v = arcs[k]
            if a == u or a == v:
                if b == u or b == v:
                    break
                a = u + v - a
            elif b == u or b == v:
                b = u + v - b
        steps_samples.append(steps)
        time_samples.append(clock(steps, graph.m, time_rng)[0])

    def mean_se(xs):
        mu = sum(xs) / len(xs)
        if len(xs) < 2:
            return mu, 0.0
        var = sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)
        return mu, (var / len(xs)) ** 0.5

    ms, ses = mean_se(steps_samples)
    mt, set_ = mean_se(time_samples)
    return MeetingStats(graph.generator_tag, graph.n, trials, ms, ses, mt, set_)
