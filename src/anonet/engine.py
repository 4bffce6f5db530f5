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
  reverse (`Graph.arcs`). `arc_chunks` reads CHUNK raw draws at a time: for 2|E| <= 256,
  CHUNK bytes, each masked to the next power of two >= 2|E| with values
  >= 2|E| rejected (two `bytes.translate` calls); above, CHUNK `getrandbits`
  draws of that width, rejected likewise. Accepted draws are exactly uniform.
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
    "build_graph",
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
    successor ids when a initiates and b responds. `fill` computes a pair the
    first time it meets; filling eagerly would also meet pairs no run reaches,
    which raise ProtocolViolation for `bit` and `estimate`. So every interned
    state is an initial state or the result of an applied transition.
    """

    def __init__(self, protocol):
        self.protocol = protocol
        self.ids: dict = {}
        self.objs, self.outs, self.rows = [], [], []

    def intern(self, state) -> int:
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.objs)
            self.objs.append(state)
            self.outs.append(self.protocol.output(state))
            self.rows.append({})
        return i

    def fill(self, a: int, b: int) -> tuple[int, int]:
        x, y = self.protocol.transition(self.objs[a], self.objs[b])
        pair = self.rows[a][b] = (self.intern(x), self.intern(y))
        return pair


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
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        self.edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        if not is_connected(self.n, self.edges):
            raise GraphError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def arcs(self) -> list[tuple[int, int]]:
        """The 2m ordered edges: arc 2i is edge i, arc 2i + 1 its reverse."""
        return [arc for u, v in self.edges for arc in ((u, v), (v, u))]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


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
    confirmation_window: int
    final_outputs: tuple
    total_steps: int
    elapsed_time: float
    stopped_by: str  # "quiescence" | "window" | "max_steps"
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


def is_connected(n: int, edges: Sequence[tuple[int, int]]) -> bool:
    """BFS reachability from node 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    nxt.append(w)
        frontier = nxt
    return count == n


_GNP_ATTEMPTS = 200


def build_graph(spec: str, seed: int = 0) -> Graph:
    """Build a graph from a spec string.

    Supported: complete:n, cycle:n, path:n, star:n, gnp:n:p, file:path.
    gnp resamples (bounded attempts) until the sample is connected.
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "complete":
            n = int(parts[1])
            edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
            return Graph(n, edges, spec)
        if kind == "cycle":
            n = int(parts[1])
            if n < 3:
                raise GraphError("cycle needs n >= 3")
            edges = tuple((i, (i + 1) % n) for i in range(n))
            return Graph(n, edges, spec)
        if kind == "path":
            n = int(parts[1])
            edges = tuple((i, i + 1) for i in range(n - 1))
            return Graph(n, edges, spec)
        if kind == "star":
            n = int(parts[1])
            edges = tuple((0, i) for i in range(1, n))
            return Graph(n, edges, spec)
        if kind == "gnp":
            n, p = int(parts[1]), float(parts[2])
            rng = stream("graph", seed)
            for _ in range(_GNP_ATTEMPTS):
                edges = tuple(
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < p
                )
                if is_connected(n, edges) and len(edges) > 0:
                    return Graph(n, edges, spec)
            raise GraphError(
                f"gnp:{n}:{p} produced no connected sample in {_GNP_ATTEMPTS} attempts"
            )
        if kind == "file":
            path = spec.split(":", 1)[1]
            return load_edge_list(path)
    except (IndexError, ValueError) as exc:
        if isinstance(exc, GraphError):
            raise
        raise GraphError(f"unparsable graph spec {spec!r}: {exc}") from exc
    raise GraphError(f"unknown graph spec {spec!r}")


def load_edge_list(path: str) -> Graph:
    """Read a plain-text edge list: one "u v" pair per line, 0-indexed.

    Blank lines are ignored; comments start with '#'.
    """
    edges = []
    max_node = -1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise GraphError(f"{path}:{lineno}: expected 'u v', got {line!r}")
                u, v = int(fields[0]), int(fields[1])
                if u < 0 or v < 0:
                    raise GraphError(f"{path}:{lineno}: negative node id")
                edges.append((u, v))
                max_node = max(max_node, u, v)
    except OSError as exc:
        raise GraphError(f"cannot read graph file {path}: {exc}") from exc
    if max_node < 1:
        raise GraphError(f"{path}: no edges")
    return Graph(max_node + 1, tuple(edges), f"file:{path}")


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
    """Uniform arc indices in [0, 2m), CHUNK raw draws of `rng` per chunk."""
    two_m = 2 * m
    bits = (two_m - 1).bit_length()
    if bits <= 8:
        mask = (1 << bits) - 1
        table = bytes(range(mask + 1)) * (256 >> bits)
        reject = bytes(range(two_m, mask + 1))
        while True:
            yield rng.randbytes(CHUNK).translate(table).translate(None, reject)
    while True:
        yield [k for k in map(rng.getrandbits, repeat(bits, CHUNK)) if k < two_m]


def clock(steps: int, rate_m: float, rng: random.Random, trace: bool = False):
    """(elapsed time of `steps` activations at total rate `rate_m`, the time
    of each activation if `trace` else None)."""
    total = rng.gammavariate(steps, 1.0 / rate_m) if steps else 0.0
    if not trace:
        return total, None
    uniforms = sorted([rng.random() for _ in range(steps - 1)])
    return total, [u * total for u in uniforms] + ([total] if steps else [])


class _Rewirer:
    """A run's edge list, with its edge set and adjacency kept across swaps."""

    def __init__(self, edges: Sequence[tuple[int, int]], n: int):
        self.edges = list(edges)
        self.present = set(self.edges)
        self.adj: list[set] = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

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
        e1, e2 = (min(u, x), max(u, x)), (min(v, y), max(v, y))
        if len({u, v, x, y}) < 4 or e1 in self.present or e2 in self.present:
            return ()
        old = ((u, v), (x, y))
        self._move(old, ((u, x), (v, y)))
        # every part left by deleting the old edges holds u, v, x or y, and
        # the new edges join u to x and v to y: connected iff u reaches v
        seen, frontier = {u}, [u]
        while frontier and v not in seen:
            frontier = [w for z in frontier for w in self.adj[z] if w not in seen]
            seen.update(frontier)
        if v not in seen:
            self._move(((u, x), (v, y)), old)
            return ()
        self.present -= {edges[i], edges[j]}
        self.present |= {e1, e2}
        edges[i], edges[j] = e1, e2
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


def _default_window(graph: Graph) -> int:
    return 10 * graph.n * graph.m


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
    confirmation_window: Optional[int] = None,
    expected: Any = None,
    rewire_policy: Optional[RewirePolicy] = None,
    rate: float = 1.0,
    record_trace: bool = False,
    on_step: Optional[Callable[[int, list], None]] = None,
    table: Optional[TransitionTable] = None,
) -> RunResult:
    """Execute `protocol` on `graph` until stabilization or `max_steps`.

    Stabilization is detected when (a) the protocol's quiescence predicate
    holds (checked every n activations if some state changed since the last
    check), or (b) `expected` is given and the match condition has held for
    `confirmation_window` consecutive activations. The match condition is
    `match_rule`'s.

    With expected=None the window fallback is "no output changed for a full
    window". `first_correct_step` is the start of the final matching stretch
    (0 means the initial configuration already matched).

    Agents hold ids of `table` (pass one to share it across runs);
    `quiescent` and `on_step` still receive state objects.
    """
    n = graph.n
    if len(inputs) != n:
        raise ValueError(f"input length {len(inputs)} != n {n}")
    for c in inputs:
        if not (0 <= c < protocol.colors):
            raise ValueError(f"input color {c} invalid for {protocol.name}")
    _check_rate(rate)
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    if confirmation_window is not None and confirmation_window < 1:
        raise ValueError(f"confirmation_window must be >= 1, got {confirmation_window}")
    if table is None:
        table = TransitionTable(protocol)
    elif table.protocol is not protocol:
        raise ValueError("transition table belongs to another protocol")

    states = [table.intern(protocol.init(c)) for c in inputs]
    objs, outs, rows, fill = table.objs, table.outs, table.rows, table.fill
    quiescent = protocol.quiescent

    window = confirmation_window if confirmation_window is not None else _default_window(graph)
    m = graph.m
    arcs = graph.arcs
    period = rewire_policy.period if rewire_policy and rewire_policy.kind == "swap" else 0
    if period:
        rewirer, rewire_rng = _Rewirer(graph.edges, n), stream("rewire", seed)

    matched = False
    if expected is not None:
        want, target = match_rule(protocol, expected, n)
        match_count = sum(1 for s in states if outs[s] == want)
        matched = match_count == target

    # None exactly while a run with `expected` is unmatched; never None without
    streak_start = 0 if (matched or expected is None) else None
    step = 0
    pairs: list[tuple[int, int]] = [] if record_trace else None  # type: ignore
    stopped_by = "max_steps"
    stabilized = False
    check_period = max(n, 1)
    hooks = record_trace or on_step is not None or period  # one test per step for all three
    changed = False  # whether a state changed since the last quiescence check

    def is_quiescent() -> bool:
        return quiescent is not None and quiescent([objs[s] for s in states])

    if is_quiescent():
        stopped_by = "quiescence"
        stabilized = matched if expected is not None else True
    else:
        schedule = chain.from_iterable(arc_chunks(m, stream("schedule", seed)))
        for k in islice(schedule, max_steps):
            u, v = arcs[k]
            step += 1

            a, b = states[u], states[v]
            na, nb = rows[a].get(b) or fill(a, b)
            if na != a or nb != b:
                changed = True
                if expected is None:
                    if outs[na] != outs[a] or outs[nb] != outs[b]:
                        streak_start = step  # an output changed; restart stretch
                else:
                    match_count += (outs[na] == want) - (outs[a] == want)
                    match_count += (outs[nb] == want) - (outs[b] == want)
                    now_matched = match_count == target
                    if now_matched and not matched:
                        streak_start = step
                    elif not now_matched:
                        streak_start = None
                    matched = now_matched
                states[u] = na
                states[v] = nb

            if hooks:
                if record_trace:
                    pairs.append((u, v))
                if on_step is not None:
                    on_step(step, [objs[s] for s in states])
                if period and step % period == 0:
                    for i in rewirer.swap(rewire_rng):  # the replaced edges
                        x, y = rewirer.edges[i]
                        arcs[2 * i], arcs[2 * i + 1] = (x, y), (y, x)

            if streak_start is not None and step - streak_start >= window:
                stopped_by = "window"
                stabilized = True
                break

            if step % check_period == 0 and changed:
                changed = False
                if is_quiescent():
                    stopped_by = "quiescence"
                    stabilized = matched if expected is not None else True
                    break

    now, times = clock(step, rate * m, stream("time", seed), record_trace)
    outputs = tuple(outs[s] for s in states)
    return RunResult(
        protocol=protocol.name,
        n=n,
        first_correct_step=streak_start,
        stabilized=stabilized,
        confirmation_window=window,
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
    if graph.n < 2:
        raise GraphError("need n >= 2")
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
