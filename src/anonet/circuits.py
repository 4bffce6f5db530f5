"""Distributed comparison gates, MAX-tree composition, and plurality.

A MAX gate over two agent types works by charge cancellation: type-1 agents
carry +1, type-2 agents carry -1, opposite charges annihilate on meeting,
and the third bit per agent is the output. min(a1, a2) collisions happen, so
max(a1, a2) agents end with output 1. The MIN gate is the mirror image with
outputs starting at 0; it is offered only on its own (`min_gate_protocol`).

Composing gates into a tree is the delicate part, because lower gates settle
while upper gates are already cancelling: a gate's outputs rise and then
fall, so an upper gate consumes outputs that are later retracted. The ledger
below accounts for those retractions in MAX trees; no sound rule is known
for a MIN gate inside a tree, so the parser rejects one. Two compilation
semantics are provided:

ledger semantics (`compile_circuit`)
    Faithful bookkeeping with one mark bit per level. When an agent's output
    at level l flips, its level-(l+1) mark is set; the mark is cleared by
    (i) consuming the agent's own upper charge (flipping its upper output
    and propagating the mark), or (ii) re-issuing an opposite charge when
    the upper charge was already spent. Every output flip of a collision
    lands on an out=1 party; when both colliders are already dark the
    pending decrement is parked in the (charge 0, live) state and
    discharged on the first chargeless out=1 agent of that gate.

    No level ever waits. A level's output only falls, from 1 to 0: only
    `_spend` lowers it, and only from 1, because a collision or a discharge
    spends its out=1 party and case (i) needs charge == side, which only an
    unspent level holds. So each level spends at most once, and only that
    spend marks the level above: no level is marked while the level below it
    can still spend. The opposite charge and a pending decrement are both
    created only after case (ii) has cleared the level's only mark, so a
    marked level holds its side's charge or 0, and never a pending
    decrement. With these rules the per-gate ledger

        collisions = c2 + d2 + min(a, b),   ones = max(a, b)

    holds exactly at stabilization under every schedule (checked by the
    tests' `collision_count_check`, which replays a run's trace).

gossip semantics (`plurality_protocol` only)
    The same cancellation pools, but tracked bidirectionally: an agent's
    unit at a gate is armed/shed as its own lower output rises and falls,
    and a spent unit turns into a debt charge. The signed pool sum then
    always equals (left in-count) - (right in-count), so the surviving
    charges broadcast the winning side and the output bit is carried as a
    belief. Exactly tied gates leave a strong-zero tie marker that
    broadcasts a fixed convention. This variant places the out=1 bits on
    winning-side agents (not just the right number of them), which the
    plurality color copy rule requires. A plurality state is the plain
    tuple (color, final, levels), a level one int, unit << 2 | ghost << 1 |
    out. No other register of a meeting's result depends on a final
    register, so the audit closes the cores (color, 0, levels) (the proof
    is in `plurality_protocol`).
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import NamedTuple, Sequence

from .engine import parse_decimal
from .protocols import ProtocolDef

__all__ = [
    "Circuit",
    "CircuitError",
    "parse_circuit",
    "complete_max_tree",
    "evaluate",
    "max_gate_protocol",
    "min_gate_protocol",
    "compile_circuit",
    "plurality_protocol",
    "LevelState",
    "CircuitState",
    "MAX_COLORS",
]

# the most colours of `plurality:k` and of a circuit file (its largest leaf
# + 1), checked before the tree is built: a colour costs ~580 bytes in
# `plurality_protocol` and ~115 in a circuit file's `Circuit`, so this many
# take ~610 MB and ~120 MB
MAX_COLORS = 1 << 20


class CircuitError(ValueError):
    pass


def parse_circuit(text: str) -> "Circuit":
    """Parse the s-expression circuit DSL, e.g. "(max (max 0 1) (max 2 3))"."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        if pos >= len(tokens):
            raise CircuitError("unexpected end of circuit expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos < len(tokens) and tokens[pos] == "min":
                raise CircuitError("MIN gates do not compose into circuits; "
                                   "use the min-gate kind for a lone MIN gate")
            if pos >= len(tokens) or tokens[pos] != "max":
                raise CircuitError("expected 'max' after '('")
            pos += 1
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise CircuitError("expected ')' after two gate operands")
            pos += 1
            return (left, right)
        if tok == ")":
            raise CircuitError("unexpected ')'")
        try:
            leaf = parse_decimal(tok)
        except ValueError as exc:
            raise CircuitError(f"bad token {tok!r}: a leaf is a colour in digits 0-9") from exc
        if leaf >= MAX_COLORS:
            raise CircuitError(f"leaf {leaf} is over the limit of {MAX_COLORS:,} colours")
        return leaf

    tree = parse()
    if pos != len(tokens):
        raise CircuitError("trailing tokens after circuit expression")
    if isinstance(tree, int):
        raise CircuitError("circuit must contain at least one gate")
    return Circuit(tree)


def complete_max_tree(k: int) -> "Circuit":
    """Complete binary MAX tree over colors 0..k'-1 where k' is k rounded up
    to a power of two; the padding colors are phantom leaves no agent holds."""
    if k < 2:
        raise CircuitError("need k >= 2")
    if k > MAX_COLORS:
        raise CircuitError(f"k = {k} is over the limit of {MAX_COLORS:,} colours")
    padded = 1 << math.ceil(math.log2(k))

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        return (build(lo, mid), build(mid, hi))

    return Circuit(build(0, padded))


class Circuit:
    """A binary MAX tree and the per-color path tables its meetings read.

    The tree is nested tuples: a leaf is its color (an int) and a gate is
    the pair (left, right). Gates are numbered children-first. `paths[c]`
    lists the gates from leaf c up to the root, and `sides[c]` the side c
    enters each of them by (+1 first child, -1 second). A colour below the
    largest leaf that is no leaf is a bystander: its path and sides are
    empty, so it takes part in no gate, swaps with every agent it meets and
    outputs 0.
    """

    def __init__(self, tree):
        self.tree = tree
        self.paths: dict[int, tuple[int, ...]] = {}
        self.sides: dict[int, tuple[int, ...]] = {}
        self.n_gates = 0

        def walk(node) -> list[int]:
            """Number the gates under `node` and extend its leaves' paths up
            to it; returns those leaves."""
            if isinstance(node, int):
                if node in self.paths:
                    raise CircuitError("duplicate leaf colors")
                self.paths[node] = self.sides[node] = ()
                return [node]
            left, right = walk(node[0]), walk(node[1])
            gid = self.n_gates
            self.n_gates += 1
            for colors, side in ((left, 1), (right, -1)):
                for c in colors:
                    self.paths[c] += (gid,)
                    self.sides[c] += (side,)
            return left + right

        walk(tree)
        self.leaf_colors = tuple(sorted(self.paths))
        for c in range(self.leaf_colors[-1]):
            self.paths.setdefault(c, ())
            self.sides.setdefault(c, ())
        self.depth = max(len(p) for p in self.paths.values())
        # memoized per colour pair on first use: k colours make k^2 pairs, and
        # meetings reach few of them
        self.shared = cache(self._shared)

    def _shared(self, cx: int, cy: int) -> tuple:
        """The index pairs (i, j), bottom-up, of the gates paths[cx][i] ==
        paths[cy][j]: the common suffix of two paths up one tree."""
        p1, p2 = self.paths[cx], self.paths[cy]
        k = len(set(p1).intersection(p2))
        return tuple(zip(range(len(p1) - k, len(p1)), range(len(p2) - k, len(p2))))

    def describe(self) -> str:
        def fmt(node) -> str:
            if isinstance(node, int):
                return str(node)
            return f"(max {fmt(node[0])} {fmt(node[1])})"

        return fmt(self.tree)


def evaluate(circuit: Circuit, counts: Sequence[int]) -> int:
    """Recursive ground-truth evaluation of the tree over per-color counts.
    Colors beyond len(counts) (phantom padding) count 0."""

    def value(node) -> int:
        if isinstance(node, int):
            return counts[node] if node < len(counts) else 0
        return max(value(node[0]), value(node[1]))

    return value(circuit.tree)


# ---------------------------------------------------------------------------
# Standalone gates (two input types)


class GateState(NamedTuple):
    charge: int
    live: int
    out: int


def _gate_protocol(name: str, out: int) -> ProtocolDef:
    """3-bit comparison gate: type-0 agents start (+1, live, out), type-1
    agents (-1, live, out). Opposite live charges collide: the initiator
    keeps (0, live, out), the responder turns (0, dead, 1 - out). Everything
    else swaps."""

    def init(color: int) -> GateState:
        return GateState(1 if color == 0 else -1, 1, out)

    def transition(x: GateState, y: GateState):
        if x.charge and y.charge and x.charge == -y.charge:
            return (GateState(0, 1, out), GateState(0, 0, 1 - out))
        return (y, x)

    def output(s: GateState) -> int:
        return s.out

    return ProtocolDef(
        name=name,
        init=init,
        transition=transition,
        output=output,
        budget_bits=3,
        match_mode="ones_count",
    )


def max_gate_protocol() -> ProtocolDef:
    """MAX gate: outputs start at 1 and each collision turns the responder's
    output to 0, so max(a1, a2) agents end with 1."""
    return _gate_protocol("max-gate", 1)


def min_gate_protocol() -> ProtocolDef:
    """Mirror of the MAX gate with outputs initialized to 0; each collision
    sets the responder's output to 1, so min(a1, a2) agents end with 1."""
    return _gate_protocol("min-gate", 0)


# ---------------------------------------------------------------------------
# Ledger semantics (MAX-tree composition with exact event accounting)


class LevelState(NamedTuple):
    charge: int  # +1 / -1 / 0
    live: int  # for charge 0: 1 = winner (out 1) or pending decrement (out 0)
    out: int
    mark: int


class CircuitState(NamedTuple):
    color: int
    levels: tuple


def _zeroed(lv: LevelState) -> LevelState:
    """Charge removed without touching the output unit."""
    return LevelState(0, 1 if lv.out else 0, lv.out, lv.mark)


def _spend(levels: list, i: int, mark: int) -> None:
    """Spend level i's output unit and mark the level above, which must pass
    the decrement on."""
    levels[i] = LevelState(0, 0, 0, mark)
    if i + 1 < len(levels):
        levels[i + 1] = levels[i + 1]._replace(mark=1)


def _process_marks(color: int, levels: list, circuit: Circuit, sink) -> bool:
    """Clear pending marks bottom-up. Case (i): the charge equals the side,
    so the unit is unspent; spend it and mark the level above, which passes
    the decrement on. Case (ii): any other charge means the unit was already
    spent, so re-issue the opposite charge. A marked level never holds the
    opposite charge or a pending decrement (see the module docstring)."""
    sides = circuit.sides[color]
    path = circuit.paths[color]
    changed = False
    for i in range(len(levels)):
        lv = levels[i]
        if not lv.mark:
            continue
        s = sides[i]
        if lv.charge == s:
            _spend(levels, i, 0)
            event = "case1"
        else:
            levels[i] = LevelState(-s, 1, lv.out, 0)
            event = "case2"
        if sink is not None:
            sink.append((event, path[i], s))
        changed = True
    return changed


def _ledger_meeting(sx: CircuitState, sy: CircuitState, circuit: Circuit, sink):
    cx, cy = sx.color, sy.color
    lx = list(sx.levels)
    ly = list(sy.levels)
    chx = _process_marks(cx, lx, circuit, sink)
    chy = _process_marks(cy, ly, circuit, sink)
    fired = False

    for i, j in circuit.shared(cx, cy):
        a = lx[i]
        b = ly[j]
        if a.charge and a.charge == -b.charge:
            event = "collision"
            if b.out:
                _spend(ly, j, b.mark)
                lx[i] = _zeroed(a)
            elif a.out:
                _spend(lx, i, a.mark)
                ly[j] = _zeroed(b)
            else:
                lx[i] = LevelState(0, 1, 0, a.mark)  # carries the owed decrement
                ly[j] = LevelState(0, 0, 0, b.mark)
        elif a.charge == b.charge == 0 and a.out != b.out and (b if a.out else a).live:
            # a pending decrement discharges on the chargeless out=1 party
            event = "discharge"
            if a.out:
                _spend(lx, i, a.mark)
                ly[j] = LevelState(0, 0, 0, b.mark)
            else:
                _spend(ly, j, b.mark)
                lx[i] = LevelState(0, 0, 0, a.mark)
        else:
            continue
        if sink is not None:
            sink.append((event, circuit.paths[cx][i], 0))
        fired = True

    nx = CircuitState(cx, tuple(lx))
    ny = CircuitState(cy, tuple(ly))
    if fired or chx or chy:
        return (nx, ny)
    return (ny, nx)  # nothing applies: full state swap


def compile_circuit(circuit: Circuit) -> ProtocolDef:
    """Compile a MAX tree into a pairwise protocol with the ledger semantics,
    whose exact event accounting the tests' `collision_count_check` checks."""
    n_colors = max(circuit.leaf_colors) + 1

    def init(color: int) -> CircuitState:
        levels = tuple(
            LevelState(side, 1, 1, 0) for side in circuit.sides[color]
        )
        return CircuitState(color, levels)

    def transition(x: CircuitState, y: CircuitState):
        return _ledger_meeting(x, y, circuit, None)

    def output(s: CircuitState) -> int:
        return s.levels[-1].out if s.levels else 0

    budget = 4 * circuit.depth + math.ceil(math.log2(max(2, n_colors)))
    return ProtocolDef(
        name=f"circuit:{circuit.describe()}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=budget,
        colors=n_colors,
        match_mode="ones_count",
    )


# ---------------------------------------------------------------------------
# Gossip semantics (belief-carried outputs; serves plurality)

ARMED, DEBT, SHED, SPENT = 0, 1, 2, 3  # a level's unit; its ghost is the tie marker


def _eff(lv: int, side: int) -> int:
    """The charge a level broadcasts: its side armed, the opposite as a debt."""
    return (side, -side, 0, 0)[lv >> 2]  # by unit: ARMED, DEBT, SHED, SPENT


def _consume(lv: int) -> int:
    """The level after its charge collides: armed is spent, a debt shed."""
    return (SPENT if lv >> 2 == ARMED else SHED) << 2 | lv & 3


def _gossip_sync(circuit: Circuit, color: int, levels: tuple) -> tuple[tuple, bool]:
    """Re-derive each level's unit from the agent's own lower output: armed
    units shed when the input unit disappears, spent units turn into debts,
    and both moves reverse when the input comes back. Keeps the signed pool
    sum of every gate equal to its current input difference. An agent also
    applies its own broadcasts to itself (its armed charge, or the tie
    marker it carries: the last collision of a tied gate may leave the sole
    marker on an agent nobody else can correct). Returns (levels, changed)."""
    synced = []
    in_bit = 1
    for side, lv in zip(circuit.sides[color], levels):
        unit, ghost = lv >> 2, lv & 2
        if in_bit:
            if unit == SHED:
                unit, ghost = ARMED, 0
            elif unit == DEBT:
                unit = SPENT
            in_bit = 1 if unit == ARMED else int(side == 1) if ghost else lv & 1
        else:
            if unit == ARMED:
                unit = SHED
            elif unit == SPENT:
                unit = DEBT
            in_bit = 0
        synced.append(unit << 2 | ghost | in_bit)
    synced = tuple(synced)
    return synced, synced != levels


def _gossip_meeting(sx: tuple, sy: tuple, circuit: Circuit, sync):
    cx, final_x, lx = sx
    cy, final_y, ly = sy
    lx, chx = sync(cx, lx)
    ly, chy = sync(cy, ly)
    lx, ly = list(lx), list(ly)
    sides_x, sides_y = circuit.sides[cx], circuit.sides[cy]
    fired = False

    for i, j in circuit.shared(cx, cy):
        a = lx[i]
        b = ly[j]
        effx = _eff(a, sides_x[i])
        effy = _eff(b, sides_y[j])
        if effx and effx == -effy:
            a = _consume(a) | 2  # initiator keeps the tie marker
            b = _consume(b)
            effx = effy = 0
        if a & 2 and effy:
            a ^= 2
        if b & 2 and effx:
            b ^= 2
        # each hears the other's broadcast: the sign of its live charge,
        # else its tie marker's fixed verdict +1
        if effy or b & 2:
            a = a & ~1 | (i == 0 or lx[i - 1] & 1) & (sides_x[i] == (effy or 1))
        if effx or a & 2:
            b = b & ~1 | (j == 0 or ly[j - 1] & 1) & (sides_y[j] == (effx or 1))
        if a != lx[i] or b != ly[j]:
            lx[i], ly[j] = a, b
            fired = True

    cert_x = all(lv & 1 for lv in lx)
    cert_y = all(lv & 1 for lv in ly)
    # a certified agent's final register holds its own colour; any other
    # copies a certified partner's
    fx = cx if cert_x else cy if cert_y else final_x
    fy = cy if cert_y else cx if cert_x else final_y
    # two certified agents of different colours fire even when neither
    # register changes, so they do not swap
    fired |= (fx, fy) != (final_x, final_y) or cert_x and cert_y and cx != cy
    nx, ny = (cx, fx, tuple(lx)), (cy, fy, tuple(ly))
    return (nx, ny) if fired or chx or chy else (ny, nx)


def plurality_protocol(k: int) -> ProtocolDef:
    """Plurality over k colors via the complete MAX tree, 6*ceil(log2 k) bits.

    A state is the tuple (color, final, levels): initial and final colour
    registers, and a gossip level int per gate on the colour's root-leaf
    path. Whenever it meets an agent whose out bits are 1 at every level of
    that agent's path, it copies that agent's initial color into its final
    register; with a unique plurality color those agents are eventually
    exactly the plurality-colored ones, so every final register converges
    to it.

    `core` maps s to (s[0], 0, s[2]), dropping the final register for the
    audit. Call (color, levels) a state's core. `_gossip_meeting` computes
    levels and certifications from cores alone, and the final registers
    feed only `fired`, which orders the result: so the cores of δ(x, y), as
    a set, depend only on those of x and y, and no pair raises. By
    induction, the closure's cores are the closure of the initial cores; a
    final register holds one of the k colors, so the closure lies inside
    those cores times [0, k).
    """
    tree = complete_max_tree(k)
    # `_gossip_sync` depends on (color, levels) alone: memoized for as long
    # as the protocol lives
    sync = cache(partial(_gossip_sync, tree))

    def init(color: int) -> tuple:
        if color not in tree.paths:
            raise ValueError(f"color {color} is not a circuit leaf")
        return (color, color, (ARMED << 2 | 1,) * len(tree.paths[color]))

    def transition(x: tuple, y: tuple):
        return _gossip_meeting(x, y, tree, sync)

    def output(s: tuple) -> int:
        return s[1]

    return ProtocolDef(
        name=f"plurality:{k}",
        init=init,
        transition=transition,
        output=output,
        budget_bits=4 * tree.depth + 2 * math.ceil(math.log2(k)),
        colors=k,
        core=(lambda s: (s[0], 0, s[2]), k),
    )
