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
    and propagating the mark), (ii) re-issuing an opposite charge when the
    upper charge was already spent, or (iii) waiting. Every output flip of a
    collision must land on an out=1 party; when both colliders are already
    dark the pending decrement is parked in the (charge 0, live) state and
    discharged on the first chargeless out=1 agent of that gate. With these
    rules the per-gate ledger

        collisions = c2 + d2 + min(a, b),   ones = max(a, b)

    holds exactly at stabilization under every schedule (checked by
    `collision_count_check`).

gossip semantics (`plurality_protocol` only)
    The same cancellation pools, but tracked bidirectionally: an agent's
    unit at a gate is armed/shed as its own lower output rises and falls,
    and a spent unit turns into a debt charge. The signed pool sum then
    always equals (left in-count) - (right in-count), so the surviving
    charges broadcast the winning side and the output bit is carried as a
    belief. Exactly tied gates leave a strong-zero tie marker that
    broadcasts a fixed convention. This variant places the out=1 bits on
    winning-side agents (not just the right number of them), which the
    plurality color copy rule requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .engine import Trace
from .protocols import ProtocolDef

__all__ = [
    "CircuitNode",
    "Circuit",
    "CircuitError",
    "parse_circuit",
    "complete_max_tree",
    "evaluate",
    "max_gate_protocol",
    "min_gate_protocol",
    "compile_circuit",
    "plurality_protocol",
    "collision_count_check",
    "GateLedger",
    "LedgerReport",
    "LevelState",
    "CircuitState",
    "PLevel",
    "PluralityState",
]


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class CircuitNode:
    kind: str  # "max" | "leaf"
    color: int = -1
    children: tuple = ()


def parse_circuit(text: str) -> "Circuit":
    """Parse the s-expression circuit DSL, e.g. "(max (max 0 1) (max 2 3))"."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse() -> CircuitNode:
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
            return CircuitNode("max", children=(left, right))
        if tok == ")":
            raise CircuitError("unexpected ')'")
        try:
            return CircuitNode("leaf", color=int(tok))
        except ValueError as exc:
            raise CircuitError(f"bad token {tok!r}") from exc

    root = parse()
    if pos != len(tokens):
        raise CircuitError("trailing tokens after circuit expression")
    if root.kind == "leaf":
        raise CircuitError("circuit must contain at least one gate")
    return Circuit(root)


def complete_max_tree(k: int) -> "Circuit":
    """Complete binary MAX tree over colors 0..k'-1 where k' is k rounded up
    to a power of two; the padding colors are phantom leaves no agent holds."""
    if k < 2:
        raise CircuitError("need k >= 2")
    padded = 1 << math.ceil(math.log2(k))

    def build(lo: int, hi: int) -> CircuitNode:
        if hi - lo == 1:
            return CircuitNode("leaf", color=lo)
        mid = (lo + hi) // 2
        return CircuitNode("max", children=(build(lo, mid), build(mid, hi)))

    return Circuit(build(0, padded))


class Circuit:
    """A binary MAX tree compiled into per-color path tables."""

    def __init__(self, root: CircuitNode):
        self.root = root
        self.gate_children: list[tuple] = []  # ("leaf", color) | ("gate", id)
        leaf_colors: list[int] = []

        def walk(node: CircuitNode):
            if node.kind == "leaf":
                leaf_colors.append(node.color)
                return ("leaf", node.color)
            left = walk(node.children[0])
            right = walk(node.children[1])
            gid = len(self.gate_children)
            self.gate_children.append((left, right))
            return ("gate", gid)

        top = walk(root)
        if len(set(leaf_colors)) != len(leaf_colors):
            raise CircuitError("duplicate leaf colors")
        self.leaf_colors = tuple(sorted(leaf_colors))
        self.root_gate = top[1]
        self.n_gates = len(self.gate_children)

        # per-color bottom-up paths: gate ids, sides (+1 first child)
        self.paths: dict[int, tuple[int, ...]] = {}
        self.sides: dict[int, tuple[int, ...]] = {}

        def collect(ref, acc):
            kind, val = ref
            if kind == "leaf":
                path, sides = [], []
                for gid, side in reversed(acc):
                    path.append(gid)
                    sides.append(side)
                self.paths[val] = tuple(path)
                self.sides[val] = tuple(sides)
                return
            left, right = self.gate_children[val]
            collect(left, acc + [(val, 1)])
            collect(right, acc + [(val, -1)])

        collect(top, [])
        self.depth = max(len(p) for p in self.paths.values())

        # common path suffix for every color pair, bottom-up
        self.shared: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        colors = list(self.paths)
        for c1 in colors:
            p1 = self.paths[c1]
            for c2 in colors:
                p2 = self.paths[c2]
                pairs = []
                i, j = len(p1) - 1, len(p2) - 1
                while i >= 0 and j >= 0 and p1[i] == p2[j]:
                    pairs.append((i, j))
                    i -= 1
                    j -= 1
                pairs.reverse()
                self.shared[(c1, c2)] = tuple(pairs)

    def describe(self) -> str:
        def fmt(ref):
            kind, val = ref
            if kind == "leaf":
                return str(val)
            left, right = self.gate_children[val]
            return f"(max {fmt(left)} {fmt(right)})"

        return fmt(("gate", self.root_gate))


def evaluate(circuit: Circuit, counts: Sequence[int]) -> int:
    """Recursive ground-truth evaluation of the tree over per-color counts.
    Colors beyond len(counts) (phantom padding) count 0."""

    def value(ref) -> int:
        kind, val = ref
        if kind == "leaf":
            return counts[val] if val < len(counts) else 0
        left, right = circuit.gate_children[val]
        return max(value(left), value(right))

    return value(("gate", circuit.root_gate))


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

    def quiescent(states) -> bool:
        signs = {s.charge for s in states if s.charge}
        return not (1 in signs and -1 in signs)

    return ProtocolDef(
        name=name,
        init=init,
        transition=transition,
        output=output,
        quiescent=quiescent,
        budget_bits=3,
        colors=2,
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


def _process_marks(color: int, levels: list, circuit: Circuit, sink) -> bool:
    """Clear pending marks bottom-up. Case (i) consumes the agent's own
    same-sign charge and pushes the decrement one level up; case (ii)
    re-issues an opposite charge when the unit was already spent; an
    opposite charge or a pending-decrement slot means wait."""
    sides = circuit.sides[color]
    path = circuit.paths[color]
    top = len(levels) - 1
    changed = False
    for i in range(len(levels)):
        lv = levels[i]
        if not lv.mark:
            continue
        s = sides[i]
        if lv.charge == s:
            if i < top and levels[i + 1].mark:
                continue  # upward mark slot busy
            levels[i] = LevelState(0, 0, 0, 0)
            if i < top:
                levels[i + 1] = levels[i + 1]._replace(mark=1)
            if sink is not None:
                sink.append(("case1", path[i], s))
            changed = True
        elif lv.charge == 0:
            if lv.live and lv.out == 0:
                continue  # pending decrement must discharge first
            levels[i] = LevelState(-s, 1, lv.out, 0)
            if sink is not None:
                sink.append(("case2", path[i], s))
            changed = True
        # charge == -s: wait until a collision changes it
    return changed


def _ledger_meeting(sx: CircuitState, sy: CircuitState, circuit: Circuit, sink):
    cx, cy = sx.color, sy.color
    lx = list(sx.levels)
    ly = list(sy.levels)
    chx = _process_marks(cx, lx, circuit, sink)
    chy = _process_marks(cy, ly, circuit, sink)
    top_x = len(lx) - 1
    top_y = len(ly) - 1
    fired = False

    for i, j in circuit.shared[(cx, cy)]:
        a = lx[i]
        b = ly[j]
        up_x_ok = i == top_x or lx[i + 1].mark == 0
        up_y_ok = j == top_y or ly[j + 1].mark == 0
        gate = circuit.paths[cx][i]
        if a.charge and b.charge and a.charge == -b.charge:
            if b.out and up_y_ok:
                ly[j] = LevelState(0, 0, 0, b.mark)
                if j < top_y:
                    ly[j + 1] = ly[j + 1]._replace(mark=1)
                lx[i] = _zeroed(a)
            elif a.out and up_x_ok:
                lx[i] = LevelState(0, 0, 0, a.mark)
                if i < top_x:
                    lx[i + 1] = lx[i + 1]._replace(mark=1)
                ly[j] = _zeroed(b)
            elif not a.out and not b.out:
                lx[i] = LevelState(0, 1, 0, a.mark)  # carries the owed decrement
                ly[j] = LevelState(0, 0, 0, b.mark)
            else:
                continue  # flippable party blocked by a pending upward mark
            if sink is not None:
                sink.append(("collision", gate, 0))
            fired = True
        elif a.charge == 0 and a.live and a.out == 0 and b.charge == 0 and b.out:
            if not up_y_ok:
                continue
            ly[j] = LevelState(0, 0, 0, b.mark)
            if j < top_y:
                ly[j + 1] = ly[j + 1]._replace(mark=1)
            lx[i] = LevelState(0, 0, 0, a.mark)
            if sink is not None:
                sink.append(("discharge", gate, 0))
            fired = True
        elif b.charge == 0 and b.live and b.out == 0 and a.charge == 0 and a.out:
            if not up_x_ok:
                continue
            lx[i] = LevelState(0, 0, 0, a.mark)
            if i < top_x:
                lx[i + 1] = lx[i + 1]._replace(mark=1)
            ly[j] = LevelState(0, 0, 0, b.mark)
            if sink is not None:
                sink.append(("discharge", gate, 0))
            fired = True

    nx = CircuitState(cx, tuple(lx))
    ny = CircuitState(cy, tuple(ly))
    if fired or chx or chy:
        return (nx, ny)
    return (ny, nx)  # nothing applies: full state swap


def compile_circuit(circuit: Circuit) -> ProtocolDef:
    """Compile a MAX tree into a pairwise protocol with the ledger semantics,
    whose exact event accounting `collision_count_check` checks."""
    n_colors = max(circuit.leaf_colors) + 1

    def init(color: int) -> CircuitState:
        if color not in circuit.paths:
            raise ValueError(f"color {color} is not a circuit leaf")
        levels = tuple(
            LevelState(side, 1, 1, 0) for side in circuit.sides[color]
        )
        return CircuitState(color, levels)

    def transition(x: CircuitState, y: CircuitState):
        return _ledger_meeting(x, y, circuit, None)

    def output(s: CircuitState) -> int:
        return s.levels[-1].out

    def quiescent(states) -> bool:
        pos: set[int] = set()
        neg: set[int] = set()
        for s in states:
            for i, lv in enumerate(s.levels):
                if lv.mark:
                    return False
                gate = circuit.paths[s.color][i]
                if lv.charge == 1:
                    pos.add(gate)
                elif lv.charge == -1:
                    neg.add(gate)
                elif lv.live and lv.out == 0:
                    return False  # undischarged decrement
        return not (pos & neg)

    budget = 4 * circuit.depth + math.ceil(math.log2(max(2, n_colors)))
    return ProtocolDef(
        name=f"circuit:{circuit.describe()}",
        init=init,
        transition=transition,
        output=output,
        quiescent=quiescent,
        budget_bits=budget,
        colors=n_colors,
        match_mode="ones_count",
    )


# ---------------------------------------------------------------------------
# Ledger verification


@dataclass
class GateLedger:
    gate: int
    A: int
    B: int
    a: int
    b: int
    c1: int
    c2: int
    d1: int
    d2: int
    collisions: int
    ones: int

    @property
    def collisions_ok(self) -> bool:
        return self.collisions == self.c2 + self.d2 + min(self.a, self.b)

    @property
    def ones_ok(self) -> bool:
        return self.ones == max(self.a, self.b)

    @property
    def decomposition_ok(self) -> bool:
        return self.A == self.c1 + self.c2 + self.a and self.B == self.d1 + self.d2 + self.b


@dataclass
class LedgerReport:
    gates: list
    passed: bool

    def __str__(self) -> str:
        rows = ["gate A B a b c1 c2 d1 d2 collisions ones ok"]
        for g in self.gates:
            ok = g.collisions_ok and g.ones_ok and g.decomposition_ok
            rows.append(
                f"{g.gate} {g.A} {g.B} {g.a} {g.b} {g.c1} {g.c2} {g.d1} {g.d2} "
                f"{g.collisions} {g.ones} {'PASS' if ok else 'FAIL'}"
            )
        return "\n".join(rows)


def _side_colors(circuit: Circuit, ref) -> list[int]:
    kind, val = ref
    if kind == "leaf":
        return [val]
    left, right = circuit.gate_children[val]
    return _side_colors(circuit, left) + _side_colors(circuit, right)


def collision_count_check(
    circuit: Circuit, inputs: Sequence[int], trace: Trace
) -> LedgerReport:
    """Replay a ledger-compiled run and check, per gate, the collision-count
    identity collisions = c2 + d2 + min(a, b) and ones = max(a, b), where a
    and b are the settled child outputs read from the final configuration.
    """
    proto = compile_circuit(circuit)
    states = [proto.init(c) for c in inputs]
    events: list = []
    for act in trace.activations:
        sx, sy = states[act.initiator], states[act.responder]
        nx, ny = _ledger_meeting(sx, sy, circuit, events)
        states[act.initiator] = nx
        states[act.responder] = ny

    collisions = [0] * circuit.n_gates
    c1 = [0] * circuit.n_gates
    c2 = [0] * circuit.n_gates
    d1 = [0] * circuit.n_gates
    d2 = [0] * circuit.n_gates
    for kind, gate, side in events:
        if kind == "collision":
            collisions[gate] += 1
        elif kind == "case1":
            (c1 if side == 1 else d1)[gate] += 1
        elif kind == "case2":
            (c2 if side == 1 else d2)[gate] += 1

    def settled_output(ref) -> int:
        kind, val = ref
        if kind == "leaf":
            return sum(1 for s in states if s.color == val)
        total = 0
        for s in states:
            path = circuit.paths[s.color]
            for i, g in enumerate(path):
                if g == val and s.levels[i].out:
                    total += 1
        return total

    gates = []
    ok = True
    for g in range(circuit.n_gates):
        left, right = circuit.gate_children[g]
        a = settled_output(left)
        b = settled_output(right)
        left_colors = set(_side_colors(circuit, left))
        right_colors = set(_side_colors(circuit, right))
        A = sum(1 for c in inputs if c in left_colors)
        B = sum(1 for c in inputs if c in right_colors)
        ones = settled_output(("gate", g))
        ledger = GateLedger(
            g, A, B, a, b, c1[g], c2[g], d1[g], d2[g], collisions[g], ones
        )
        gates.append(ledger)
        ok = ok and ledger.collisions_ok and ledger.ones_ok and ledger.decomposition_ok
    return LedgerReport(gates, ok)


# ---------------------------------------------------------------------------
# Gossip semantics (belief-carried outputs; serves plurality)

ARMED, DEBT, SHED, SPENT = 0, 1, 2, 3


class PLevel(NamedTuple):
    unit: int  # ARMED / DEBT / SHED / SPENT
    ghost: int  # strong-zero tie marker
    out: int  # belief bit


class PluralityState(NamedTuple):
    color: int
    final: int
    levels: tuple


def _eff(lv: PLevel, side: int) -> int:
    if lv.unit == ARMED:
        return side
    if lv.unit == DEBT:
        return -side
    return 0


def _belief(side: int, verdict: int, in_bit: int) -> int:
    return 1 if (in_bit and side == verdict) else 0


def _gossip_sync(color: int, levels: list, circuit: Circuit) -> bool:
    """Re-derive each level's unit from the agent's own lower output: armed
    units shed when the input unit disappears, spent units turn into debts,
    and both moves reverse when the input comes back. Keeps the signed pool
    sum of every gate equal to its current input difference. An agent also
    applies its own broadcasts to itself (its armed charge, or the tie
    marker it carries: the last collision of a tied gate may leave the sole
    marker on an agent nobody else can correct)."""
    sides = circuit.sides[color]
    changed = False
    in_bit = 1
    for i, lv in enumerate(levels):
        unit, ghost, out = lv
        if in_bit:
            if unit == SHED:
                unit, ghost = ARMED, 0
            elif unit == DEBT:
                unit = SPENT
            if unit == ARMED:
                out = 1
            elif ghost:
                out = _belief(sides[i], 1, in_bit)
        else:
            if unit == ARMED:
                unit = SHED
            elif unit == SPENT:
                unit = DEBT
            out = 0
        if (unit, ghost, out) != lv:
            levels[i] = PLevel(unit, ghost, out)
            changed = True
        in_bit = levels[i].out
    return changed


def _consume(unit: int) -> int:
    return SPENT if unit == ARMED else SHED


def _gossip_meeting(sx: PluralityState, sy: PluralityState, circuit: Circuit):
    cx, cy = sx.color, sy.color
    lx = list(sx.levels)
    ly = list(sy.levels)
    chx = _gossip_sync(cx, lx, circuit)
    chy = _gossip_sync(cy, ly, circuit)
    sides_x = circuit.sides[cx]
    sides_y = circuit.sides[cy]
    fired = False

    for i, j in circuit.shared[(cx, cy)]:
        a = lx[i]
        b = ly[j]
        effx = _eff(a, sides_x[i])
        effy = _eff(b, sides_y[j])
        if effx and effy and effx == -effy:
            lx[i] = PLevel(_consume(a.unit), 1, a.out)  # initiator keeps the tie marker
            ly[j] = PLevel(_consume(b.unit), b.ghost, b.out)
            a, b = lx[i], ly[j]
            effx = effy = 0
            fired = True
        if a.ghost and effy:
            lx[i] = a = PLevel(a.unit, 0, a.out)
            fired = True
        if b.ghost and effx:
            ly[j] = b = PLevel(b.unit, 0, b.out)
            fired = True
        in_x = lx[i - 1].out if i > 0 else 1
        in_y = ly[j - 1].out if j > 0 else 1
        if effy:
            new_out = _belief(sides_x[i], 1 if effy > 0 else -1, in_x)
        elif b.ghost:
            new_out = _belief(sides_x[i], 1, in_x)
        else:
            new_out = a.out
        if new_out != a.out:
            lx[i] = PLevel(a.unit, a.ghost, new_out)
            fired = True
        if effx:
            new_out = _belief(sides_y[j], 1 if effx > 0 else -1, in_y)
        elif a.ghost:
            new_out = _belief(sides_y[j], 1, in_y)
        else:
            new_out = b.out
        if new_out != b.out:
            ly[j] = PLevel(b.unit, b.ghost, new_out)
            fired = True

    fx, fy = sx.final, sy.final
    cert_x = all(lv.out for lv in lx)
    cert_y = all(lv.out for lv in ly)
    if cert_y and fx != cy:
        fx = cy
        fired = True
    if cert_x and fy != cx:
        fy = cx
        fired = True
    if cert_x and fx != cx:
        fx = cx
        fired = True
    if cert_y and fy != cy:
        fy = cy
        fired = True
    nx = PluralityState(cx, fx, tuple(lx))
    ny = PluralityState(cy, fy, tuple(ly))
    if fired or chx or chy:
        return (nx, ny)
    return (ny, nx)


def plurality_protocol(k: int) -> ProtocolDef:
    """Plurality over k colors via the complete MAX tree, 6*ceil(log2 k) bits.

    Each agent simulates the gates on its color's root-leaf path with the
    gossip semantics and carries initial and final color registers. Whenever
    it meets an agent whose out bits are 1 at every level of that agent's
    path, it copies that agent's initial color into its final register;
    with a unique plurality color those agents are eventually exactly the
    plurality-colored ones, so every final register converges to it.
    """
    if k < 2:
        raise CircuitError("need k >= 2")
    tree = complete_max_tree(k)

    def init(color: int) -> PluralityState:
        if color not in tree.paths:
            raise ValueError(f"color {color} is not a circuit leaf")
        return PluralityState(color, color, (PLevel(ARMED, 0, 1),) * len(tree.paths[color]))

    def transition(x: PluralityState, y: PluralityState):
        return _gossip_meeting(x, y, tree)

    def output(s: PluralityState) -> int:
        return s.final

    return ProtocolDef(
        name=f"plurality:{k}",
        init=init,
        transition=transition,
        output=output,
        quiescent=None,
        budget_bits=4 * tree.depth + 2 * math.ceil(math.log2(k)),
        colors=k,
        match_mode="per_node",
    )
