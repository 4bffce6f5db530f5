"""The ledger check of MAX-tree circuits: replay a ledger-compiled run and
check each gate's collision-count identity (see `anonet.circuits`). It
serves acceptance criterion 4 and `test_circuits.py` alone, so it lives with
the tests and the package does not load it."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from anonet.circuits import Circuit, _ledger_meeting, compile_circuit
from anonet.engine import Activation


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


def collision_count_check(
    circuit: Circuit, inputs: Sequence[int], trace: Sequence[Activation]
) -> LedgerReport:
    """Replay a ledger-compiled run's `trace` (its `RunResult.trace`, the
    activations in order) and check, per gate, the collision-count
    identity collisions = c2 + d2 + min(a, b) and ones = max(a, b), where a
    and b are the settled child outputs read from the final configuration:
    at an agent's path level i the child output is the leaf itself (i = 0)
    or the agent's output at level i - 1.
    """
    proto = compile_circuit(circuit)
    states = [proto.init(c) for c in inputs]
    events: list = []
    for act in trace:
        sx, sy = states[act.initiator], states[act.responder]
        nx, ny = _ledger_meeting(sx, sy, circuit, events)
        states[act.initiator] = nx
        states[act.responder] = ny
    seen = Counter(events)

    # per gate and side (+1 / -1): agents below it, and their settled outputs
    agents = {1: [0] * circuit.n_gates, -1: [0] * circuit.n_gates}
    settled = {1: [0] * circuit.n_gates, -1: [0] * circuit.n_gates}
    ones = [0] * circuit.n_gates
    for s in states:
        lower = 1
        for gate, side, lv in zip(circuit.paths[s.color], circuit.sides[s.color], s.levels):
            agents[side][gate] += 1
            settled[side][gate] += lower
            ones[gate] += lv.out
            lower = lv.out

    gates = [
        GateLedger(
            g, agents[1][g], agents[-1][g], settled[1][g], settled[-1][g],
            seen["case1", g, 1], seen["case2", g, 1], seen["case1", g, -1],
            seen["case2", g, -1], seen["collision", g, 0], ones[g],
        )
        for g in range(circuit.n_gates)
    ]
    ok = all(g.collisions_ok and g.ones_ok and g.decomposition_ok for g in gates)
    return LedgerReport(gates, ok)
