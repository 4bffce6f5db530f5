import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonet.circuits import (
    ARMED,
    SHED,
    SPENT,
    CircuitError,
    compile_circuit,
    complete_max_tree,
    evaluate,
    max_gate_protocol,
    min_gate_protocol,
    parse_circuit,
    plurality_protocol,
)
from anonet.engine import TransitionTable, build_graph, run
from ledger import LedgerReport, collision_count_check
from test_protocols import state_closure


def agents_for(counts, seed=0):
    vals = []
    for color, count in enumerate(counts):
        vals.extend([color] * count)
    random.Random(seed).shuffle(vals)
    return vals


def ones(outputs):
    return sum(1 for o in outputs if o == 1)


class TestDsl:
    def test_round_trip(self):
        circ = parse_circuit("(max (max 0 1) (max 2 3))")
        assert circ.describe() == "(max (max 0 1) (max 2 3))"
        assert circ.depth == 2
        assert circ.leaf_colors == (0, 1, 2, 3)

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(CircuitError):
            parse_circuit("(max 0 0)")

    def test_malformed(self):
        for text in ("(max 0)", "max 0 1", "(max 0 1", "(max 0 1 2)", "(or 0 1)", "0"):
            with pytest.raises(CircuitError):
                parse_circuit(text)

    def test_a_leaf_is_a_decimal_colour(self):
        # int() would read "-1" as a colour, which `evaluate` takes as the
        # count of the largest colour
        for tok in ("-1", "+2", "1_0", "0x1"):
            with pytest.raises(CircuitError, match=re.escape(f"bad token {tok!r}")):
                parse_circuit(f"(max {tok} 2)")

    def test_agent_color_must_be_leaf(self):
        proto = compile_circuit(parse_circuit("(max 0 1)"))
        g = build_graph("complete:3")
        with pytest.raises(ValueError):
            run(proto, g, [0, 1, 2], expected=1)

    def test_evaluate_recursive(self):
        circ = parse_circuit("(max 2 (max 3 4))")  # colour 4 is a phantom leaf
        assert evaluate(circ, [3, 5, 2, 4]) == 4
        assert evaluate(parse_circuit("(max (max 0 1) (max 2 3))"), [3, 5, 2, 4]) == 5


class TestStandaloneGates:
    @pytest.mark.parametrize("a1,a2", [(3, 0), (2, 2), (5, 3)])
    def test_max_gate(self, a1, a2):
        g = build_graph(f"complete:{a1 + a2}") if a1 + a2 > 2 else build_graph("path:2")
        res = run(max_gate_protocol(), g, agents_for([a1, a2]), seed=2, expected=max(a1, a2))
        assert res.stabilized and ones(res.final_outputs) == max(a1, a2)

    @pytest.mark.parametrize("a1,a2", [(0, 4), (3, 3), (1, 6)])
    def test_min_gate(self, a1, a2):
        g = build_graph(f"complete:{a1 + a2}")
        res = run(min_gate_protocol(), g, agents_for([a1, a2]), seed=2, expected=min(a1, a2))
        assert res.stabilized and ones(res.final_outputs) == min(a1, a2)

    def test_gate_budgets(self):
        assert max_gate_protocol().budget_bits == 3
        assert min_gate_protocol().budget_bits == 3


class TestCompiledCircuits:
    def test_depth_one_reduces_to_gate(self):
        proto = compile_circuit(parse_circuit("(max 0 1)"))
        g = build_graph("complete:5")
        res = run(proto, g, agents_for([4, 1]), seed=3, expected=4)
        assert res.stabilized and ones(res.final_outputs) == 4

    def test_depth_two_example(self):
        circ = parse_circuit("(max (max 0 1) (max 2 3))")
        proto = compile_circuit(circ)
        counts = [3, 5, 2, 4]
        g = build_graph("complete:14")
        for seed in range(10):
            res = run(proto, g, agents_for(counts, seed), seed=seed, expected=5)
            assert res.stabilized and ones(res.final_outputs) == 5

    def test_depth_three_on_cycle(self):
        circ = parse_circuit("(max (max (max 0 1) 2) 3)")
        proto = compile_circuit(circ)
        counts = [2, 3, 4, 2]
        g = build_graph("cycle:11")
        for seed in range(5):
            res = run(proto, g, agents_for(counts, seed), seed=seed, expected=4)
            assert res.stabilized and ones(res.final_outputs) == 4


class TestLedgerCheck:
    def test_depth_one_no_case_events(self):
        circ = parse_circuit("(max 0 1)")
        proto = compile_circuit(circ)
        counts = [4, 2]
        g = build_graph("complete:6")
        res = run(proto, g, agents_for(counts), seed=1, expected=4, record_trace=True)
        rep = collision_count_check(circ, agents_for(counts), res.trace)
        assert rep.passed
        (gate,) = rep.gates
        assert gate.c1 == gate.c2 == gate.d1 == gate.d2 == 0
        assert gate.collisions == 2  # min(4, 2)

    def test_side_fully_cancelled_below(self):
        # both lower gates are tied: each collision there flips an output, and
        # when the flipped agent's root charge is already spent the root gets
        # a re-issued charge (case ii, c2 + d2 > 0) on top of its min(a, b) = 1
        circ = parse_circuit("(max (max 0 1) (max 2 3))")
        proto = compile_circuit(circ)
        counts = [1, 1, 2, 2]
        g = build_graph("complete:6")
        reissued = 0
        for seed in range(40):
            inputs = agents_for(counts, seed)
            res = run(proto, g, inputs, seed=seed, expected=2, record_trace=True)
            assert res.stabilized
            rep = collision_count_check(circ, inputs, res.trace)
            assert rep.passed, f"seed {seed}\n{rep}"
            root = rep.gates[-1]
            assert (root.a, root.b) == (1, 2)
            reissued += root.c2 + root.d2 > 0
        assert reissued > 0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_depth_two_identities(self, seed):
        rng = random.Random(seed)
        counts = [rng.randint(1, 6) for _ in range(4)]
        circ = parse_circuit("(max (max 0 1) (max 2 3))")
        proto = compile_circuit(circ)
        n = sum(counts)
        g = build_graph(f"complete:{n}") if n > 4 else build_graph(f"cycle:{n}")
        inputs = agents_for(counts, seed)
        expected = evaluate(circ, counts)
        res = run(proto, g, inputs, seed=seed, expected=expected, record_trace=True)
        assert res.stabilized
        rep = collision_count_check(circ, inputs, res.trace)
        assert rep.passed, f"counts {counts}\n{rep}"

    def test_report_prints_a_header_and_one_verdict_row_per_gate(self):
        circ = parse_circuit("(max (max 0 1) (max 2 3))")
        inputs = agents_for([3, 5, 2, 4])
        res = run(compile_circuit(circ), build_graph("complete:14"), inputs, seed=0,
                  expected=5, record_trace=True)
        rep = collision_count_check(circ, inputs, res.trace)
        assert rep.passed

        def row(gate, verdict):
            return " ".join(map(str, dataclasses.astuple(gate))) + f" {verdict}"

        header = "gate A B a b c1 c2 d1 d2 collisions ones ok"
        assert str(rep).split("\n") == [header] + [row(g, "PASS") for g in rep.gates]
        *lower, root = rep.gates
        broken = dataclasses.replace(root, ones=root.ones + 1)
        assert str(LedgerReport([*lower, broken], False)).split("\n") == (
            [header] + [row(g, "PASS") for g in lower] + [row(broken, "FAIL")])

    def test_requires_max_only(self):
        for text in ("(max (min 0 1) 2)", "(min (max 0 1) 2)", "(min 0 1)"):
            with pytest.raises(CircuitError, match="MIN gates do not compose.*min-gate"):
                parse_circuit(text)


def max_tree_shapes(lo, hi):
    """Every MAX tree over the leaves lo..hi-1, in that order."""
    if hi - lo == 1:
        yield str(lo)
        return
    for mid in range(lo + 1, hi):
        for left in max_tree_shapes(lo, mid):
            for right in max_tree_shapes(mid, hi):
                yield f"(max {left} {right})"


class TestNoLevelWaits:
    """The ledger never has to hold a decrement back: each level spends at
    most once and only that spend marks the level above, and a marked level
    is cleared by case (i) or (ii) whatever else it holds."""

    @pytest.mark.parametrize("text", [
        *(t for leaves in (2, 3, 4) for t in max_tree_shapes(0, leaves)), "(max 0 2)"])
    def test_every_reachable_level(self, text):
        circ = parse_circuit(text)
        proto = compile_circuit(circ)
        for state in state_closure(proto):
            levels = state.levels
            for i, (lv, side) in enumerate(zip(levels, circ.sides[state.color])):
                if lv.out and i + 1 < len(levels):
                    assert not levels[i + 1].mark, state
                if lv.mark:
                    assert lv.charge in (side, 0), state
                    assert (lv.charge, lv.live, lv.out) != (0, 1, 0), state


class TestPlurality:
    def test_unique_argmax_simple(self):
        proto = plurality_protocol(4)
        counts = [5, 3, 2, 2]
        g = build_graph("complete:12")
        res = run(proto, g, agents_for(counts), seed=0, expected=0)
        assert res.stabilized and set(res.final_outputs) == {0}

    def test_last_color_wins_with_subtie(self):
        proto = plurality_protocol(4)
        counts = [1, 1, 1, 4]
        for spec in ("complete:7", "cycle:7"):
            g = build_graph(spec)
            for seed in range(30):
                res = run(proto, g, agents_for(counts, seed), seed=seed, expected=3)
                assert res.stabilized and set(res.final_outputs) == {3}, (spec, seed)

    def test_budget_k4_is_12_bits(self):
        assert plurality_protocol(4).budget_bits == 12

    def test_scaling_counts_preserves_argmax(self):
        proto = plurality_protocol(4)
        base = [3, 1, 2, 2]
        for factor in (1, 2, 3):
            counts = [c * factor for c in base]
            g = build_graph(f"complete:{sum(counts)}")
            res = run(proto, g, agents_for(counts, factor), seed=factor, expected=0)
            assert res.stabilized and set(res.final_outputs) == {0}

    def test_non_power_of_two_k(self):
        proto = plurality_protocol(3)
        counts = [2, 4, 1]
        g = build_graph("complete:7")
        res = run(proto, g, agents_for(counts), seed=5, expected=1)
        assert res.stabilized and set(res.final_outputs) == {1}

    def test_k2_reduces_to_majority(self):
        proto = plurality_protocol(2)
        g = build_graph("cycle:9")
        res = run(proto, g, agents_for([4, 5]), seed=2, expected=1)
        assert res.stabilized and set(res.final_outputs) == {1}

    def test_k8_depth_three_tree(self):
        proto = plurality_protocol(8)
        assert proto.budget_bits == 18  # 4*3 + 2*3
        counts = [1, 2, 1, 1, 3, 1, 1, 1]
        g = build_graph("complete:11")
        for seed in range(5):
            res = run(proto, g, agents_for(counts, seed), seed=seed, expected=4)
            assert res.stabilized and set(res.final_outputs) == {4}


def level(unit, ghost, out):
    """A gossip level as `plurality_protocol`'s states hold it."""
    return unit << 2 | ghost << 1 | out


class TestGossipMeetings:
    """Meetings of `plurality:4` worked by hand from the gossip rules. Its tree
    is ((0, 1), (2, 3)): colours 0 and 1 meet at gate 0 on sides +1 and -1,
    colours 2 and 3 at gate 1, and the two pairs at the root, 0 and 1 on
    side +1. A fresh agent is armed with belief 1 at each of its levels."""

    fresh = (level(ARMED, 0, 1),) * 2

    def test_a_collision_at_the_first_gate(self):
        # the armed charges +1 and -1 cancel: both units are spent, and the
        # initiator keeps the tie marker, whose fixed verdict +1 the responder
        # hears, so its belief falls to 0; with that input it hears the
        # root's +1 as a loss too. The initiator is now certified, so the
        # responder copies its colour
        x, y = plurality_protocol(4).transition((0, 0, self.fresh), (1, 1, self.fresh))
        assert x == (0, 0, (level(SPENT, 1, 1), level(ARMED, 0, 1)))
        assert y == (1, 0, (level(SPENT, 0, 0), level(ARMED, 0, 0)))

    def test_a_tie_markers_broadcast(self):
        # a colour-0 agent whose gate-0 belief is 0 first syncs its root
        # (no input: the armed unit is shed); then it hears the partner's
        # tie marker at gate 0, verdict +1, its own side, so its belief is
        # 1, and with that input it hears the partner's armed +1 at the root
        w = (0, 1, (level(SPENT, 0, 0), level(ARMED, 0, 0)))
        x = (0, 0, (level(SPENT, 1, 1), level(ARMED, 0, 1)))
        assert plurality_protocol(4).transition(w, x) == (
            (0, 0, (level(SPENT, 0, 1), level(SHED, 0, 1))), x)

    def test_a_certified_colour_is_copied_into_the_partners_final_register(self):
        # colours 0 and 2 share only the root, where the spent-out partner
        # carries no charge and hears +1 without an input; nothing but its
        # final register changes, and it takes the certified agent's colour
        x = (0, 0, (level(SPENT, 1, 1), level(ARMED, 0, 1)))
        z = (2, 2, (level(SPENT, 0, 0), level(SHED, 0, 0)))
        assert plurality_protocol(4).transition(x, z) == (x, (2, 0, z[2]))
        assert plurality_protocol(4).transition(z, x) == ((2, 0, z[2]), x)
        # uncertified, the partner's register stays, and nothing fires: a swap
        assert plurality_protocol(4).transition((0, 0, z[2]), z) == (z, (0, 0, z[2]))


def eager_shared(p1, p2):
    """Reference rule: the index pairs, bottom-up, of the common suffix of two
    gate paths, found by walking down from both roots while the gates agree."""
    pairs = []
    i, j = len(p1) - 1, len(p2) - 1
    while i >= 0 and j >= 0 and p1[i] == p2[j]:
        pairs.append((i, j))
        i -= 1
        j -= 1
    return tuple(reversed(pairs))


class TestSharedGates:
    @pytest.mark.parametrize("circ", [complete_max_tree(k) for k in range(2, 14)] + [
        parse_circuit(text) for text in ("(max (max 0 1) (max 2 3))", "(max 0 1)",
                                         "(max (max (max 0 1) 2) 3)", "(max 2 (max 3 4))")
    ], ids=[f"complete-{k}" for k in range(2, 14)] + ["readme", "gate", "chain", "phantom"])
    def test_matches_the_eager_rule_for_every_color_pair(self, circ):
        for cx, p1 in circ.paths.items():
            for cy, p2 in circ.paths.items():
                assert circ.shared(cx, cy) == eager_shared(p1, p2)

    def test_shared_pairs_are_memoized_on_first_use(self):
        circ = complete_max_tree(2048)
        pairs = circ.shared(0, 2047)
        assert circ.shared(0, 2047) is pairs
        assert circ.shared.cache_info().currsize == 1  # not all 2048^2 colour pairs

    def test_plurality_2048_resolves_and_fills_a_pair(self):
        table = TransitionTable(plurality_protocol(2048))
        a, b = (table.intern(table.protocol.init(c)) for c in (0, 2047))
        x, y = table.fill(a, b)
        assert {table.objs[x][0], table.objs[y][0]} == {0, 2047}


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_tree_evaluation_matches_pairwise_max(counts):
    circ = complete_max_tree(4)
    assert evaluate(circ, counts) == max(counts)
