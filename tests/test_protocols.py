import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonet.catalog import resolve_protocol
from anonet.circuits import compile_circuit, parse_circuit
from anonet.engine import ProtocolViolation, TransitionTable, build_graph, run
from anonet.oracle import _closure, audit_memory
from anonet.protocols import (
    bit_protocol,
    estimate_protocol,
    level_count,
    lsb_counter_protocol,
    or_protocol,
    threshold_protocol,
)
from replay import replay


def inputs_with_r(n, r):
    return [0] * r + [1] * (n - r)


def shuffled_inputs(n, r, seed):
    vals = inputs_with_r(n, r)
    random.Random(seed).shuffle(vals)
    return vals


class TestOr:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_matches_fold(self, bits):
        expected = 0
        for b in bits:
            expected = expected or b
        g = build_graph(f"complete:{len(bits)}")
        res = run(or_protocol(), g, bits, seed=1, expected=expected)
        assert res.stabilized and set(res.final_outputs) == {expected}


class TestLsbCounter:
    def test_r_zero_all_zero(self):
        g = build_graph("cycle:6")
        res = run(lsb_counter_protocol(2), g, [1] * 6, seed=0, expected=0)
        assert res.stabilized and res.first_correct_step == 0

    @pytest.mark.parametrize(
        "n,r,c,want",
        [(6, 5, 2, 1), (7, 4, 2, 0), (6, 3, 1, 1), (9, 8, 3, 0)],
    )
    def test_examples(self, n, r, c, want):
        assert want == r % (1 << c)
        for graph_spec in (f"complete:{n}", f"cycle:{n}"):
            g = build_graph(graph_spec)
            res = run(lsb_counter_protocol(c), g, shuffled_inputs(n, r, 3), seed=7, expected=want)
            assert res.stabilized and set(res.final_outputs) == {want}

    def test_conservation_and_active_monotonicity(self):
        # active counter sum stays r mod 2^c; active count never increases
        c = 2
        mod = 1 << c
        p = lsb_counter_protocol(c)
        g = build_graph("gnp:8:0.5", seed=5)
        r = 5
        seen = {"actives": r + 1}

        def check(step, states):
            actives = [s for s in states if s.active]
            assert sum(s.counter for s in actives) % mod == r % mod
            assert len(actives) <= seen["actives"]
            seen["actives"] = len(actives)

        inputs = shuffled_inputs(8, r, 1)
        replay(p, inputs, run(p, g, inputs, seed=2, expected=r % mod, record_trace=True), check)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_hit_oracle(self, c, r, seed):
        n = 6
        g = build_graph("complete:6")
        res = run(lsb_counter_protocol(c), g, shuffled_inputs(n, r, seed), seed=seed, expected=r % (1 << c))
        assert res.stabilized


class TestThreshold:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            threshold_protocol(3, 1, 1)  # a > 2^c
        with pytest.raises(ValueError):
            threshold_protocol(0, 1, 1)

    @pytest.mark.parametrize(
        "a,b,c,n,r,want",
        [
            (1, 1, 1, 5, 3, 1),  # strict majority of red
            (2, 1, 2, 9, 6, 0),  # 6/3 == 2/1 exactly: tie stabilizes to 0
            (1, 3, 2, 8, 3, 1),  # 3/5 > 1/3
            (1, 2, 1, 6, 2, 0),  # 2/4 < 1/2... equality: 2*2 == 1*4 tie -> 0
        ],
    )
    def test_examples(self, a, b, c, n, r, want):
        assert want == (1 if b * r > a * (n - r) else 0)
        g = build_graph(f"complete:{n}")
        res = run(threshold_protocol(a, b, c), g, shuffled_inputs(n, r, 11), seed=13, expected=want)
        assert res.stabilized and set(res.final_outputs) == {want}

    def test_strong_counter_sum_conserved(self):
        a, b, c = 2, 1, 2
        n, r = 9, 6
        target = b * r - a * (n - r)
        p = threshold_protocol(a, b, c)

        def check(step, states):
            assert sum(s.counter for s in states if s.strong) == target

        g = build_graph("cycle:9")
        inputs = shuffled_inputs(n, r, 2)
        replay(p, inputs, run(p, g, inputs, seed=3, expected=0, record_trace=True), check)

    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_hit_oracle(self, a, b, r, seed):
        n = 7
        want = 1 if b * r > a * (n - r) else 0
        g = build_graph("complete:7")
        res = run(threshold_protocol(a, b, 1), g, shuffled_inputs(n, r, seed), seed=seed, expected=want)
        assert res.stabilized


class TestBit:
    @pytest.mark.parametrize("j,want", [(0, 0), (1, 1), (2, 1)])
    def test_r6_bits(self, j, want):
        g = build_graph("complete:9")
        res = run(bit_protocol(j, 16), g, shuffled_inputs(9, 6, 5), seed=5, expected=want)
        assert res.stabilized and set(res.final_outputs) == {want}

    def test_r13_all_bits_many_graphs(self):
        # binary 1101 read low to high: (1, 0, 1, 1)
        for j, want in enumerate((1, 0, 1, 1)):
            p = bit_protocol(j, 16)
            for spec in ("complete:16", "cycle:16", "gnp:16:0.4"):
                for seed in range(5):
                    g = build_graph(spec, seed=seed)
                    res = run(p, g, shuffled_inputs(16, 13, seed), seed=seed, expected=want)
                    assert res.stabilized, (j, spec, seed)

    def test_level_cap_violation_raises(self):
        p = bit_protocol(0, 2)  # two levels only; r=4 forces level 2
        g = build_graph("complete:4")
        with pytest.raises(ProtocolViolation):
            run(p, g, [0, 0, 0, 0], seed=0, expected=0)
        # the bound is on r, not n: L = level_count(n_max) levels hold r < 2^L
        # at r = 15: bit 1 of r is 1, and floor(log2 r) is 3
        for proto, want in ((bit_protocol(1, 8), 1), (estimate_protocol(8), 3)):
            top = 1 << level_count(8)  # 16, although n_max is 8
            g = build_graph(f"complete:{top + 4}")
            res = run(proto, g, inputs_with_r(top + 4, top - 1), seed=0, expected=want)
            assert res.stabilized and res.stopped_by == "quiescence"
            with pytest.raises(ProtocolViolation, match="r, the count of color 0"):
                run(proto, g, inputs_with_r(top + 4, top), seed=0, expected=-1)

    def test_level_arrivals_halve_and_survivor_colors(self):
        # replay a trace: l_{i+1} == floor(l_i / 2) arrivals, and the last
        # active state at level i carries bit i of r
        n, r = 12, 11
        p = bit_protocol(0, 16)
        g = build_graph("complete:12")
        inputs = shuffled_inputs(n, r, 8)
        res = run(p, g, inputs, seed=9, expected=(r & 1), record_trace=True)
        assert res.stabilized
        states = [p.init(c) for c in inputs]
        arrivals = [r] + [0] * 8
        for act in res.trace:
            sx, sy = states[act.initiator], states[act.responder]
            (cx, ax, lx, _), (cy, ay, ly, _) = sx, sy  # (color, active, level, out)
            if ax and ay and lx == ly and cx == cy == 1:
                arrivals[lx + 1] += 1
            states[act.initiator], states[act.responder] = p.transition(sx, sy)
        levels_hit = [i for i, a in enumerate(arrivals) if a > 0]
        for i in levels_hit:
            if arrivals[i] >= 2:
                assert arrivals[i + 1] == arrivals[i] // 2
            survivor = [color for color, active, level, _ in states if active and level == i]
            assert len(survivor) == 1
            assert survivor[0] == (r >> i) & 1

    def test_active_level_multiset_changes_only_by_merges(self):
        n, r = 10, 7
        p = bit_protocol(1, 16)
        g = build_graph("cycle:10")

        prev = {"levels": sorted([0] * r)}

        def check(step, states):
            now = sorted(level for _, active, level, _ in states if active)
            before = prev["levels"]
            if now != before:
                # exactly one merge: two tokens at some level l become one
                # at l, possibly plus one at l+1
                assert len(before) - len(now) in (0, 1)
                assert len(now) >= 1
            prev["levels"] = now

        inputs = shuffled_inputs(n, r, 4)
        replay(p, inputs, run(p, g, inputs, seed=6, expected=1, record_trace=True), check)


class TestEstimate:
    @pytest.mark.parametrize("r,want", [(1, 0), (12, 3), (32, 5)])
    def test_examples(self, r, want):
        n = 34
        assert want == int(math.floor(math.log2(r)))
        g = build_graph("complete:34")
        res = run(estimate_protocol(64), g, shuffled_inputs(n, r, 2), seed=3, expected=want)
        assert res.stabilized and set(res.final_outputs) == {want}

    def test_r_zero_stays_empty(self):
        g = build_graph("cycle:5")
        res = run(estimate_protocol(8), g, [1] * 5, seed=0, expected=0)
        assert res.stabilized and set(res.final_outputs) == {0}

    def test_estimate_within_factor_two(self):
        for r in (3, 5, 9, 20):
            g = build_graph("complete:24")
            res = run(estimate_protocol(32), g, shuffled_inputs(24, r, r), seed=r, expected=int(math.log2(r)))
            assert res.stabilized
            est = res.final_outputs[0]
            assert r / 2 < 2**est <= 2 * r


class TestBudgets:
    def test_declared_budgets(self):
        assert lsb_counter_protocol(2).budget_bits == 3
        assert threshold_protocol(2, 1, 1).budget_bits == 3
        assert or_protocol().budget_bits == 1
        # 16 levels for n_max=64 -> log2(7)->3 bits of level, plus 3
        assert bit_protocol(0, 64).budget_bits == math.ceil(math.log2(7)) + 3


def state_closure(proto) -> set:
    """Every state that any run of `proto` can reach, on any graph of any size.

    A reachable state is an initial state or a result of one transition on
    two reachable states, so the closure of the initial states under all
    ordered pairs holds them all. Pairs that raise ProtocolViolation are
    skipped: a run that meets one raises, so their results never exist in a
    completed run. Semi-naive: each round pairs only the states new in the
    round before with all states so far.
    """
    states = list(dict.fromkeys(proto.init(c) for c in range(proto.colors)))
    seen, frontier = set(states), list(states)
    while frontier:
        new = []
        for x in frontier:
            for y in states:
                for a, b in ((x, y), (y, x)):
                    try:
                        result = proto.transition(a, b)
                    except ProtocolViolation:
                        continue
                    for s in result:
                        if s not in seen:
                            seen.add(s)
                            new.append(s)
        states += new
        frontier = new
    return seen


# plurality:k's closed cores: bounds of 18, 195 and 488 states
PLURALITY_CORES = {"plurality:2": 9, "plurality:3": 65, "plurality:4": 122}


class TestStateClosure:
    @pytest.mark.parametrize("spec,size", [
        ("or", 2), ("lsb:2", 8), ("lsb:4", 32), ("threshold:2:1", 8), ("threshold:3:5:3", 18),
        ("bit:2:64", 38), ("bit:0:1024", 62), ("estimate:64", 71), ("estimate:1024", 177),
        ("max-gate", 4), ("min-gate", 4), ("plurality:2", 12), ("plurality:3", 122),
        ("plurality:4", 316), pytest.param("(max (max 0 1) 2)", 29, id="max-tree-29"),
    ])
    def test_closure_size_budget_and_runs(self, spec, size):
        proto = (compile_circuit(parse_circuit(spec)) if spec.startswith("(")
                 else resolve_protocol(spec).protocol)
        closure = state_closure(proto)
        assert len(closure) == size
        assert (size - 1).bit_length() <= proto.budget_bits
        # the audit counts the closure; plurality's, its cores times k
        [report] = audit_memory([proto])
        if proto.core:
            project, spread = proto.core
            cores = _closure(proto)
            assert cores == {project(s) for s in closure}
            assert len(cores) == PLURALITY_CORES[spec]
            assert report.distinct_states == len(cores) * spread >= size
        else:
            assert report.distinct_states == size
        assert report.ok
        # every state that sampled runs reach on complete:8 lies in the closure
        table = TransitionTable(proto)
        g = build_graph("complete:8")
        rng = random.Random(spec)
        for seed in range(6):
            inputs = [rng.randrange(proto.colors) for _ in range(8)]
            run(proto, g, inputs, seed=seed, max_steps=20_000, expected=-1, table=table)
        assert set(table.objs) <= closure


def readme_memory_table() -> dict:
    """The rows of the README's table of certified counts: spec -> (states,
    bits, budget, how they are counted)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z]+:\d+)` \| ([\d,]+) \| (\d+) \| (\d+) \| (.*) \|$", readme,
                      re.M)
    return {spec: (int(states.replace(",", "")), int(bits), int(budget), counted)
            for spec, states, bits, budget, counted in rows}


def test_readme_memory_table_rows_are_the_paper_claims():
    assert list(readme_memory_table()) == [
        *(f"estimate:{1 << e}" for e in (6, 10, 16, 32)), *(f"plurality:{k}" for k in range(2, 9))]


# the rows that close in under a second; the others take up to ~10 s
@pytest.mark.parametrize("spec", ["estimate:64", "estimate:1024", "estimate:65536",
                                  "plurality:2", "plurality:3", "plurality:4"])
def test_readme_memory_table_matches_the_audit(spec):
    proto = resolve_protocol(spec).protocol
    [report] = audit_memory([proto])
    counted = f"{len(_closure(proto)):,} cores × {proto.core[1]}" if proto.core else "closure"
    assert readme_memory_table()[spec] == (report.distinct_states, report.measured_bits,
                                           report.declared_bits, counted)
