import ast
import functools
import itertools
import math
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anonet import oracle
from anonet.catalog import KINDS, resolve_protocol
from anonet.circuits import compile_circuit, complete_max_tree, evaluate, parse_circuit
from anonet.engine import build_graph, match_rule, run
from anonet.oracle import (
    _explore,
    _labelled,
    _symmetry,
    audit_memory,
    scaling_report,
    verify_exhaustive,
)
from anonet.protocols import (
    ProtocolDef,
    bit_protocol,
    lsb_counter_protocol,
    or_protocol,
    threshold_protocol,
)


def truth(spec, counts):
    return resolve_protocol(spec).oracle_fn(counts)


class TestOracleValue:
    def test_trivials(self):
        assert truth("bit:2:256", [13, 3]) == 1  # binary 1101
        assert truth("threshold:1:3", [3, 5]) == 1  # 9 > 5
        assert truth("plurality:4", [5, 3, 2, 2]) == 0
        assert truth("or", [4, 0]) == 0
        assert truth("or", [3, 1]) == 1
        assert truth("lsb:2", [5, 1]) == 1
        assert truth("max-gate", [2, 5]) == 5
        assert truth("min-gate", [2, 5]) == 2
        assert truth("estimate:16", [12, 0]) == 3
        assert truth("estimate:16", [0, 4]) is None

    def test_plurality_tie_raises(self):
        with pytest.raises(ValueError):
            truth("plurality:4", [3, 3, 1, 1])

    def test_circuit_matches_tree(self):
        circ = parse_circuit("(max (max 0 2) 3)")  # colour 1 is not a leaf
        assert evaluate(circ, [3, 5, 2, 4]) == 4

    def test_complete_tree_agrees_with_plurality_argmax(self):
        tree = complete_max_tree(4)
        for counts in ([5, 3, 2, 2], [1, 1, 1, 4], [2, 6, 3, 1]):
            winner = truth("plurality:4", counts)
            assert evaluate(tree, counts) == counts[winner]

    def test_estimate_is_floor_log2(self):
        estimate = resolve_protocol("estimate:16").oracle_fn
        assert all(estimate([r, 0]) == math.floor(math.log2(r)) for r in range(1, 5000))

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_bits_reassemble_r(self, r):
        assert sum(truth(f"bit:{j}:256", [r, 0]) << j for j in range(9)) == r

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_threshold_is_rational_compare(self, a, b, r, blue):
        from fractions import Fraction

        want = 1 if Fraction(r, blue) > Fraction(a, b) else 0
        assert truth(f"threshold:{a}:{b}", [r, blue]) == want


class TestVerifyExhaustive:
    def test_or_monotone_absorbing(self):
        g = build_graph("path:3")
        res = verify_exhaustive(or_protocol(), g, [0, 1, 0], 1)
        assert res.verdict == "PASS"

    def test_parity_cycle4_all_inputs(self):
        g = build_graph("cycle:4")
        p = lsb_counter_protocol(1)
        for bits in itertools.product([0, 1], repeat=4):
            r = sum(1 for b in bits if b == 0)
            res = verify_exhaustive(p, g, list(bits), r % 2)
            assert res.verdict == "PASS", bits

    def test_threshold_tie_passes_with_zero_output(self):
        g = build_graph("complete:4")
        res = verify_exhaustive(threshold_protocol(1, 1, 1), g, [0, 0, 1, 1], 0)
        assert res.verdict == "PASS"

    def test_guard_trips_to_skipped(self):
        g = build_graph("complete:4")
        res = verify_exhaustive(bit_protocol(0, 8), g, [0, 0, 0, 1], 1, max_configs=10)
        assert res.verdict == "SKIPPED"

    def test_detects_wrong_expected_value(self):
        g = build_graph("path:3")
        res = verify_exhaustive(or_protocol(), g, [0, 1, 0], 0)
        assert res.verdict == "FAIL"

    def test_agrees_with_sampled_runs(self):
        g = build_graph("cycle:4")
        p = lsb_counter_protocol(2)
        for bits in [(0, 0, 1, 0), (0, 1, 0, 0), (1, 1, 1, 1)]:
            r = sum(1 for b in bits if b == 0)
            sampled = run(p, g, list(bits), seed=3, expected=r % 4)
            exhaustive = verify_exhaustive(p, g, list(bits), r % 4)
            assert sampled.stabilized and exhaustive.verdict == "PASS"

    @pytest.mark.parametrize("protocol,inputs,expected,message", [
        (or_protocol(), [0, 7, 0, 0], 7, "input color 7 invalid for or"),
        (lsb_counter_protocol(2), [0, 1, 0, 1, 0, 0], 0, "input length 6 != n 4"),
        (or_protocol(), [0, 1], 1, "input length 2 != n 4"),
        (lsb_counter_protocol(2), [0, 5, 0, 1], 2, "input color 5 invalid for lsb:2"),
    ], ids=["color-7", "length-6", "length-2", "color-5"])
    def test_an_input_that_is_no_instance_is_rejected_as_run_rejects_it(
            self, protocol, inputs, expected, message):
        g = build_graph("cycle:4")
        with pytest.raises(ValueError) as rejected:
            run(protocol, g, inputs, expected=expected)
        assert str(rejected.value) == message
        with pytest.raises(ValueError) as rejected:
            verify_exhaustive(protocol, g, inputs, expected)
        assert str(rejected.value) == message


class TestAuditMemory:
    def test_lsb2_has_exactly_8_states(self):
        [report] = audit_memory([lsb_counter_protocol(2)])
        assert (report.distinct_states, report.measured_bits, report.declared_bits) == (8, 3, 3)
        assert report.ok

    def test_max_gate_has_exactly_4_states(self):
        from anonet.circuits import max_gate_protocol

        [report] = audit_memory([max_gate_protocol()])
        assert report.distinct_states == 4
        assert report.ok

    @pytest.mark.parametrize("states,bits", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3),
                                             (9, 4)])
    def test_width_of_exactly_k_states(self, states, bits):
        # each initiator counts up to states - 1, so the closure is 0 .. states - 1
        counter = ProtocolDef(
            name=f"counter:{states}",
            init=lambda color: 0,
            transition=lambda a, b: (min(a + 1, states - 1), b),
            output=lambda s: s,
            budget_bits=bits,
        )
        [report] = audit_memory([counter])
        assert (report.distinct_states, report.measured_bits) == (states, bits)
        assert bits == max(1, math.ceil(math.log2(states)))

    def test_overbudget_detected(self):
        import dataclasses

        p = lsb_counter_protocol(2)
        tight = dataclasses.replace(p, budget_bits=1)
        [report] = audit_memory([tight])
        assert not report.ok


class TestScalingReport:
    def test_fits_known_powers(self):
        samples = {n: [float(n**2)] for n in (8, 16, 32, 64)}
        fit = scaling_report(samples)
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scipy_linregress(self, seed):
        stats = pytest.importorskip("scipy.stats")
        rng = random.Random(seed)
        k = 3 if seed < 5 else rng.randint(4, 8)  # 3 sizes: one degree of freedom
        sizes = sorted(rng.sample(range(2, 2000), k))
        samples = {n: [rng.uniform(1, 1e6) for _ in range(rng.randint(1, 5))] for n in sizes}
        fit = scaling_report(samples)
        ref = stats.linregress(
            [math.log(n) for n in sizes],
            [math.log(sum(samples[n]) / len(samples[n])) for n in sizes],
        )
        for got, want in ((fit.exponent, ref.slope), (fit.intercept, ref.intercept),
                          (fit.stderr, ref.stderr)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_exact_power_law_has_zero_stderr(self):
        stats = pytest.importorskip("scipy.stats")
        sizes = (8, 16, 32)
        fit = scaling_report({n: [float(n**2)] for n in sizes})
        ref = stats.linregress([math.log(n) for n in sizes], [math.log(n**2) for n in sizes])
        assert fit.stderr == ref.stderr == 0.0
        assert fit.exponent == ref.slope == 2.0

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError):
            scaling_report({8: [1.0], 16: [2.0]})

    def test_or_on_complete_near_linear(self):
        p = or_protocol()
        samples = {}
        for n in (8, 16, 32):
            samples[n] = []
            g = build_graph(f"complete:{n}")
            for seed in range(20):
                inputs = [1] + [0] * (n - 1)
                res = run(p, g, inputs, seed=seed, expected=1)
                assert res.stabilized
                samples[n].append(max(1, res.first_correct_step))
        fit = scaling_report(samples)
        assert fit.exponent <= 2.0


CATALOG_SPECS = ("or", "lsb:2", "threshold:2:1", "bit:1:8", "estimate:8", "max-gate",
                 "min-gate", "plurality:2")


def catalog_cases():
    """(protocol, oracle) for every catalog protocol kind and a `circuit`;
    `plurality:2` covers the gossip semantics."""
    cases = []
    for spec in CATALOG_SPECS:
        resolved = resolve_protocol(spec)
        cases.append((resolved.protocol, resolved.oracle_fn))
    circ = parse_circuit("(max (max 0 1) 2)")
    cases.append((compile_circuit(circ), functools.partial(evaluate, circ)))
    return cases


def labelled(protocol, graph, inputs, expected):
    """The unreduced verifier, the reference for the reduced one."""
    return _explore(protocol, inputs, expected, 10_000_000, *_labelled(graph))


CASES = catalog_cases()


def attracting_verdict(protocol, graph, inputs, expected):
    """(verdict, outputs of the bad members of terminal components) by an
    independent reference: the labelled configuration graph built on state
    objects, and networkx's attracting components."""
    want, target = match_rule(protocol, expected, graph.n)
    init = tuple(protocol.init(c) for c in inputs)
    configs = nx.DiGraph()
    configs.add_node(init)
    todo = [init]
    while todo:
        cfg = todo.pop()
        for u, v in graph.arcs:
            nxt = list(cfg)
            nxt[u], nxt[v] = protocol.transition(cfg[u], cfg[v])
            nxt = tuple(nxt)
            if nxt not in configs:
                todo.append(nxt)
            configs.add_edge(cfg, nxt)
    bad = []
    for comp in nx.attracting_components(configs):
        for cfg in comp:
            outs = [protocol.output(s) for s in cfg]
            if outs.count(want) != target:
                bad.append(outs)
    return ("FAIL" if bad else "PASS"), bad


# the responder adopts the initiator's bit: from mixed inputs both consensus
# configurations are terminal, so a good and a bad component are reachable
VOTER = ProtocolDef("voter", init=int, transition=lambda a, b: (a, a), output=int)
REFERENCE_CASES = CASES + [(VOTER, lambda counts: 0)]


@pytest.mark.parametrize("protocol,oracle", REFERENCE_CASES,
                         ids=[p.name for p, _ in REFERENCE_CASES])
def test_verdicts_agree_with_attracting_components(protocol, oracle):
    checked = 0
    for spec in ("path:4", "star:4"):
        graph = build_graph(spec)
        for inputs in itertools.product(range(protocol.colors), repeat=graph.n):
            try:
                value = oracle([inputs.count(c) for c in range(protocol.colors)])
            except ValueError:  # a plurality tie has no answer
                continue
            value = 0 if value is None else value
            for expected in (value, value + 1):
                res = verify_exhaustive(protocol, graph, inputs, expected)
                verdict, bad = attracting_verdict(protocol, graph, inputs, expected)
                assert res.verdict == verdict, (spec, inputs, expected)
                if verdict == "FAIL":
                    assert res.detail in [f"terminal configuration with outputs {outs}"
                                          for outs in bad]
                checked += 1
    assert checked >= 2 * 2 * 10


def random_tables():
    """Protocols of 2 or 3 states from two colours, per-node or matched on the
    ones-count, whose transition table holds null pairs among random ones."""
    def protocol(k, pairs, outs, mode):
        table = dict(zip(itertools.product(range(k), repeat=2), pairs))
        return ProtocolDef(f"table:{k}", init=int,
                           transition=lambda a, b: table[a, b] or (a, b),
                           output=outs.__getitem__, match_mode=mode)

    def tables(k):
        state = st.integers(min_value=0, max_value=k - 1)
        return st.builds(protocol, st.just(k),
                         st.lists(st.none() | st.tuples(state, state), min_size=k * k,
                                  max_size=k * k),
                         st.lists(st.integers(min_value=0, max_value=1), min_size=k, max_size=k),
                         st.sampled_from(["per_node", "ones_count"]))

    return st.integers(min_value=2, max_value=3).flatmap(tables)


def up_to(symmetry, outs):
    """`outs` up to the symmetry `verify_exhaustive` explores under."""
    if symmetry == "complete":
        return tuple(sorted(outs))
    if symmetry == "cycle":
        n = len(outs)
        return min(tuple(outs[(s + d * k) % n] for k in range(n)) for s in range(n)
                   for d in (1, -1))
    return tuple(outs)


@given(random_tables())
@settings(max_examples=12, deadline=None, derandomize=True)
def test_random_tables_agree_with_attracting_components(protocol):
    # every input and every answer: the verdict pass must tell terminal
    # components from those an arc leaves, which random tables mix freely
    for spec in ("path:3", "star:4", "cycle:4", "complete:4"):
        graph = build_graph(spec)
        answers = range(graph.n + 1) if protocol.match_mode == "ones_count" else (0, 1)
        for inputs in itertools.product((0, 1), repeat=graph.n):
            for expected in answers:
                res = verify_exhaustive(protocol, graph, inputs, expected)
                verdict, bad = attracting_verdict(protocol, graph, inputs, expected)
                assert res.verdict == verdict, (spec, inputs, expected)
                if verdict == "FAIL":
                    outs = ast.literal_eval(res.detail.removeprefix(
                        "terminal configuration with outputs "))
                    assert up_to(res.symmetry, outs) in {up_to(res.symmetry, b) for b in bad}


def test_every_kind_is_cross_checked():
    assert set(KINDS) <= {spec.partition(":")[0] for spec in CATALOG_SPECS}


class TestSymmetryReduction:
    @pytest.mark.parametrize("protocol,oracle", CASES, ids=[p.name for p, _ in CASES])
    def test_verdicts_agree_with_the_labelled_verifier(self, protocol, oracle):
        rng = random.Random(1)
        checked = 0
        for spec in ("cycle:4", "cycle:5", "complete:4", "complete:5"):
            graph = build_graph(spec)
            inputs_list = list(itertools.product(range(protocol.colors), repeat=graph.n))
            if protocol.colors > 2:
                # from a 2/2/1 split on five nodes the labelled reference can
                # pass a million configurations (plurality:3 reaches 1.4M), so
                # a sample of lopsided splits stands in
                inputs_list = rng.sample([i for i in inputs_list
                                          if max(map(i.count, set(i))) >= graph.n - 2], 8)
            for inputs in inputs_list:
                counts = [inputs.count(c) for c in range(protocol.colors)]
                try:
                    value = oracle(counts)
                except ValueError:  # a plurality tie has no answer
                    continue
                value = 0 if value is None else value
                for expected, verdict in ((value, "PASS"), (value + 1, "FAIL")):
                    reduced = verify_exhaustive(protocol, graph, inputs, expected)
                    reference = labelled(protocol, graph, inputs, expected)
                    assert reduced.verdict == reference.verdict == verdict, (spec, inputs, expected)
                    assert reduced.symmetry == spec.split(":")[0]
                    assert reduced.states_explored <= reference.states_explored
                    checked += 1
        assert checked >= 32

    def test_no_reduction_off_cycles_and_complete_graphs(self):
        p = lsb_counter_protocol(2)
        for spec in ("path:4", "star:4"):
            graph = build_graph(spec)
            for bits in itertools.product((0, 1), repeat=4):
                expected = bits.count(0) % 4
                reduced = verify_exhaustive(p, graph, bits, expected)
                reference = labelled(p, graph, bits, expected)
                assert reduced.symmetry == "none"
                assert reduced.states_explored == reference.states_explored
                assert reduced.verdict == reference.verdict == "PASS"

    def test_orbits_on_the_benchmark_instances(self):
        # the numbers the benchmark's traced verify workload repeats
        res = verify_exhaustive(threshold_protocol(2, 1, 1), build_graph("cycle:7"),
                                [0, 0, 1, 0, 1, 1, 1], 0)
        assert (res.verdict, res.states_explored) == ("PASS", 5334)
        res = verify_exhaustive(lsb_counter_protocol(2), build_graph("complete:6"),
                                [0, 0, 0, 1, 1, 1], 3)
        assert (res.verdict, res.states_explored) == ("PASS", 52)

    @given(st.integers(min_value=3, max_value=9).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_least_image_is_the_least_rotation_or_reflection(self, cfg):
        # at most 3 states, so that the least state and its runs repeat
        n = len(cfg)
        least_image = _symmetry(build_graph(f"cycle:{n}"))[3]
        images = [tuple(cfg[(s + d * k) % n] for k in range(n)) for s in range(n) for d in (1, -1)]
        assert least_image(cfg) == least_image(tuple(cfg)) == min(images)

    @pytest.mark.parametrize("spec,protocol,inputs,expected", [
        ("cycle:7", threshold_protocol(2, 1, 1), [0, 0, 1, 0, 1, 1, 1], 0),
        ("complete:6", lsb_counter_protocol(2), [0, 0, 0, 1, 1, 1], 3),
        ("path:5", threshold_protocol(2, 1, 1), [0, 1, 1, 0, 1], 0),
    ])
    def test_each_labelled_successor_is_canonicalized_once(self, spec, protocol, inputs,
                                                           expected):
        symmetry, order, arcs, canon = _symmetry(build_graph(spec))
        fed = [Counter()]  # per configuration, what canon was given; first the start

        def marking_arcs(cfg):  # called once as each configuration is expanded
            fed.append(Counter())
            return arcs(cfg)

        def counting_canon(cfg):
            fed[-1][tuple(cfg)] += 1
            return canon(cfg)

        res = _explore(protocol, inputs, expected, 10_000_000, symmetry, order, marking_arcs,
                       counting_canon)
        plain = _explore(protocol, inputs, expected, 10_000_000, symmetry, order, arcs, canon)
        assert res == plain and res.verdict == "PASS"
        assert len(fed) == 1 + res.states_explored
        assert all(count == 1 for counts in fed for count in counts.values())

    @pytest.mark.parametrize("spec,protocol,inputs,expected", [
        ("cycle:7", threshold_protocol(2, 1, 1), [0, 0, 1, 0, 1, 1, 1], 0),
        ("complete:6", lsb_counter_protocol(2), [0, 0, 0, 1, 1, 1], 3),
        ("path:5", threshold_protocol(2, 1, 1), [0, 1, 1, 0, 1], 1),  # a FAIL walks succ too
    ])
    def test_each_arc_is_stored_once(self, monkeypatch, spec, protocol, inputs, expected):
        # two distinct labelled successors can share one canonical form (on
        # cycle:7, 198 of 34,025 arcs once repeated one); every block of arcs
        # the verdict pass walks must be a set, and their number that of the
        # (configuration, other canonical successor) pairs, found apart here
        symmetry, order, arcs, canon = _symmetry(build_graph(spec))
        walked = []
        first_bad_terminal = oracle._first_bad_terminal

        def spy(offsets, succ, bad):
            walked.append([list(succ[offsets[v] : offsets[v + 1]])
                           for v in range(len(offsets) - 1)])
            return first_bad_terminal(offsets, succ, bad)

        monkeypatch.setattr(oracle, "_first_bad_terminal", spy)
        res = _explore(protocol, inputs, expected, 10_000_000, symmetry, order, arcs, canon)
        assert walked and all(len(set(b)) == len(b) for blocks in walked for b in blocks)

        ids: dict = {}
        init = canon(tuple(ids.setdefault(protocol.init(inputs[v]), len(ids)) for v in order))
        states, pairs, todo = [None] * len(ids), 0, [init]
        for s, i in ids.items():
            states[i] = s
        seen = {init}
        while todo:
            cfg = todo.pop()
            nexts = set()
            for u, v in arcs(cfg):
                lst = list(cfg)
                for w, s in zip((u, v), protocol.transition(states[cfg[u]], states[cfg[v]])):
                    if s not in ids:
                        ids[s] = len(states)
                        states.append(s)
                    lst[w] = ids[s]
                nexts.add(canon(tuple(lst)))
            nexts.discard(cfg)
            pairs += len(nexts)
            todo += nexts - seen
            seen |= nexts
        assert len(seen) == res.states_explored
        assert sum(map(len, walked[0])) == pairs
        assert res.verdict == ("FAIL" if spec == "path:5" else "PASS")

    def test_relabelled_cycle_file(self, tmp_path):
        n = 6
        perm = list(range(n))
        random.Random(5).shuffle(perm)  # node i of cycle:6 is node perm[i] of the file
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{perm[i]} {perm[(i + 1) % n]}\n" for i in range(n)))
        graph = build_graph(f"file:{path}")
        p = lsb_counter_protocol(2)
        for bits in ((0, 0, 1, 0, 1, 1), (0, 1, 0, 1, 0, 1), (0, 0, 0, 0, 1, 1)):
            inputs = [0] * n
            for i, b in enumerate(bits):
                inputs[perm[i]] = b
            expected = bits.count(0) % 4
            on_file = verify_exhaustive(p, graph, inputs, expected)
            on_cycle = verify_exhaustive(p, build_graph(f"cycle:{n}"), list(bits), expected)
            reference = labelled(p, graph, inputs, expected)
            assert on_file.symmetry == "cycle"
            assert on_file.states_explored == on_cycle.states_explored
            assert on_file.states_explored < reference.states_explored
            assert on_file.verdict == on_cycle.verdict == reference.verdict == "PASS"
            wrong = verify_exhaustive(p, graph, inputs, expected + 1)
            assert wrong.verdict == labelled(p, graph, inputs, expected + 1).verdict == "FAIL"

    def test_fail_record_carries_the_terminal_outputs(self):
        res = verify_exhaustive(or_protocol(), build_graph("path:3"), [0, 1, 0], 0)
        rec = res.record("or", "path:3", [0, 1, 0])
        assert rec["verdict"] == "FAIL"
        assert rec["detail"] == "terminal configuration with outputs [1, 1, 1]"
        assert rec["symmetry"] == "none"
        ok = verify_exhaustive(or_protocol(), build_graph("path:3"), [0, 1, 0], 1)
        assert "detail" not in ok.record("or", "path:3", [0, 1, 0])

    def test_skipped_record_carries_the_guard(self):
        res = verify_exhaustive(bit_protocol(0, 8), build_graph("complete:4"), [0, 0, 0, 1], 1,
                                max_configs=10)
        rec = res.record("bit:0:8", "complete:4", [0, 0, 0, 1])
        assert rec["verdict"] == "SKIPPED" and rec["symmetry"] == "complete"
        assert rec["detail"] == "reachable set exceeds guard (10)"
