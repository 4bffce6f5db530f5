import math
import random
from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from anonet.engine import (
    Graph,
    GraphError,
    ProtocolViolation,
    TransitionTable,
    _attempt_swap,
    build_graph,
    is_connected,
    load_edge_list,
    measure_meeting_time,
    parse_rewire,
    rewire,
    run,
    schedule_next,
    write_trace,
)
from anonet.protocols import bit_protocol, lsb_counter_protocol, or_protocol


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    return g


class TestBuildGraph:
    def test_complete_edge_count(self):
        g = build_graph("complete:4")
        assert g.m == 6  # n(n-1)/2

    def test_cycle_structure(self):
        g = build_graph("cycle:5")
        assert g.m == 5
        degs = [0] * g.n
        for u, v in g.edges:
            degs[u] += 1
            degs[v] += 1
        assert all(d == 2 for d in degs)

    def test_path_and_star(self):
        assert build_graph("path:6").m == 5
        star = build_graph("star:7")
        assert star.m == 6
        assert all(0 in e for e in star.edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_gnp_connected_against_networkx(self, seed):
        g = build_graph("gnp:10:0.4", seed=seed)
        assert nx.is_connected(to_nx(g))

    def test_bad_specs(self):
        for spec in ("nope:4", "complete", "complete:1", "gnp:10", "cycle:x"):
            with pytest.raises(GraphError):
                build_graph(spec)

    def test_gnp_disconnected_density_fails(self):
        with pytest.raises(GraphError):
            build_graph("gnp:30:0.001", seed=0)

    def test_graph_invariants_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))
        with pytest.raises(GraphError):
            Graph(4, ((0, 1), (2, 3)))  # disconnected

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n2 0\n")
        g = load_edge_list(str(path))
        assert g.n == 3 and g.m == 3
        with pytest.raises(GraphError):
            load_edge_list(str(tmp_path / "missing.txt"))
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n3 4\n")
        with pytest.raises(GraphError):
            load_edge_list(str(bad))  # disconnected


class TestScheduler:
    def test_single_edge_trivial(self):
        g = build_graph("path:2")
        rng = random.Random(0)
        times = []
        t = 0.0
        for step in range(2000):
            act = schedule_next(g, 1.0, rng, time=t, step=step)
            assert {act.initiator, act.responder} == {0, 1}
            times.append(act.time - t)
            t = act.time
        mean = sum(times) / len(times)
        assert abs(mean - 1.0) < 5 / math.sqrt(len(times))

    def test_uniform_over_ordered_pairs_chi_square(self):
        # complete:3 has 6 ordered pairs; 10^6 draws against uniform
        g = build_graph("complete:3")
        rng = random.Random(123)
        counts = {}
        n_draws = 10**6
        for _ in range(n_draws):
            act = schedule_next(g, 1.0, rng)
            key = (act.initiator, act.responder)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = n_draws / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < stats.chi2.ppf(0.999, df=5)

    def test_mean_holding_time_cycle4_rate2(self):
        g = build_graph("cycle:4")
        rng = random.Random(7)
        t = 0.0
        dts = []
        for step in range(10**5):
            act = schedule_next(g, 2.0, rng, time=t, step=step)
            dts.append(act.time - t)
            t = act.time
        mean = sum(dts) / len(dts)
        target = 1 / (2.0 * 4)  # rate * |E|
        assert abs(mean - target) < 5 * target / math.sqrt(len(dts))

    def test_time_strictly_increasing_in_trace(self):
        g = build_graph("cycle:5")
        res = run(or_protocol(), g, [0, 1, 0, 0, 0], seed=3, expected=1, record_trace=True)
        times = [a.time for a in res.trace.activations]
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))


class TestRunSemantics:
    def test_or_all_zero_absorbing(self):
        g = build_graph("complete:5")
        res = run(or_protocol(), g, [0] * 5, seed=0, expected=0)
        assert res.stabilized and res.first_correct_step == 0
        assert set(res.final_outputs) == {0}

    def test_or_single_one_on_path(self):
        g = build_graph("path:6")
        res = run(or_protocol(), g, [0, 0, 1, 0, 0, 0], seed=1, expected=1)
        assert res.stabilized and set(res.final_outputs) == {1}

    def test_determinism_bit_identical(self):
        g = build_graph("gnp:8:0.5", seed=9)
        p = lsb_counter_protocol(2)
        inputs = [0, 0, 0, 1, 0, 1, 1, 0]
        r1 = run(p, g, inputs, seed=42, expected=5 % 4, record_trace=True)
        r2 = run(p, g, inputs, seed=42, expected=5 % 4, record_trace=True)
        assert r1.trace.activations == r2.trace.activations
        assert r1.final_outputs == r2.final_outputs
        assert r1.elapsed_time == r2.elapsed_time

    # 2m = 18 is no power of two, so edge draws get redrawn; 2m = 16 is one,
    # where randrange draws one bit more than 2m - 1 needs. The swaps mutate
    # the run's edge list in place, and the replay does too.
    @pytest.mark.parametrize("spec", ["cycle:9", "cycle:8"])
    def test_trace_matches_schedule_next_stream(self, spec):
        g = build_graph(spec)
        rate, period = 2.5, 4
        inputs = [i % 3 % 2 for i in range(g.n)]
        res = run(lsb_counter_protocol(2), g, inputs, seed=21, expected=inputs.count(0) % 4,
                  rate=rate, rewire_policy=parse_rewire(f"swap:{period}"), record_trace=True)
        rng = random.Random(21)
        edges = list(g.edges)
        view = SimpleNamespace(m=len(edges), edges=edges)  # what schedule_next reads
        ref = SimpleNamespace(time=0.0)
        for step, act in enumerate(res.trace.activations):
            ref = schedule_next(view, rate, rng, time=ref.time, step=step)
            assert act == ref  # times compared with ==
            if ref.step % period == 0:
                _attempt_swap(edges, g.n, rng)
        assert res.elapsed_time == ref.time
        assert sorted(edges) != list(g.edges)  # some swap was applied

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rate_must_be_finite_and_positive(self, rate):
        g = build_graph("path:3")
        with pytest.raises(ValueError, match="rate"):
            run(or_protocol(), g, [0, 1, 0], expected=1, rate=rate)
        with pytest.raises(ValueError, match="rate"):
            measure_meeting_time(g, trials=1, rate=rate)

    def test_max_steps_reported_not_fatal(self):
        g = build_graph("cycle:8")
        p = lsb_counter_protocol(1)
        res = run(p, g, [0] * 5 + [1] * 3, seed=0, expected=1, max_steps=3)
        assert not res.stabilized and res.stopped_by == "max_steps"

    def test_input_validation(self):
        g = build_graph("path:3")
        with pytest.raises(ValueError):
            run(or_protocol(), g, [0, 1], expected=1)
        with pytest.raises(ValueError):
            run(or_protocol(), g, [0, 2, 0], expected=1)

    def test_runs_without_oracle_use_unchanged_window(self):
        # expected=None: stabilization means no output changed for a window
        import dataclasses

        g = build_graph("complete:5")
        p = dataclasses.replace(lsb_counter_protocol(1), quiescent=None)
        res = run(p, g, [0, 0, 0, 1, 1], seed=8, confirmation_window=500)
        assert res.stabilized and res.stopped_by == "window"
        assert set(res.final_outputs) == {1}

    def test_stabilization_soundness_extension(self):
        # after a stabilized run, a window of fresh activations never
        # changes any output
        g = build_graph("cycle:6")
        p = lsb_counter_protocol(2)
        inputs = [0, 0, 0, 0, 1, 0]
        res = run(p, g, inputs, seed=5, expected=5 % 4)
        assert res.stabilized
        states = list(res.final_states)
        outputs = [p.output(s) for s in states]
        rng = random.Random(999)
        for _ in range(res.confirmation_window):
            k = rng.randrange(2 * g.m)
            u, v = g.edges[k >> 1]
            if k & 1:
                u, v = v, u
            states[u], states[v] = p.transition(states[u], states[v])
            assert [p.output(s) for s in states] == outputs


class TestTransitionTable:
    def test_each_meeting_pair_computed_once(self):
        import dataclasses

        calls = []
        base = lsb_counter_protocol(2)

        def transition(a, b):
            calls.append((a, b))
            return base.transition(a, b)

        p = dataclasses.replace(base, transition=transition)
        table = TransitionTable(p)
        g = build_graph("complete:6")
        for seed in range(3):
            run(p, g, [0, 0, 0, 1, 1, 1], seed=seed, expected=3, table=table)
        assert len(calls) == len(set(calls)) == sum(len(r) for r in table.rows)
        assert [table.intern(s) for s in table.objs] == list(range(len(table.objs)))
        assert table.outs == [p.output(s) for s in table.objs]

    def test_rows_fill_lazily(self):
        # with n = n_max every reached pair is fine, but some pair of reached
        # states would push a token past the top level
        p = bit_protocol(0, 4)
        table = TransitionTable(p)
        res = run(p, build_graph("complete:4"), [0, 0, 0, 0], seed=1, expected=0, table=table)
        assert res.stabilized
        with pytest.raises(ProtocolViolation):
            for a in range(len(table.objs)):
                for b in range(len(table.objs)):
                    table.fill(a, b)

    def test_table_of_another_protocol_rejected(self):
        g = build_graph("path:3")
        with pytest.raises(ValueError):
            run(or_protocol(), g, [0, 1, 0], expected=1, table=TransitionTable(or_protocol()))


class TestRewiring:
    def test_none_policy_identity(self):
        g = build_graph("cycle:5")
        assert rewire(g, parse_rewire("none"), random.Random(0)).edges == g.edges

    def test_swaps_preserve_connectivity_and_degrees(self):
        g = build_graph("cycle:8")
        rng = random.Random(2)
        policy = parse_rewire("swap:1")
        degs = sorted(sum(1 for e in g.edges if n in e) for n in range(g.n))
        for _ in range(300):
            g = rewire(g, policy, rng)
            assert is_connected(g.n, g.edges)
            assert nx.is_connected(to_nx(g))
            now = sorted(sum(1 for e in g.edges if n in e) for n in range(g.n))
            assert now == degs

    def test_parity_stabilizes_under_rewiring(self):
        g = build_graph("cycle:8")
        p = lsb_counter_protocol(1)
        inputs = [0] * 3 + [1] * 5
        static = run(p, g, inputs, seed=4, expected=1)
        dynamic = run(p, g, inputs, seed=4, expected=1, rewire_policy=parse_rewire("swap:8"))
        assert static.stabilized and dynamic.stabilized
        assert set(static.final_outputs) == set(dynamic.final_outputs) == {1}


class TestMeetingTime:
    def test_two_nodes_meet_first_activation(self):
        st_ = measure_meeting_time(build_graph("path:2"), trials=50, seed=0)
        assert st_.mean_steps == 1.0
        # single edge at rate 1: one exponential holding time, mean 1
        assert abs(st_.mean_time - 1.0) < 0.5

    def test_complete_faster_than_cycle(self):
        st_c = measure_meeting_time(build_graph("complete:16"), trials=300, seed=1)
        st_r = measure_meeting_time(build_graph("cycle:16"), trials=300, seed=1)
        assert st_c.mean_time < st_r.mean_time

    def test_cycle_growth_exponent_in_time(self):
        pts = []
        for n in (8, 16, 32):
            s = measure_meeting_time(build_graph(f"cycle:{n}"), trials=400, seed=3)
            pts.append((math.log(n), math.log(s.mean_time)))
        slope = (pts[-1][1] - pts[0][1]) / (pts[-1][0] - pts[0][0])
        assert slope <= 2.3


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_gnp_builder_always_connected(n, seed):
    g = build_graph(f"gnp:{n}:0.5", seed=seed)
    assert is_connected(g.n, g.edges)


def test_trace_file_round_trip(tmp_path):
    g = build_graph("path:3")
    res = run(or_protocol(), g, [0, 1, 0], seed=0, expected=1, record_trace=True)
    path = tmp_path / "trace.txt"
    write_trace(str(path), res.trace)
    lines = path.read_text().strip().split("\n")
    assert lines[-1].startswith("outputs ")
    assert tuple(int(x) for x in lines[-1].split()[1:]) == res.final_outputs
    for line, act in zip(lines, res.trace.activations):
        step, t, ini, rsp = line.split()
        assert int(step) == act.step
        assert int(ini) == act.initiator and int(rsp) == act.responder
        assert float(t) == pytest.approx(act.time, abs=1e-9)
