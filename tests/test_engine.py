import contextlib
import itertools
import math
import os
import random
import time
import traceback
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from anonet import engine
from anonet.circuits import plurality_protocol
from anonet.engine import (
    CHUNK,
    GRAPH_KINDS,
    MAX_EDGES,
    Activation,
    Graph,
    GraphError,
    MeetingStats,
    ProtocolViolation,
    TransitionTable,
    arc_chunks,
    build_graph,
    clock,
    graph_family,
    is_connected,
    load_edge_list,
    measure_meeting_time,
    _Rewirer,
    _share,
    map_jobs,
    parse_rewire,
    run,
    settled,
    stream,
    write_trace,
)
from anonet.protocols import (
    BitState,
    ParityState,
    bit_protocol,
    lsb_counter_protocol,
    or_protocol,
)
from replay import replay


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges)
    return g


class TestBuildGraph:
    def test_a_spec_over_the_edge_limit_is_rejected_before_it_is_built(self, monkeypatch):
        # every edge builder fails, so a spec under the limit reaches one and
        # a spec over it allocates nothing
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        for kind, (parsers, _, *size) in list(GRAPH_KINDS.items()):
            monkeypatch.setitem(GRAPH_KINDS, kind, (parsers, build, *size))
        assert MAX_EDGES == 10_000_000
        # complete:4472 may have 9,997,156 edges and complete:4473 10,001,628
        for under, over in (("complete:4472", "complete:4473"), ("gnp:4472:0.5", "gnp:4473:0"),
                            ("cycle:10000000", "cycle:10000001"),
                            ("path:10000001", "path:10000002"),
                            ("star:10000001", "star:10000002")):
            with pytest.raises(Built):
                build_graph(under)
            with pytest.raises(GraphError, match=r"edges, over the limit of 10,000,000$"):
                build_graph(over)
        with pytest.raises(GraphError, match="^graph 'cycle:10000001' may have 10,000,001 edges"):
            graph_family("cycle")(10_000_001)

    @pytest.mark.parametrize("kind", sorted(GRAPH_KINDS))
    def test_a_spec_under_its_kinds_smallest_n_is_rejected_before_it_is_built(
            self, monkeypatch, kind):
        parsers, edges, least, most = GRAPH_KINDS[kind]
        assert least == (3 if kind == "cycle" else 2)
        params = ":1" * len(parsers)  # p = 1 for gnp
        assert build_graph(f"{kind}:{least}{params}").n == least
        # the model has no graph of the kind on one node fewer
        with pytest.raises(GraphError):
            Graph(least - 1, tuple(edges(least - 1, stream("graph", 0),
                                         *(parse("1") for parse in parsers))))

        def build(*args):
            pytest.fail("the edges were built")

        monkeypatch.setitem(GRAPH_KINDS, kind, (parsers, build, least, most))
        spec = f"{kind}:{least - 1}{params}"
        message = f"^bad graph spec '{spec}': need at least {least} nodes, got {least - 1}$"
        with pytest.raises(GraphError, match=message):
            build_graph(spec)
        with pytest.raises(GraphError, match=message):
            graph_family(kind + params)(least - 1)

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
        for spec in ("nope:4", "complete", "complete:1", "gnp:10", "cycle:x", "path:4:junk",
                     "cycle:4:9", "gnp:4:0.5:7", "gnp:5:1.5", "gnp:5:nan", "complete:"):
            with pytest.raises(GraphError):
                build_graph(spec)

    def test_one_node_is_rejected_before_sampling(self):
        with pytest.raises(GraphError, match="need at least 2 nodes"):
            build_graph("gnp:1:0.5")

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
        for text in ("0 1\n3 4\n", "0 1\n1 x\n", "0 1\n-1 2\n", "0 1 2\n", "# none\n", "0 0\n"):
            bad.write_text(text)  # disconnected, malformed, negative, no edges, one node
            with pytest.raises(GraphError):
                load_edge_list(str(bad))


def arc_draws(m, rng, count):
    """The first `count` arc indices `arc_chunks` gives."""
    return list(itertools.islice(itertools.chain.from_iterable(arc_chunks(m, rng)), count))


def chi_square(counts, cells, draws):
    expected = draws / cells
    return sum((c - expected) ** 2 / expected for c in counts.values())


class TestScheduler:
    def test_single_edge_trivial(self):
        g = build_graph("path:2")
        assert set(arc_draws(g.m, random.Random(0), 2000)) == {0, 1}
        _, times = clock(2000, 1.0 * g.m, random.Random(0), trace=True)
        dts = [t1 - t0 for t0, t1 in zip([0.0] + times, times)]
        mean = sum(dts) / len(dts)
        assert abs(mean - 1.0) < 5 / math.sqrt(len(dts))

    def test_uniform_over_ordered_pairs_chi_square(self):
        # complete:3 has 6 ordered pairs; 10^6 draws against uniform. The
        # mask keeps 3 bits, so 2 of every 8 byte values are rejected.
        g = build_graph("complete:3")
        arcs = [arc for u, v in g.edges for arc in ((u, v), (v, u))]
        n_draws = 10**6
        counts = Counter(arcs[k] for k in arc_draws(g.m, random.Random(123), n_draws))
        assert len(counts) == 6
        assert chi_square(counts, 6, n_draws) < stats.chi2.ppf(0.999, df=5)

    def test_wide_path_uniform_chi_square(self):
        # complete:17 has 272 arcs, more than a byte holds: 9-bit getrandbits
        # draws, values >= 272 rejected
        g = build_graph("complete:17")
        n_draws = 10**6
        counts = Counter(arc_draws(g.m, random.Random(5), n_draws))
        assert set(counts) == set(range(2 * g.m))
        assert chi_square(counts, 2 * g.m, n_draws) < stats.chi2.ppf(0.999, df=2 * g.m - 1)

    def test_mean_holding_time_cycle4_rate2(self):
        g = build_graph("cycle:4")
        _, times = clock(10**5, 2.0 * g.m, random.Random(7), trace=True)
        dts = [t1 - t0 for t0, t1 in zip([0.0] + times, times)]
        mean = sum(dts) / len(dts)
        target = 1 / (2.0 * 4)  # rate * |E|
        assert abs(mean - target) < 5 * target / math.sqrt(len(dts))

    def test_stream_matches_its_definition(self):
        # the documented labels, chunk, mask and reject, written out apart
        # from the engine's code
        for m, seed in ((9, 4), (8, 4), (200, 4)):
            raw = random.Random(f"anonet-2:schedule:{seed}")
            bits = (2 * m - 1).bit_length()
            want = []
            while len(want) < 10_000:
                if bits <= 8:
                    draws = [b & ((1 << bits) - 1) for b in raw.randbytes(4096)]
                else:
                    draws = [raw.getrandbits(bits) for _ in range(4096)]
                want += [k for k in draws if k < 2 * m]
            assert arc_draws(m, stream("schedule", seed), len(want)) == want
        raw = random.Random("anonet-2:time:4")
        total = raw.gammavariate(50, 1 / 2.5)
        times = [u * total for u in sorted(raw.random() for _ in range(49))] + [total]
        assert clock(50, 2.5, stream("time", 4), trace=True) == (total, times)
        assert clock(50, 2.5, stream("time", 4)) == (total, None)

    @pytest.mark.parametrize("m", [3, 8, 9, 128, 129, 200])
    def test_growing_chunks_give_the_fixed_chunk_stream(self, m):
        # arc_chunks starts at 64 raw draws and doubles up to CHUNK; the
        # indices must be those of fixed CHUNK-draw chunks, written out here.
        # 2m = 256 (m = 128) is the widest byte mask, 2m = 258 the narrowest
        # getrandbits width.
        two_m = 2 * m
        bits = (two_m - 1).bit_length()
        for seed in range(4):
            raw, want = random.Random(seed), []
            while len(want) < 3 * CHUNK:
                if bits <= 8:
                    draws = [b & ((1 << bits) - 1) for b in raw.randbytes(CHUNK)]
                else:
                    draws = [raw.getrandbits(bits) for _ in range(CHUNK)]
                want += [k for k in draws if k < two_m]
            assert arc_draws(m, random.Random(seed), len(want)) == want
            assert len(next(arc_chunks(m, random.Random(seed)))) <= 64

    def test_time_strictly_increasing_in_trace(self):
        g = build_graph("cycle:5")
        res = run(or_protocol(), g, [0, 1, 0, 0, 0], seed=3, expected=1, record_trace=True)
        times = [a.time for a in res.trace]
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
        assert r1.trace == r2.trace
        assert r1.final_outputs == r2.final_outputs
        assert r1.elapsed_time == r2.elapsed_time

    # 2m = 18 is no power of two, so some masked draws are rejected; 2m = 16
    # is one, and every draw is kept. A swap replaces edges in place: draw k
    # is edge k >> 1, reversed if k is odd.
    @pytest.mark.parametrize("spec", ["cycle:9", "cycle:8"])
    def test_trace_replays_stream_v2(self, spec):
        g = build_graph(spec)
        period, seed = 4, 21
        inputs = [i % 3 % 2 for i in range(g.n)]
        res = run(lsb_counter_protocol(2), g, inputs, seed=seed, expected=inputs.count(0) % 4,
                  swap_period=period, record_trace=True)
        steps = res.total_steps
        rewire_rng = stream("rewire", seed)
        rewirer, pairs = _Rewirer(g), []
        for step, k in enumerate(arc_draws(g.m, stream("schedule", seed), steps), 1):
            u, v = rewirer.arcs[k & ~1]
            pairs.append((v, u) if k & 1 else (u, v))
            if step % period == 0:
                rewirer.swap(rewire_rng)
        total, times = clock(steps, g.m, stream("time", seed), trace=True)
        assert res.trace == [
            Activation(u, v, t, i) for i, ((u, v), t) in enumerate(zip(pairs, times), 1)]
        assert res.elapsed_time == total
        assert set(rewirer.arcs[::2]) != set(g.edges)  # some swap was applied

    def test_trace_arcs_are_prefix_stable(self):
        # a stop rule that never holds: every run stops at max_steps
        import dataclasses

        g = build_graph("gnp:9:0.5", seed=3)
        p = dataclasses.replace(lsb_counter_protocol(2), quiescent=lambda table, ids: False)
        inputs = [0, 1, 1, 0, 1, 0, 0, 1, 1]

        def arcs(max_steps):
            res = run(p, g, inputs, seed=8, expected=4 % 4, max_steps=max_steps,
                      swap_period=3, record_trace=True)
            assert res.total_steps == max_steps
            return [(a.initiator, a.responder) for a in res.trace]

        full = arcs(9000)  # more than a chunk of 4096 draws gives
        for k in (1, 7, 2500, 8999):
            assert arcs(k) == full[:k]

    def test_quiescence_checked_only_after_a_change(self):
        import dataclasses

        base = lsb_counter_protocol(1)
        g = build_graph("cycle:12")
        inputs = [i % 3 % 2 for i in range(g.n)]
        for expected in (inputs.count(0) % 2, None):
            # outputs are counted against the answer, or without one against
            # the first agent's initial output (1 here, against the answer 0)
            want = base.output(base.init(inputs[0])) if expected is None else expected
            calls = []
            p = dataclasses.replace(base, quiescent=lambda table, ids: calls.append(1) or
                                    settled(table, ids))

            def mixed(states):  # some but not all outputs match: the rule must fail, and is skipped
                return 0 < sum(p.output(s) == want for s in states) < g.n

            last, dirty = [p.init(c) for c in inputs], False
            due = 0 if mixed(last) else 1  # the check at step 0

            def check(step, states):
                nonlocal last, dirty, due
                dirty, last = dirty or states != last, states
                if step % g.n == 0:
                    due, dirty = due + (dirty and not mixed(states)), False

            res = run(p, g, inputs, seed=2, expected=expected, record_trace=True)
            assert res.stopped_by == "quiescence"
            replay(p, inputs, res, check)
            assert len(calls) == due < 1 + res.total_steps // g.n, expected

    @pytest.mark.parametrize("c", [1, 2])
    def test_an_unanswered_run_skips_the_rule_while_outputs_differ(self, c):
        # a run without `expected` counts its outputs against the first
        # agent's initial output and skips the rule while some but not all
        # outputs equal it; at a check at which none does, it counts
        # against agent 0's output instead. So with any number of output
        # values, the rule is never called while outputs differ.
        import dataclasses

        base = lsb_counter_protocol(c)
        g = build_graph("cycle:12")
        inputs = [i % 3 % 2 for i in range(g.n)]
        want = base.output(base.init(inputs[0]))
        calls = []  # (distinct outputs, outputs equal to `want`) at each call

        def recorded(table, ids):
            outputs = [table.outs[i] for i in ids]
            calls.append((len(set(outputs)), outputs.count(want)))
            return settled(table, ids)

        p = dataclasses.replace(base, quiescent=recorded)
        for seed in range(5):
            res = run(p, g, inputs, seed=seed)
            assert res.stopped_by == "quiescence" and res.stabilized
        assert calls and all(count in (0, g.n) for _, count in calls)
        assert {distinct for distinct, _ in calls} == {1}

    def test_max_steps_reported_not_fatal(self):
        g = build_graph("cycle:8")
        p = lsb_counter_protocol(1)
        res = run(p, g, [0] * 5 + [1] * 3, seed=0, expected=1, max_steps=3)
        assert not res.stabilized and res.stopped_by == "max_steps"

    @pytest.mark.parametrize("limits,name", [(dict(max_steps=-1), "max_steps"),
                                             (dict(swap_period=-1), "swap_period")])
    def test_limits_must_be_in_range(self, limits, name):
        g = build_graph("cycle:8")
        with pytest.raises(ValueError, match=name):
            run(lsb_counter_protocol(2), g, [0] * 5 + [1] * 3, expected=1, **limits)

    def test_input_validation(self):
        g = build_graph("path:3")
        with pytest.raises(ValueError):
            run(or_protocol(), g, [0, 1], expected=1)
        with pytest.raises(ValueError):
            run(or_protocol(), g, [0, 2, 0], expected=1)

    def test_runs_without_a_stop_rule_end_at_max_steps(self):
        # outputs that hold unchanged for long prove nothing: only the stop
        # rule stabilizes a run
        import dataclasses

        g = build_graph("complete:5")
        p = dataclasses.replace(lsb_counter_protocol(1), quiescent=lambda table, ids: False)
        for expected in (1, None):
            res = run(p, g, [0, 0, 0, 1, 1], seed=8, expected=expected, max_steps=5000)
            assert res.stopped_by == "max_steps" and res.total_steps == 5000
            assert not res.stabilized and set(res.final_outputs) == {1}
            assert (res.first_correct_step is None) == (expected is None)

    def test_stabilization_soundness_extension(self):
        # after a stabilized run, 10·n·|E| fresh activations never change
        # any output
        g = build_graph("cycle:6")
        p = lsb_counter_protocol(2)
        inputs = [0, 0, 0, 0, 1, 0]
        res = run(p, g, inputs, seed=5, expected=5 % 4)
        assert res.stabilized
        states = list(res.final_states)
        outputs = [p.output(s) for s in states]
        rng = random.Random(999)
        for _ in range(10 * g.n * g.m):
            k = rng.randrange(2 * g.m)
            u, v = g.edges[k >> 1]
            if k & 1:
                u, v = v, u
            states[u], states[v] = p.transition(states[u], states[v])
            assert [p.output(s) for s in states] == outputs


def reference_first_correct(protocol, graph, inputs, seed, expected, period=0):
    """`first_correct_step` of a run drawn per step from one stream, as the
    engine did before stream version 2: a `randrange` arc and an
    `expovariate` holding time each step, and the swap draws inline. Its
    stop rule (the protocol's, every n steps, called on a table's ids as the
    engine calls it) is the engine's; agents are per-node matched."""
    rng = random.Random(seed)
    table = TransitionTable(protocol)
    n, edges = graph.n, list(graph.edges)
    states = [protocol.init(c) for c in inputs]
    memo, hit = {}, {}  # transitions, and whether a state outputs `expected`
    for s in states:
        hit[s] = protocol.output(s) == expected
    match = sum(hit[s] for s in states)
    start = 0 if match == n else None
    step = 0
    while True:
        k = rng.randrange(2 * len(edges))
        u, v = edges[k >> 1]
        if k & 1:
            u, v = v, u
        rng.expovariate(len(edges))
        step += 1
        a, b = states[u], states[v]
        if (a, b) not in memo:
            memo[a, b] = protocol.transition(a, b)
            for s in memo[a, b]:
                hit[s] = protocol.output(s) == expected
        states[u], states[v] = c, d = memo[a, b]
        match += hit[c] + hit[d] - hit[a] - hit[b]
        if match < n:
            start = None
        elif start is None:
            start = step
        if period and step % period == 0:
            i, j, flip = rng.randrange(len(edges)), rng.randrange(len(edges) - 1), rng.randrange(2)
            j += j >= i
            (p, q), (x, y) = edges[i], edges[j]
            if flip:
                x, y = y, x
            e1, e2 = (min(p, x), max(p, x)), (min(q, y), max(q, y))
            if len({p, q, x, y}) == 4 and e1 not in edges and e2 not in edges:
                trial = [e for e in edges if e not in (edges[i], edges[j])] + [e1, e2]
                if is_connected(n, trial):
                    edges[i], edges[j] = e1, e2
        if step % n == 0 and protocol.quiescent(table, [table.intern(s) for s in states]):
            return start


class TestStreamDistribution:
    """Stream version 2 draws the same process as per-step draws: the
    distributions of `first_correct_step` agree by a two-sample KS test at
    alpha = 0.001 over 200 seeds a side."""

    ALPHA = 0.001
    SEEDS = range(200)

    def check(self, protocol, graph, inputs, expected, rewire_spec="none"):
        period = parse_rewire(rewire_spec)
        engine = [run(protocol, graph, inputs, seed=seed, expected=expected,
                      swap_period=period).first_correct_step for seed in self.SEEDS]
        reference = [reference_first_correct(protocol, graph, inputs, seed, expected, period)
                     for seed in self.SEEDS]
        assert None not in engine and None not in reference
        assert stats.ks_2samp(engine, reference).pvalue > self.ALPHA

    def test_lsb_on_cycle(self):
        inputs = [i % 3 % 2 for i in range(16)]
        self.check(lsb_counter_protocol(1), build_graph("cycle:16"), inputs,
                   inputs.count(0) % 2)

    def test_plurality_on_rewired_gnp(self):
        inputs = [0] * 5 + [1] * 3 + [2] * 2 + [3] * 2
        self.check(plurality_protocol(4), build_graph("gnp:12:0.5", seed=1), inputs, 0,
                   "swap:4")


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
        # the stop rule's pairs are filled like the runs' ones
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


class TestStopRule:
    @pytest.mark.parametrize("seed", range(3))
    def test_plurality_stops_by_the_rule(self, seed):
        # the rule stops these runs in under a tenth of 10·n·|E| = 19,200 steps
        g = build_graph("complete:16")
        res = run(plurality_protocol(3), g, [0] * 7 + [1] * 5 + [2] * 4, seed=seed, expected=0)
        assert res.stopped_by == "quiescence" and res.stabilized
        assert res.total_steps < 10 * g.n * g.m // 10

    def test_plurality_on_rewired_gnp_without_expected(self):
        g = build_graph("gnp:16:0.5", seed=4)
        res = run(plurality_protocol(4), g, [0] * 6 + [1] * 4 + [2] * 3 + [3] * 3, seed=4,
                  swap_period=8)
        assert res.stopped_by == "quiescence" and res.stabilized
        assert set(res.final_outputs) == {0}

    def test_a_violating_pair_is_never_skipped(self):
        # two level-1 tokens of bit:0:2 would merge past the top level
        p = bit_protocol(0, 2)
        table = TransitionTable(p)
        token, passive = table.intern(BitState(1, 1, 1, 0)), table.intern(BitState(0, 0, 0, 0))
        assert not settled(table, [token, token, passive])
        assert settled(table, [token, passive, passive])  # (token, token) never meets
        with pytest.raises(ProtocolViolation):
            table.fill(token, token)

    def test_a_violating_self_pair_of_a_state_present_once_is_never_read(self):
        # the memo of {token, passive} is made while the token is present once:
        # (token, token) never meets then, so tier (a) holds, and the memo
        # must not carry the pair's violation to that configuration, nor its
        # absence to the one with two tokens
        p = bit_protocol(0, 2)
        table = TransitionTable(p)
        token, passive = table.intern(BitState(1, 1, 1, 0)), table.intern(BitState(0, 0, 0, 0))
        for _ in range(2):
            assert settled(table, [passive, token, passive])
            assert not settled(table, [token, passive, token])
        assert list(table.verdicts) == [frozenset({token, passive})]
        assert token not in table.rows[token]

    def test_the_rules_pairs_are_filled_once(self):
        import dataclasses

        calls = []
        base = lsb_counter_protocol(1)
        p = dataclasses.replace(base, transition=lambda a, b: calls.append((a, b)) or
                                base.transition(a, b))
        table = TransitionTable(p)
        ids = table.start(2, [0, 0])
        a = ids[0]
        assert table.objs[a] == ParityState(1, 1)
        assert not settled(table, ids)  # the two tokens merge into counter 0
        # the initial state and the two the rule looked ahead at
        assert len(table.objs) == 3 and table.rows[a] and table.verdicts
        filled = len(calls)
        table.fill(a, a)
        assert len(calls) == filled and len(table.objs) == 3

    def test_each_violation_is_raised_afresh(self):
        # a violating pair is never stored: an exception raised again would
        # carry every earlier raise in its traceback
        p = bit_protocol(0, 2)
        table = TransitionTable(p)
        token, passive = table.intern(BitState(1, 1, 1, 0)), table.intern(BitState(0, 0, 0, 0))
        depths, raised = [], []
        for _ in range(4):
            assert not settled(table, [token, token, passive])
            with pytest.raises(ProtocolViolation) as exc:
                table.fill(token, token)
            raised.append(exc.value)
            depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
        assert len(set(depths)) == 1 and len(set(map(id, raised))) == 4


class TestRewiring:
    def test_none_is_period_0(self):
        assert parse_rewire("none") == 0
        assert parse_rewire("swap:1") == 1 and parse_rewire("swap:16") == 16

    def test_swaps_preserve_connectivity_and_degrees(self):
        for g in (build_graph("cycle:8"), build_graph("gnp:10:0.4", seed=2)):
            rewirer, rng = _Rewirer(g), random.Random(2)
            degs = Counter(node for edge in g.edges for node in edge)
            accepted = 0
            for _ in range(300):
                before = list(rewirer.arcs)
                if not rewirer.swap(rng):
                    assert rewirer.arcs == before
                    continue
                accepted += 1
                edges = rewirer.arcs[::2]
                assert rewirer.arcs[1::2] == [(v, u) for u, v in edges]
                assert all(u < v for u, v in edges) and len(set(edges)) == g.m
                assert sum(a != b for a, b in zip(rewirer.arcs, before)) == 4
                assert Counter(node for edge in edges for node in edge) == degs
                assert nx.is_connected(to_nx(Graph(g.n, tuple(edges))))
            assert 0 < accepted < 300, g.generator_tag

    def test_parity_stabilizes_under_rewiring(self):
        g = build_graph("cycle:8")
        p = lsb_counter_protocol(1)
        inputs = [0] * 3 + [1] * 5
        static = run(p, g, inputs, seed=4, expected=1)
        dynamic = run(p, g, inputs, seed=4, expected=1, swap_period=8)
        assert static.stabilized and dynamic.stabilized
        assert set(static.final_outputs) == set(dynamic.final_outputs) == {1}


@contextlib.contextmanager
def leaves_nothing():
    """The block leaves no child process and no open file descriptor behind."""
    fds = sorted(os.listdir("/proc/self/fd"))
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.skipif(not hasattr(os, "fork"), reason="map_jobs forks only where os.fork exists")
class TestMapJobs:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_results_come_in_job_order_from_interleaved_shares(self):
        with leaves_nothing():
            results = map_jobs(lambda x: (x * x, os.getpid()), range(7))
        assert [square for square, _ in results] == [x * x for x in range(7)]
        pids = [pid for _, pid in results]
        assert set(pids[0::2]) == {os.getpid()} and len(set(pids[1::2])) == 1
        assert pids[1] != os.getpid()

    @pytest.mark.parametrize("low", [2, 3])
    def test_the_lowest_failing_job_raises(self, low):
        # jobs 0, 2, 4, ... are this process's and 1, 3, 5, ... the worker's;
        # both shares fail, and the lowest job's exception is raised
        def job(x):
            if x >= low:
                raise ValueError(f"job {x}")
            return x

        with leaves_nothing(), pytest.raises(ValueError, match=f"^job {low}$"):
            map_jobs(job, range(8))

    def test_a_worker_that_dies_is_an_error(self):
        parent = os.getpid()

        def job(x):
            if os.getpid() != parent:
                os._exit(3)
            return x

        with leaves_nothing(), pytest.raises(ChildProcessError, match="exit code 3"):
            map_jobs(job, range(4))

    def test_an_interrupt_kills_and_reaps_the_workers(self):
        parent = os.getpid()

        def job(x):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with leaves_nothing(), pytest.raises(KeyboardInterrupt):
            map_jobs(job, range(2))
        assert time.monotonic() - started < 30

    def test_a_worker_exits_before_a_job_once_its_parent_is_gone(self):
        # this process is not its own parent, as a worker's pid is not once
        # its parent is gone
        with pytest.raises(SystemExit):
            _share(pytest.fail, [0], 0, 1, parent=os.getpid())

    @pytest.mark.parametrize("cpus,jobs", [({0}, range(5)), ({0, 1}, [3])])
    def test_one_cpu_or_one_job_forks_nothing(self, monkeypatch, cpus, jobs):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert map_jobs(lambda x: 2 * x, jobs) == [2 * x for x in jobs]


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

    def test_stats_are_pinned_bit_for_bit(self):
        # the steps were recorded when the schedule still read the draws as
        # edges[k >> 1]; reading arcs[k] must give the same trials
        pinned = {
            ("cycle:8", 1): (33.42, 4.798306674106554, 4.301665123733714, 0.6171990608205262),
            ("gnp:12:0.4", 3): (71.22, 10.807906780667192, 3.2554716330580984,
                                0.48696100067356424),
            ("complete:16", 0): (79.42, 11.834508172014138, 0.6726828347976535,
                                 0.10529889647598746),
        }
        for (spec, seed), (steps, se_steps, mean_time, se_time) in pinned.items():
            g = build_graph(spec, seed=seed)
            assert measure_meeting_time(g, 50, seed=seed) == MeetingStats(
                spec, g.n, 50, steps, se_steps, mean_time, se_time)

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


def test_too_few_edges_fail_before_the_adjacency_is_built(tmp_path, monkeypatch):
    def unbuilt(n, edges):
        raise AssertionError(f"adjacency of {n} nodes built")

    monkeypatch.setattr(engine, "_adjacency", unbuilt)
    path = tmp_path / "far.txt"
    path.write_text("0 1\n1 2000000\n")
    with pytest.raises(GraphError, match="not connected"):
        load_edge_list(str(path))
    assert not is_connected(4, [(0, 1), (2, 3)])


def test_trace_file_round_trip(tmp_path):
    # with a swap period, the trace holds the rewired arcs the run drew
    for spec, swap_period in (("path:3", 0), ("cycle:6", 1)):
        g = build_graph(spec)
        inputs = [0, 1] + [0] * (g.n - 2)
        res = run(or_protocol(), g, inputs, seed=0, expected=1, record_trace=True,
                  swap_period=swap_period)
        path = tmp_path / f"trace{swap_period}.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_trace(fh, res)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(res.trace) + 1 == res.total_steps + 1
        assert lines[-1].startswith("outputs ")
        assert tuple(int(x) for x in lines[-1].split()[1:]) == res.final_outputs
        for line, act in zip(lines, res.trace):
            step, t, ini, rsp = line.split()
            assert int(step) == act.step
            assert int(ini) == act.initiator and int(rsp) == act.responder
            assert float(t) == pytest.approx(act.time, abs=1e-9)
        if swap_period:  # some activation is on an arc the static graph lacks
            assert {(a.initiator, a.responder) for a in res.trace} - set(g.arcs)
