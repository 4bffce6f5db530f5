"""`engine.run`'s loop is tuned for speed: it reads its arcs from
`engine.schedule`, which owns the rewiring, and draws a trace's arcs again
after the run; it skips null pairs with one truth test, tests for a check
only at the step `due` set by the first change since the last one, and
skips stop-rule calls that must fail. `reference_run` below is a plain
loop that draws, swaps, traces and tests everything at every step; both
must give equal results, traces and final states included, over a grid of
kinds, graphs and options."""

import dataclasses
import itertools
import random
from itertools import chain, islice

import pytest

from anonet.catalog import KINDS, resolve_protocol
from anonet.engine import (
    Activation,
    RunResult,
    TransitionTable,
    _Rewirer,
    arc_chunks,
    build_graph,
    clock,
    match_rule,
    parse_rewire,
    run,
    settled,
    stream,
)


def reference_run(protocol, graph, inputs, *, seed=0, max_steps=10_000_000, expected=None,
                  swap_period=0, record_trace=False, table=None):
    """`engine.run` as a loop that tests the trace, the swap and the check
    step at every activation, and calls the stop rule at every check step
    after a change."""
    n = graph.n
    if table is None:
        table = TransitionTable(protocol)
    states = [table.intern(protocol.init(c)) for c in inputs]
    objs, outs, fill = table.objs, table.outs, table.fill

    m = graph.m
    rewirer, rewire_rng = _Rewirer(graph), stream("rewire", seed)
    arcs = rewirer.arcs

    matched = False
    if expected is not None:
        want, target = match_rule(protocol, expected, n)
        match_count = sum(1 for s in states if outs[s] == want)
        matched = match_count == target

    streak_start = 0 if matched else None
    step = 0
    pairs = [] if record_trace else None
    stopped_by = "max_steps"
    changed = False

    if protocol.quiescent(table, states):
        stopped_by = "quiescence"
    else:
        schedule = chain.from_iterable(arc_chunks(m, stream("schedule", seed)))
        for k in islice(schedule, max_steps):
            u, v = arcs[k]
            step += 1

            a, b = states[u], states[v]
            na, nb = fill(a, b)  # the successor ids, whatever form the row has
            if na != a or nb != b:
                changed = True
                if expected is not None:
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

            if record_trace:
                pairs.append((u, v))
            if swap_period and step % swap_period == 0:
                rewirer.swap(rewire_rng)

            if step % n == 0 and changed:
                changed = False
                if protocol.quiescent(table, states):
                    stopped_by = "quiescence"
                    break

    stabilized = stopped_by != "max_steps" and (matched or expected is None)
    now, times = clock(step, m, stream("time", seed), record_trace)
    outputs = tuple(outs[s] for s in states)
    return RunResult(
        protocol=protocol.name,
        n=n,
        first_correct_step=streak_start,
        stabilized=stabilized,
        final_outputs=outputs,
        total_steps=step,
        elapsed_time=now,
        stopped_by=stopped_by,
        matched=matched if expected is not None else stabilized,
        final_states=tuple(objs[s] for s in states),
        trace=([Activation(u, v, t, i) for i, ((u, v), t) in enumerate(zip(pairs, times), 1)]
               if record_trace else None),
    )


SPECS = ("or", "lsb:2", "threshold:2:1", "bit:1:8", "estimate:8", "max-gate", "min-gate",
         "plurality:3")
GRAPHS = ("path:6", "cycle:7", "star:5", "complete:5", "gnp:7:0.5")


def test_every_kind_is_in_the_grid():
    assert {spec.partition(":")[0] for spec in SPECS} == set(KINDS)


@pytest.mark.parametrize("spec", [*SPECS, "circuit"])
def test_run_equals_the_reference_loop(spec, tmp_path):
    if spec == "circuit":
        path = tmp_path / "max3.circ"
        path.write_text("(max (max 0 1) 2)\n")
        spec = f"circuit:{path}"
    resolved = resolve_protocol(spec)
    protocol = resolved.protocol
    # each side shares one table across its runs, as `sweep` does
    table, ref_table = TransitionTable(protocol), TransitionTable(protocol)
    traces = itertools.cycle([False, True])  # 2 is prime to the grid of 27
    for g_spec in GRAPHS:
        graph = build_graph(g_spec, seed=3)
        n = graph.n
        rng = random.Random(g_spec)
        # colour 0 holds a strict majority, so plurality has an answer
        inputs = [0] * (n // 2 + 1) + [rng.randrange(protocol.colors)
                                       for _ in range(n - n // 2 - 1)]
        rng.shuffle(inputs)
        truth = resolved.oracle_fn([inputs.count(c) for c in range(protocol.colors)])
        truth = 0 if truth is None else truth
        # max_steps ends on a multiple of n, off one, or lets runs stop
        for seed, (expected, rewire, max_steps) in enumerate(itertools.product(
                (truth, truth + 1, None), ("none", "swap:1", "swap:7"),
                (6 * n, 6 * n + 3, 3000))):
            kwargs = dict(seed=seed, max_steps=max_steps, expected=expected,
                          swap_period=parse_rewire(rewire), record_trace=next(traces))
            case = (g_spec, kwargs)
            assert (run(protocol, graph, inputs, table=table, **kwargs)
                    == reference_run(protocol, graph, inputs, table=ref_table, **kwargs)), case


@pytest.mark.parametrize("spec", ["lsb:2", "estimate:8", "plurality:3"])
def test_an_unanswered_run_calls_the_rule_at_every_check_after_a_change(spec):
    # per-node kinds with more than two outputs: a run without `expected`
    # matches nothing, so it calls the rule at every check after a change,
    # while outputs differ too, as the reference loop does, and its results
    # are the reference loop's
    base = resolve_protocol(spec).protocol
    distinct = []  # the distinct outputs at each call

    def recorded(table, ids):
        distinct.append(len({table.outs[i] for i in ids}))
        return settled(table, ids)

    protocol = dataclasses.replace(base, quiescent=recorded)
    table, ref_table = TransitionTable(protocol), TransitionTable(protocol)
    differ = 0  # calls while outputs differ
    for g_spec in GRAPHS:
        graph = build_graph(g_spec, seed=3)
        n = graph.n
        rng = random.Random(g_spec)
        for seed in range(4):
            # colour 0 holds a strict majority, so plurality runs settle
            inputs = [0] * (n // 2 + 1) + [rng.randrange(protocol.colors)
                                           for _ in range(n - n // 2 - 1)]
            rng.shuffle(inputs)
            del distinct[:]
            result = run(protocol, graph, inputs, seed=seed, max_steps=3000, table=table)
            calls = distinct[:]
            del distinct[:]
            assert result == reference_run(protocol, graph, inputs, seed=seed, max_steps=3000,
                                           table=ref_table), (g_spec, seed)
            assert calls == distinct, (g_spec, seed)
            differ += sum(d > 1 for d in calls)
    assert differ
