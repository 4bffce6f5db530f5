"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The sampled-correctness
criteria demand 100% stabilization to the ground-truth value across every
listed protocol, graph family, and seed; the exhaustive criterion certifies
stabilization under every fair schedule on small instances.
"""

import functools
import itertools
import math
import random
import time

from anonet.catalog import resolve_protocol
from anonet.circuits import compile_circuit, evaluate, parse_circuit, plurality_protocol
from anonet.engine import build_graph, measure_meeting_time, run
from anonet.oracle import audit_memory, scaling_report, verify_exhaustive
from anonet.protocols import lsb_counter_protocol, threshold_protocol
from ledger import collision_count_check
from replay import replay

MAX_STEPS = 10_000_000


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} [{title}]: FAIL")
                raise
            elapsed = time.time() - start
            print(f"\ncriterion {number} [{title}]: PASS ({detail}; {elapsed:.1f}s)")

        return inner

    return wrap


def spread(counts, seed):
    vals = []
    for color, c in enumerate(counts):
        vals.extend([color] * c)
    random.Random(seed).shuffle(vals)
    return vals


def graph_trio(n, seed):
    return [
        build_graph(f"complete:{n}"),
        build_graph(f"cycle:{n}"),
        build_graph(f"gnp:{n}:0.4", seed=seed),
    ]


def random_max_tree(rng, colors):
    ids = list(colors)
    rng.shuffle(ids)

    def build(lo, hi):
        if hi - lo == 1:
            return str(ids[lo])
        cut = rng.randint(lo + 1, hi - 1)
        return f"(max {build(lo, cut)} {build(cut, hi)})"

    return parse_circuit(build(0, len(ids)))


def sampled_cases(seed):
    """One (protocol, inputs, expected) list entry per protocol of the
    sampled-correctness criterion, inputs randomized by `seed`."""
    rng = random.Random(seed * 7919 + 13)
    cases = []
    n = 12
    for spec in ("or", "lsb:1", "lsb:2", "threshold:1:1", "threshold:2:1"):
        resolved = resolve_protocol(spec)
        r = rng.randint(0, n)
        counts = [r, n - r]
        cases.append((resolved.protocol, counts, resolved.oracle_fn(counts)))
    for spec in ("bit:0:16", "bit:1:16", "estimate:16"):
        resolved = resolve_protocol(spec)
        r = rng.randint(1, n)
        counts = [r, n - r]
        cases.append((resolved.protocol, counts, resolved.oracle_fn(counts)))
    for spec in ("max-gate", "min-gate"):
        resolved = resolve_protocol(spec)
        a1 = rng.randint(0, n)
        counts = [a1, n - a1]
        cases.append((resolved.protocol, counts, resolved.oracle_fn(counts)))
    while True:
        counts = [rng.randint(0, 5) for _ in range(4)]
        top = max(counts)
        if 4 <= sum(counts) <= 16 and counts.count(top) == 1:
            break
    cases.append((plurality_protocol(4), counts, counts.index(max(counts))))
    for leaves in (3, 4, 4):
        circ = random_max_tree(rng, range(leaves))
        counts = [rng.randint(1, 4) for _ in range(leaves)]
        proto = compile_circuit(circ)
        cases.append((proto, counts, evaluate(circ, counts)))
    return cases


def run_sampled_suite(rewired):
    """Every sampled case on each graph of its trio; `rewired` swaps edges
    every n activations."""
    runs = 0
    for seed in range(30):
        for proto, counts, expected in sampled_cases(seed):
            n = sum(counts)
            if n < 4:
                continue
            inputs = spread(counts, seed)
            for graph in graph_trio(n, seed):
                res = run(
                    proto,
                    graph,
                    inputs,
                    seed=seed,
                    max_steps=MAX_STEPS,
                    expected=expected,
                    swap_period=n if rewired else 0,
                )
                assert res.stabilized and res.matched, (
                    proto.name,
                    graph.generator_tag,
                    counts,
                    seed,
                    res.stopped_by,
                )
                runs += 1
    return runs


@criterion(1, "exhaustive stabilization")
def test_criterion_1_exhaustive():
    specs = ("or", "lsb:1", "lsb:2", "threshold:1:1", "threshold:2:1", "bit:0:8", "bit:1:8")
    graphs = [build_graph(s) for s in ("path:3", "cycle:4", "complete:4")]
    checked = 0
    for spec in specs:
        resolved = resolve_protocol(spec)
        for graph in graphs:
            for bits in itertools.product((0, 1), repeat=graph.n):
                counts = [bits.count(0), bits.count(1)]
                expected = resolved.oracle_fn(counts)
                res = verify_exhaustive(resolved.protocol, graph, list(bits), expected)
                assert res.verdict == "PASS", (spec, graph.generator_tag, bits, res.detail)
                checked += 1
    # past the unreduced verifier's reach, through the complete graph's symmetry
    for spec, red, blue in (("lsb:2", 5, 4), ("estimate:16", 7, 5)):
        resolved = resolve_protocol(spec)
        graph = build_graph(f"complete:{red + blue}")
        res = verify_exhaustive(resolved.protocol, graph, [0] * red + [1] * blue,
                                resolved.oracle_fn([red, blue]))
        assert (res.verdict, res.symmetry) == ("PASS", "complete"), (spec, res.detail)
        checked += 1
    return f"{checked} instances PASS"


@criterion(2, "sampled correctness, 30 seeds x 3 graph families")
def test_criterion_2_sampled_correctness():
    runs = run_sampled_suite(False)
    return f"{runs} runs, 100% stabilized to oracle"


@criterion(3, "conservation invariants at every activation")
def test_criterion_3_conservation():
    checks = 0
    for seed in range(10):
        n = 10
        r = random.Random(seed + 100).randint(0, n)
        inputs = spread([r, n - r], seed)
        for graph in graph_trio(n, seed):
            c = 2
            parity = lsb_counter_protocol(c)

            def parity_check(step, states):
                assert sum(s.counter for s in states if s.active) % (1 << c) == r % (1 << c)

            res = run(parity, graph, inputs, seed=seed, expected=r % (1 << c),
                      record_trace=True)
            replay(parity, inputs, res, parity_check)
            assert res.stabilized
            checks += res.total_steps

            a, b = 2, 1
            target = b * r - a * (n - r)
            thr = threshold_protocol(a, b, 2)

            def threshold_check(step, states):
                assert sum(s.counter for s in states if s.strong) == target

            res = run(thr, graph, inputs, seed=seed, expected=1 if target > 0 else 0,
                      record_trace=True)
            replay(thr, inputs, res, threshold_check)
            assert res.stabilized
            checks += res.total_steps
    return f"{checks} activations checked exactly"


@criterion(4, "collision-count ledger on 100 random depth-2 MAX circuits")
def test_criterion_4_ledger():
    shapes = (
        "(max (max 0 1) (max 2 3))",
        "(max (max 0 1) 2)",
        "(max 0 (max 1 2))",
    )
    passed = 0
    for case in range(100):
        rng = random.Random(case * 31 + 5)
        text = shapes[case % len(shapes)]
        circ = parse_circuit(text)
        k = len(circ.leaf_colors)
        counts = [rng.randint(1, 6) for _ in range(k)]
        n = sum(counts)
        graph = build_graph(f"complete:{n}") if case % 4 else build_graph(f"gnp:{max(n, 5)}:0.6", seed=case)
        if graph.n != n:
            graph = build_graph(f"complete:{n}")
        inputs = spread(counts, case)
        proto = compile_circuit(circ)
        expected = evaluate(circ, counts)
        res = run(proto, graph, inputs, seed=case, max_steps=MAX_STEPS,
                  expected=expected, record_trace=True)
        assert res.stabilized, (text, counts, case)
        report = collision_count_check(circ, inputs, res.trace)
        assert report.passed, f"{text} counts={counts} case={case}\n{report}"
        passed += 1
    return f"{passed} circuits, identities exact"


@criterion(5, "memory budgets")
def test_criterion_5_memory_audits():
    def binary_inputs(n):
        return [[0] * r + [1] * (n - r) for r in range(n + 1)]

    audits = []
    for spec, declared in (("lsb:1", 2), ("lsb:2", 3), ("threshold:1:1:1", 3),
                           ("threshold:2:1:1", 3), ("max-gate", 3), ("min-gate", 3)):
        proto = resolve_protocol(spec).protocol
        assert proto.budget_bits == declared, spec
        [report] = audit_memory(
            [(proto, binary_inputs(8))],
            [build_graph("complete:8"), build_graph("cycle:8")],
        )
        assert report.ok, report.row()
        audits.append(report)

    plur = plurality_protocol(4)
    assert plur.budget_bits == 12
    [report] = audit_memory(
        [(plur, [spread([4, 3, 2, 1], s) for s in range(6)])],
        [build_graph("complete:10"), build_graph("cycle:10")],
        seeds=range(4),
    )
    assert report.ok and report.distinct_states <= 4096, report.row()
    audits.append(report)

    # bit protocol carries one documented extra output bit over the
    # (color, status, level) tuple; its declared budget already includes it
    bit = resolve_protocol("bit:1:8").protocol
    assert bit.budget_bits == math.ceil(math.log2(4)) + 3
    [report] = audit_memory(
        [(bit, binary_inputs(8))],
        [build_graph("complete:8"), build_graph("cycle:8")],
    )
    report = report._replace(note="output register adds one bit")
    assert report.ok, report.row()
    audits.append(report)
    return "; ".join(f"{r.protocol} {r.measured_bits}<={r.declared_bits}b" for r in audits)


@criterion(6, "estimator accuracy for every r in [1, 32], n = 64")
def test_criterion_6_estimator():
    proto = resolve_protocol("estimate:64").protocol
    graphs = [build_graph("complete:64"), build_graph("cycle:64")]
    runs = 0
    for r in range(1, 33):
        want = int(math.floor(math.log2(r)))
        inputs_base = [0] * r + [1] * (64 - r)
        for graph in graphs:
            for seed in range(10):
                inputs = spread([r, 64 - r], seed * 1000 + r)
                res = run(proto, graph, inputs, seed=seed, max_steps=MAX_STEPS, expected=want)
                assert res.stabilized and set(res.final_outputs) == {want}, (
                    r, graph.generator_tag, seed, res.stopped_by,
                )
                # factor-2 guarantee implied by the exact exponent
                assert r / 2 < 2**want <= 2 * r
                runs += 1
    return f"{runs} runs, est == floor(log2 r) in all"


@criterion(7, "scaling exponents: stabilization <= 3.4, meeting time <= 2.3")
def test_criterion_7_scaling():
    sizes = (8, 16, 32, 64)
    parity = lsb_counter_protocol(1)
    samples = {}
    for n in sizes:
        graph = build_graph(f"cycle:{n}")
        r = n // 2
        samples[n] = []
        for seed in range(20):
            inputs = spread([r, n - r], seed)
            res = run(parity, graph, inputs, seed=seed, max_steps=MAX_STEPS, expected=r % 2)
            assert res.stabilized, (n, seed)
            samples[n].append(max(1, res.first_correct_step))
    fit = scaling_report(samples)
    assert fit.exponent <= 3.4, fit

    meet = {}
    for n in sizes:
        stats = measure_meeting_time(build_graph(f"cycle:{n}"), trials=250, seed=17)
        meet[n] = [stats.mean_time]
    meet_fit = scaling_report(meet)
    assert meet_fit.exponent <= 2.3, meet_fit
    return (
        f"parity activations exponent {fit.exponent:.2f}, "
        f"meeting-time exponent {meet_fit.exponent:.2f}"
    )


@criterion(8, "dynamic networks: sampled suite under edge swaps, period n")
def test_criterion_8_dynamic():
    runs = run_sampled_suite(True)
    return f"{runs} rewired runs, 100% stabilized to oracle"
