"""Tests of the benchmark harness: the gate, importtime parsing, self times."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, package_import_s, parse_importtime, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# Correctness gate


def _run_record(**changes):
    rec = {"oracle_value": 2, "match": True, "stabilized": True,
           "outputs_histogram": {"2": 16}, "total_steps": 100}
    rec.update(changes)
    return json.dumps(rec)


def test_gate_accepts_a_correct_run_record():
    check = workloads.check_run("lsb:2", [6, 10], "per_node")
    assert check(0, _run_record(), {}) == (1, 0, 100)


@pytest.mark.parametrize("changes", [
    {"oracle_value": 3},
    {"match": False},
    {"stabilized": False},
    {"outputs_histogram": {"2": 15, "3": 1}},
])
def test_gate_flags_a_run_record_that_disagrees_with_ground_truth(changes):
    check = workloads.check_run("lsb:2", [6, 10], "per_node")
    assert check(0, _run_record(**changes), {})[1] == 1


def test_gate_flags_a_nonzero_exit_even_with_good_records():
    check = workloads.check_run("lsb:2", [6, 10], "per_node")
    assert check(2, _run_record(), {})[1] == 1
    audit = workloads.check_audit(1)
    assert audit(0, '{"ok": true}\n', {})[1] == 0
    assert audit(1, '{"ok": true}\n', {})[1] == 1


def test_gate_flags_missing_and_malformed_output():
    assert workloads.check_run("or", [1, 7], "per_node")(1, "", {}) == (1, 1, 0)
    assert workloads.check_run("or", [1, 7], "per_node")(0, "[1]", {}) == (1, 1, 0)
    assert workloads.check_audit(3)(0, '{"ok": true}\n', {})[1] == 2
    assert workloads.check_audit(1)(0, '"ok"\n', {})[1] == 1
    bad_input = json.dumps({"input": 5, "verdict": "PASS", "value": 1})
    assert workloads.check_verify("lsb:2", 1)(0, bad_input, {})[1] == 1


@pytest.mark.parametrize("verdict, failed", [("PASS", 0), ("FAIL", 1), ("SKIPPED", 1)])
def test_gate_counts_only_pass_verdicts(verdict, failed):
    check = workloads.check_verify("lsb:2", 2)
    # r = 3 red agents, so the true value is 3 mod 4
    lines = [json.dumps({"input": "0001", "verdict": "PASS", "value": 3}),
             json.dumps({"input": "0100", "verdict": verdict, "value": 3})]
    assert check(0, "\n".join(lines), {}) == (2, failed, 0)


def test_gate_flags_a_verdict_with_the_wrong_value():
    check = workloads.check_verify("threshold:2:1", 1)
    line = json.dumps({"input": "0001", "verdict": "PASS", "value": 0})  # 1*3 > 2*1
    assert check(0, line, {})[1] == 1


def test_gate_flags_unstabilized_and_missing_sweep_rows():
    header = "protocol,n,edges,graph,seed,first_correct_step,total_steps,stabilized\n"
    rows = "lsb:1,8,8,cycle:8,0,5,40,True\nlsb:1,8,8,cycle:8,1,,90,False\n"
    check = workloads.check_sweep(3, "x.csv")
    assert check(2, "", {"x.csv": header + rows}) == (3, 2, 130)


def test_truth_matches_the_protocol_definitions():
    assert workloads.truth("or", [8, 0]) == 0
    assert workloads.truth("or", [7, 1]) == 1
    assert workloads.truth("lsb:2", [7, 3]) == 3
    assert workloads.truth("threshold:2:1", [6, 2]) == 1  # 6 > 2*2
    assert workloads.truth("threshold:2:1", [4, 2]) == 0
    assert workloads.truth("estimate:64", [37, 27]) == 5
    assert workloads.truth("plurality:4", [2, 5, 3, 2]) == 1
    assert workloads.truth("circuit:t.circ", [2, 5, 3, 5]) == 5
    with pytest.raises(ValueError):
        workloads.truth("plurality:4", [3, 3, 1, 1])


# ---------------------------------------------------------------------------
# Seeded inputs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workloads_repeat_for_a_seed_and_vary_with_it(name):
    make = workloads.WORKLOADS[name]
    argvs = [[inv.argv for inv in make(seed)] for seed in range(12)]
    assert argvs[0] == [inv.argv for inv in make(0)]
    assert len({json.dumps(a) for a in argvs}) > 1


def test_plurality_split_has_one_winner_at_every_size():
    for seed in range(50):
        spec = workloads.plurality_split(random.Random(seed), workloads.PLURALITY_SIZES)
        blocks = [b.split(":") for b in spec.split(",")]
        percents = [(int(c), int(p[:-1])) for c, p in blocks if p != "rest"]
        rest = next(int(c) for c, p in blocks if p == "rest")
        for n in workloads.PLURALITY_SIZES:
            counts = workloads._percent_counts(n, percents, rest)
            assert sum(counts) == n and counts.count(max(counts)) == 1


# ---------------------------------------------------------------------------
# Importtime parsing

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:        50 |         50 |   _io
import time:       100 |        100 | re
import time:       300 |        300 |       numpy._core
import time:       200 |        500 |     numpy
import time:        40 |         40 |     scipy._lib
import time:       700 |       1240 |   scipy.stats
import time:        10 |       1250 | anonet.oracle
some line the CLI printed to stderr
import time:        30 |         30 | scipy.linalg
"""


def test_parse_importtime_builds_the_nesting_tree():
    forest = parse_importtime(IMPORTTIME)
    assert [node[0] for node in forest] == ["re", "anonet.oracle", "scipy.linalg"]
    anonet = forest[1]
    assert anonet[1:3] == (10, 1250)
    (scipy_stats,) = anonet[3]
    assert [c[0] for c in scipy_stats[3]] == ["numpy", "scipy._lib"]
    assert scipy_stats[3][0][3][0][0] == "numpy._core"


def test_package_import_time_sums_outermost_nodes_only():
    forest = parse_importtime(IMPORTTIME)
    assert package_import_s(forest, "scipy") == pytest.approx((1240 + 30) / 1e6)
    assert package_import_s(forest, "numpy") == pytest.approx(500 / 1e6)
    assert package_import_s(forest, "torch") == 0


# ---------------------------------------------------------------------------
# Spans and self time


def _span(i, parent, start, end, callable_s=0.0):
    return {"id": i, "name": f"s{i}", "parent": parent, "start": start, "end": end,
            "callable_s": callable_s}


def test_self_time_subtracts_direct_children_once():
    spans = [
        _span(0, None, 0.0, 10.0, callable_s=0.5),
        _span(1, 0, 1.0, 5.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: inside span 1 already
        _span(3, 0, 6.0, 8.0, callable_s=0.25),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.75)


def test_tracer_links_parents_and_charges_callables_to_the_innermost_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    step = tracer.wrap_callable("protocols", "transition", lambda a, b: (b, a))
    inner = tracer.wrap("engine.run", lambda: step(1, 2), attrs=lambda r: {"result": r})
    outer = tracer.wrap("cli.main", lambda: inner())
    assert outer() == (2, 1)
    main, run_span = tracer.spans
    assert (main["parent"], run_span["parent"]) == (None, main["id"])
    assert run_span["result"] == (2, 1)
    assert run_span["callable_s"] == 1.0 and main["callable_s"] == 0.0
    assert tracer.calls == {"protocols.transition@engine.run": [1, 1.0]}
    assert self_times(tracer.spans)[run_span["id"]] == pytest.approx(
        run_span["end"] - run_span["start"] - 1.0)


# ---------------------------------------------------------------------------
# Metric names and the launcher


def test_benchmark_json_lists_the_metrics_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    empty = run.Invoked(1.0, 0.5, 0.4, 1, 1, 0, 0, "", {}, "", [0.06])
    layers = run.per_layer(run.Pass([empty]), run.Pass([empty]))
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([run.Pass([empty])]))
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"])


def _invoked(wall_s, setup_s=0.5, calibration_s=(0.06, 0.06)):
    return run.Invoked(wall_s, setup_s, 0.4, 1024, 1, 0, 0, "", {}, "", list(calibration_s))


def test_wall_s_sums_each_invocations_median_over_a_partial_last_pass():
    passes = [run.Pass([_invoked(1.0), _invoked(10.0, 0.7)]),
              run.Pass([_invoked(3.0), _invoked(14.0, 0.9)]),
              run.Pass([_invoked(2.0, 0.6)])]
    assert [len(col) for col in run.columns(passes)] == [3, 2]
    metrics = run.end_to_end(passes)
    assert metrics["wall_s"] == pytest.approx(2.0 + 12.0)
    assert metrics["setup_s"] == pytest.approx(0.6)


def test_times_scale_by_the_mean_calibration_reading():
    nominal = run.CALIBRATION_NOMINAL_S
    slow = [run.Pass([_invoked(3.0, 1.5, (2 * nominal, 4 * nominal))]),
            run.Pass([_invoked(3.0, 1.5, (3 * nominal,))])]
    factor = run.host_factor(slow)
    assert factor == pytest.approx(1 / 3)
    metrics = run.end_to_end(slow, factor)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"] == run.end_to_end(slow)["peak_rss_mb"]
    assert run.host_factor([run.Pass([_invoked(3.0, calibration_s=())])]) == 1.0


def test_traced_launch_gives_the_same_output_and_records_spans(tmp_path):
    argv = ["run", "--protocol", "lsb:2", "--graph", "cycle:6", "--input", "0:3,1:3",
            "--seed", "4"]
    outs = []
    for trace in ("0", "1"):
        meta = tmp_path / f"meta{trace}.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "launcher.py"), str(meta), trace, "--", *argv],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    recorded = json.loads(meta.read_text())
    assert len(recorded["calibration_s"]) == 3 and min(recorded["calibration_s"]) > 0
    names = {s["name"] for s in recorded["spans"]}
    assert {"cli.main", "engine.run", "engine.build_graph", "catalog.parse_inputs",
            "catalog.resolve_protocol"} <= names
    assert any(k.startswith("protocols.transition@engine.run") for k in recorded["calls"])
