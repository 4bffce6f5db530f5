import argparse
import csv
import dataclasses
import inspect
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from anonet import circuits, cli, engine, oracle, protocols
from anonet.catalog import KINDS, ConfigError, parse_inputs, resolve_protocol
from anonet.cli import main
from anonet.engine import GRAPH_KINDS, GraphError, build_graph


def strict_json(text):
    """The JSON value of `text`; NaN and Infinity, which plain `json.loads`
    accepts, are not JSON and raise."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pin_cpus(monkeypatch, count):
    """Let `engine.map_jobs` see `count` CPUs, whatever this machine has. A
    test that observes runs through a wrapper in this process pins one:
    wrappers called in a worker record nothing here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestResolver:
    def test_known_specs(self):
        for spec in ("or", "lsb:2", "threshold:2:1", "bit:1:16", "estimate:16",
                     "max-gate", "min-gate", "plurality:4"):
            resolved = resolve_protocol(spec)
            assert resolved.protocol.name

    @pytest.mark.parametrize("nmax,levels", [(2, 2), (3, 3), (4, 3), (5, 4), (2**49, 50),
                                             (2**49 + 1, 51), (2**53 + 1, 55)])
    def test_bit_has_ceil_log2_nmax_plus_one_levels(self, nmax, levels):
        # in integers: a float log2 is one level short from 2^49 + 1 on
        assert resolve_protocol(f"bit:{levels - 1}:{nmax}").protocol.name
        with pytest.raises(ConfigError, match=rf"bit index {levels} outside \[0, {levels}\)"):
            resolve_protocol(f"bit:{levels}:{nmax}")

    def test_threshold_infers_minimal_c(self):
        assert resolve_protocol("threshold:1:1").protocol.budget_bits == 3  # c=1
        assert resolve_protocol("threshold:4:1").protocol.budget_bits == 4  # c=2

    def test_bad_specs(self):
        for spec in ("nope", "lsb", "lsb:x", "threshold:1", "bit:1", "plurality:1"):
            with pytest.raises(ConfigError):
                resolve_protocol(spec)

    @pytest.mark.parametrize("spec", [
        kind + ":2" * count
        for kind, (arities, _) in KINDS.items()
        for count in (min(arities) - 1, max(arities) + 1) if count >= 0
    ] + ["circuit"])
    def test_wrong_parameter_count_is_an_unknown_spec(self, spec):
        with pytest.raises(ConfigError, match="unknown protocol spec"):
            resolve_protocol(spec)

    def test_every_accepted_count_fits_the_factory(self):
        for arities, build in KINDS.values():
            for count in arities:
                inspect.signature(build).bind(*[2] * count)  # TypeError if it does not

    def test_circuit_file(self, tmp_path):
        path = tmp_path / "c.circ"
        path.write_text("(max (max 0 1) (max 2 3))\n")
        resolved = resolve_protocol(f"circuit:{path}")
        assert resolved.oracle_fn([3, 5, 2, 4]) == 5
        with pytest.raises(ConfigError):
            resolve_protocol(f"circuit:{tmp_path / 'missing'}")


@pytest.mark.parametrize("kind", sorted(GRAPH_KINDS))
def test_graph_kind_takes_exactly_its_parameters(capsys, kind):
    params = ":1" * len(GRAPH_KINDS[kind][0])  # p = 1 for gnp
    assert build_graph(f"{kind}:4{params}").n == 4
    for spec in (f"{kind}:4{params}".rsplit(":", 1)[0], f"{kind}:4{params}:1"):
        with pytest.raises(GraphError):
            build_graph(spec)
    code, out, _ = run_cli(capsys, ["sweep", "--protocol", "or", "--graph", kind + params,
                                    "--sizes", "4", "--seeds", "1"])
    assert code == 0
    assert list(csv.reader(io.StringIO(out)))[1][3] == f"{kind}:4{params}"


class TestParseInputs:
    def test_explicit_list(self):
        assert parse_inputs("0,1,0,1", 4, 2) == [0, 1, 0, 1]

    def test_block_counts(self):
        vals = parse_inputs("0:5,1:3", 8, 2, seed=1)
        assert sorted(vals) == [0] * 5 + [1] * 3
        assert parse_inputs("0:5,1:3", 8, 2, seed=1) == vals  # deterministic

    def test_percent_and_rest(self):
        vals = parse_inputs("0:50%,1:rest", 10, 2, seed=0)
        assert sorted(vals) == [0] * 5 + [1] * 5

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_inputs("0:5,1:5", 8, 2)
        with pytest.raises(ConfigError):
            parse_inputs("0,1,0", 4, 2)
        with pytest.raises(ConfigError):
            parse_inputs("0:2,5:2", 4, 2)
        with pytest.raises(ConfigError):
            parse_inputs("0:rest,1:rest", 4, 2)


class TestRunCommand:
    def test_record_fields_and_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "lsb:2", "--graph", "cycle:8",
             "--input", "0:5,1:3", "--seed", "1"],
        )
        assert code == 0
        rec = strict_json(out)
        assert rec["oracle_value"] == 1  # 5 mod 4
        assert rec["match"] is True and rec["stabilized"] is True
        assert rec["schema_version"] == 2
        assert rec["stopped_by"] == "quiescence"
        assert rec["n"] == 8 and rec["edges"] == 8
        assert strict_json(json.dumps(rec)) == rec

    def test_or_all_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "or", "--graph", "complete:4",
             "--input", "1:0,0:4"],
        )
        rec = strict_json(out)
        assert code == 0 and rec["oracle_value"] == 0

    def test_plurality_on_gnp(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "plurality:4", "--graph", "gnp:12:0.4",
             "--input", "0:5,1:3,2:2,3:2", "--seed", "3"],
        )
        rec = strict_json(out)
        assert code == 0 and rec["oracle_value"] == 0 and rec["match"]

    def test_estimate_empty_input(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "estimate:8", "--graph", "complete:4",
             "--input", "1:4,0:0"],
        )
        rec = strict_json(out)
        assert code == 0 and rec["empty"] is True and rec["oracle_value"] is None

    def test_stabilization_failure_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "lsb:1", "--graph", "cycle:8",
             "--input", "0:5,1:3", "--max-steps", "3"],
        )
        assert code == 2
        assert strict_json(out)["stabilized"] is False

    def test_config_error_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, ["run", "--protocol", "nope", "--graph", "cycle:4", "--input", "0:4"]
        )
        assert code == 1 and "error" in err

    def test_plurality_tie_reported_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["run", "--protocol", "plurality:4", "--graph", "complete:6",
             "--input", "0:3,1:3,2:0,3:0"],
        )
        assert code == 1 and "tie, unsupported" in err

    def test_trace_written(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        code, _, _ = run_cli(
            capsys,
            ["run", "--protocol", "or", "--graph", "path:3",
             "--input", "0,1,0", "--trace", str(path)],
        )
        assert code == 0
        assert path.read_text().strip().split("\n")[-1].startswith("outputs")

    def test_rewire_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "lsb:1", "--graph", "cycle:8",
             "--input", "0:5,1:3", "--rewire", "swap:8"],
        )
        assert code == 0 and strict_json(out)["match"]

    def test_rewire_with_one_edge(self, capsys, monkeypatch):
        # a one-edge graph has no second edge to swap with: every proposal
        # is rejected and the run goes on
        swaps = []
        swap = engine._Rewirer.swap
        monkeypatch.setattr(engine._Rewirer, "swap",
                            lambda self, rng: swaps.append(swap(self, rng)) or swaps[-1])
        code, out, _ = run_cli(
            capsys,
            ["run", "--protocol", "or", "--graph", "complete:2", "--input", "0,1",
             "--rewire", "swap:1"],
        )
        rec = strict_json(out)
        assert code == 0 and rec["edges"] == 1
        assert swaps and not any(swaps)
        assert rec["stabilized"] and rec["stopped_by"] == "quiescence"
        assert rec["total_steps"] == 2


class TestSweepCommand:
    def test_rows_and_summary(self, capsys, tmp_path):
        summary_path = tmp_path / "summary.json"
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "lsb:1", "--graph", "cycle",
             "--sizes", "8,12,16", "--seeds", "4",
             "--input", "0:50%,1:rest", "--summary", str(summary_path)],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["protocol", "n", "edges", "graph", "seed",
                           "first_correct_step", "total_steps", "stopped_by", "stabilized"]
        assert {row[7] for row in rows[1:]} == {"quiescence"}
        assert len(rows) == 1 + 3 * 4
        summary = strict_json(summary_path.read_text())
        assert "exponent" in summary and summary["exponent"] is not None
        # CSV round-trip: parse back and compare a row
        assert rows[1][0] == "lsb:1" and int(rows[1][1]) == 8

    @pytest.mark.parametrize("spec,graph,rewire,inputs", [
        ("lsb:2", "cycle", "none", "0:50%,1:rest"),
        ("plurality:4", "gnp:0.5", "swap:8", "0:50%,1:20%,2:10%,3:rest"),
    ])
    def test_shared_table_gives_identical_output(self, tmp_path, monkeypatch, spec, graph,
                                                 rewire, inputs):
        # the sweep's runs share one TransitionTable; without it, the bytes match
        import anonet.cli as cli
        from anonet import engine

        argv = ["sweep", "--protocol", spec, "--graph", graph, "--sizes", "6,8,10",
                "--seeds", "3", "--rewire", rewire, "--input", inputs]
        tables = []

        def shared(*args, table=None, **kwargs):
            tables.append(table)
            return engine.run(*args, table=table, **kwargs)

        def private(*args, table=None, **kwargs):
            return engine.run(*args, **kwargs)

        pin_cpus(monkeypatch, 1)
        outputs = []
        for name, runner in (("shared", shared), ("private", private)):
            monkeypatch.setattr(cli, "run", runner)
            out = tmp_path / f"{name}.csv"
            summary = tmp_path / f"{name}.json"
            assert main(argv + ["--output", str(out), "--summary", str(summary)]) == 0
            outputs.append((out.read_bytes(), summary.read_bytes()))
        assert len(tables) == 9 and len({id(t) for t in tables}) == 1
        assert tables[0] is not None and tables[0].rows
        assert outputs[0] == outputs[1]

    def test_sweep_parses_one_input_per_size_before_its_first_run(self, capsys, monkeypatch):
        # the fit of the input spec is checked once per size; each run's
        # input is parsed in the loop, from its own seed
        from anonet import engine

        events = []

        def parse(*args, **kwargs):
            events.append("parse")
            return parse_inputs(*args, **kwargs)

        def work(*args, **kwargs):
            events.append("run")
            return engine.run(*args, **kwargs)

        monkeypatch.setattr(cli, "parse_inputs", parse)
        monkeypatch.setattr(cli, "run", work)
        pin_cpus(monkeypatch, 1)
        sizes = [8, 12, 16]
        code, out, _ = run_cli(capsys, [
            "sweep", "--protocol", "lsb:1", "--graph", "cycle", "--sizes", "8,12,16",
            "--seeds", "5", "--input", "0:50%,1:rest"])
        assert code == 0 and events.count("run") == 15
        assert events.index("run") <= len(sizes)

    def test_summary_of_equal_means_is_strict_json(self, capsys):
        # every run stops at step 0, so every mean is 1: an exact fit, whose
        # standard error is 0.0, not NaN
        code, _, err = run_cli(capsys, [
            "sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4,8,16",
            "--seeds", "2", "--input", "1:rest"])
        summary = strict_json(err)
        assert code == 0 and summary["exponent_stderr"] == 0.0
        assert summary["means"] == {"4": 1.0, "8": 1.0, "16": 1.0}

    def test_plurality_tie_at_one_size_is_an_error_row(self, capsys, tmp_path):
        # n = 6 splits 2/1/1/2, a tie with no answer; n = 8 and 10 have a winner
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "plurality:4", "--graph", "gnp:0.5", "--sizes", "6,8,10",
             "--seeds", "2", "--input", "0:40%,1:30%,2:20%,3:rest",
             "--summary", str(tmp_path / "s.json")],
        )
        assert code == 2
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(row[1], row[-1]) for row in rows] == (
            [("6", "error:plurality tie between colors [0, 3]")] * 2
            + [("8", "True")] * 2 + [("10", "True")] * 2)

    def test_a_graph_error_row_names_the_spec(self, capsys):
        # at p = 0.001 no sample of 3 or 30 nodes connects
        code, out, _ = run_cli(capsys, ["sweep", "--protocol", "or", "--graph", "gnp:0.001",
                                        "--sizes", "3,30", "--seeds", "1"])
        assert code == 2
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [(row[1], row[-1]) for row in rows] == [
            (n, f"error:bad graph spec 'gnp:{n}:0.001': no connected sample in 200 attempts")
            for n in ("3", "30")]

    def test_forced_timeout_flagged(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--protocol", "lsb:1", "--graph", "cycle",
             "--sizes", "8,12,16", "--seeds", "2", "--max-steps", "2",
             "--summary", str(tmp_path / "s.json")],
        )
        assert code == 2
        rows = list(csv.reader(io.StringIO(out)))
        assert all(row[-2:] == ["max_steps", "False"] for row in rows[1:])


class TestVerifyCommand:
    def test_all_inputs_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--protocol", "lsb:1", "--graph", "path:3", "--all-inputs"]
        )
        assert code == 0
        records = [strict_json(line) for line in out.strip().split("\n")]
        assert len(records) == 8
        assert all(r["verdict"] == "PASS" for r in records)
        # node 0 varies fastest
        assert [r["input"] for r in records] == ["000", "100", "010", "110",
                                                 "001", "101", "011", "111"]

    @pytest.mark.parametrize("graph", ["complete:4", "cycle:4", "path:4"])
    def test_circuit_whose_leaves_skip_a_colour(self, capsys, tmp_path, graph):
        # colour 1 is no leaf: the orbit key must not build its initial state
        path = tmp_path / "gap.circ"
        path.write_text("(max 0 2)\n")
        code, out, err = run_cli(capsys, ["verify", "--protocol", f"circuit:{path}",
                                          "--graph", graph, "--input", "0,2,0,2"])
        assert (code, err) == (0, "")
        assert strict_json(out)["verdict"] == "PASS"

    @pytest.mark.parametrize("graph", ["complete:3", "cycle:4", "path:4", "star:4"])
    def test_all_inputs_of_a_circuit_whose_leaves_skip_a_colour(self, capsys, tmp_path, graph):
        # colour 1 is no leaf but below `colors`: a bystander in every input
        path = tmp_path / "gap.circ"
        path.write_text("(max 0 2)\n")
        code, out, err = run_cli(capsys, ["verify", "--protocol", f"circuit:{path}",
                                          "--graph", graph, "--all-inputs"])
        assert (code, err) == (0, "")
        records = [strict_json(line) for line in out.splitlines()]
        assert len(records) == 3 ** build_graph(graph).n
        assert {r["verdict"] for r in records} == {"PASS"}

    def test_threshold_tie_inputs_pass(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--protocol", "threshold:1:1", "--graph", "complete:4", "--all-inputs"],
        )
        assert code == 0
        assert all(strict_json(l)["verdict"] == "PASS" for l in out.strip().split("\n"))

    def test_plurality_tie_is_a_skipped_record(self, capsys):
        code, out, _ = run_cli(
            capsys, ["verify", "--protocol", "plurality:2", "--graph", "complete:4", "--all-inputs"]
        )
        assert code == 0
        records = [strict_json(line) for line in out.strip().split("\n")]
        tie = records[3]  # input 1100
        assert tie == {"protocol": "plurality:2", "graph": "complete:4", "input": "1100",
                       "verdict": "SKIPPED", "states_explored": 0, "symmetry": "none",
                       "value": None, "detail": "plurality tie between colors [0, 1]"}
        assert set(tie) == set(records[0]) | {"detail"}  # a PASS line's keys, and the reason

    @staticmethod
    def records_each_explored_once(capsys, monkeypatch, argv):
        """(exit code, lines, inputs explored) of `verify ... --all-inputs`;
        every line must equal that of a `verify ... --input` call on its input."""
        explored = []
        verify_exhaustive = cli.verify_exhaustive

        def spy(protocol, graph, inputs, expected, **kwargs):
            explored.append(tuple(inputs))
            return verify_exhaustive(protocol, graph, inputs, expected, **kwargs)

        monkeypatch.setattr(cli, "verify_exhaustive", spy)
        code, out, _ = run_cli(capsys, [*argv, "--all-inputs"])
        lines, orbit_calls = out.splitlines(), explored[:]
        for line in lines:
            one = run_cli(capsys, [*argv, "--input", ",".join(strict_json(line)["input"])])
            assert one[1].splitlines() == [line]
        return code, lines, orbit_calls

    @staticmethod
    def orbits(spec, graph, colors):
        """The answered inputs up to the graph's symmetry, by brute force."""
        n = build_graph(graph).n
        forms = set()
        for code in itertools.product(range(colors), repeat=n):
            try:
                resolve_protocol(spec).oracle_fn([code.count(c) for c in range(colors)])
            except ValueError:  # a tie has no answer, and nothing is explored
                continue
            if graph.startswith("complete"):
                forms.add(tuple(sorted(code)))
            else:  # a cycle: all rotations and reflections
                forms.add(min(img for s in range(n)
                              for img in (code[s:] + code[:s], code[s::-1] + code[:s:-1])))
        return len(forms)

    @pytest.mark.parametrize("spec,graph,colors,orbits", [
        ("lsb:2", "complete:5", 2, 6),
        ("threshold:2:1", "cycle:6", 2, 13),  # the binary bracelets of length 6
        ("plurality:3", "cycle:4", 3, None),  # ties stay SKIPPED and are not explored
    ])
    def test_all_inputs_explore_each_orbit_once(self, capsys, monkeypatch, spec, graph, colors,
                                                orbits):
        code, lines, explored = self.records_each_explored_once(
            capsys, monkeypatch, ["verify", "--protocol", spec, "--graph", graph])
        assert code == 0 and len(lines) == colors ** build_graph(graph).n
        assert len(explored) == len(set(explored)) == self.orbits(spec, graph, colors)
        assert orbits is None or len(explored) == orbits
        if spec.startswith("plurality"):
            assert any(strict_json(line)["verdict"] == "SKIPPED" for line in lines)

    def test_labelled_inputs_are_their_own_orbits(self, capsys, monkeypatch):
        code, lines, explored = self.records_each_explored_once(
            capsys, monkeypatch, ["verify", "--protocol", "lsb:1", "--graph", "path:3"])
        assert code == 0 and len(explored) == len(lines) == 8

    def test_fail_is_explored_per_input(self, capsys, monkeypatch):
        # a wrong answer makes every input FAIL; the inputs of an orbit start
        # from one canonical configuration, so a FAIL is explored once per
        # orbit (the 8 binary bracelets of length 5) and each line still
        # matches its own `--input` call
        resolve = cli.resolve_protocol

        def off_by_one(spec):
            resolved = resolve(spec)
            return dataclasses.replace(
                resolved, oracle_fn=lambda counts: resolved.oracle_fn(counts) + 1)

        monkeypatch.setattr(cli, "resolve_protocol", off_by_one)
        code, lines, explored = self.records_each_explored_once(
            capsys, monkeypatch, ["verify", "--protocol", "max-gate", "--graph", "cycle:5"])
        assert code == 2 and len(lines) == 32
        assert len(explored) == len(set(explored)) == self.orbits("max-gate", "cycle:5", 2) == 8
        assert all(strict_json(line)["verdict"] == "FAIL" for line in lines)

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_each_record_is_written_when_its_input_is_done(self, capsys, monkeypatch, tmp_path,
                                                           to_file):
        # path:3 has no reduction, so every one of the 8 inputs is explored
        path = tmp_path / "records.jsonl"
        out = [""]  # stdout so far
        written = []  # what was written when each exploration started
        verify_exhaustive = cli.verify_exhaustive

        def spy(*args, **kwargs):
            out[0] += capsys.readouterr().out
            written.append(path.read_text() if to_file else out[0])
            return verify_exhaustive(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_exhaustive", spy)
        argv = ["verify", "--protocol", "lsb:1", "--graph", "path:3", "--all-inputs"]
        code, rest, _ = run_cli(capsys, argv + (["--output", str(path)] if to_file else []))
        final = path.read_text() if to_file else out[0] + rest
        lines = final.splitlines(keepends=True)
        assert code == 0 and len(lines) == len(written) == 8
        assert written == ["".join(lines[:i]) for i in range(8)]
        monkeypatch.undo()
        assert run_cli(capsys, argv)[1] == final  # the bytes all at once were the same

    def test_skipped_guard_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--protocol", "bit:0:8", "--graph", "cycle:4",
             "--input", "0,0,0,1", "--max-configs", "5"],
        )
        assert code == 0
        rec = strict_json(out)
        assert rec["verdict"] == "SKIPPED" and rec["symmetry"] == "cycle"
        assert rec["detail"] == "reachable set exceeds guard (5)"


class TestAuditCommand:
    def test_table_and_exit(self, capsys):
        code, out, _ = run_cli(capsys, ["audit", "lsb:2", "max-gate", "bit:2:64"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert all("PASS" in line for line in lines)
        assert "one bit" in lines[2]  # documented deviation note

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, ["audit", "lsb:2", "max-gate", "--format", "json"])
        assert code == 0
        rows = [strict_json(line) for line in out.strip().split("\n")]
        assert [r["protocol"] for r in rows] == ["lsb:2", "max-gate"]
        assert all(r["ok"] for r in rows)

    def test_circuit_whose_leaves_skip_a_colour(self, capsys, tmp_path):
        path = tmp_path / "gap.circ"
        path.write_text("(max 0 2)\n")
        code, out, err = run_cli(capsys, ["audit", f"circuit:{path}", "--n", "4"])
        assert (code, err) == (0, "")
        assert "(7 states)  PASS" in out

    def test_benchmark_audit_counts_and_makes_no_run_and_no_fork(self, capsys, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("the audit ran or forked")

        monkeypatch.setattr(os, "fork", work)
        monkeypatch.setattr(engine, "run", work)
        monkeypatch.setattr(cli, "run", work)
        code, out, err = run_cli(capsys, ["audit", "lsb:2", "threshold:2:1", "max-gate",
                                          "min-gate", "plurality:4", "bit:2:64", "estimate:64",
                                          "--n", "16", "--format", "json"])
        assert (code, err) == (0, "")
        rows = [strict_json(line) for line in out.strip().split("\n")]
        assert all(r["ok"] for r in rows)
        assert [r["distinct_states"] for r in rows] == [8, 8, 4, 4, 488, 38, 71]
        assert [r["measured_bits"] for r in rows] == [3, 3, 2, 2, 9, 6, 7]

    def test_the_bit_kinds_note_comes_from_its_entry_and_its_row_is_unchanged(self, capsys):
        code, out, _ = run_cli(capsys, ["audit", "bit:2:64", "--format", "json"])
        assert code == 0
        assert out == ('{"declared_bits": 6, "distinct_states": 38, "measured_bits": 6, '
                       '"note": "output register adds one bit over the counter tuple", '
                       '"ok": true, "protocol": "bit:2:64"}\n')
        assert "bit:" not in inspect.getsource(cli)  # no test of the kind in the CLI

    def test_a_closure_past_the_guard_is_skipped_and_exits_0(self, capsys):
        # unguarded, lsb:20's 2^21 states would take hours; the guard stops
        # the walk in ~1.5 s
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["audit", "lsb:20", "lsb:2"])
        assert time.perf_counter() - start < 6
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "lsb:20                   declared 21  measured 12 (at least 2049 states)  SKIPPED"
            "  [stopped past the guard of 2,048 members]",
            "lsb:2                    declared  3  measured  3 (8 states)  PASS"]

    def test_a_skipped_rows_json_says_it_did_not_close(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_AUDIT_MEMBERS", 5)
        code, out, _ = run_cli(capsys, ["audit", "bit:2:64", "lsb:1", "--format", "json"])
        assert code == 0
        skipped, closed = map(strict_json, out.splitlines())
        assert (skipped["distinct_states"], skipped["ok"], skipped["closed"]) == (6, True, False)
        assert skipped["note"] == ("output register adds one bit over the counter tuple; "
                                   "stopped past the guard of 5 members")
        assert closed["distinct_states"] == 4 and "closed" not in closed

    @pytest.mark.parametrize("argv", [["--n", "2"], ["--n", "5000"], ["--n", "-3"],
                                      ["--n", "8"]])
    def test_n_is_parsed_and_ignored(self, capsys, argv):
        # the counts hold for every n; the benchmark's command line still passes --n
        plain = run_cli(capsys, ["audit", "or", "bit:0:4", "plurality:3"])
        assert plain[0] == 0
        assert run_cli(capsys, ["audit", "or", "bit:0:4", "plurality:3", *argv]) == plain

    def test_n_is_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        assert "--n" not in capsys.readouterr().out

    def test_a_pair_that_raises_is_skipped(self, capsys):
        # a run of bit:0:4 with r = 8 raises; the audit skips that pair
        code, out, err = run_cli(capsys, ["audit", "bit:0:4", "--n", "8"])
        assert (code, err) == (0, "")
        assert "(14 states)  PASS" in out

    @pytest.mark.parametrize("argv", [
        ["audit", "or", "--format", "csv"],
        ["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0",
         "--format", "json"],
    ])
    def test_format_is_audit_only(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--format" in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="runs are spread over CPUs by os.fork")
class TestParallelRuns:
    """`sweep` spreads its runs over the CPUs (`engine.map_jobs`), with the
    output of one CPU."""

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv,forks", [
        (["sweep", "--protocol", "lsb:1", "--graph", "cycle", "--sizes", "8,12,16",
          "--seeds", "5", "--input", "0:50%,1:rest", "--output", "OUT", "--summary", "SUM"], 1),
        (["sweep", "--protocol", "plurality:4", "--graph", "gnp:0.5", "--sizes", "8,12,16",
          "--seeds", "3", "--rewire", "swap:8", "--input", "0:50%,1:20%,2:10%,3:rest",
          "--output", "OUT", "--summary", "SUM"], 1),
    ], ids=["lsb-cycle", "plurality-gnp-rewired"])
    def test_outputs_are_identical_on_one_and_two_cpus(self, capsys, tmp_path, monkeypatch,
                                                       argv, forks):
        real_fork, forked = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or real_fork())
        outputs = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            paths = {name: tmp_path / f"{name}{cpus}" for name in ("OUT", "SUM")}
            result = run_cli(capsys, [str(paths.get(arg, arg)) for arg in argv])
            files = [path.read_bytes() for path in paths.values() if path.exists()]
            outputs.append((result, files))
            self.no_child_left()
            assert len(forked) == (cpus - 1) * forks
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == (0, "", "") and outputs[0][1][0]

    def test_a_run_that_raises_in_a_worker_gives_the_serial_error(self, capsys, monkeypatch):
        # every run raises, the worker's among them; the lowest job's error is reported
        argv = ["sweep", "--protocol", "estimate:4", "--graph", "complete", "--sizes", "8,9,10",
                "--input", "0:100%"]
        results = []
        for cpus in (1, 2):
            pin_cpus(monkeypatch, cpus)
            results.append(run_cli(capsys, argv))
            self.no_child_left()
        assert results[0] == results[1]
        code, out, err = results[1]
        assert code == 1 and out == ""
        assert err == "error: token would exceed level 2: r, the count of color 0, must be < 2^3\n"

    def test_a_worker_that_dies_is_an_error_without_rows(self, capsys, tmp_path, monkeypatch):
        from anonet import engine

        parent = os.getpid()

        def work(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return engine.run(*args, **kwargs)

        monkeypatch.setattr(cli, "run", work)
        pin_cpus(monkeypatch, 2)
        rows = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, [
            "sweep", "--protocol", "lsb:1", "--graph", "cycle", "--sizes", "8,12,16",
            "--seeds", "2", "--output", str(rows)])
        self.no_child_left()
        assert code == 1 and out == "" and rows.read_text() == ""
        assert err == "error: a worker process ended with exit code 3 before sending its results\n"


class TestMeetCommand:
    def test_single_graph(self, capsys):
        code, out, _ = run_cli(capsys, ["meet", "--graph", "path:2", "--trials", "50"])
        assert code == 0
        rec = strict_json(out)
        assert rec["measurements"][0]["mean_steps"] == 1.0

    def test_grid_exponent(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["meet", "--graph", "cycle:8", "cycle:16", "cycle:32", "--trials", "150"],
        )
        rec = strict_json(out)
        assert code == 0 and rec["time_exponent"] <= 2.3

    @pytest.mark.parametrize("graphs", [["cycle:8", "complete:8", "cycle:16", "cycle:32"],
                                        ["cycle:8", "cycle:8", "cycle:8"]],
                             ids=["one-size-twice", "one-size-thrice"])
    def test_repeated_size_is_not_fitted(self, capsys, graphs):
        code, out, err = run_cli(capsys, ["meet", "--graph", *graphs, "--trials", "20"])
        rec = strict_json(out)
        assert code == 0 and err == ""
        assert len(rec["measurements"]) == len(graphs) and "time_exponent" not in rec

    def test_one_trial_has_zero_stderr(self, capsys):
        code, out, _ = run_cli(capsys, ["meet", "--graph", "cycle:4", "--trials", "1"])
        (stats,) = strict_json(out)["measurements"]
        assert code == 0 and stats["trials"] == 1
        assert stats["stderr_steps"] == stats["stderr_time"] == 0.0


class TestConfigFile:
    def test_config_provides_defaults_cli_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("protocol=lsb:2\ngraph=cycle:8\ninput=0:5,1:3\nseed=5\n")
        code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
        assert code == 0
        assert strict_json(out)["seed"] == 5
        code, out, _ = run_cli(capsys, ["run", "--config", str(cfg), "--seed", "9"])
        assert strict_json(out)["seed"] == 9  # explicit flag wins

    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a comment line\nprotocol=lsb:2\n\n"
                       "graph=cycle:8  # an inline comment\ninput=0:5,1:3\nseed=5 #\n")
        code, out, _ = run_cli(capsys, ["run", "--config", str(cfg)])
        rec = strict_json(out)
        assert code == 0
        assert (rec["protocol"], rec["graph"], rec["seed"]) == ("lsb:2", "cycle:8", 5)

    def test_bad_config_exit_1(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("protocol lsb:2\n")
        code, _, err = run_cli(capsys, ["run", "--config", str(cfg)])
        assert code == 1

    @pytest.mark.parametrize("argv", [["--config", "CFG", "run"],
                                      ["audit", "or", "--config", "CFG"]],
                             ids=["before-subcommand", "flag-not-taken"])
    def test_misplaced_config_exit_1(self, capsys, tmp_path, argv):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("protocol=lsb:2\ngraph=cycle:8\ninput=0:5,1:3\n")
        code, out, err = run_cli(capsys, [str(cfg) if a == "CFG" else a for a in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        if argv[0] == "--config":
            assert "--config goes after the subcommand" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_retired_confirm_window_key_exit_1(self, capsys, tmp_path, command):
        # an old config file fails loudly, not by running without its window
        cfg = tmp_path / "old.cfg"
        cfg.write_text("protocol=lsb:2\nconfirm-window=5\n")
        argv = {"run": ["run", "--graph", "cycle:8", "--input", "0:5,1:3"],
                "sweep": ["sweep", "--graph", "cycle", "--sizes", "4", "--seeds", "1"]}[command]
        code, out, err = run_cli(capsys, argv[:1] + ["--config", str(cfg)] + argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "--confirm-window" in err

    @pytest.mark.parametrize("command", ["run", "sweep", "meet"])
    def test_retired_rate_key_exit_1(self, capsys, tmp_path, command):
        # every edge's clock runs at rate 1; an old config file setting
        # another rate fails loudly
        cfg = tmp_path / "old.cfg"
        cfg.write_text("rate=2\n")
        argv = {"run": ["run", "--protocol", "lsb:2", "--graph", "cycle:8", "--input", "0:5,1:3"],
                "sweep": ["sweep", "--protocol", "lsb:2", "--graph", "cycle", "--sizes", "4",
                          "--seeds", "1"],
                "meet": ["meet", "--graph", "path:2"]}[command]
        code, out, err = run_cli(capsys, argv[:1] + ["--config", str(cfg)] + argv[1:])
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: --rate 2\n"


_RUN_OR = ["run", "--protocol", "or", "--input", "0:1,1:rest"]
# every integer of the spec grammar is in ASCII digits 0-9 alone: no sign, no
# underscore and no other script's digits, all of which int() takes
BAD_INTEGERS = {
    "cycle-underscore": ([*_RUN_OR, "--graph", "cycle:1_0"], "error: bad graph spec "
                         "'cycle:1_0': expected an integer >= 0 in digits 0-9, got '1_0'\n"),
    "cycle-plus": ([*_RUN_OR, "--graph", "cycle:+5"], "error: bad graph spec 'cycle:+5': "
                   "expected an integer >= 0 in digits 0-9, got '+5'\n"),
    "cycle-arabic-indic": ([*_RUN_OR, "--graph", "cycle:\u0664"], "error: bad graph spec "
                           "'cycle:\u0664': expected an integer >= 0 in digits 0-9, got "
                           "'\u0664'\n"),
    "lsb-fullwidth": (["run", "--protocol", "lsb:\uff11", "--graph", "cycle:4", "--input",
                       "0:1,1:rest"], "error: bad protocol spec 'lsb:\uff11': expected an "
                      "integer >= 0 in digits 0-9, got '\uff11'\n"),
    "sweep-sizes-plus": (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4,+5",
                          "--output", "TMP/rows.csv"],
                         "error: --sizes '4,+5': expected an integer >= 0 in digits 0-9, "
                         "got '+5'\n"),
    "sweep-sizes-empty-entries": (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes",
                                   ",4,,5,", "--seeds", "1", "--output", "TMP/rows.csv"],
                                  "error: --sizes ',4,,5,': expected an integer >= 0 in "
                                  "digits 0-9, got ''\n"),
    "input-count-underscore": (["run", "--protocol", "or", "--graph", "cycle:10", "--input",
                                "0:1_0,1:rest"],
                               "error: --input '0:1_0,1:rest': bad input block '0:1_0': "
                               "expected color:count, color:p% or color:rest\n"),
    "rewire-arabic-indic": ([*_RUN_OR, "--graph", "cycle:4", "--rewire", "swap:\u0661"],
                            "error: --rewire 'swap:\u0661': expected none or swap:p with "
                            "p >= 1\n"),
    "circuit-leaf-arabic-indic": (["run", "--protocol", "circuit:TMP/digit.circ", "--graph",
                                   "cycle:4", "--input", "0:1,1:rest"],
                                  "error: bad protocol spec 'circuit:TMP/digit.circ': bad "
                                  "token '\u0661': a leaf is a colour in digits 0-9\n"),
    "edge-list-arabic-indic": ([*_RUN_OR, "--graph", "file:TMP/digit.edges"],
                               "error: TMP/digit.edges:1: expected 'u v' with ids >= 0, got "
                               "'\u0660 \u0661'\n"),
    # so are the integer flags, whose '-' still reaches each flag's bound check
    **{f"{flag[2:]}-{name}": ([*argv, flag, value],
                              f"error: argument {flag}: invalid integer value: {value!r}\n")
       for flag, argv, name, value in (
           ("--seed", [*_RUN_OR, "--graph", "cycle:4"], "underscore", "1_0"),
           ("--max-steps", [*_RUN_OR, "--graph", "cycle:4"], "fullwidth", "\uff110"),
           ("--seeds", ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4"],
            "plus", "+4"),
           ("--max-configs", ["verify", "--protocol", "or", "--graph", "cycle:4", "--input",
                              "0:4"], "arabic-indic", "\u0663"),
           ("--n", ["audit", "or"], "plus", "+4"),
           ("--trials", ["meet", "--graph", "path:2"], "underscore", "1_0"))},
}


def write_bad_integer_files(tmp_path):
    """The circuit and the edge list of `BAD_INTEGERS`, in Arabic-Indic digits."""
    (tmp_path / "digit.circ").write_text("(max 0 \u0661)\n", encoding="utf-8")
    (tmp_path / "digit.edges").write_text("\u0660 \u0661\n", encoding="utf-8")


class TestBadInputs:
    @pytest.mark.parametrize(
        "argv,names",
        [
            *(([*argv, "--rate", "2"], "error: unrecognized arguments: --rate 2\n")
              for argv in (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4"],
                           ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4"],
                           ["meet", "--graph", "path:2"])),
            *((["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
                "--rewire", spec], f"--rewire {spec!r}: expected none or swap:p with p >= 1\n")
              for spec in ("swap:x", "swap:", "swap:0", "bogus")),
            (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "x:3,1:rest"],
             "error: --input 'x:3,1:rest': bad input block 'x:3': expected color:count, "
             "color:p% or color:rest\n"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "8,x"],
             "--sizes '8,x'"),
            (["run", "--protocol", "bit:0:4", "--graph", "complete:8", "--input", "0:8"], ""),
            (["sweep", "--protocol", "bit:0:4", "--graph", "complete", "--sizes", "8",
              "--input", "0:8"], ""),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "8",
              "--input", "x:3,1:rest"],
             "error: --input 'x:3,1:rest': bad input block 'x:3': expected color:count, "
             "color:p% or color:rest\n"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4,8",
              "--input", "0:5,1:rest"], "--input '0:5,1:rest'"),
            (["verify", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
              "--max-configs", "0"], "--max-configs"),
            (["verify", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,x,0"],
             "--input '0,1,x,0'"),
            (["run", "--protocol", "or", "--graph", "cycle:4"], "--input"),
            (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
              "--max-steps", "-1"], "--max-steps"),
            (["run", "--protocol", "lsb:2", "--graph", "cycle:8", "--input", "0:5,1:3",
              "--confirm-window", "0"], "--confirm-window"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4",
              "--max-steps", "-1"], "--max-steps"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4",
              "--confirm-window", "0"], "--confirm-window"),
            (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
              "--trace", "TMP/missing/t.txt"], "missing/t.txt"),
            (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
              "--output", "TMP/missing/o.json"], "missing/o.json"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "1",
              "--output", "TMP/rows.csv", "--summary", "TMP/missing/s.json"],
             "missing/s.json"),
            (["verify", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0",
              "--output", "TMP/missing/v.json"], "missing/v.json"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "0"],
             "--seeds"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "-3"],
             "--seeds"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4,-5,6"],
             "error: --sizes '4,-5,6': expected an integer >= 0 in digits 0-9, got '-5'\n"),
            *((["sweep", "--protocol", "or", "--graph", family, "--sizes", "4,5,6"],
               f"--graph {family!r}") for family in ("cycle:8", "file:x", "gnp", "nope")),
            *((["run", "--protocol", "or", "--graph", "cycle:4", "--input", f"{block},1:rest"],
               f"error: --input '{block},1:rest': bad input block '{block}': expected "
               "color:count, color:p% or color:rest\n")
              for block in ("0:abc", "0:1.5", "0:5%%")),
            *((["run", "--protocol", "or", "--graph", "cycle:4", "--input", spec],
               f"error: --input {spec!r}: {message}\n")
              for spec, message in (("", "empty input spec"),
                                    ("0,1,5,0", "input color 5 out of range [0, 2)"),
                                    ("0:2,1", "mixed input spec '0:2,1'"),
                                    ("0:-1,1:rest", "bad input block '0:-1': expected "
                                     "color:count, color:p% or color:rest"))),
            *((["run", "--protocol", spec, "--graph", "cycle:4", "--input", "0:2,1:rest"],
               f"error: bad protocol spec {spec!r}: {message}\n")
              for spec, message in (
                  ("circuit:TMP/open.circ", "unexpected end of circuit expression"),
                  ("circuit:TMP/trailing.circ", "trailing tokens after circuit expression"),
                  ("lsb:0", "c must be >= 1"),
                  ("estimate:1", "n_max must be >= 2"),
                  ("bit:9:4", "bit index 9 outside [0, 3)"),
                  ("plurality:1", "need k >= 2"),
                  ("plurality:1048577", "k = 1048577 is over the limit of 1,048,576 colours"),
                  ("circuit:TMP/wide.circ",
                   "leaf 1048576 is over the limit of 1,048,576 colours"),
                  ("lsb:100000000000", "c = 100000000000 is over the limit of 65,536"),
                  ("threshold:1:1:65537", "c = 65537 is over the limit of 65,536"))),
            *((["run", "--protocol", "or", "--graph", spec, "--input", "0:1,1:rest"],
               f"error: bad graph spec {spec!r}: {message}\n")
              for spec, message in (("cycle:2", "need at least 3 nodes, got 2"),
                                    ("complete:1", "need at least 2 nodes, got 1"))),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", ","],
             "error: --sizes ',': expected an integer >= 0 in digits 0-9, got ''\n"),
            (["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4",
              "--output", "TMP/o.json", "--trace", "TMP/./o.json"],
             "error: output paths 'TMP/o.json' and 'TMP/./o.json' name one file\n"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "1",
              "--output", "TMP/rows.csv", "--summary", "TMP/rows.csv"],
             "error: output paths 'TMP/rows.csv' and 'TMP/rows.csv' name one file\n"),
            (["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "8,8,8", "--seeds",
              "2", "--output", "TMP/rows.csv"],
             "error: --sizes '8,8,8': size 8 is given more than once\n"),
            (["verify", "--protocol", "plurality:8", "--graph", "cycle:8", "--all-inputs"],
             "error: --all-inputs: 8^8 inputs is over the limit of 2^22\n"),
            (["meet", "--graph", "cycle:4", "--trials", "0"],
             "error: --trials must be >= 1, got 0\n"),
            (["run", "--config", "TMP/missing.json", "--protocol", "or", "--graph", "cycle:4",
              "--input", "0:4"], "error: cannot read config file TMP/missing.json: "),
            *BAD_INTEGERS.values(),
        ],
        ids=["run-rate-retired", "sweep-rate-retired", "meet-rate-retired", "rewire-period",
             "rewire-empty-period",
             "rewire-period-0", "rewire-unknown", "input-color", "sweep-sizes",
             "run-violation", "sweep-violation",
             "sweep-input-color",
             "sweep-input-too-large", "max-configs-0", "verify-input-list",
             "missing-required", "run-max-steps-negative", "run-confirm-window-0",
             "sweep-max-steps-negative", "sweep-confirm-window-0", "run-trace-unwritable",
             "run-output-unwritable", "sweep-summary-unwritable", "verify-output-unwritable",
             "sweep-seeds-0",
             "sweep-seeds-negative", "sweep-sizes-negative", "sweep-family-with-n",
             "sweep-family-file", "sweep-family-gnp-without-p", "sweep-family-unknown",
             "input-count-word", "input-count-fraction", "input-count-percent",
             "input-empty", "input-list-color", "input-mixed", "input-count-negative",
             "circuit-unclosed", "circuit-trailing", "lsb-0", "estimate-1", "bit-index",
             "plurality-1", "plurality-over-the-colour-limit", "circuit-over-the-colour-limit",
             "lsb-over-the-bit-limit", "threshold-over-the-bit-limit",
             "cycle-2", "complete-1", "sweep-sizes-empty", "run-output-and-trace-one-file",
             "sweep-output-and-summary-one-file", "sweep-sizes-repeated",
             "verify-all-inputs-too-many",
             "meet-trials-0", "config-missing", *BAD_INTEGERS],
    )
    def test_error_line_and_exit_1(self, capsys, tmp_path, argv, names):
        (tmp_path / "open.circ").write_text("(max 0\n")
        (tmp_path / "trailing.circ").write_text("(max 0 1) 2\n")
        (tmp_path / "wide.circ").write_text("(max 0 1048576)\n")
        write_bad_integer_files(tmp_path)
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        names = names.replace("TMP", str(tmp_path))
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert names in err
        # paths are checked before the first run: no CSV row was written
        rows = tmp_path / "rows.csv"
        assert not rows.exists() or rows.read_text() == ""
        # nor was any file opened that two outputs name
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0:4", "--trace"],
        ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "1",
         "--summary"],
    ], ids=["run", "sweep"])
    def test_two_outputs_may_both_be_dev_null(self, capsys, argv):
        # /dev/null is no regular file: writing it twice overwrites nothing
        code, out, err = run_cli(capsys, [*argv, os.devnull, "--output", os.devnull])
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("under,over", [
        ("plurality:4", "plurality:5"), ("circuit:TMP/c3.circ", "circuit:TMP/c4.circ"),
        ("lsb:3", "lsb:4"), ("threshold:1:1:3", "threshold:1:1:4")])
    def test_a_protocol_spec_over_its_bound_ends_the_command_before_it_is_built(
            self, capsys, tmp_path, monkeypatch, under, over):
        # the bounds, lowered here so that no test builds much: the colours
        # of a plurality or a circuit file, and the c that 2^c is built of
        monkeypatch.setattr(circuits, "MAX_COLORS", 4)
        monkeypatch.setattr(protocols, "MAX_COUNTER_BITS", 3)
        (tmp_path / "c3.circ").write_text("(max 0 3)\n")
        (tmp_path / "c4.circ").write_text("(max 0 4)\n")
        argv = ["run", "--graph", "complete:4", "--input", "0:3,1:rest", "--protocol"]
        under, over = (spec.replace("TMP", str(tmp_path)) for spec in (under, over))
        code, out, err = run_cli(capsys, [*argv, under])
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, [*argv, over])
        assert code == 1 and out == ""
        assert err.startswith(f"error: bad protocol spec {over!r}: ") and "over the limit" in err

    @pytest.mark.parametrize("command,flag", [
        ("sweep", "--seed"), ("sweep", "--trace"),
        *(("verify", f) for f in ("--max-steps", "--confirm-window", "--rate", "--rewire",
                                  "--trace")),
        *(("audit", f) for f in ("--seed", "--max-steps", "--confirm-window", "--rate",
                                 "--rewire", "--trace")),
        *(("meet", f) for f in ("--max-steps", "--confirm-window", "--rewire", "--trace")),
    ])
    def test_flag_the_command_does_not_read(self, capsys, tmp_path, command, flag):
        argv = {
            "sweep": ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4",
                      "--seeds", "1"],
            "verify": ["verify", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0"],
            "audit": ["audit", "or"],
            "meet": ["meet", "--graph", "path:2", "--trials", "5"],
        }[command]
        value = {"--rewire": "swap:1", "--trace": str(tmp_path / "t.trace")}.get(flag, "1")
        code, out, err = run_cli(capsys, argv + [flag, value])
        assert code == 1 and out == ""
        assert err.startswith("error: unrecognized arguments: ") and flag in err
        assert not (tmp_path / "t.trace").exists()

    @pytest.mark.parametrize("command", ["run", "verify", "sweep", "audit"])
    def test_circuit_with_a_min_gate(self, capsys, tmp_path, command):
        path = tmp_path / "minmax.circ"
        path.write_text("(max (min 0 1) 2)\n")
        spec = f"circuit:{path}"
        argv = {
            "run": ["run", "--protocol", spec, "--graph", "complete:4", "--input", "0,1,1,2"],
            "verify": ["verify", "--protocol", spec, "--graph", "complete:4", "--all-inputs"],
            "sweep": ["sweep", "--protocol", spec, "--graph", "complete", "--sizes", "4"],
            "audit": ["audit", spec],
        }[command]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "MIN gates do not compose" in err and "min-gate" in err

    @pytest.mark.parametrize("command", ["run", "verify", "sweep", "audit"])
    def test_circuit_with_a_negative_leaf(self, capsys, tmp_path, command):
        # -1 is no colour: int() would take it, and `evaluate` would read the
        # count of the largest colour for it
        path = tmp_path / "neg.circ"
        path.write_text("(max -1 2)\n")
        spec = f"circuit:{path}"
        argv = {
            "run": ["run", "--protocol", spec, "--graph", "complete:4", "--input", "2,2,0,1"],
            "verify": ["verify", "--protocol", spec, "--graph", "complete:4", "--all-inputs"],
            "sweep": ["sweep", "--protocol", spec, "--graph", "complete", "--sizes", "4"],
            "audit": ["audit", spec],
        }[command]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert "bad token '-1'" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0",
         "--output", "TMP/missing/o.json"],
        ["run", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0",
         "--output", "TMP/o.json", "--trace", "TMP/missing/t.txt"],
        ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "1",
         "--output", "TMP/missing/rows.csv"],
        ["sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "4", "--seeds", "1",
         "--output", "TMP/rows.csv", "--summary", "TMP/missing/s.json"],
        ["verify", "--protocol", "or", "--graph", "cycle:4", "--input", "0,1,0,0",
         "--output", "TMP/missing/v.json"],
        ["audit", "or", "lsb:2", "--output", "TMP/missing/a.txt"],
        ["meet", "--graph", "cycle:8", "path:4", "--output", "TMP/missing/m.json"],
    ], ids=["run-output", "run-trace", "sweep-output", "sweep-summary", "verify-output",
            "audit-output", "meet-output"])
    def test_an_unwritable_path_ends_the_command_before_its_work(
            self, capsys, tmp_path, monkeypatch, argv):
        def work(*args, **kwargs):
            pytest.fail("the command started its work")

        for name in ("run", "verify_exhaustive", "audit_memory", "measure_meeting_time"):
            monkeypatch.setattr(cli, name, work)
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"{tmp_path}/missing/" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--protocol", "or", "--graph", "complete:10000", "--input", "0:rest"],
        ["sweep", "--protocol", "or", "--graph", "complete", "--sizes", "8,10000",
         "--output", "TMP/rows.csv"],
        ["verify", "--protocol", "or", "--graph", "gnp:5000:0.001", "--input", "0:rest"],
    ], ids=["run", "sweep", "verify"])
    def test_a_graph_over_the_edge_limit_ends_the_command_before_it_is_built(
            self, capsys, tmp_path, monkeypatch, argv):
        # complete:10000 may have 49,995,000 edges, ~13 GB at ~275 bytes each
        def work(*args, **kwargs):
            pytest.fail("the command built a graph or started its work")

        for kind, (parsers, _, *size) in list(GRAPH_KINDS.items()):
            monkeypatch.setitem(GRAPH_KINDS, kind, (parsers, work, *size))
        for name in ("run", "verify_exhaustive"):
            monkeypatch.setattr(cli, name, work)
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: graph '") and err.endswith(
            " edges, over the limit of 10,000,000\n")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_an_edge_list_over_the_edge_limit_ends_the_command_as_it_is_read(
            self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setattr(engine, "MAX_EDGES", 3)
        (tmp_path / "path.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "cycle.edges").write_text("0 1\n1 2\n# the fourth edge\n2 3\n3 0\n")
        argv = [command, "--protocol", "or", "--input", "0:3,1:rest"]
        code, out, err = run_cli(capsys, [*argv, "--graph", f"file:{tmp_path}/path.edges"])
        assert code == 0 and err == ""
        code, out, err = run_cli(capsys, [*argv, "--graph", f"file:{tmp_path}/cycle.edges"])
        assert code == 1 and out == ""
        assert err == f"error: {tmp_path}/cycle.edges:5: over the limit of 3 edges\n"

    def test_a_size_under_its_kinds_smallest_n_ends_the_sweep_before_its_runs(
            self, capsys, tmp_path, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("the command started its runs")

        monkeypatch.setattr(cli, "run", work)
        code, out, err = run_cli(capsys, [
            "sweep", "--protocol", "or", "--graph", "cycle", "--sizes", "2,3,4", "--seeds", "1",
            "--output", str(tmp_path / "rows.csv")])
        assert code == 1 and out == ""
        assert err == "error: bad graph spec 'cycle:2': need at least 3 nodes, got 2\n"
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("argv,line", BAD_INTEGERS.values(), ids=BAD_INTEGERS)
    def test_a_bad_integer_ends_the_command_before_its_runs(
            self, capsys, tmp_path, monkeypatch, argv, line):
        def work(*args, **kwargs):
            pytest.fail("the command started its runs")

        monkeypatch.setattr(cli, "run", work)
        write_bad_integer_files(tmp_path)
        argv = [arg.replace("TMP", str(tmp_path)) for arg in argv]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", line.replace("TMP", str(tmp_path)))

    def test_a_sweep_input_that_fits_no_later_size_ends_it_before_its_runs(
            self, capsys, tmp_path, monkeypatch):
        def work(*args, **kwargs):
            pytest.fail("the sweep started its runs")

        monkeypatch.setattr(cli, "run", work)
        rows = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, [
            "sweep", "--protocol", "lsb:2", "--graph", "cycle", "--sizes", "64,4",
            "--seeds", "20", "--input", "0:6,1:rest", "--output", str(rows)])
        assert code == 1 and out == "" and not rows.exists()
        assert err == "error: --input '0:6,1:rest': counts sum to 6 > n = 4\n"


def test_readme_flag_bullets_match_the_parser():
    # each subcommand's README bullet names only flags it declares, and
    # every shared flag it declares
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    bullets = {cmd: re.findall(r"--[a-z][a-z-]*", text) for cmd, text in
               re.findall(r"^\* `(\w+)`: (.*?)(?=^\S|^$)", readme, re.M | re.S)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(bullets) == set(sub.choices)
    for cmd, parser in sub.choices.items():
        declared = set(parser._option_string_actions)
        assert set(bullets[cmd]) <= declared, cmd
        assert declared & set(cli._COMMON) <= set(bullets[cmd]), cmd


def test_closed_stdout_is_a_quiet_exit():
    """A reader that goes away (`anonet verify ... | head`) ends the command
    with exit 1 and nothing on stderr. The output (~600 kB) is far larger
    than a pipe buffer, so the write fails whether it starts before or after
    the reader closes."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "anonet.cli", "verify", "--protocol", "or",
         "--graph", "complete:12", "--all-inputs"],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == b""
