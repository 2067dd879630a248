import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskbands

from riskbands import (
    GeneratorSpec,
    LossMatrix,
    MethodSpec,
    ParameterGrid,
    SeedRecord,
    default_synthetic_grid,
    empirical_risk,
    nasm_width,
)
from riskbands.cli import build_parser, main
from riskbands.fileio import read_loss_matrix, write_band, write_loss_matrix
from riskbands.harness import EQUICORRELATED, METHOD_NAMES


@pytest.fixture()
def matrix_csv(tmp_path):
    rng = np.random.default_rng(0)
    grid = ParameterGrid.linspace(0.0, 1.0, 6)
    matrix = LossMatrix(grid, rng.random((100, 6)))
    path = tmp_path / "losses.csv"
    write_loss_matrix(matrix, path)
    return path, matrix


def read_band_csv(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    upper = np.array([float(r[2]) if r[2] else np.nan for r in rows])
    lower = np.array([float(r[1]) if r[1] else np.nan for r in rows])
    valid = np.array([int(r[3]) for r in rows])
    return lower, upper, valid


class TestBandCommand:
    def test_nasm_upper_band_values(self, tmp_path, matrix_csv):
        path, matrix = matrix_csv
        out = tmp_path / "band.csv"
        code = main(["band", "--input", str(path), "--output", str(out),
                     "--method", "nasm", "--delta", "0.1", "--seed", "1"])
        assert code == 0
        _, upper, valid = read_band_csv(out)
        expected = np.clip(empirical_risk(matrix).values + nasm_width(100, 0.1), 0, 1)
        assert np.allclose(upper, expected, atol=1e-12)
        assert valid.all()

    def test_rr_on_constant_matrix_equals_curve(self, tmp_path):
        grid = ParameterGrid.linspace(0.0, 1.0, 4)
        matrix = LossMatrix(grid, np.full((30, 4), 0.5))
        path = tmp_path / "const.csv"
        write_loss_matrix(matrix, path)
        out = tmp_path / "band.csv"
        code = main(["band", "--input", str(path), "--output", str(out),
                     "--method", "rr", "--B", "128", "--seed", "3"])
        assert code == 0
        _, upper, _ = read_band_csv(out)
        assert np.all(upper == 0.5)

    def test_rrr_sidecar_carries_sets_and_quantiles(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = ParameterGrid.linspace(0.0, 1.0, 8)
        values = np.minimum.accumulate(rng.random((60, 8)), axis=1)
        matrix = LossMatrix(grid, values, "nonincreasing")
        path = tmp_path / "mono.csv"
        write_loss_matrix(matrix, path)
        out = tmp_path / "band.csv"
        code = main(["band", "--input", str(path), "--output", str(out),
                     "--method", "rrr", "--orientation", "nonincreasing",
                     "--r", "0.5", "--B", "128", "--seed", "4"])
        assert code == 0
        meta = json.loads((tmp_path / "band.csv.json").read_text())
        # the whole key set, so an added or dropped key shows here
        assert sorted(meta) == [
            "B", "adjusted_indices", "command", "delta", "delta_glob", "delta_loc", "input",
            "method", "notes", "orientation", "q_glob", "q_loc", "r", "sample_size", "seed",
            "side", "sides", "simultaneous", "sublevel_indices", "validity_indices",
            "validity_provenance", "validity_size", "width"]
        assert meta["r"] == 0.5
        assert isinstance(meta["sublevel_indices"], list)
        assert isinstance(meta["adjusted_indices"], list)

    def test_seed_echoed_even_when_defaulted(self, tmp_path, matrix_csv):
        path, _ = matrix_csv
        out = tmp_path / "band.csv"
        assert main(["band", "--input", str(path), "--output", str(out),
                     "--method", "nasm"]) == 0
        meta = json.loads((tmp_path / "band.csv.json").read_text())
        assert isinstance(meta["seed"]["seed"], int)

    def test_bit_reproducible_with_seed(self, tmp_path, matrix_csv):
        path, _ = matrix_csv
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        for out in (out1, out2):
            main(["band", "--input", str(path), "--output", str(out),
                  "--method", "rr", "--B", "128", "--seed", "11"])
        assert out1.read_text() == out2.read_text()

    @pytest.mark.parametrize("method,side", [("rrr", "lower"), ("pointwise", "two-sided")])
    def test_upper_only_methods_refuse_other_sides(self, tmp_path, capsys, method, side):
        rng = np.random.default_rng(2)
        matrix = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 8),
                            np.maximum.accumulate(rng.random((40, 8)), axis=1), "nondecreasing")
        path = tmp_path / "mono.csv"
        write_loss_matrix(matrix, path)
        out = tmp_path / "band.csv"
        code = main(["band", "--input", str(path), "--output", str(out), "--method", method,
                     "--orientation", "nondecreasing", "--side", side, "--B", "32",
                     "--seed", "1"])
        assert code == 5
        assert "error[domain]" in capsys.readouterr().err
        assert not out.exists()


class TestBandMatchesLibrary:
    """``riskbands band`` writes what ``write_band(MethodSpec(...).band(...))`` writes."""

    CASES = [(name, side) for name in METHOD_NAMES
             for side in (("upper", "lower", "two-sided")
                          if name in ("nasm", "rr") else ("upper",))]

    @pytest.mark.parametrize("name,side", CASES)
    def test_same_bytes(self, tmp_path, capsys, name, side):
        rng = np.random.default_rng(3)
        matrix = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 12),
                            np.maximum.accumulate(rng.random((80, 12)), axis=1), "nondecreasing")
        path = tmp_path / "mono.csv"
        write_loss_matrix(matrix, path)
        cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["band", "--input", str(path), "--output", str(cli_out),
                     "--method", name, "--orientation", "nondecreasing", "--side", side,
                     "--B", "64", "--r", "0.4", "--delta", "0.2", "--seed", "9"]) == 0
        seed = SeedRecord(9)
        band = MethodSpec(name, delta=0.2, B=64, r=0.4).band(
            read_loss_matrix(path, "nondecreasing"), seed, side=side)
        write_band(band, lib_out, sidecar_extra={
            "command": "band", "input": str(path), "orientation": "nondecreasing",
            "seed": seed.as_dict(), "side": side})
        assert cli_out.read_bytes() == lib_out.read_bytes()
        assert (tmp_path / "cli.csv.json").read_bytes() == (tmp_path / "lib.csv.json").read_bytes()


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        code = main(["band", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.csv"), "--method", "nasm"])
        assert code == 4

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\n0.5,zebra\n")
        code = main(["band", "--input", str(bad),
                     "--output", str(tmp_path / "o.csv"), "--method", "nasm"])
        assert code == 3

    def test_ragged_loss_csv_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "ragged.csv"
        bad.write_text("0.0,0.5,1.0\n0.1,0.2,0.3\n\n0.4,0.5\n")
        code = main(["band", "--input", str(bad),
                     "--output", str(tmp_path / "o.csv"), "--method", "nasm"])
        assert code == 3
        assert f"error[parse]: {bad}:4: row has 2 cells, expected 3" in capsys.readouterr().err

    def test_domain_error(self, tmp_path, matrix_csv):
        path, _ = matrix_csv
        code = main(["band", "--input", str(path),
                     "--output", str(tmp_path / "o.csv"),
                     "--method", "nasm", "--delta", "2.0"])
        assert code == 5


class TestWorkerCount:
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_non_positive_or_non_integer_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                          matrix_csv, source, value):
        path, _ = matrix_csv
        argv = ["band", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                "--method", "nasm"]
        if source == "flag":
            argv += ["--workers", value]
        else:
            monkeypatch.setenv("RISKBANDS_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"need a positive integer (from --workers or RISKBANDS_WORKERS), not '{value}'" \
            in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_flag_overrides_the_environment(self, tmp_path, monkeypatch, matrix_csv):
        path, _ = matrix_csv
        monkeypatch.setenv("RISKBANDS_WORKERS", "abc")
        assert main(["band", "--input", str(path), "--output", str(tmp_path / "o.csv"),
                     "--method", "nasm", "--workers", "2"]) == 0
        monkeypatch.setenv("RISKBANDS_WORKERS", "2")
        assert build_parser().parse_args(
            ["band", "--input", "x", "--output", "y", "--method", "nasm"]).workers == 2


def _commands():
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return sub.choices


def _write_input(path, dest):
    # a valid input of its flag's kind, so that only the refusal can stop the command
    matrix = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 4),
                        np.random.default_rng(1).random((20, 4)))
    if dest == "descriptor":
        path.write_text(json.dumps({
            "generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"name": "nasm"}], "n": [10], "runs": 2, "seed": 2}))
    elif dest == "inputs":
        write_band(MethodSpec("nasm").band(matrix, SeedRecord(1), side="two-sided"), path)
    else:
        write_loss_matrix(matrix, path)


def _overwrite_cases():
    # every (command, output flag, input flag): the inputs are the required
    # untyped flags without choices, the outputs --output and --output-prefix
    for command, parser in _commands().items():
        outputs = [a for a in parser._actions if a.dest in ("output", "output_prefix")]
        inputs = [a for a in parser._actions if a.required and a.type is None
                  and a.choices is None and a not in outputs]
        for out in outputs:
            for inp in inputs:
                yield command, out.dest, inp.dest


def _argv(command, tmp_path, output, clash_dest, clash_path):
    """``command``'s argv with ``clash_path`` as its ``clash_dest`` input and
    ``output`` as its output; every input file is written, valid, if absent."""
    argv = [command]
    for action in _commands()[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0]
        if action.dest in ("output", "output_prefix"):
            argv += [flag, str(output)]
        elif action.required and action.choices is not None:
            argv += [flag, action.choices[0]]
        elif action.required:
            paths = [clash_path if action.dest == clash_dest else tmp_path / f"{action.dest}.csv"]
            if action.nargs == "+":
                paths.append(tmp_path / f"{action.dest}-2.csv")
            for path in paths:
                if not path.exists():
                    _write_input(path, action.dest)
            argv += [flag, *map(str, paths)]
    return argv


class TestOutputsNeverOverwriteInputs:
    """No command replaces one of its own input files."""

    @pytest.mark.parametrize("command, out_dest, in_dest", list(_overwrite_cases()))
    def test_output_that_is_an_input_is_refused(self, tmp_path, capsys, command, out_dest,
                                                in_dest):
        target = tmp_path / "in.csv"
        argv = _argv(command, tmp_path, target, in_dest, target)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 5
        assert "would overwrite an input" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("command, in_dest", [
        ("band", "input"), ("select", "tradeoff"), ("compose", "inputs"), ("dump-sups", "input")])
    def test_output_whose_sidecar_is_an_input_is_refused(self, tmp_path, capsys, command,
                                                         in_dest):
        target = tmp_path / "in.csv.json"
        argv = _argv(command, tmp_path, tmp_path / "in.csv", in_dest, target)
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 5
        assert capsys.readouterr().err == (
            f"error[domain]: output {target} would overwrite an input of the command\n")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_every_file_writing_command_is_walked(self):
        # simulate reads no file, so it has no input to overwrite
        assert {command for command, _, _ in _overwrite_cases()} == (
            set(_commands()) - {"simulate"})


class TestDumpSupsCommand:
    def test_sidecar_seed_reruns_to_the_same_csv(self, tmp_path, matrix_csv):
        path, _ = matrix_csv
        first = tmp_path / "sups.csv"
        assert main(["dump-sups", "--input", str(path), "--B", "64", "--sign", "plus",
                     "--output", str(first)]) == 0
        meta = json.loads((tmp_path / "sups.csv.json").read_text())
        assert meta["command"] == "dump-sups" and meta["input"] == str(path)
        assert (meta["sign"], meta["B"]) == ("plus", 64)
        again = tmp_path / "again.csv"
        assert main(["dump-sups", "--input", meta["input"], "--B", str(meta["B"]),
                     "--sign", meta["sign"], "--seed", str(meta["seed"]["seed"]),
                     "--output", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert json.loads((tmp_path / "again.csv.json").read_text())["seed"] == meta["seed"]
        assert len(first.read_text().splitlines()) == 65


class TestSelectCommand:
    def test_select_even_tradeoff(self, tmp_path):
        grid = ParameterGrid.linspace(0.0, 1.0, 3)
        loss = LossMatrix(grid, np.array([[0.8, 0.5, 0.1], [0.8, 0.5, 0.1]]))
        trade = LossMatrix(grid, np.array([[0.0, 0.2, 0.9], [0.0, 0.2, 0.9]]))
        lp, tp = tmp_path / "l.csv", tmp_path / "t.csv"
        write_loss_matrix(loss, lp)
        write_loss_matrix(trade, tp)
        out = tmp_path / "sel.csv"
        code = main(["select", "--loss", str(lp), "--tradeoff", str(tp),
                     "--scheme", "even-tradeoff", "--constraint-r", "1.0",
                     "--output", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "sel.csv.json").read_text())
        assert meta["index"] == 1
        assert meta["objective"] == pytest.approx(0.7)


class TestSuggestBCommand:
    def test_degenerate_constant(self, tmp_path, capsys):
        grid = ParameterGrid.linspace(0.0, 1.0, 3)
        matrix = LossMatrix(grid, np.full((20, 3), 0.5))
        path = tmp_path / "const.csv"
        write_loss_matrix(matrix, path)
        code = main(["suggest-b", "--input", str(path), "--initial-b", "128",
                     "--seed", "2", "--output", str(tmp_path / "sb.json")])
        assert code == 0
        payload = json.loads((tmp_path / "sb.json").read_text())
        assert payload["degenerate"] is True
        assert payload["recommended_B"] == 128
        assert payload["lattice"] is False

    def test_lattice_losses_end_with_a_lattice_verdict(self, tmp_path):
        # equicorrelated suprema are multiples of 1/(5 sqrt(50)) = 0.028, wider
        # than the 1% target, so no B meets the criterion
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(50), rho=0.2)
        path = tmp_path / "lattice.csv"
        write_loss_matrix(spec.realize(50, SeedRecord(5))[0], path)
        code = main(["suggest-b", "--input", str(path), "--initial-b", "100",
                     "--seed", "6", "--output", str(tmp_path / "sb.json")])
        assert code == 0
        payload = json.loads((tmp_path / "sb.json").read_text())
        assert payload["lattice"] is True
        assert payload["criterion_met"] is False and payload["capped"] is False
        assert payload["bracket_width"] >= 0.01 * payload["q_boot"]

    def test_initial_b_above_the_cap_is_a_domain_error(self, tmp_path, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod

        def refuse(*args):
            raise AssertionError("no replicate may be drawn")

        monkeypatch.setattr(bootstrap_mod, "_count_rows", refuse)
        path = tmp_path / "losses.csv"
        write_loss_matrix(LossMatrix(ParameterGrid.linspace(0.0, 1.0, 3),
                                     np.random.default_rng(0).random((20, 3))), path)
        out = tmp_path / "sb.json"
        code = main(["suggest-b", "--input", str(path), "--initial-b", "1048577",
                     "--seed", "2", "--output", str(out)])
        assert code == 5
        assert not out.exists()


class TestSimulateCommand:
    def test_small_simulation(self, tmp_path):
        prefix = tmp_path / "sim"
        code = main(["simulate", "--family", "equicorrelated", "--rho", "0.2",
                     "--n", "100", "--runs", "20", "--method", "rr", "--B", "64",
                     "--grid-size", "30", "--metric", "anywhere,selected",
                     "--seed", "5", "--output-prefix", str(prefix)])
        assert code == 0
        payload = json.loads(prefix.with_suffix(".json").read_text())
        assert len(payload["reports"]) == 2
        for rep in payload["reports"]:
            assert 0.0 <= rep["estimate"] <= 1.0
        csv_lines = prefix.with_suffix(".csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3

    def test_constant_family_ignores_rho(self, tmp_path):
        prefix = tmp_path / "sim"
        code = main(["simulate", "--family", "constant", "--rho", "0.7", "--n", "20",
                     "--runs", "3", "--method", "nasm", "--grid-size", "5", "--seed", "5",
                     "--output-prefix", str(prefix)])
        assert code == 0
        [report] = json.loads(prefix.with_suffix(".json").read_text())["reports"]
        assert report["config"]["family"] == "constant" and "rho" not in report["config"]

    def test_simulate_reproducible(self, tmp_path):
        args = ["simulate", "--family", "equicorrelated", "--rho", "0.2",
                "--n", "80", "--runs", "10", "--method", "nasm",
                "--grid-size", "25", "--seed", "9"]
        p1, p2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--output-prefix", str(p1)])
        main(args + ["--output-prefix", str(p2)])
        assert p1.with_suffix(".csv").read_text() == p2.with_suffix(".csv").read_text()


class TestEvalCommand:
    def test_descriptor_run_with_trace(self, tmp_path):
        base, _ = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-3, 3, 25),
                                rho=0.2).realize(200, SeedRecord(6))
        base_path = tmp_path / "base.csv"
        write_loss_matrix(base, base_path)
        descriptor = {
            "generator": {"family": "matrix-surrogate", "path": str(base_path),
                          "orientation": "nondecreasing"},
            "methods": [{"name": "nasm", "delta": 0.1},
                        {"name": "rr", "delta": 0.1, "B": 64}],
            "n": [50],
            "runs": 10,
            "seed": 7,
            "metrics": ["anywhere"],
            "trace": True,
        }
        desc_path = tmp_path / "exp.json"
        desc_path.write_text(json.dumps(descriptor))
        prefix = tmp_path / "out"
        code = main(["eval", "--descriptor", str(desc_path),
                     "--output-prefix", str(prefix)])
        assert code == 0
        payload = json.loads(prefix.with_suffix(".json").read_text())
        assert len(payload["reports"]) == 2
        traces = json.loads(prefix.with_suffix(".trace.json").read_text())
        assert len(traces["rr_n50_anywhere"]) == 10

    def run_descriptor(self, tmp_path, descriptor):
        desc_path = tmp_path / "exp.json"
        desc_path.write_text(json.dumps(descriptor))
        prefix = tmp_path / "out"
        code = main(["eval", "--descriptor", str(desc_path), "--output-prefix", str(prefix)])
        return code, prefix

    def test_unknown_method_key_is_refused(self, tmp_path, capsys):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "equicorrelated",
                          "grid": {"low": -3.0, "high": 3.0, "size": 20}},
            "methods": [{"name": "rr", "B": 50, "delta_typo": 0.5}],
            "n": [30], "runs": 2, "seed": 2})
        assert code == 5
        err = capsys.readouterr().err
        assert "error[domain]" in err and "delta_typo" in err
        assert not prefix.with_suffix(".csv").exists()

    def test_rrr_budget_is_refused_before_any_run(self, tmp_path, capsys, monkeypatch):
        import riskbands.cli as cli_mod
        runs = []
        monkeypatch.setattr(cli_mod, "run_metrics", lambda *a, **k: runs.append(a))
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "equicorrelated",
                          "grid": {"low": -3.0, "high": 3.0, "size": 20}},
            "methods": [{"name": "nasm"},
                        {"name": "rrr", "B": 50, "delta_glob": 0.6, "delta_loc": 0.6}],
            "n": [30], "runs": 2, "seed": 2, "trace": True})
        assert code == 5
        assert "error[domain]: delta_glob + delta_loc must be below 1" in capsys.readouterr().err
        assert runs == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    @pytest.mark.parametrize("r", [float("nan"), -0.5])
    def test_r_outside_the_unit_interval_is_refused_before_any_run(self, tmp_path, capsys,
                                                                   monkeypatch, r):
        def refuse(*args):
            raise AssertionError("no run may start")

        monkeypatch.setattr(GeneratorSpec, "_draw", refuse)
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "equicorrelated",
                          "grid": {"low": -3.0, "high": 3.0, "size": 20}},
            "methods": [{"name": "nasm"}], "metrics": ["selected"], "r": r,
            "n": [30], "runs": 2, "seed": 2})
        assert code == 5
        assert capsys.readouterr().err == "error[domain]: risk tolerance r must lie in [0, 1]\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    @pytest.mark.parametrize("shift", [float("nan"), float("inf")])
    def test_non_finite_tradeoff_shift_is_refused(self, tmp_path, capsys, shift):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "equicorrelated", "tradeoff_shift": shift,
                          "grid": {"low": -3.0, "high": 3.0, "size": 20}},
            "methods": [{"name": "nasm"}], "metrics": ["conservatism"],
            "n": [30], "runs": 2, "seed": 2})
        assert code == 5
        assert capsys.readouterr().err == "error[domain]: tradeoff_shift must be finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json"]

    def test_unknown_descriptor_key_is_refused(self, tmp_path, capsys):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "metric": ["conservatism"], "n": [10], "runs": 2, "seed": 2})
        assert code == 5
        err = capsys.readouterr().err
        assert "error[domain]: unknown key(s) ['metric'] in descriptor" in err
        assert not prefix.with_suffix(".csv").exists()

    @pytest.mark.parametrize("generator, key", [
        ({"family": "equicorrelated", "rhoo": 0.9}, "rhoo"),
        ({"family": "constant", "rho": 0.2}, "rho"),
        ({"family": "matrix-surrogate", "path": "base.csv",
          "grid": {"low": 0.0, "high": 1.0, "size": 5}}, "grid"),
    ])
    def test_generator_key_outside_its_family_is_refused(self, tmp_path, capsys,
                                                         generator, key):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": generator, "methods": [{"name": "nasm"}],
            "n": [10], "runs": 2, "seed": 2})
        assert code == 5
        err = capsys.readouterr().err
        assert f"error[domain]: unknown key(s) ['{key}'] in generator" in err
        assert not prefix.with_suffix(".csv").exists()

    @pytest.mark.parametrize("generator, key", [
        ({"family": "constant", "grid": {"low": 0.0, "size": 5}}, "high"),
        ({"family": "panel-surrogate", "labels": "labels.csv"}, "scores"),
        ({"family": "matrix-surrogate", "orientation": "nondecreasing"}, "path"),
    ])
    def test_missing_generator_key_is_refused(self, tmp_path, capsys, generator, key):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": generator, "methods": [{"name": "nasm"}],
            "n": [10], "runs": 2, "seed": 2})
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error[domain]: missing key '{key}' in ")
        assert not prefix.with_suffix(".csv").exists()

    def test_zero_runs_is_refused(self, tmp_path, capsys):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"name": "nasm"}], "n": [10], "runs": 0, "seed": 2})
        assert code == 5
        assert capsys.readouterr().err == "error[domain]: need runs >= 1, got 0\n"
        assert not prefix.with_suffix(".csv").exists()

    @pytest.mark.parametrize("entries, message", [
        ({"generator": {"family": "constant", "grid": 5}}, "'grid' must be an object, not 5"),
        ({"generator": []}, "'generator' must be an object, not []"),
        ({"methods": {"name": "nasm"}},
         """'methods' must be a list, not {"name": "nasm"}"""),
        ({"methods": ["nasm"]}, """each entry of 'methods' must be an object, not "nasm\""""),
        ({"n": 1000.0}, "'n' must be an integer, not 1000.0"),
        ({"n": "10"}, """'n' must be an integer, not "10\""""),
        ({"runs": None}, "'runs' must be an integer, not null"),
        ({"runs": 2.7}, "'runs' must be an integer, not 2.7"),
        ({"r": None}, "'r' must be a number, not null"),
        ({"metrics": None}, "'metrics' must be a list, not null"),
        ({"metrics": "anywhere"}, """'metrics' must be a list, not "anywhere\""""),
        ({"generator": {"family": "equicorrelated", "rho": "0.2"}},
         """'rho' must be a number, not "0.2\""""),
        ({"generator": {"family": "constant", "value": None}}, "'value' must be a number, not null"),
        ({"generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 20.5}}},
         "'size' must be an integer, not 20.5"),
        ({"generator": {"family": "constant", "grid": {"low": "a", "high": 1.0, "size": 5}}},
         """'low' must be a number, not "a\""""),
        ({"methods": [{"name": "nasm", "delta": "0.1"}]}, """'delta' must be a number, not "0.1\""""),
        ({"generator": {"family": "equicorrelated", "batch_size": 2.5}},
         "'batch_size' must be an integer, not 2.5"),
        ({"methods": [{"name": "rr", "B": 10.5}]}, "'B' must be an integer, not 10.5"),
        ({"methods": [{"name": "rr", "B": "100"}]}, """'B' must be an integer, not "100\""""),
        ({"trace": "yes"}, """'trace' must be a boolean, not "yes\""""),
        ({"seed": "7"}, """'seed' must be an integer, not "7\""""),
        ({"n": []}, "'n' must be a nonempty list, not []"),
        ({"methods": []}, "'methods' must be a nonempty list, not []"),
        ({"metrics": []}, "'metrics' must be a nonempty list, not []"),
        # a name outside its key's choices, refused before any input file is read
        ({"scheme": "bogus"}, """'scheme' must be one of ['even-tradeoff', 'elbow'], not "bogus\""""),
        ({"generator": {"family": "matrix-surrogate", "path": "missing.csv",
                        "orientation": "bogus"}},
         "'orientation' must be one of ['nonincreasing', 'nondecreasing', 'unconstrained'], "
         """not "bogus\""""),
        ({"generator": {"family": "panel-surrogate", "scores": "missing.csv",
                        "labels": "missing.csv", "kind": "bogus"}},
         """'kind' must be one of ['FNP', 'FPP', 'FDP', 'SetSize'], not "bogus\""""),
        ({"generator": {"family": "panel-surrogate", "scores": "missing.csv",
                        "labels": "missing.csv", "tradeoff_kind": "bogus"}},
         """'tradeoff_kind' must be one of ['FNP', 'FPP', 'FDP', 'SetSize'], not "bogus\""""),
        # two entries with one name would share one trace key
        ({"methods": [{"name": "rr", "B": 100}, {"name": "rr", "B": 200}]},
         "'methods' lists 'rr' more than once; each method entry needs its own name"),
    ])
    def test_wrong_value_type_is_refused(self, tmp_path, capsys, entries, message):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"name": "nasm"}], "n": [10], "runs": 2, "seed": 2, **entries})
        assert code == 5
        assert capsys.readouterr().err == f"error[domain]: {message}\n"
        assert not prefix.with_suffix(".csv").exists()

    def test_descriptor_must_be_an_object(self, tmp_path, capsys):
        code, prefix = self.run_descriptor(tmp_path, [{"name": "nasm"}])
        assert code == 5
        assert capsys.readouterr().err == (
            """error[domain]: the descriptor must be an object, not [{"name": "nasm"}]\n""")
        assert not prefix.with_suffix(".csv").exists()

    @pytest.mark.parametrize("scheme", ["even-tradeoff", "elbow"])
    def test_all_excluded_cell_is_written_then_refused(self, tmp_path, capsys, scheme):
        descriptor = {
            "generator": {"family": "equicorrelated", "rho": 0.2,
                          "grid": {"low": -3.0, "high": 3.0, "size": 41}},
            "methods": [{"name": "nasm"}, {"name": "rrr", "B": 64, "r": 0.1},
                        {"name": "pointwise"}],
            "n": [100], "runs": 5, "seed": 28, "r": 0.15, "scheme": scheme,
            "metrics": ["anywhere", "conservatism"], "trace": True}
        code, prefix = self.run_descriptor(tmp_path, descriptor)
        assert code == 5
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error")] == [
            "error[domain]: rrr n=100 conservatism: every run was excluded"]
        rows = prefix.with_suffix(".csv").read_text().splitlines()
        assert len(rows) == 7
        assert rows[4].startswith("conservatism,rrr,equicorrelated-gaussian-cdf,100,5,nan,nan,")
        # strict JSON: the empty cell's estimate and standard error are null
        payload = json.loads(prefix.with_suffix(".json").read_text(),
                             parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        empty = payload["reports"][3]
        assert empty["estimate"] is None and empty["std_error"] is None
        assert empty["extra"]["excluded_runs"] == 5
        traces = json.loads(prefix.with_suffix(".trace.json").read_text())
        assert [t["gap"] for t in traces["rrr_n100_conservatism"]] == [None] * 5
        # the other cells are those of the same eval without rrr
        descriptor["methods"].pop(1)
        desc_path = tmp_path / "without_rrr_descriptor.json"
        desc_path.write_text(json.dumps(descriptor))
        alone = tmp_path / "without_rrr"
        assert main(["eval", "--descriptor", str(desc_path),
                     "--output-prefix", str(alone)]) == 0
        assert alone.with_suffix(".csv").read_text().splitlines() == rows[:3] + rows[5:]
        alone_traces = json.loads(alone.with_suffix(".trace.json").read_text())
        assert alone_traces == {k: v for k, v in traces.items() if not k.startswith("rrr")}

    def test_method_entry_without_name_is_refused(self, tmp_path, capsys):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "constant", "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"delta": 0.1}], "n": [10], "runs": 2, "seed": 2})
        assert code == 5
        err = capsys.readouterr().err
        assert "error[domain]: missing key 'name' in method entry {'delta': 0.1}" in err
        assert not prefix.with_suffix(".csv").exists()

    def test_one_row_surrogate_base_is_refused(self, tmp_path, capsys):
        base_path = tmp_path / "one.csv"
        write_loss_matrix(LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5),
                                     [[0.1, 0.2, 0.3, 0.4, 0.5]]), base_path)
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "matrix-surrogate", "path": str(base_path)},
            "methods": [{"name": "nasm"}], "n": [4], "runs": 3, "seed": 2})
        assert code == 5
        assert "error[domain]: a surrogate base needs at least two rows" in capsys.readouterr().err
        assert not prefix.with_suffix(".csv").exists()

    def test_nan_score_is_a_parse_error(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("0.9,0.4\nnan,0.7\n0.2,0.1\n")
        labels.write_text("1,0\n0,1\n1,1\n")
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "panel-surrogate", "scores": str(scores),
                          "labels": str(labels), "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"name": "nasm"}], "n": [4], "runs": 2, "seed": 2})
        assert code == 3
        assert "scores must lie in [0, 1]" in capsys.readouterr().err
        assert not prefix.with_suffix(".csv").exists()

    def test_rrr_config_echoes_both_r(self, tmp_path):
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "equicorrelated",
                          "grid": {"low": -3.0, "high": 3.0, "size": 20}},
            "methods": [{"name": "rrr", "r": 0.3, "B": 32}, {"name": "nasm"}], "n": [40],
            "runs": 2, "seed": 2, "r": 0.2, "metrics": ["anywhere", "selected"]})
        assert code == 0
        configs = [(rep["metric"], rep["config"])
                   for rep in json.loads(prefix.with_suffix(".json").read_text())["reports"]]
        assert [(metric, cfg.get("r"), cfg.get("method_r")) for metric, cfg in configs] == [
            ("miscoverage-anywhere", None, 0.3), ("miscoverage-selected", 0.2, 0.3),
            ("miscoverage-anywhere", None, None), ("miscoverage-selected", 0.2, None)]

    def test_rrr_config_echoes_its_band_delta(self, tmp_path):
        base, _ = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-3, 3, 20),
                                rho=0.2).realize(60, SeedRecord(4))
        base_path = tmp_path / "base.csv"
        write_loss_matrix(base, base_path)
        rrr = {"delta": 0.5, "delta_glob": 0.02, "delta_loc": 0.18, "B": 32}
        code, prefix = self.run_descriptor(tmp_path, {
            "generator": {"family": "matrix-surrogate", "path": str(base_path),
                          "orientation": "nondecreasing"},
            "methods": [{"name": "rrr", **rrr}], "n": [30], "runs": 2, "seed": 2})
        assert code == 0
        [report] = json.loads(prefix.with_suffix(".json").read_text())["reports"]
        band_path = tmp_path / "band.csv"
        assert main(["band", "--input", str(base_path), "--output", str(band_path),
                     "--orientation", "nondecreasing", "--method", "rrr", "--seed", "2",
                     *[f"--{key.replace('_', '-')}={value}" for key, value in rrr.items()]]) == 0
        band_delta = json.loads((tmp_path / "band.csv.json").read_text())["delta"]
        assert report["config"]["delta"] == band_delta == 0.02 + 0.18

    @pytest.mark.parametrize("collision", ["descriptor", "scores"])
    def test_output_that_overwrites_an_input_is_refused(self, tmp_path, capsys, collision):
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_text("0.9,0.4\n0.2,0.7\n0.3,0.5\n")
        labels.write_text("1,0\n0,1\n1,1\n")
        desc_path = tmp_path / "exp.json"
        desc_path.write_text(json.dumps({
            "generator": {"family": "panel-surrogate", "scores": str(scores),
                          "labels": str(labels), "grid": {"low": 0.0, "high": 1.0, "size": 5}},
            "methods": [{"name": "nasm"}], "n": [4], "runs": 2, "seed": 2}))
        before = {path: path.read_bytes() for path in (desc_path, scores, labels)}
        prefix = tmp_path / ("exp" if collision == "descriptor" else "scores")
        code = main(["eval", "--descriptor", str(desc_path), "--output-prefix", str(prefix)])
        assert code == 5
        clash = prefix.with_suffix(".json" if collision == "descriptor" else ".csv")
        assert capsys.readouterr().err == (
            f"error[domain]: output {clash} would overwrite an input of the experiment\n")
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.json", "labels.csv",
                                                               "scores.csv"]

    def test_invalid_descriptor_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["eval", "--descriptor", str(bad),
                     "--output-prefix", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("extra, metrics", [
        ({}, ["anywhere", "selected"]),
        ({"tradeoff_kind": "FPP"}, ["anywhere", "conservatism"]),
    ], ids=["kind-only", "with-tradeoff"])
    def test_panel_surrogate_descriptor(self, tmp_path, extra, metrics):
        rng = np.random.default_rng(8)
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("\n".join(
            ",".join(f"{x:.3f}" for x in row) for row in rng.random((40, 3))) + "\n")
        labels.write_text("\n".join(
            ",".join(str(x) for x in row) for row in rng.integers(0, 2, (40, 3))) + "\n")
        descriptor = {
            "generator": {"family": "panel-surrogate", "scores": str(scores),
                          "labels": str(labels), "kind": "FNP",
                          "grid": {"low": 0.0, "high": 1.0, "size": 20}, **extra},
            "methods": [{"name": "rr", "delta": 0.1, "B": 64}],
            "n": [30],
            "runs": 8,
            "seed": 13,
            "metrics": metrics,
            "r": 0.5,
        }
        desc_path = tmp_path / "panel_exp.json"
        desc_path.write_text(json.dumps(descriptor))
        prefix = tmp_path / "panel_out"
        code = main(["eval", "--descriptor", str(desc_path),
                     "--output-prefix", str(prefix)])
        assert code == 0
        payload = json.loads(prefix.with_suffix(".json").read_text())
        assert [rep["metric"] for rep in payload["reports"]] == [
            "miscoverage-anywhere", "conservatism" if extra else "miscoverage-selected"]
        assert payload["reports"][0]["config"]["label"] == "panel:FNP"
        if extra:
            gap = payload["reports"][1]
            assert gap["extra"]["excluded_runs"] < gap["runs"] and np.isfinite(gap["estimate"])

    @pytest.mark.parametrize("generator, grid", [
        ({"family": "equicorrelated"}, {"low": -3.0, "high": 3.0, "size": 1000}),
        ({"family": "constant", "value": 0.25}, {"low": -3.0, "high": 3.0, "size": 1000}),
        ({"family": "panel-surrogate", "tradeoff_kind": "FPP"},
         {"low": 0.0, "high": 1.0, "size": 500}),
    ], ids=["equicorrelated", "constant", "panel-surrogate"])
    def test_omitted_grid_is_the_family_default(self, tmp_path, generator, grid):
        if generator["family"] == "panel-surrogate":
            rng = np.random.default_rng(9)
            generator = {**generator, "scores": str(tmp_path / "scores.csv"),
                         "labels": str(tmp_path / "labels.csv")}
            np.savetxt(generator["scores"], rng.random((30, 3)), fmt="%.3f", delimiter=",")
            np.savetxt(generator["labels"], rng.integers(0, 2, (30, 3)), fmt="%d", delimiter=",")
        rows = []
        for name, gen in (("default", generator), ("explicit", {**generator, "grid": grid})):
            desc_path = tmp_path / f"{name}.json"
            desc_path.write_text(json.dumps({
                "generator": gen, "methods": [{"name": "nasm"}, {"name": "rr", "B": 32}],
                "n": [20], "runs": 3, "seed": 4, "r": 0.5,
                "metrics": ["anywhere", "selected", "conservatism"]}))
            prefix = tmp_path / f"{name}-out"
            assert main(["eval", "--descriptor", str(desc_path),
                         "--output-prefix", str(prefix)]) == 0
            rows.append(prefix.with_suffix(".csv").read_text())
        assert rows[0] == rows[1]


class TestRunMajorEval:
    """``eval`` shares one realization per run and one band per (method, run)."""

    METHODS = [{"name": "nasm", "delta": 0.1}, {"name": "rr", "delta": 0.1, "B": 64},
               {"name": "rrr", "r": 0.1, "B": 64}, {"name": "pointwise", "delta": 0.1}]
    METRICS = ["anywhere", "selected", "conservatism"]

    def run_eval(self, tmp_path, name, methods, metrics):
        descriptor = {
            "generator": {"family": "equicorrelated", "rho": 0.2,
                          "grid": {"low": -3.0, "high": 3.0, "size": 30}},
            "methods": methods, "n": [80], "runs": 5, "seed": 17,
            "metrics": metrics, "trace": True,
        }
        desc_path = tmp_path / f"desc-{name}.json"
        desc_path.write_text(json.dumps(descriptor))
        prefix = tmp_path / f"out-{name}"
        assert main(["eval", "--descriptor", str(desc_path),
                     "--output-prefix", str(prefix)]) == 0
        rows = prefix.with_suffix(".csv").read_text().splitlines()[1:]
        return rows, json.loads(prefix.with_suffix(".trace.json").read_text())

    def test_each_cell_matches_its_own_eval(self, tmp_path):
        rows, traces = self.run_eval(tmp_path, "all", self.METHODS, self.METRICS)
        assert len(rows) == 12
        for i, method in enumerate(self.METHODS):
            for j, metric in enumerate(self.METRICS):
                name = f"{method['name']}-{metric}"
                alone_rows, alone_traces = self.run_eval(tmp_path, name, [method], [metric])
                key = f"{method['name']}_n80_{metric}"
                assert alone_rows == [rows[3 * i + j]]
                assert alone_traces == {key: traces[key]}

    def test_simulate_is_a_one_entry_eval(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--family", "equicorrelated", "--rho", "0.2",
                     "--n", "80", "--runs", "6", "--method", "rrr", "--B", "64",
                     "--grid-size", "30", "--metric", "anywhere,selected,conservatism",
                     "--seed", "5", "--output-prefix", str(sim)]) == 0
        descriptor = {
            "generator": {"family": "equicorrelated", "rho": 0.2,
                          "grid": {"low": -3.0, "high": 3.0, "size": 30}},
            "methods": [{"name": "rrr", "delta": 0.1, "B": 64, "r": 0.1,
                         "delta_glob": 0.01, "delta_loc": 0.09}],
            "n": [80], "runs": 6, "seed": 5, "metrics": self.METRICS,
        }
        desc_path = tmp_path / "desc.json"
        desc_path.write_text(json.dumps(descriptor))
        ev = tmp_path / "ev"
        assert main(["eval", "--descriptor", str(desc_path), "--output-prefix", str(ev)]) == 0
        assert sim.with_suffix(".csv").read_text() == ev.with_suffix(".csv").read_text()


def modules_after_cli_import() -> set:
    """The modules a fresh interpreter holds after ``import riskbands.cli``."""
    src = str(Path(riskbands.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, sys, riskbands.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


def test_cli_import_leaves_scipy_unloaded():
    assert sorted(m for m in modules_after_cli_import() if m.split('.')[0] == 'scipy') == []


def test_cli_import_leaves_rare_path_modules_unloaded():
    # secrets (hashlib) and concurrent.futures (logging) serve only a defaulted
    # seed and a threaded run, so a plain CLI call does not import them
    assert {"secrets", "concurrent.futures"} & modules_after_cli_import() == set()


def test_default_seed_is_a_63_bit_draw():
    from riskbands.cli import _resolve_seed
    seeds = [_resolve_seed(None).seed for _ in range(200)]
    assert all(0 <= s < 2**63 for s in seeds)
    assert len(set(seeds)) == len(seeds)
    assert max(seeds) >= 2**61  # the top bits are drawn too
