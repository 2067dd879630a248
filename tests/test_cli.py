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
    empirical_risk,
    nasm_width,
)
from riskbands.cli import main
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
        assert "q_glob" in meta and "q_loc" in meta
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
        desc_path = tmp_path / "without_rrr.json"
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
        assert "error[domain]: method entry {'delta': 0.1} has no 'name'" in err
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

    def test_invalid_descriptor_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["eval", "--descriptor", str(bad),
                     "--output-prefix", str(tmp_path / "o")])
        assert code == 3

    def test_panel_surrogate_descriptor(self, tmp_path):
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
                          "grid": {"low": 0.0, "high": 1.0, "size": 20}},
            "methods": [{"name": "rr", "delta": 0.1, "B": 64}],
            "n": [30],
            "runs": 8,
            "seed": 13,
            "metrics": ["anywhere", "selected"],
        }
        desc_path = tmp_path / "panel_exp.json"
        desc_path.write_text(json.dumps(descriptor))
        prefix = tmp_path / "panel_out"
        code = main(["eval", "--descriptor", str(desc_path),
                     "--output-prefix", str(prefix)])
        assert code == 0
        payload = json.loads(prefix.with_suffix(".json").read_text())
        assert len(payload["reports"]) == 2
        assert payload["reports"][0]["config"]["label"] == "panel:FNP"


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


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(riskbands.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, riskbands.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
