import json

import numpy as np
import pytest

from riskbands import (
    LossMatrix,
    ParameterGrid,
    SeedRecord,
    empirical_risk,
    nasm_band,
    rr_band,
    sup_distribution,
)
from riskbands.fileio import (
    ParseError,
    read_loss_matrix,
    read_panel,
    write_band,
    write_loss_matrix,
    write_metrics_csv,
    write_metrics_json,
    write_sup_distribution,
)
from riskbands.harness import MetricsReport


def toy_matrix():
    g = ParameterGrid.linspace(0.0, 1.0, 4)
    rng = np.random.default_rng(0)
    return LossMatrix(g, rng.random((6, 4)), "unconstrained")


class TestLossMatrixCsv:
    def test_round_trip(self, tmp_path):
        m = toy_matrix()
        path = tmp_path / "loss.csv"
        write_loss_matrix(m, path)
        back = read_loss_matrix(path)
        assert np.array_equal(back.grid.values, m.grid.values)
        assert np.array_equal(back.values, m.values)

    def test_orientation_passed_through(self, tmp_path):
        m = toy_matrix()
        path = tmp_path / "loss.csv"
        write_loss_matrix(m, path)
        assert read_loss_matrix(path, orientation="nondecreasing").orientation == "nondecreasing"

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,oops\n")
        with pytest.raises(ParseError, match="non-numeric"):
            read_loss_matrix(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5\n")
        with pytest.raises(ParseError, match="expected 2"):
            read_loss_matrix(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ParseError):
            read_loss_matrix(path)

    def test_out_of_range_losses(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,1.5\n")
        with pytest.raises(ParseError, match=r"\[0, 1\]"):
            read_loss_matrix(path)


class TestPanelCsv:
    def test_read_with_and_without_header(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("cat,dog,bird\n0.9,0.4,0.1\n0.2,0.7,0.6\n")
        labels.write_text("1,0,1\n0,1,1\n")
        panel = read_panel(scores, labels)
        assert panel.n == 2 and panel.n_classes == 3
        assert panel.labels[0].tolist() == [1, 0, 1]

    def test_shape_mismatch(self, tmp_path):
        scores = tmp_path / "scores.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("0.9,0.4\n")
        labels.write_text("1,0,1\n")
        with pytest.raises(ParseError):
            read_panel(scores, labels)


class TestBandCsv:
    def test_band_rows_and_sidecar(self, tmp_path):
        m = toy_matrix()
        band = rr_band(m, 0.1, B=64, seed=SeedRecord(5))
        path = tmp_path / "band.csv"
        sidecar = write_band(band, path, sidecar_extra={"command": "test"})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,lower,upper,in_validity"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[1] == ""  # upper-only band leaves the lower cell empty
        assert first[3] == "1"
        meta = json.loads(sidecar.read_text())
        assert meta["method"] == "rr"
        assert meta["B"] == 64
        assert meta["seed"]["seed"] == 5
        assert meta["command"] == "test"
        assert meta["simultaneous"] is True

    def test_two_sided_band_round_trip_values(self, tmp_path):
        m = toy_matrix()
        band = nasm_band(empirical_risk(m), 0.1, side="two-sided")
        path = tmp_path / "band.csv"
        write_band(band, path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        lower = np.array([float(r[1]) for r in rows])
        upper = np.array([float(r[2]) for r in rows])
        assert np.array_equal(lower, band.lower)
        assert np.array_equal(upper, band.upper)


class TestOtherWriters:
    def test_sup_distribution_csv(self, tmp_path):
        dist = sup_distribution(toy_matrix(), None, "minus", 32, SeedRecord(1))
        path = tmp_path / "sups.csv"
        write_sup_distribution(dist, path)
        values = [float(x) for x in path.read_text().strip().splitlines()[1:]]
        assert values == dist.sorted_values.tolist()

    def test_metrics_writers(self, tmp_path):
        rep = MetricsReport("miscoverage-anywhere", 0.12, 100, 0.03,
                            config={"method": "rr", "family": "f", "n": 10},
                            extra={"note": 1})
        csv_path = tmp_path / "metrics.csv"
        json_path = tmp_path / "metrics.json"
        write_metrics_csv([rep], csv_path)
        write_metrics_json([rep], json_path, header={"seed": 3})
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("miscoverage-anywhere,rr,f,10,100,")
        payload = json.loads(json_path.read_text())
        assert payload["seed"] == 3
        assert payload["reports"][0]["estimate"] == 0.12
