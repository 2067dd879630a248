import json

import numpy as np
import pytest

from riskbands import IndexSet, ParameterGrid
from riskbands.bounds import ConfidenceBand
from riskbands.cli import main
from riskbands.fileio import read_band, write_band


def make_band(tmp_path, name, lower, upper, delta=0.05, n=100):
    m = len(lower) if lower is not None else len(upper)
    grid = ParameterGrid.linspace(0.0, 1.0, m)
    band = ConfidenceBand(
        grid=grid,
        lower=None if lower is None else np.asarray(lower, dtype=float),
        upper=None if upper is None else np.asarray(upper, dtype=float),
        validity=IndexSet.full(grid),
        delta=delta,
        method="rr",
        sample_size=n,
    )
    path = tmp_path / name
    write_band(band, path)
    return path, band


class TestReadBand:
    def test_round_trip_two_sided(self, tmp_path):
        path, band = make_band(tmp_path, "b.csv", [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        back = read_band(path)
        assert np.array_equal(back.lower, band.lower)
        assert np.array_equal(back.upper, band.upper)
        assert back.delta == band.delta
        assert back.method == band.method
        assert back.sample_size == band.sample_size

    def test_round_trip_one_sided(self, tmp_path):
        path, band = make_band(tmp_path, "b.csv", None, [0.4, 0.5, 0.6])
        back = read_band(path)
        assert back.lower is None
        assert np.array_equal(back.upper, band.upper)

    def test_missing_sidecar(self, tmp_path):
        path, _ = make_band(tmp_path, "b.csv", None, [0.4, 0.5, 0.6])
        (tmp_path / "b.csv.json").unlink()
        from riskbands.fileio import ParseError
        with pytest.raises(ParseError, match="sidecar"):
            read_band(path)

    def test_trailing_blank_line_is_skipped(self, tmp_path):
        path, band = make_band(tmp_path, "b.csv", [0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        path.write_bytes(path.read_bytes() + b"\r\n")
        back = read_band(path)
        assert np.array_equal(back.lower, band.lower)
        assert np.array_equal(back.upper, band.upper)

    def test_blank_line_between_rows_is_skipped(self, tmp_path):
        path, band = make_band(tmp_path, "b.csv", None, [0.4, 0.5, 0.6])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        back = read_band(path)
        assert back.lower is None
        assert np.array_equal(back.upper, band.upper)

    @pytest.mark.parametrize("bad_row, message", [
        ("0.5,,zebra,1", "could not convert"),
        ("0.5,,0.5", "expected 4 cells"),
    ])
    def test_bad_row_is_reported_on_its_file_line(self, tmp_path, bad_row, message):
        from riskbands.fileio import ParseError
        path, _ = make_band(tmp_path, "b.csv", None, [0.4, 0.5, 0.6])
        lines = path.read_text().splitlines()
        # header, row, blank, row, bad row: the bad row is line 5 of the file
        path.write_text("\n".join(lines[:2] + ["", lines[2], bad_row]) + "\n")
        with pytest.raises(ParseError, match=f":5: .*{message}"):
            read_band(path)

    def test_nan_side_is_a_parse_error(self, tmp_path, capsys):
        path, _ = make_band(tmp_path, "b.csv", None, [0.4, 0.5, 0.6])
        path.write_text(path.read_text().replace("0.5,1", "nan,1"))
        out = tmp_path / "sum.csv"
        code = main(["compose", "--inputs", str(path), "--psi", "sum", "--output", str(out)])
        assert code == 3
        assert "upper band must not be NaN" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_nan_side_is_refused(self, side):
        grid = ParameterGrid.linspace(0.0, 1.0, 3)
        sides = {"lower": np.array([0.1, 0.2, 0.3]), "upper": np.array([0.4, 0.5, 0.6])}
        sides[side][1] = np.nan
        with pytest.raises(ValueError, match=f"{side} band must not be NaN"):
            ConfidenceBand(grid=grid, validity=IndexSet.full(grid), delta=0.1, method="rr",
                           **sides)


class TestComposeCommand:
    def test_ratio(self, tmp_path):
        num, _ = make_band(tmp_path, "num.csv", None, [0.05, 0.2], delta=0.05)
        den, _ = make_band(tmp_path, "den.csv", [0.25, 0.5], None, delta=0.05)
        out = tmp_path / "ratio.csv"
        code = main(["compose", "--inputs", str(num), str(den), "--psi", "ratio",
                     "--floor", "0.01", "--output", str(out)])
        assert code == 0
        band = read_band(out)
        assert band.upper[0] == pytest.approx(0.2)
        assert band.upper[1] == pytest.approx(0.4)
        assert band.delta == pytest.approx(0.1)
        meta = json.loads((tmp_path / "ratio.csv.json").read_text())
        assert meta["psi"] == "ratio"

    @pytest.mark.parametrize("psi, weights, w", [
        ("weighted-sum", ["--weights", "0.5,0.5"], 0.5),
        ("sum", [], 1.0),
    ], ids=["weighted-sum", "sum"])
    def test_weighted_sum(self, tmp_path, psi, weights, w):
        b1, _ = make_band(tmp_path, "b1.csv", [0.1, 0.1], [0.2, 0.2], delta=0.04)
        b2, _ = make_band(tmp_path, "b2.csv", [0.2, 0.4], [0.3, 0.5], delta=0.06)
        out = tmp_path / "sum.csv"
        code = main(["compose", "--inputs", str(b1), str(b2), "--psi", psi,
                     *weights, "--output", str(out)])
        assert code == 0
        band = read_band(out)
        assert band.upper[0] == pytest.approx(w * 0.2 + w * 0.3)
        assert band.lower[1] == pytest.approx(w * 0.1 + w * 0.4)
        assert band.delta == pytest.approx(0.1)
        assert json.loads((tmp_path / "sum.csv.json").read_text())["weights"] == [w, w]

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,-inf", None])
    def test_non_finite_weight_is_refused(self, tmp_path, capsys, weights):
        b1, _ = make_band(tmp_path, "b1.csv", [0.1, 0.1], [0.2, 0.2], delta=0.04)
        b2, _ = make_band(tmp_path, "b2.csv", [0.2, 0.4], [0.3, 0.5], delta=0.06)
        out = tmp_path / "sum.csv"
        code = main(["compose", "--inputs", str(b1), str(b2), "--psi", "weighted-sum",
                     *([] if weights is None else ["--weights", weights]), "--output", str(out)])
        assert code == 5
        assert capsys.readouterr().err == "error[domain]: " + (
            "weighted-sum needs --weights w1,w2,...\n" if weights is None
            else "need one finite, nonnegative weight per input band\n")
        assert not out.exists() and not (tmp_path / "sum.csv.json").exists()

    def test_floor_above_one_is_refused(self, tmp_path, capsys):
        num, _ = make_band(tmp_path, "num.csv", None, [0.05, 0.2], delta=0.05)
        den, _ = make_band(tmp_path, "den.csv", [0.25, 0.5], None, delta=0.05)
        out = tmp_path / "ratio.csv"
        code = main(["compose", "--inputs", str(num), str(den), "--psi", "ratio",
                     "--floor", "inf", "--output", str(out)])
        assert code == 5
        assert capsys.readouterr().err == "error[domain]: floor must lie in (0, 1]\n"
        assert not out.exists() and not (tmp_path / "ratio.csv.json").exists()

    def test_ratio_needs_two_bands(self, tmp_path):
        b1, _ = make_band(tmp_path, "b1.csv", [0.1, 0.1], [0.2, 0.2])
        out = tmp_path / "bad.csv"
        code = main(["compose", "--inputs", str(b1), "--psi", "ratio",
                     "--output", str(out)])
        assert code == 5
