import contextlib
import csv
import dataclasses
import io
import json
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskbands import (
    BinaryScorePanel,
    IndexSet,
    LossMatrix,
    ParameterGrid,
    SeedRecord,
    empirical_risk,
    nasm_band,
    rr_band,
    sup_distribution,
)
from riskbands import fileio
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
from riskbands.losses import UNCONSTRAINED


def reference_read_loss_matrix(path, orientation=UNCONSTRAINED):
    """The row-by-row reader that read_loss_matrix must agree with.

    Rows are numbered by the file line they start on.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row:
                rows.append((line, row))
            line = reader.line_num + 1
    if len(rows) < 2:
        raise ParseError(f"{path}: need a grid header row and at least one sample row")

    def parse(row, line):
        try:
            return [float(cell) for cell in row]
        except ValueError as exc:
            raise ParseError(f"{path}:{line}: non-numeric cell ({exc})") from None

    grid_values = parse(rows[0][1], rows[0][0])
    data = []
    for i, row in rows[1:]:
        values = parse(row, i)
        if len(values) != len(grid_values):
            raise ParseError(f"{path}:{i}: row has {len(values)} cells, expected {len(grid_values)}")
        data.append(values)
    try:
        return LossMatrix(ParameterGrid(grid_values), np.array(data), orientation)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def outcome(read, path):
    """('ok', arrays as bytes) or (error type, message), for exact comparison."""
    try:
        result = read(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, LossMatrix):
        return "ok", result.grid.values.tobytes(), result.values.tobytes(), result.values.shape
    if isinstance(result, BinaryScorePanel):
        return "ok", result.scores.tobytes(), result.labels.tobytes(), result.scores.shape
    return "ok", result.tobytes(), result.shape


# Inputs numpy parses as the row reader does, inputs numpy refuses so that
# the row reader answers, and inputs that parse and then fail a check.
CSV_CASES = {
    "plain": "0,0.5,1\n0.1,0.2,0.3\n0.4,0.5,0.6\n",
    "blank-lines": "0,0.5,1\n\n0.1,0.2,0.3\n\n\n0.4,0.5,0.6\n",
    "leading-blank": "\n\n0,0.5,1\n0.1,0.2,0.3\n",
    "crlf": "0,0.5,1\r\n0.1,0.2,0.3\r\n0.4,0.5,0.6\r\n",
    "cr-only": "0,0.5,1\r0.1,0.2,0.3\r",
    "no-final-newline": "0,0.5,1\n0.1,0.2,0.3",
    "spaced-cells": "0, 0.5 ,1\n 0.1,0.2 , 0.3\n",
    "tab-padded": "0\t,\t0.5,1\n0.1\t,0.2,\t0.3\n",
    "signs-and-dots": "0,.5,+1\n+0.5,.25,0.\n",
    "exponents": "0,1e-3,1E0\n5e-324,2.5e-1,1e-308\n",
    "one-column": "0.5\n0.25\n1\n",
    "one-row": "0,0.5,1\n",
    "empty": "",
    "blank-only": "\n\n\n",
    "whitespace-line": "0,0.5,1\n   \n0.1,0.2,0.3\n",
    "trailing-comma": "0,0.5,1\n0.1,0.2,0.3,\n",
    "ragged": "0,0.5,1\n0.1,0.2\n",
    "ragged-wide": "0,0.5\n0.1,0.2\n0.1,0.2,0.3\n",
    "quoted-cells": '"0","0.5",1\n0.1,"0.2",0.3\n',
    "quoted-comma": '0,0.5,1\n"0.1,0.2",0.3\n',
    "hash-text": "0,0.5,1\n0.1,0.2,0.3 # note\n",
    "hash-row": "# grid\n0,0.5,1\n0.1,0.2,0.3\n",
    "underscore-digits": "0,1_0,2_0\n0.1,0.2,0.3\n",
    "word": "0,0.5,1\n0.1,zebra,0.3\n",
    "separator-char": "0,0.5,1\n0.1,0.2\x1c,0.3\n",
    "form-feed-inside-cell": "0,0.5\n0.1,0.2\x0c0.3,0.4\n",
    "nan": "0,0.5,1\n0.1,nan,0.3\n",
    "inf": "0,0.5,1\n0.1,inf,0.3\n",
    "grid-not-increasing": "0,1,0.5\n0.1,0.2,0.3\n",
    "out-of-range": "0,0.5,1\n0.1,1.5,0.3\n",
    "label-row": "a,b,c\n0.1,0.2,0.3\n0.4,0.5,0.6\n",
    "label-only": "a,b,c\n",
    "blank-then-label": "\n a ,b,c\n0.1,0.2,0.3\n",
    "quoted-label": '"a,b",c\n0.1,0.2\n',
    "quoted-numeric-first-row": '"0.1",0.2\n0.3,0.4\n',
    "multiline-quoted-label": '"a\nb",c\n0.1,0.2\n',
    "label-then-ragged": "a,b\n0.1,0.2\n0.3\n",
}


@contextlib.contextmanager
def one_shot_pipe(path, data):
    """A named pipe at ``path`` that yields ``data`` to its first reader and
    nothing to later ones, as ``/dev/stdin`` or ``<(cmd)`` do."""
    os.mkfifo(path)
    done = threading.Event()

    def serve():
        payload = data
        while not done.is_set():
            with open(path, "wb") as fh:  # blocks until a reader opens the pipe
                fh.write(payload)
            payload = b""

    writer = threading.Thread(target=serve, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        done.set()
        while writer.is_alive():
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))  # wakes a waiting writer
            writer.join(0.01)


class TestNumpyFirstReader:
    @pytest.mark.parametrize("name", sorted(CSV_CASES))
    def test_loss_matrix_agrees_with_row_reader(self, tmp_path, name):
        path = tmp_path / "loss.csv"
        path.write_bytes(CSV_CASES[name].encode())
        assert outcome(read_loss_matrix, path) == outcome(reference_read_loss_matrix, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("name", ["plain", "crlf", "quoted-cells", "underscore-digits",
                                      "ragged", "word", "one-row"])
    def test_pipe_is_read_once(self, tmp_path, name):
        path = tmp_path / "loss.csv"
        path.write_bytes(CSV_CASES[name].encode())
        expected = outcome(reference_read_loss_matrix, path)
        path.unlink()
        with one_shot_pipe(path, CSV_CASES[name].encode()):
            assert outcome(read_loss_matrix, path) == expected

    def test_undecodable_bytes_fail_as_before(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_bytes(b"0,0.5\n0.1,0.2\n\xff0.3,0.4\n")
        assert outcome(read_loss_matrix, path) == outcome(reference_read_loss_matrix, path)
        assert outcome(read_loss_matrix, path)[0] == "UnicodeDecodeError"

    def test_clean_file_skips_the_row_reader(self, tmp_path, monkeypatch):
        grid = ParameterGrid.linspace(-3.0, 3.0, 1000)
        values = np.round(np.random.default_rng(0).random((50, 1000)) * 5) / 5
        path = tmp_path / "loss.csv"
        write_loss_matrix(LossMatrix(grid, values), path)

        def refuse(*args):
            raise AssertionError("clean file parsed row by row")

        monkeypatch.setattr(fileio, "_parse_row", refuse)
        back = read_loss_matrix(path)
        assert np.array_equal(back.values, values)
        assert np.array_equal(back.grid.values, grid.values)


def reference_read_table(path):
    """The row-by-row panel table reader that read_panel must agree with.

    A leading row that is not all numbers is skipped; rows are numbered by
    the file line they start on.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row:
                rows.append((line, row))
            line = reader.line_num + 1
    if not rows:
        raise ParseError(f"{path}: empty file")
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    data = []
    for i, row in rows:
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: non-numeric cell ({exc})") from None
        if len(values) != len(rows[0][1]):
            raise ParseError(f"{path}:{i}: row has {len(values)} cells, expected {len(rows[0][1])}")
        data.append(values)
    return np.array(data)


def reference_read_panel(scores_path, labels_path):
    scores = reference_read_table(scores_path)
    labels = reference_read_table(labels_path)
    try:
        return BinaryScorePanel(scores, labels)
    except ValueError as exc:
        raise ParseError(f"{scores_path} / {labels_path}: {exc}") from None


# Panel tables beside the loss-matrix cases: headers, which the panel reader
# skips, and cells numpy refuses but float() reads.
PANEL_CASES = {
    **CSV_CASES,
    "header": "cat,dog,bird\n0.9,0.4,0.1\n0.2,0.7,0.6\n",
    "header-crlf": "cat,dog\r\n0.9,0.4\r\n\r\n0.2,0.7\r\n",
    "header-cr": "cat,dog\r0.9,0.4\r0.2,0.7\r",
    "quoted-header": '"cat","dog"\n"0.9",0.4\n',
    "header-only": "cat,dog\n",
    "header-then-word": "cat,dog\n0.9,0.4\n0.2,dog\n",
    "header-then-ragged": "cat,dog\n0.9,0.4\n0.2\n",
    "underscore-fraction": "0.1_0,0.2\n0.3,0.4\n",
    "numeric-first-row-of-another-width": "0.9,0.4,0.1\n0.2,0.7\n0.3,0.5\n",
    "two-headers": "cat,dog\nbig,small\n0.9,0.4\n",
}


class TestPanelReader:
    """``read_panel`` reads its tables with the loss-matrix reader: numpy first,
    then row by row, with the arrays and messages of a plain row reader."""

    def labels_for(self, path):
        labels = path.with_name("labels.csv")
        try:
            shape = reference_read_table(path).shape
        except ParseError:
            shape = (1, 1)
        labels.write_text("\n".join(",".join("1" for _ in range(shape[1]))
                                     for _ in range(shape[0])) + "\n")
        return labels

    @pytest.mark.parametrize("name", sorted(PANEL_CASES))
    def test_scores_agree_with_row_reader(self, tmp_path, name):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(PANEL_CASES[name].encode())
        labels = self.labels_for(scores)
        assert (outcome(lambda p: read_panel(p, labels), scores)
                == outcome(lambda p: reference_read_panel(p, labels), scores))

    @pytest.mark.parametrize("text", ["0,1\n1,0\n", "a,b\r\n0,1\r\n1,0\r\n",
                                      "0,1\r\r1,0\r", "0,2\n1,0\n", "a,b\n"])
    def test_labels_agree_with_row_reader(self, tmp_path, text):
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_text("0.9,0.4\n0.2,0.7\n")
        labels.write_bytes(text.encode())
        assert (outcome(lambda p: read_panel(scores, p), labels)
                == outcome(lambda p: reference_read_panel(scores, p), labels))

    def test_undecodable_bytes_fail_as_before(self, tmp_path):
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_bytes(b"cat,dog\n0.9,0.4\n\xff0.2,0.7\n")
        labels.write_text("1,0\n0,1\n")
        got = outcome(lambda p: read_panel(p, labels), scores)
        assert got == outcome(lambda p: reference_read_panel(p, labels), scores)
        assert got[0] == "UnicodeDecodeError"

    def test_plain_panel_skips_the_row_reader(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        scores_values = np.round(rng.random((60, 80)), 3)
        labels_values = rng.integers(0, 2, (60, 80))
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_text("".join(",".join(map(repr, row)) + "\n"
                                  for row in scores_values.tolist()))
        labels.write_text("".join(",".join(map(str, row)) + "\r\n"
                                  for row in labels_values.tolist()))

        def refuse(*args):
            raise AssertionError("plain panel parsed row by row")

        monkeypatch.setattr(fileio, "_parse_row", refuse)
        panel = read_panel(scores, labels)
        assert panel.scores.tobytes() == scores_values.tobytes()
        assert np.array_equal(panel.labels, labels_values)


EOLS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


class TestParseErrorLines:
    """A ``ParseError`` names the physical file line of the bad row."""

    @pytest.mark.parametrize("eol", sorted(EOLS))
    @pytest.mark.parametrize("lines,expected", [
        (["0,0.5,1", "0.1,zebra,0.3"], ":2: non-numeric"),
        (["0,0.5,1", "", "0.1,zebra,0.3"], ":3: non-numeric"),
        (["", "0,0.5,1", "0.1,0.2,0.3", "", "", "0.4,0.5"], ":6: row has 2 cells"),
        (["", "a,b,c", "0.1,0.2,0.3"], ":2: non-numeric"),
        (['"0\n",1', "0.1,zz"], ":3: non-numeric"),  # a quoted line break counts
    ])
    def test_loss_matrix(self, tmp_path, eol, lines, expected):
        path = tmp_path / "loss.csv"
        path.write_bytes(EOLS[eol].join(lines + [""]).encode())
        with pytest.raises(ParseError) as info:
            read_loss_matrix(path)
        assert str(info.value).startswith(f"{path}{expected}")

    @pytest.mark.parametrize("eol", sorted(EOLS))
    @pytest.mark.parametrize("lines,expected", [
        (["a,b", "", "0.1,0.2", "0.3,zz"], ":4: non-numeric"),
        (["0.1,0.2", "", "", "0.3,zz"], ":4: non-numeric"),
        (["", "0.1,0.2", "0.3,zz"], ":3: non-numeric"),
    ])
    def test_panel(self, tmp_path, eol, lines, expected):
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_bytes(EOLS[eol].join(lines + [""]).encode())
        labels.write_text("0,1\n1,0\n")
        with pytest.raises(ParseError) as info:
            read_panel(scores, labels)
        assert str(info.value).startswith(f"{scores}{expected}")


def reference_csv_bytes(rows):
    """What csv.writer writes for rows of floats formatted with repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


unit_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=True)


class TestWriterBytes:
    @given(st.lists(st.lists(unit_floats, min_size=3, max_size=3), min_size=1, max_size=6))
    @example([[5e-324, 2.2250738585072014e-308, 1 - 2**-53]])
    @example([[2.2250738585072009e-308, 1e-320, 0.1]])
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_loss_matrix_round_trip(self, tmp_path, rows):
        grid = ParameterGrid(np.array([0.0, 0.5, 1.0]))
        values = np.array(rows)
        path = tmp_path / "loss.csv"
        write_loss_matrix(LossMatrix(grid, values), path)
        assert path.read_bytes() == reference_csv_bytes([grid.values.tolist(), *values.tolist()])
        back = read_loss_matrix(path)
        assert back.values.tobytes() == values.tobytes()
        assert back.grid.values.tobytes() == grid.values.tobytes()

    @pytest.mark.parametrize("side", ["upper", "lower", "two-sided"])
    def test_band_bytes(self, tmp_path, side):
        band = nasm_band(empirical_risk(toy_matrix()), 0.1, side=side)
        band = dataclasses.replace(band, validity=IndexSet.from_mask(np.array([1, 0, 1, 1], bool)))
        path = tmp_path / "band.csv"
        write_band(band, path)
        mask = np.zeros(len(band.grid), dtype=bool)
        mask[band.validity.indices] = True
        rows = [["t", "lower", "upper", "in_validity"]]
        for j, t in enumerate(band.grid.values.tolist()):
            lower = repr(float(band.lower[j])) if band.lower is not None else ""
            upper = repr(float(band.upper[j])) if band.upper is not None else ""
            rows.append([t, lower, upper, int(mask[j])])
        assert path.read_bytes() == reference_csv_bytes(rows)

    def test_sup_distribution_bytes(self, tmp_path):
        dist = sup_distribution(toy_matrix(), None, "minus", 32, SeedRecord(1))
        path = tmp_path / "sups.csv"
        write_sup_distribution(dist, path)
        rows = [["sup"], *([v] for v in dist.sorted_values.tolist())]
        assert path.read_bytes() == reference_csv_bytes(rows)


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

    @pytest.mark.parametrize("header", ["", "a,b,c\n"])
    def test_ragged_row_names_its_line(self, tmp_path, header):
        # a panel row is held to the first row's width, as a loss matrix row is
        scores = tmp_path / "s.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text(header + "0.9,0.4,0.1\n0.2,0.7\n")
        labels.write_text("1,0,1\n0,1,1\n")
        line = 2 + bool(header)
        with pytest.raises(ParseError) as info:
            read_panel(scores, labels)
        assert str(info.value) == f"{scores}:{line}: row has 2 cells, expected 3"


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
