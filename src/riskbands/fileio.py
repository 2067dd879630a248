"""CSV and JSON serialization for matrices, panels, bands and reports.

All numbers are written with full round-trip precision and parsed as plain
decimal floating point; no locale-dependent formats. Loss-matrix and panel
CSVs share one reader, ``_read_table``. Band CSVs carry one row per grid
point (t, lower, upper, in_validity) with a JSON metadata sidecar.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .bootstrap import BootstrapSupDistribution
from .bounds import ConfidenceBand
from .empirical import IndexSet
from .harness import MetricsReport
from .losses import UNCONSTRAINED, BinaryScorePanel, LossMatrix, ParameterGrid


class ParseError(ValueError):
    """A file exists but its contents cannot be interpreted."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_row(row: list[str], path, line: int) -> list[float]:
    try:
        return [float(cell) for cell in row]
    except ValueError as exc:
        raise ParseError(f"{path}:{line}: non-numeric cell ({exc})") from None


def _csv_rows(lines):
    """(line, row) for each nonempty CSV row, numbered by the file line it starts on."""
    reader = csv.reader(lines)
    start = 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


# numpy's parser strips these as whitespace around a number, float() does
# not; a file holding one goes to the row-by-row reader, which refuses it.
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _numpy_table(text: str) -> np.ndarray | None:
    """Every nonempty line of a numeric CSV's text as one float array.

    Returns None when numpy cannot parse it; the row-by-row reader then
    gives the same result or its line-numbered ``ParseError``. Both readers
    see the same rows: a row is a nonempty line under any line ending, and
    a cell is what ``float()`` accepts.
    """
    if any(c in text for c in _NUMPY_ONLY_SPACE):
        return None
    lines = [line for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if line]
    if not lines:
        return None
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None


def write_json(path, payload, indent: int = 2) -> None:
    """Key-sorted JSON with a trailing newline; every sidecar and report."""
    Path(path).write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")


def _write_rows(path, header, rows) -> None:
    """Rows of cells that need no quoting, written as ``csv.writer`` would."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(row) + "\r\n" for row in rows)


def _read_table(path: Path, label_row: bool) -> np.ndarray:
    """A numeric CSV read once (pipes work), numpy first, else row by row.

    Only an undecodable file is opened again, for the row reader's own error.
    ``label_row`` (a panel) skips a leading non-numeric row; without it (a
    loss matrix) the table needs a grid row and a sample row.
    """
    try:
        with path.open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        with path.open(newline="") as fh:
            return _parse_table(list(_csv_rows(fh)), path, label_row)
    table = _numpy_table(text)
    # a one-row loss matrix goes row by row too, for that reader's message
    if table is None or (table.shape[0] < 2 and not label_row):
        table = _parse_table(list(_csv_rows(io.StringIO(text, newline=""))), path, label_row)
    return table


def _parse_table(rows, path, label_row: bool) -> np.ndarray:
    """``_csv_rows`` pairs as floats, each row as wide as the first; names the bad line."""
    if label_row:
        if not rows:
            raise ParseError(f"{path}: empty file")
        try:
            [float(c) for c in rows[0][1]]
        except ValueError:
            rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows")
    elif len(rows) < 2:
        raise ParseError(f"{path}: need a grid header row and at least one sample row")
    width = len(rows[0][1])
    data = []
    for i, row in rows:
        values = _parse_row(row, path, i)
        if len(values) != width:
            raise ParseError(f"{path}:{i}: row has {len(values)} cells, expected {width}")
        data.append(values)
    return np.array(data)


def read_loss_matrix(path, orientation: str = UNCONSTRAINED) -> LossMatrix:
    """Loss matrix CSV: header row of grid values, one data row per sample."""
    path = Path(path)
    table = _read_table(path, label_row=False)
    try:
        return LossMatrix._owning(ParameterGrid(table[0]), table[1:], orientation)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_loss_matrix(matrix: LossMatrix, path) -> None:
    _write_rows(path, map(repr, matrix.grid.values.tolist()),
                (map(repr, row.tolist()) for row in matrix.values))


def read_panel(scores_path, labels_path) -> BinaryScorePanel:
    """Paired K-column CSVs of model scores and binary labels."""
    scores = _read_table(Path(scores_path), label_row=True)
    labels = _read_table(Path(labels_path), label_row=True)
    try:
        return BinaryScorePanel(scores, labels)
    except ValueError as exc:
        raise ParseError(f"{scores_path} / {labels_path}: {exc}") from None


def write_band(band: ConfidenceBand, path, sidecar_extra: dict | None = None) -> Path:
    """Band CSV plus a JSON sidecar next to it; returns the sidecar path."""
    path = Path(path)
    mask = np.zeros(len(band.grid), dtype=int)
    mask[band.validity.indices] = 1
    absent = itertools.repeat("")
    lower = map(repr, band.lower.tolist()) if band.lower is not None else absent
    upper = map(repr, band.upper.tolist()) if band.upper is not None else absent
    rows = zip(map(repr, band.grid.values.tolist()), lower, upper, map(str, mask.tolist()))
    _write_rows(path, ("t", "lower", "upper", "in_validity"), rows)
    sidecar = path.with_suffix(path.suffix + ".json")
    payload = band.metadata()
    if sidecar_extra:
        payload.update(sidecar_extra)
    write_json(sidecar, payload)
    return sidecar


def read_band(path) -> ConfidenceBand:
    """Band CSV plus its JSON sidecar, reassembled into a ConfidenceBand.

    The sidecar (written by ``write_band``) supplies method, delta, sample
    size and the simultaneity flag; the CSV supplies the per-point sides and
    validity mask.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    if not sidecar.exists():
        raise ParseError(f"{path}: missing metadata sidecar {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{sidecar}: invalid JSON ({exc})") from None
    with path.open(newline="") as fh:
        rows = list(_csv_rows(fh))
    if not rows or rows[0][1] != ["t", "lower", "upper", "in_validity"]:
        raise ParseError(f"{path}: expected a band CSV header")
    t, lower, upper, mask = [], [], [], []
    for i, row in rows[1:]:
        if len(row) != 4:
            raise ParseError(f"{path}:{i}: expected 4 cells")
        try:
            t.append(float(row[0]))
            lower.append(float(row[1]) if row[1] else None)
            upper.append(float(row[2]) if row[2] else None)
            mask.append(bool(int(row[3])))
        except ValueError as exc:
            raise ParseError(f"{path}:{i}: {exc}") from None
    has_lower = any(v is not None for v in lower)
    has_upper = any(v is not None for v in upper)
    if (has_lower and None in lower) or (has_upper and None in upper):
        raise ParseError(f"{path}: a band side must be present at every grid point or absent")
    try:
        return ConfidenceBand(
            grid=ParameterGrid(t),
            lower=np.array(lower, dtype=float) if has_lower else None,
            upper=np.array(upper, dtype=float) if has_upper else None,
            validity=IndexSet.from_mask(np.array(mask)),
            delta=float(meta["delta"]),
            method=str(meta["method"]),
            width_info=meta.get("width"),
            sample_size=int(meta.get("sample_size", 0)),
            simultaneous=bool(meta.get("simultaneous", True)),
            notes=tuple(meta.get("notes", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_sup_distribution(dist: BootstrapSupDistribution, path) -> None:
    _write_rows(path, ("sup",), ((repr(v),) for v in dist.sorted_values.tolist()))


_METRIC_COLUMNS = ("metric", "method", "family", "n", "runs", "estimate", "std_error")


def write_metrics_csv(reports: list[MetricsReport], path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_METRIC_COLUMNS + ("extra",))
        for rep in reports:
            cfg = rep.config
            writer.writerow([
                rep.metric,
                cfg.get("method", ""),
                cfg.get("family", ""),
                cfg.get("n", ""),
                rep.runs,
                _fmt(rep.estimate),
                _fmt(rep.std_error),
                json.dumps(rep.extra, sort_keys=True),
            ])


def write_metrics_json(reports: list[MetricsReport], path, header: dict | None = None) -> None:
    """Reports as strict JSON: a NaN estimate or standard error (a cell whose
    every run was excluded) is written as null."""
    payload = {"reports": [rep.as_dict() for rep in reports]}
    for rep in payload["reports"]:
        for key in ("estimate", "std_error"):
            if math.isnan(rep[key]):
                rep[key] = None
    if header:
        payload.update(header)
    write_json(path, payload)
