"""Loss matrices over threshold grids.

Core data model: a grid of threshold values and an n-by-m matrix of bounded
per-sample losses evaluated at each threshold, with a declared monotonicity
orientation. Includes the multi-label classification losses (false negative /
false positive / false discovery proportions and prediction-set size), exact
orientation validation, and the monotonization and batching transforms that
restore monotonicity for nearly-monotone losses.

Each row of a generated loss is a step function of t with one jump per class
or batch draw; ``_step_counts`` builds both kinds from the jumps' grid bins, one
run of a level per pair of consecutive bins. The equicorrelated generator's
matrices keep only their n x K bins and their level table
(``values == _step_counts(_steps, m, _levels)``): the dense values are built
on first use and kept, and the column means are summed from row blocks
until then. Such a matrix is monotone and in [0, 1] by construction, so
``validate`` and the constructor's range check take it as given.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .empirical import RiskCurve

NONINCREASING = "nonincreasing"
NONDECREASING = "nondecreasing"
UNCONSTRAINED = "unconstrained"
ORIENTATIONS = (NONINCREASING, NONDECREASING, UNCONSTRAINED)

LOSS_KINDS = ("FNP", "FPP", "FDP", "SetSize")

# Row-block size of validate's scans: 512 rows of a 1000-point grid is a 4 MB
# difference block, where the whole matrix would be n x (m - 1).
_ROW_BLOCK = 512


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ParameterGrid:
    """Strictly increasing threshold values shared by curves, bands and matrices."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("grid must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        if v.size > 1 and not np.all(np.diff(v) > 0):
            raise ValueError("grid values must be strictly increasing")
        object.__setattr__(self, "values", _frozen(v))

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterGrid) and np.array_equal(self.values, other.values)

    @classmethod
    def linspace(cls, low: float, high: float, size: int) -> "ParameterGrid":
        return cls(np.linspace(low, high, size))


@dataclass(frozen=True)
class LossMatrix:
    """n samples by m grid points of losses in [0, 1] with a declared orientation.

    The orientation is a declaration about how each row behaves as the
    threshold grows; it is not enforced at construction (``validate`` checks
    it), so that genuinely non-monotone losses such as the false discovery
    proportion can be represented and then monotonized.

    The constructor copies ``values``, so the caller's array can change
    afterwards without changing the matrix.

    ``_replicates`` holds the bootstrap deviations of the last (seed, B) the
    bootstrap computed for this matrix (see ``bootstrap._deviations``), and
    ``_curve`` its empirical risk curve once ``empirical.empirical_risk`` has
    computed it; the values are read-only, so both stay valid for the
    matrix's lifetime, and no other matrix shares them.

    ``_steps`` is the jump bins on the matrices the equicorrelated generator
    realizes and ``None`` on every other: a read-only n x K integer array,
    K the batch size, with ``values == _step_counts(_steps, m, _levels)``, so
    row i steps to ``_levels[c]`` after its c-th smallest bin (a bin of m
    lies past the grid). ``_levels`` is the read-only table of K + 1 levels:
    c/K on the primary matrix, which rises by 1/K at each bin, and 1 - c/K on
    its tradeoff companion. Only the generator sets them, on a monotone
    matrix whose values come from a level table in [0, 1]: the range scan
    and ``validate``'s scan are skipped for it. Such a matrix holds no dense
    values until ``values`` is first read; that read builds them with
    ``_step_counts`` and keeps them, so they are bit for bit an eager
    build's. ``n``, ``m``, the shape checks and ``empirical.empirical_risk``
    read the bins instead, and the bootstrap reads the primary's bins (see
    ``bootstrap._kernel``). Pickling and copying keep a matrix as it is,
    values built or not, and ``==`` compares the grids, orientations and
    values.
    """

    grid: ParameterGrid
    values: np.ndarray
    orientation: str = UNCONSTRAINED
    _replicates: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _steps: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _levels: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _curve: RiskCurve | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        self._check(v.shape, v)
        object.__setattr__(self, "values", _frozen(v))

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: ``values`` of a
        # generator-built matrix on first use (the fields with defaults are
        # class attributes, so reading them here cannot recurse)
        if name != "values" or self._steps is None:
            raise AttributeError(name)
        values = _step_counts(self._steps, len(self.grid), self._levels)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        return values

    def __eq__(self, other) -> bool:
        return (isinstance(other, LossMatrix) and self.grid == other.grid
                and self.orientation == other.orientation
                and np.array_equal(self.values, other.values))

    @classmethod
    def _owning(cls, grid: ParameterGrid, values: np.ndarray | None, orientation: str,
                steps: np.ndarray | None = None,
                levels: np.ndarray | None = None) -> "LossMatrix":
        """A matrix that takes over ``values``, an array nobody else holds.

        The constructor's checks, without its copy: the array itself is made
        read-only and kept. ``steps`` and ``levels`` become ``_steps`` and
        ``_levels`` (levels c/K by default), made read-only too; the
        generator's level table already keeps such values in [0, 1], so they
        get the shape checks without the range scan. With ``values`` None,
        the matrix is the bins and levels alone, and its values are built on
        first use.
        """
        if steps is not None and levels is None:
            levels = np.arange(steps.shape[1] + 1) / steps.shape[1]
        self = cls.__new__(cls)
        for name, value in (("grid", grid), ("orientation", orientation), ("_replicates", None),
                            ("_steps", steps), ("_levels", levels), ("_curve", None)):
            object.__setattr__(self, name, value)
        if values is None:
            self._check((len(steps), len(grid)))
        else:
            v = np.asarray(values, dtype=float)
            object.__setattr__(self, "values", v)
            self._check(v.shape, v if steps is None else None)
            v.flags.writeable = False
        for array in (steps, levels):
            if array is not None:
                array.flags.writeable = False
        return self

    def _check(self, shape: tuple, v: np.ndarray | None = None) -> None:
        # the shape checks, and the range scan of ``v`` when given
        if len(shape) != 2:
            raise ValueError("loss values must be a 2-D array (samples x grid)")
        if shape[0] < 1:
            raise ValueError("need at least one sample row")
        if shape[1] != len(self.grid):
            raise ValueError(
                f"loss matrix has {shape[1]} columns but grid has {len(self.grid)} points"
            )
        # min and max propagate NaN, so one range test also catches every
        # non-finite entry without an n x m mask
        if v is not None and not (v.min() >= 0.0 and v.max() <= 1.0):
            if not np.all(np.isfinite(v)):
                raise ValueError("loss values must be finite")
            raise ValueError("loss values must lie in [0, 1]")
        if self.orientation not in ORIENTATIONS:
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def n(self) -> int:
        return len(self._steps if self._steps is not None else self.values)

    @property
    def m(self) -> int:
        return len(self.grid)


def _step_counts(bins: np.ndarray, m: int, levels: np.ndarray | None = None) -> np.ndarray:
    """The n x m float array ``levels[#{k : bins[i, k] <= j}]``; a bin of m or more is off the grid.

    ``levels`` is a table of K + 1 values, K the columns of ``bins``; by default
    the counts 0..K themselves. Row i is levels[0] up to its smallest bin, then
    levels[1] up to the next, and so on: its sorted bins, clipped to m, give
    the K + 1 run lengths, and one ``np.repeat`` of the table over them writes
    the output. That is one pass over the n x m output and no other n x m
    array; each entry is a copy of a table value, so a count is exact and a
    level is bit for bit what the same arithmetic on the count gives.
    """
    n, K = bins.shape
    if levels is None:
        levels = np.arange(K + 1, dtype=float)
    edges = np.empty((n, K + 2), dtype=np.intp)
    edges[:, 0] = 0
    edges[:, -1] = m
    inner = edges[:, 1:-1]
    np.minimum(bins, m, out=inner)
    inner.sort(axis=1)
    return np.repeat(np.tile(levels, n), np.diff(edges, axis=1).ravel()).reshape(n, m)


@dataclass(frozen=True)
class BinaryScorePanel:
    """Model scores and ground-truth labels for K-class multi-label data."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        y = np.asarray(self.labels)
        if s.ndim != 2 or y.ndim != 2 or s.shape != y.shape:
            raise ValueError("scores and labels must be 2-D arrays of identical shape")
        if s.size == 0:
            raise ValueError("panel must be nonempty")
        # False for a NaN score too, since min and max propagate it
        if not (s.min() >= 0.0 and s.max() <= 1.0):
            raise ValueError("scores must lie in [0, 1]")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary (0/1)")
        object.__setattr__(self, "scores", _frozen(s))
        object.__setattr__(self, "labels", _frozen(y, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.scores.shape[1])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an exact orientation check.

    ``first_row``/``first_col`` locate the first violating entry (0-based;
    the column is the right-hand element of the offending adjacent pair).
    """

    passed: bool
    first_row: int | None = None
    first_col: int | None = None
    message: str = "ok"


def validate(matrix: LossMatrix, tolerance: float = 0.0) -> ValidationReport:
    """Check that the declared orientation holds.

    Entries in [0, 1] are the ``LossMatrix`` constructor's check, so only the
    orientation is scanned. Violations are reported, never raised. The check
    is exact by default (``tolerance`` 0); a positive tolerance permits
    monotonicity violations up to that size, for user-supplied matrices with
    float dust. A matrix with ``_steps`` passes without a scan, and its
    values are not built: only the generator builds one, and its rows are
    monotone as declared by construction (nondecreasing on the primary,
    nonincreasing on the companion).
    """
    if matrix._steps is not None or matrix.orientation == UNCONSTRAINED or matrix.m == 1:
        return ValidationReport(True)
    # _ROW_BLOCK rows at a time, so no difference array spans the whole matrix
    for start in range(0, matrix.n, _ROW_BLOCK):
        d = np.diff(matrix.values[start:start + _ROW_BLOCK], axis=1)
        bad = d > tolerance if matrix.orientation == NONINCREASING else d < -tolerance
        if bad.any():
            r, c = np.argwhere(bad)[0]
            r, c = start + int(r), int(c) + 1
            return ValidationReport(False, r, c,
                                    f"row {r} violates {matrix.orientation} at column {c}")
    return ValidationReport(True)


def threshold_losses(panel: BinaryScorePanel, grid: ParameterGrid, kind: str) -> LossMatrix:
    """Per-sample multi-label classification losses over a threshold grid.

    The classifier predicts class k at threshold t when ``score_k > 1 - t``.
    Loss kinds (all denominators guarded below by 1):

    - ``FNP``: missed positive classes over positive classes (nonincreasing in t)
    - ``FPP``: predicted negative classes over negative classes (nondecreasing)
    - ``FDP``: predicted negative classes over predicted classes (unconstrained)
    - ``SetSize``: predicted classes over K (nondecreasing)
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"kind must be one of {LOSS_KINDS}, got {kind!r}")
    t = grid.values
    if t.min() < 0.0 or t.max() > 1.0:
        raise ValueError("classification grids must lie in [0, 1]")

    scores, labels = panel.scores, panel.labels
    m, K = len(grid), scores.shape[1]
    pos = labels == 1
    n_pos = pos.sum(axis=1)[:, None]
    # class k is predicted from grid index bins[i, k] on: score > 1 - t with
    # both sides negated, so that the cutoffs ascend; a bin sent to m is left out
    bins = np.searchsorted(-(1.0 - t), -scores, "right")
    if kind == "FNP":
        out = _step_counts(np.where(pos, bins, m), m)
        np.subtract(n_pos, out, out=out)
        out /= np.maximum(1, n_pos)
    elif kind == "SetSize":
        out = _step_counts(bins, m)
        out /= K
    else:
        out = _step_counts(np.where(pos, m, bins), m)
        if kind == "FPP":
            out /= np.maximum(1, K - n_pos)
        else:  # FDP
            selected = _step_counts(bins, m)
            out /= np.maximum(selected, 1.0, out=selected)

    orientation = {
        "FNP": NONINCREASING,
        "FPP": NONDECREASING,
        "FDP": UNCONSTRAINED,
        "SetSize": NONDECREASING,
    }[kind]
    return LossMatrix._owning(grid, out, orientation)


def monotonize(matrix: LossMatrix, direction: str) -> LossMatrix:
    """Replace each row by its running prefix minimum or maximum.

    ``running-min`` yields nonincreasing rows sitting below the input;
    ``running-max`` yields nondecreasing rows sitting above it. Both are
    idempotent.
    """
    if direction == "running-min":
        values = np.minimum.accumulate(matrix.values, axis=1)
        orientation = NONINCREASING
    elif direction == "running-max":
        values = np.maximum.accumulate(matrix.values, axis=1)
        orientation = NONDECREASING
    else:
        raise ValueError("direction must be 'running-min' or 'running-max'")
    return LossMatrix._owning(matrix.grid, values, orientation)


def batch(matrix: LossMatrix, k: int) -> LossMatrix:
    """Average consecutive blocks of k rows into one row each.

    Trailing rows that do not fill a block are dropped (reported via a
    warning) so every output row is an average of exactly k samples.
    Orientation is preserved: averaging monotone rows stays monotone.
    """
    k = int(k)
    if k <= 0:
        raise ValueError("batch size must be positive")
    n = matrix.n
    if k > n:
        raise ValueError(f"batch size {k} exceeds sample count {n}")
    dropped = n % k
    if dropped:
        warnings.warn(
            f"batch: dropping {dropped} trailing row(s); {n} rows do not divide into blocks of {k}",
            stacklevel=2,
        )
    kept = n - dropped
    values = matrix.values[:kept].reshape(kept // k, k, matrix.m).mean(axis=1)
    return LossMatrix._owning(matrix.grid, values, matrix.orientation)
