"""Empirical risk curves, grid index sets, and sublevel sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import _ROW_BLOCK, LossMatrix, ParameterGrid, _frozen, _step_counts

FULL_GRID = "full-grid"
SUBLEVEL = "sublevel"
CUSTOM = "custom"
PROVENANCES = (FULL_GRID, SUBLEVEL, CUSTOM)


@dataclass(frozen=True)
class RiskCurve:
    """Per-grid-point risk values with the sample size that produced them.

    ``sample_size`` 0 marks an analytic truth curve; such curves are rejected
    wherever a sqrt(n) rescaling is required.
    """

    grid: ParameterGrid
    values: np.ndarray
    sample_size: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size != len(self.grid):
            raise ValueError("curve length must match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("curve values must lie in [0, 1]")
        if int(self.sample_size) < 0:
            raise ValueError("sample_size must be nonnegative")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "sample_size", int(self.sample_size))


@dataclass(frozen=True)
class IndexSet:
    """Sorted, deduplicated subset of grid indices with a provenance tag."""

    indices: np.ndarray
    provenance: str = CUSTOM

    def __post_init__(self):
        idx = np.unique(np.asarray(self.indices, dtype=np.int64))
        if idx.size and idx[0] < 0:
            raise ValueError("grid indices must be nonnegative")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "indices", _frozen(idx, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def is_empty(self) -> bool:
        return self.indices.size == 0

    def check_against(self, grid: ParameterGrid) -> None:
        if self.indices.size and self.indices[-1] >= len(grid):
            raise ValueError("index set refers to points outside the grid")

    def intersect(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.intersect1d(self.indices, other.indices))

    def issubset(self, other: "IndexSet") -> bool:
        return bool(np.isin(self.indices, other.indices).all())

    @classmethod
    def full(cls, grid: ParameterGrid) -> "IndexSet":
        return cls(np.arange(len(grid), dtype=np.int64), FULL_GRID)

    @classmethod
    def from_mask(cls, mask: np.ndarray, provenance: str = CUSTOM) -> "IndexSet":
        return cls(np.flatnonzero(np.asarray(mask, dtype=bool)), provenance)


def empirical_risk(matrix: LossMatrix) -> RiskCurve:
    """Column means of the loss matrix, as a curve keyed by sample size.

    The curve is computed once per matrix and kept on it (``LossMatrix._curve``),
    so every band, selection and metric on one matrix reads the same column
    means; the values are read-only, so the kept curve cannot go stale. A
    generator-built matrix whose values are not built yet stays so: its
    means come from ``_ROW_BLOCK``-row blocks of its values (see
    ``_column_means``), bit for bit the dense mean.
    """
    curve = matrix._curve
    if curve is None:
        means = (matrix.values.mean(axis=0) if "values" in vars(matrix)
                 else _column_means(matrix._steps, matrix.m, matrix._levels))
        # means of in-range entries are in range; clip strips float dust only
        curve = RiskCurve(matrix.grid, np.clip(means, 0.0, 1.0), matrix.n)
        object.__setattr__(matrix, "_curve", curve)
    return curve


def _column_means(bins: np.ndarray, m: int, levels: np.ndarray) -> np.ndarray:
    """``_step_counts(bins, m, levels).mean(axis=0)``, bit for bit, holding one row block.

    numpy sums a C-ordered array's columns row by row, so adding the running
    sum to each block's first row and summing the block down its rows gives
    the same adds in the same order. A one-column array is summed pairwise
    instead, so it is taken whole (n floats, no more than the bins).
    """
    n = len(bins)
    step = _ROW_BLOCK if m > 1 else n
    total = None
    for start in range(0, n, step):
        block = _step_counts(bins[start:start + step], m, levels)
        if total is not None:
            block[0] += total
        total = block.sum(axis=0)
    return total / n


def sublevel_set(curve: RiskCurve, r: float) -> IndexSet:
    """Grid indices where the curve is at most r: the one place a curve meets a level."""
    return IndexSet.from_mask(curve.values <= r, SUBLEVEL)
