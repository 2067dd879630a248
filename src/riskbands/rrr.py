"""Restricted risk resampling: a localized bootstrap band.

Three steps: (1) a two-sided global bootstrap quantile over the full grid at
a small budget delta_glob quantifies estimation error both ways; (2) the
empirical sublevel set at tolerance r is inflated by twice that quantile to
an adjusted set large enough (with high probability) to contain the set being
targeted; (3) a one-sided local quantile over the adjusted set at budget
delta_loc sets the band width. The band is valid simultaneously over the
un-inflated empirical sublevel set with total budget delta_glob + delta_loc.
The guarantee is asymptotic in n; the test suite checks it empirically.

Both quantiles reduce the same paired replicates (one set of bootstrap
deviations per matrix, seed and B), which an ``rr_band`` on the same matrix
and seed shares as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bootstrap import (SeedRecord, _clamped_note, _replicate_count, _seed_record,
                        _sup_quantile)
from .bounds import ConfidenceBand, _fixed_width_band
from .empirical import IndexSet, RiskCurve, empirical_risk, sublevel_set
from .losses import UNCONSTRAINED, LossMatrix, validate


@dataclass(frozen=True)
class RRRConfig:
    """Risk tolerance, split error budgets, replicate count and seed.

    Defaults follow the 9:1 local-to-global split of a total budget 0.1 with
    risk tolerance 0.1 and 1000 replicates.
    """

    seed: SeedRecord
    r: float = 0.1
    delta_glob: float = 0.01
    delta_loc: float = 0.09
    B: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed_record(self.seed))
        if not 0.0 <= self.r <= 1.0:
            raise ValueError("risk tolerance r must lie in [0, 1]")
        if not (0.0 < self.delta_glob < 1.0 and 0.0 < self.delta_loc < 1.0):
            raise ValueError("delta_glob and delta_loc must lie in (0, 1)")
        if self.delta_glob + self.delta_loc >= 1.0:
            raise ValueError("delta_glob + delta_loc must be below 1")
        object.__setattr__(self, "B", _replicate_count(self.B))

    @property
    def delta(self) -> float:
        return self.delta_glob + self.delta_loc


@dataclass(frozen=True)
class RRRResult:
    """Band plus the quantiles and index sets the three steps produced."""

    band: ConfidenceBand
    q_glob: float
    q_loc: float
    sublevel: IndexSet
    adjusted: IndexSet
    r: float
    r_adjusted: float | None = None


def _global_pass(matrix: LossMatrix, config: RRRConfig, workers: int):
    report = validate(matrix)
    if matrix.orientation == UNCONSTRAINED:
        raise ValueError("restricted risk resampling needs a monotone orientation; "
                         "monotonize the matrix first")
    if not report.passed:
        raise ValueError(f"loss matrix fails validation: {report.message}")
    curve = empirical_risk(matrix)
    return curve, _sup_quantile(matrix, None, "two-sided", config.delta_glob, config.B,
                                config.seed, workers)


def _local_pass(
    matrix: LossMatrix,
    config: RRRConfig,
    curve: RiskCurve,
    q_glob: float,
    level: float,
    r_adjusted: float | None,
    workers: int,
) -> RRRResult:
    sqrt_n = math.sqrt(matrix.n)
    sub_set = sublevel_set(curve, level)
    adjusted = sublevel_set(curve, level + 2.0 * q_glob / sqrt_n)
    # paired replicates: the global pass's deviations, restricted to the adjusted set
    q_loc = _sup_quantile(matrix, adjusted, "minus", config.delta_loc, config.B, config.seed,
                          workers)
    notes: tuple[str, ...] = ()
    if sub_set.is_empty:
        notes = ("empty-validity",)
    if r_adjusted is not None and r_adjusted < 0.0:
        notes = notes + ("negative-adjusted-level",)
    band = _fixed_width_band(
        curve, q_loc / sqrt_n, "upper", config.delta, "rrr", sub_set,
        notes + _clamped_note(config.B, config.delta_glob, config.delta_loc),
        {
            "B": config.B,
            "r": config.r,
            "r_adjusted": r_adjusted,
            "delta_glob": config.delta_glob,
            "delta_loc": config.delta_loc,
            "q_glob": q_glob,
            "q_loc": q_loc,
            "seed": config.seed.as_dict(),
            "sublevel_indices": sub_set.indices.tolist(),
            "adjusted_indices": adjusted.indices.tolist(),
        },
    )
    return RRRResult(band, q_glob, q_loc, sub_set, adjusted, config.r, r_adjusted)


def rrr_band(matrix: LossMatrix, config: RRRConfig, workers: int = 1) -> RRRResult:
    """Upper band valid simultaneously over the empirical sublevel set at r.

    An empty sublevel set yields a band with empty validity and a warning
    note rather than an error (the condition is data dependent).
    """
    curve, q_glob = _global_pass(matrix, config, workers)
    return _local_pass(matrix, config, curve, q_glob, config.r, None, workers)


def rrr_band_population(matrix: LossMatrix, config: RRRConfig, workers: int = 1) -> RRRResult:
    """Variant targeting the population sublevel set at r.

    Runs the identical pipeline at the deflated level r - q_glob / sqrt(n),
    so that the resulting empirical sublevel set is contained in the
    population sublevel set at r with high probability. A negative deflated
    level yields an empty validity set with a warning note.
    """
    curve, q_glob = _global_pass(matrix, config, workers)
    r_adj = config.r - q_glob / math.sqrt(matrix.n)
    return _local_pass(matrix, config, curve, q_glob, r_adj, r_adj, workers)
