"""Bands for combinations of monotone risks.

Given per-component bands and a map psi from component risks to a combined
risk, the combined band at each grid point is the range of psi over the box
of component intervals, with error budgets added across components. psi
comes with one monotonicity flag per coordinate, so the box extremes sit at
two corners and two psi evaluations give them exactly; a third, at the box
centre, refuses flags that psi grossly contradicts.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .bounds import ConfidenceBand
from .empirical import IndexSet


def _check_components(comps: Sequence[ConfidenceBand]) -> None:
    """Refuse no band, grids that differ, and budgets summing to 1 or more."""
    if not comps:
        raise ValueError("need at least one component band")
    if any(b.grid != comps[0].grid for b in comps[1:]):
        raise ValueError("component bands must share a grid")
    if sum(b.delta for b in comps) >= 1.0:
        raise ValueError("component error budgets must sum below 1")


def _composed(comps: Sequence[ConfidenceBand], lower: np.ndarray | None, upper: np.ndarray,
              notes: tuple[str, ...], info: dict) -> ConfidenceBand:
    """A band over the components' grid, from sides the caller derived from theirs.

    Validity is the intersection of the component validity sets, the budget
    the sum of theirs, the sample size their common one (else 0), and the
    band is simultaneous when every component is.
    """
    grid = comps[0].grid
    sizes = {b.sample_size for b in comps}
    return ConfidenceBand(
        grid=grid,
        lower=lower,
        upper=upper,
        validity=reduce(IndexSet.intersect, (b.validity for b in comps), IndexSet.full(grid)),
        delta=float(sum(b.delta for b in comps)),
        method="composed",
        sample_size=sizes.pop() if len(sizes) == 1 else 0,
        simultaneous=all(b.simultaneous for b in comps),
        notes=notes,
        info=info,
    )


def _box_sides(band: ConfidenceBand, m: int) -> tuple[np.ndarray, np.ndarray]:
    lo = band.lower if band.lower is not None else np.zeros(m)
    hi = band.upper if band.upper is not None else np.ones(m)
    return lo, hi


def combine(
    bands: Sequence[ConfidenceBand],
    psi: Callable[..., np.ndarray],
    psi_monotonicity: Sequence[str],
) -> ConfidenceBand:
    """Band for psi(risk_1, ..., risk_k) from per-component bands.

    ``psi`` must accept k equal-length numpy arrays, return one, and be
    monotone in each coordinate as the required ``psi_monotonicity`` says
    (one 'increasing' / 'decreasing' flag per component): the box extremes
    are then the two corner evaluations. One more evaluation, at the box
    centre, spot-checks the flags: a psi that is monotone as flagged has its
    centre value between the corners'. Outputs outside [0, 1] are clamped
    with a note. Validity is the intersection of the component validity sets;
    the combined budget is the exact sum of theirs. Refused: no band, grids
    that differ, budgets summing to 1 or more, and a centre value outside
    [lower - 1e-12, upper + 1e-12] at some grid point.
    """
    comps = tuple(bands)
    _check_components(comps)
    flags = tuple(psi_monotonicity)
    if len(flags) != len(comps) or any(f not in ("increasing", "decreasing") for f in flags):
        raise ValueError("need one 'increasing'/'decreasing' flag per component")
    m = len(comps[0].grid)
    lows, highs = zip(*(_box_sides(b, m) for b in comps))
    up_args = [h if f == "increasing" else l for f, l, h in zip(flags, lows, highs)]
    lo_args = [l if f == "increasing" else h for f, l, h in zip(flags, lows, highs)]
    upper = np.asarray(psi(*up_args), dtype=float)
    lower = np.asarray(psi(*lo_args), dtype=float)

    notes: tuple[str, ...] = ()
    if upper.shape != (m,) or lower.shape != (m,):
        raise ValueError("psi must return one value per grid point")
    centre = np.asarray(psi(*((l + h) / 2.0 for l, h in zip(lows, highs))), dtype=float)
    outside = np.flatnonzero((centre < lower - 1e-12) | (centre > upper + 1e-12))
    if outside.size:
        j = int(outside[0])
        raise ValueError(f"psi is not monotone as flagged: at grid point {j} its value at the "
                         f"box centre, {centre[j]:.6g}, lies outside the corners' "
                         f"[{lower[j]:.6g}, {upper[j]:.6g}]")
    if (upper > 1.0 + 1e-12).any() or (lower < -1e-12).any():
        notes = ("psi-output-clamped",)

    info = {"component_deltas": [b.delta for b in comps],
            "component_methods": [b.method for b in comps], "psi_monotonicity": list(flags)}
    return _composed(comps, lower, upper, notes, info)


def selective_ratio_upper(
    numerator_band: ConfidenceBand,
    denominator_band: ConfidenceBand,
    floor: float | None = None,
) -> ConfidenceBand:
    """Upper band for a conditional-risk ratio numerator / denominator.

    Divides the numerator's upper band by the denominator's lower band,
    flooring the denominator at ``floor`` (default 1 / (2n)) so a vanishing
    denominator degrades to the trivial bound 1 instead of blowing up.
    Refused: what ``combine`` refuses, a missing side, and a floor outside
    (0, 1], since a floor above 1, the most a risk can be, understates it.
    """
    num, den = numerator_band, denominator_band
    _check_components((num, den))
    if num.upper is None:
        raise ValueError("numerator band must carry an upper side")
    if den.lower is None:
        raise ValueError("denominator band must carry a lower side")
    if floor is None:
        if num.sample_size < 1:
            raise ValueError("floor must be given when the sample size is unknown")
        floor = 1.0 / (2.0 * num.sample_size)
    if not 0.0 < floor <= 1.0:
        raise ValueError("floor must lie in (0, 1]")
    return _composed((num, den), None, num.upper / np.maximum(den.lower, floor), (),
                     {"ratio_floor": floor, "component_deltas": [num.delta, den.delta]})
