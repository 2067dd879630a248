"""Bands for combinations of monotone risks.

Given per-component bands and a map psi from component risks to a combined
risk, the combined band at each grid point is the range of psi over the box
of component intervals, with error budgets added across components. With
per-coordinate monotonicity flags the box extremes sit at two corners; for
general psi a bracketing grid scan over the box is used instead.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .bounds import ConfidenceBand
from .empirical import IndexSet


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
    psi_monotonicity: Sequence[str] | None = None,
    scan_resolution: int = 33,
) -> ConfidenceBand:
    """Band for psi(risk_1, ..., risk_k) from per-component bands.

    ``psi`` must accept k equal-length numpy arrays and return one. With
    ``psi_monotonicity`` ('increasing' / 'decreasing' per coordinate) the box
    extremes are corner evaluations; otherwise a dense scan with
    ``scan_resolution`` points per axis brackets them, and the resolution is
    recorded in the band info. Outputs outside [0, 1] are clamped with a note.
    Validity is the intersection of the component validity sets; the combined
    budget is the exact sum of the component budgets. Refused: no band, grids
    that differ, and budgets summing to 1 or more.
    """
    comps = tuple(bands)
    if not comps:
        raise ValueError("need at least one component band")
    grid = comps[0].grid
    if any(b.grid != grid for b in comps[1:]):
        raise ValueError("component bands must share a grid")
    if sum(b.delta for b in comps) >= 1.0:
        raise ValueError("component error budgets must sum below 1")
    k = len(comps)
    m = len(grid)

    lows, highs = zip(*(_box_sides(b, m) for b in comps))

    if psi_monotonicity is not None:
        flags = tuple(psi_monotonicity)
        if len(flags) != k or any(f not in ("increasing", "decreasing") for f in flags):
            raise ValueError("need one 'increasing'/'decreasing' flag per component")
        up_args = [h if f == "increasing" else l for f, l, h in zip(flags, lows, highs)]
        lo_args = [l if f == "increasing" else h for f, l, h in zip(flags, lows, highs)]
        upper = np.asarray(psi(*up_args), dtype=float)
        lower = np.asarray(psi(*lo_args), dtype=float)
        method_info = {"psi_monotonicity": list(flags)}
    else:
        s = int(scan_resolution)
        if s < 2:
            raise ValueError("scan_resolution must be at least 2")
        fracs = np.linspace(0.0, 1.0, s)
        axes = [lo + fracs[:, None] * (hi - lo) for lo, hi in zip(lows, highs)]
        upper = np.full(m, -np.inf)
        lower = np.full(m, np.inf)
        for combo in product(range(s), repeat=k):
            vals = np.asarray(psi(*(axes[i][c] for i, c in enumerate(combo))), dtype=float)
            np.maximum(upper, vals, out=upper)
            np.minimum(lower, vals, out=lower)
        method_info = {"scan_resolution": s}

    notes: tuple[str, ...] = ()
    if upper.shape != (m,) or lower.shape != (m,):
        raise ValueError("psi must return one value per grid point")
    if (upper > 1.0 + 1e-12).any() or (lower < -1e-12).any():
        notes = ("psi-output-clamped",)

    info = {"component_deltas": [b.delta for b in comps],
            "component_methods": [b.method for b in comps], **method_info}
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
    """
    num, den = numerator_band, denominator_band
    if num.grid != den.grid:
        raise ValueError("bands must share a grid")
    if num.upper is None:
        raise ValueError("numerator band must carry an upper side")
    if den.lower is None:
        raise ValueError("denominator band must carry a lower side")
    if floor is None:
        if num.sample_size < 1:
            raise ValueError("floor must be given when the sample size is unknown")
        floor = 1.0 / (2.0 * num.sample_size)
    if not floor > 0.0:
        raise ValueError("floor must be positive")
    return _composed((num, den), None, num.upper / np.maximum(den.lower, floor), (),
                     {"ratio_floor": floor, "component_deltas": [num.delta, den.delta]})
