"""Closed-form confidence bands.

Two families:

- a nonasymptotic fixed-width band, uniform over the grid, with additive
  half-width sqrt(log(e/delta) / (2n)) coming from a sub-Gaussian tail bound
  e * exp(-2 * lambda^2) on the supremum of the centered, rescaled risk
  process of a monotone loss;
- a per-threshold betting (capital-process) upper bound for means of [0,1]
  variables, valid at each fixed threshold separately but not simultaneously.

The betting test runs over blocks of ``WSR_BLOCK`` grid columns: each block
is copied contiguous once, its betting fractions are computed once, and its
capital passes (one for a test, 32 for a bisection) reuse them while the
block is still in cache. Its running sums take two columns per add (the
block's complex128 view, ``_cumsum0``). Working memory is O(n * WSR_BLOCK)
whatever the grid size, and every column's arithmetic is the same as on the
whole array, add for add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .empirical import IndexSet, RiskCurve
from .losses import LossMatrix, ParameterGrid, _frozen

METHOD_TAGS = ("nasm", "rr", "rrr", "pointwise", "composed")
SIDES = ("upper", "lower", "two-sided")

# Absolute bisection tolerance on the betting bound; far below any
# statistical resolution of the data.
WSR_BISECTION_TOL = 1e-9

# Grid columns per block of the betting test: an n x 64 block of losses, its
# fractions and one capital array fit in a 4 MB cache at n = 1000.
WSR_BLOCK = 64


@dataclass(frozen=True)
class ConfidenceBand:
    """Fixed-width per-grid-point bounds with a validity subset.

    Either side may be absent for one-sided bands. Present sides are clamped
    to [0, 1], and a side holding a NaN is refused. ``validity`` is the set of
    grid indices on which the stated coverage guarantee applies;
    ``simultaneous`` records whether the guarantee is joint over that set or
    only per-point. ``width_info`` is the additive half-width where the band
    is of the form curve +/- width. ``info`` echoes method-specific
    parameters for reproducibility.
    """

    grid: ParameterGrid
    lower: np.ndarray | None
    upper: np.ndarray | None
    validity: IndexSet
    delta: float
    method: str
    width_info: float | None = None
    sample_size: int = 0
    simultaneous: bool = True
    notes: tuple[str, ...] = ()
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        m = len(self.grid)
        for name in ("lower", "upper"):
            side = getattr(self, name)
            if side is None:
                continue
            side = np.asarray(side, dtype=float)
            if side.shape != (m,):
                raise ValueError(f"{name} band must have one value per grid point")
            if np.isnan(side.min()):  # min propagates NaN; no mask is made
                raise ValueError(f"{name} band must not be NaN")
            object.__setattr__(self, name, _frozen(np.clip(side, 0.0, 1.0)))
        if self.lower is None and self.upper is None:
            raise ValueError("at least one side must be present")
        if self.lower is not None and self.upper is not None:
            if np.any(self.lower > self.upper):
                raise ValueError("lower band exceeds upper band")
        self.validity.check_against(self.grid)

    def metadata(self) -> dict:
        md = {
            "method": self.method,
            "delta": self.delta,
            "sample_size": self.sample_size,
            "width": self.width_info,
            "simultaneous": self.simultaneous,
            "sides": [s for s in ("lower", "upper") if getattr(self, s) is not None],
            "validity_provenance": self.validity.provenance,
            "validity_size": len(self.validity),
            "validity_indices": self.validity.indices.tolist(),
            "notes": list(self.notes),
        }
        md.update(self.info)
        return md


def nasm_width(n: int, delta: float) -> float:
    """Half-width sqrt(log(e/delta) / (2n)) of the nonasymptotic uniform band."""
    n = int(n)
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(math.log(math.e / delta) / (2.0 * n))


def tail_bound(lam: float) -> float:
    """Upper bound e * exp(-2 lam^2) on the one-sided supremum deviation tail."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return math.e * math.exp(-2.0 * lam * lam)


def _fixed_width_band(curve: RiskCurve, width: float, side: str, delta: float, method: str,
                      validity: IndexSet, notes: tuple[str, ...], info: dict) -> ConfidenceBand:
    """curve + width, curve - width or both, by ``side``: every fixed-width band."""
    return ConfidenceBand(
        grid=curve.grid,
        lower=curve.values - width if side in ("lower", "two-sided") else None,
        upper=curve.values + width if side in ("upper", "two-sided") else None,
        validity=validity,
        delta=delta,
        method=method,
        width_info=width,
        sample_size=curve.sample_size,
        notes=notes,
        info=info,
    )


def nasm_band(curve: RiskCurve, delta: float, side: str = "upper") -> ConfidenceBand:
    """Uniform fixed-width band around an empirical curve.

    One-sided bands spend the whole budget on their side; the two-sided band
    splits delta evenly because the tail bound controls each side separately.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    n = curve.sample_size
    if n < 1:
        raise ValueError("analytic curves (sample_size 0) cannot be banded")
    width = nasm_width(n, delta if side != "two-sided" else delta / 2.0)
    return _fixed_width_band(curve, width, side, delta, "nasm", IndexSet.full(curve.grid), (),
                             {"side": side})


def _cumsum0(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.cumsum(a, axis=0, out=out)``, two columns per add where that is exact.

    An axis-0 cumulative sum is one dependent chain of adds per column. A
    C-contiguous block of even width (and ``out``, when given) is summed as
    its complex128 view instead: a complex add adds the real and the
    imaginary parts separately, so every column gets the same float64 adds in
    the same order, bit for bit, and each step advances two chains. Any
    other input takes ``np.cumsum`` itself.
    """
    pairs = (a.ndim == 2 and a.shape[1] % 2 == 0 and a.flags.c_contiguous
             and (out is None or out.flags.c_contiguous))
    if not pairs:
        return np.cumsum(a, axis=0, out=out)
    z = np.cumsum(a.view(np.complex128), axis=0,
                  out=None if out is None else out.view(np.complex128))
    return z.view(np.float64) if out is None else out


def _wsr_lambdas(losses: np.ndarray, delta: float) -> np.ndarray:
    """Betting fractions for each observation (columnwise when 2-D).

    Running mean and variance with prior weight 1/2 and 1/4 respectively;
    the fraction at step i uses the variance through step i-1, scaled by the
    total sample size, and is truncated at 1.
    """
    n = losses.shape[0]
    steps = np.arange(1, n + 1, dtype=float)
    if losses.ndim == 2:
        steps = steps[:, None]
    # in place where possible: at most two arrays of the losses' size (one
    # n x WSR_BLOCK block) live at once
    mu = _cumsum0(losses)
    mu += 0.5
    mu /= 1.0 + steps
    sq = losses - mu
    del mu
    np.square(sq, out=sq)
    # the fraction at step i uses the variance through step i-1: the running
    # sum through step i-1 is written to row i, so no shifted copy is made
    s2 = np.empty_like(sq)
    _cumsum0(sq[:-1], out=s2[1:])
    del sq
    s2[1:] += 0.25
    s2[1:] /= 1.0 + steps[:-1]
    s2[:1] = 0.25
    s2 *= n
    np.divide(2.0 * np.log(1.0 / delta), s2, out=s2)
    np.sqrt(s2, out=s2)
    return np.minimum(1.0, s2, out=s2)


def _capital_rejects(losses: np.ndarray, lam: np.ndarray, p, log_threshold: float) -> np.ndarray:
    """Whether the running capital max_i prod_{j<=i} (1 - lam_j (l_j - p)) exceeds 1/delta.

    Works columnwise: ``losses`` and ``lam`` are (n,) or (n, m); ``p`` is a
    scalar or a length-m vector of candidate means. Factors are nonnegative
    because lam <= 1 and |l - p| <= 1, so the test runs in log space.
    """
    # one fresh contiguous array, updated in place: 1 - lam * (l - p), its log
    # and then the running log capital
    factors = losses - p
    factors *= lam
    np.subtract(1.0, factors, out=factors)
    with np.errstate(divide="ignore"):
        np.log(factors, out=factors)
    _cumsum0(factors, out=factors)
    return factors.max(axis=0) > log_threshold


def _wsr_blocks(values: np.ndarray, delta: float):
    """Each block of at most ``WSR_BLOCK`` columns: its column slice, its
    losses copied contiguous once (so every pass over it reads rows, not
    strided columns), and its fractions."""
    for start in range(0, values.shape[1], WSR_BLOCK):
        cols = slice(start, start + WSR_BLOCK)
        block = np.ascontiguousarray(values[:, cols])
        yield cols, block, _wsr_lambdas(block, delta)


def _wsr_bisect(values: np.ndarray, delta: float) -> np.ndarray:
    """Smallest rejected p of each column of an n x k loss array.

    A fixed count of halvings reaches the 1e-9 tolerance on every column (the
    capital is nondecreasing in p); 0 where p = 0 is already rejected, 1 where
    no p <= 1 is. Each block of columns is bisected whole before the next.
    """
    log_thr = math.log(1.0 / delta)
    halvings = int(math.ceil(math.log2(1.0 / WSR_BISECTION_TOL)))
    bounds = []
    for _, block, lam in _wsr_blocks(values, delta):
        k = block.shape[1]
        at_zero = _capital_rejects(block, lam, np.zeros(k), log_thr)
        at_one = _capital_rejects(block, lam, np.ones(k), log_thr)
        lo = np.zeros(k)
        hi = np.ones(k)
        for _ in range(halvings):
            mid = 0.5 * (lo + hi)
            rej = _capital_rejects(block, lam, mid, log_thr)
            hi = np.where(rej, mid, hi)
            lo = np.where(rej, lo, mid)
        bounds.append(np.where(at_zero, 0.0, np.where(~at_one, 1.0, hi)))
    return np.concatenate(bounds)


def wsr_upper(losses: np.ndarray, delta: float) -> float:
    """Betting upper confidence bound for the mean of one loss sequence.

    Returns the smallest p in [0, 1] at which the capital process first
    exceeds 1/delta, located by bisection to absolute tolerance 1e-9, and 1
    if no p <= 1 is rejected; bit for bit ``wsr_band``'s value on a column.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size < 1:
        raise ValueError("losses must be a nonempty 1-D sequence")
    if not (losses.min() >= 0.0 and losses.max() <= 1.0):  # false on NaN as well
        raise ValueError("losses must lie in [0, 1]")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return float(_wsr_bisect(losses[:, None], delta)[0])


def wsr_band(matrix: LossMatrix, delta: float) -> ConfidenceBand:
    """Columnwise betting upper bounds, tagged as pointwise-only.

    The validity set is the full grid but the guarantee holds at each point
    separately, never jointly; the band is marked not simultaneous.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return ConfidenceBand(
        grid=matrix.grid,
        lower=None,
        upper=_wsr_bisect(matrix.values, delta),
        validity=IndexSet.full(matrix.grid),
        delta=delta,
        method="pointwise",
        width_info=None,
        sample_size=matrix.n,
        simultaneous=False,
        info={"bisection_tol": WSR_BISECTION_TOL},
    )


def wsr_rejects(matrix: LossMatrix, p: np.ndarray, delta: float) -> np.ndarray:
    """Columnwise test of whether the betting bound falls strictly below p.

    Equals ``p > wsr_band(matrix, delta).upper`` up to the 1e-9 bisection
    bracket, without the bisection: the rejection region in p is an up-set,
    so the bound is below p exactly when the capital at p itself exceeds
    1/delta. Used by the evaluation harness to decide exceedance events
    without computing the bound. A candidate mean outside [0, 1], or NaN, is
    refused.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    p = np.asarray(p, dtype=float)
    if p.shape != (matrix.m,):
        raise ValueError("need one candidate mean per grid column")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # false on NaN as well
        raise ValueError("candidate means must lie in [0, 1]")
    log_thr = math.log(1.0 / delta)
    return np.concatenate([_capital_rejects(block, lam, p[cols], log_thr)
                           for cols, block, lam in _wsr_blocks(matrix.values, delta)])
