"""Synthetic generators, ground-truth oracles, and Monte Carlo metrics.

The synthetic family draws batches of equi-correlated Gaussians and scores
them with the normalized batch count-below-threshold loss, so the population
risk is exactly the standard normal CDF regardless of the correlation. The
metrics measure how often a band fails to dominate the truth somewhere
(anywhere / selected-set miscoverage) and how far above the truth the band
sits at a data-dependently selected threshold (conservatism). A holdout /
sampling split turns a finite dataset into a surrogate generator with a known
surrogate truth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bootstrap import (SeedRecord, _map, _replicate_count, _seed_record, conservative_quantile,
                        rr_band)
from .bounds import ConfidenceBand, nasm_band, wsr_band, wsr_rejects, wsr_upper
from .empirical import empirical_risk, sublevel_set
from .losses import NONDECREASING, NONINCREASING, LossMatrix, ParameterGrid, _step_counts
from .rrr import RRRConfig, rrr_band
from .selection import SCHEMES, select_elbow, select_even_tradeoff

EQUICORRELATED = "equicorrelated-gaussian-cdf"
CONSTANT = "constant"
CUSTOM_FAMILY = "custom"
FAMILIES = (EQUICORRELATED, CONSTANT, CUSTOM_FAMILY)

METHOD_NAMES = ("nasm", "rr", "rrr", "pointwise")
METRICS = ("anywhere", "selected", "conservatism")


def default_synthetic_grid(size: int = 1000) -> ParameterGrid:
    """1000 evenly spaced thresholds on [-3, 3]."""
    return ParameterGrid.linspace(-3.0, 3.0, size)


def default_classification_grid(size: int = 500) -> ParameterGrid:
    """500 evenly spaced thresholds on [0, 1]."""
    return ParameterGrid.linspace(0.0, 1.0, size)


@dataclass(frozen=True)
class GeneratorSpec:
    """A loss-matrix generator with an accessible truth curve.

    ``realize(n, seed)`` returns a fresh loss matrix plus the truth values it
    should be compared against (per-realization for custom generators such as
    the holdout surrogate, fixed for the analytic families). A custom
    generator is one ``draw_fn(n, seed, pair)`` returning the primary matrix,
    its tradeoff companion when ``pair`` is true (``None`` when it has none),
    and the truth, which must hold one value in [0, 1] per grid point.
    """

    family: str
    grid: ParameterGrid
    rho: float = 0.0
    batch_size: int = 5
    value: float = 0.5
    tradeoff_shift: float = 1.0
    draw_fn: Callable[[int, SeedRecord, bool],
                      tuple[LossMatrix, LossMatrix | None, np.ndarray]] | None = None
    label: str = ""
    _cdf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown generator family {self.family!r}")
        if self.family == EQUICORRELATED:
            # the truth is the standard normal CDF on the grid; computed once
            object.__setattr__(self, "_cdf", np.array(
                [0.5 * math.erfc(-t / math.sqrt(2.0)) for t in self.grid.values.tolist()]))
            b = int(self.batch_size)
            if b < 1:
                raise ValueError("batch size must be >= 1")
            lo = -1.0 / (b - 1) if b > 1 else -1.0
            if not lo <= self.rho <= 1.0:
                raise ValueError(
                    f"rho must lie in [{lo}, 1] to keep the batch covariance PSD"
                )
        if not math.isfinite(self.tradeoff_shift):
            raise ValueError("tradeoff_shift must be finite")
        if self.family == CONSTANT and not 0.0 <= self.value <= 1.0:
            raise ValueError("constant value must lie in [0, 1]")
        if self.family == CUSTOM_FAMILY and self.draw_fn is None:
            raise ValueError("custom generators need a draw_fn")

    def truth_values(self) -> np.ndarray:
        if self.family == EQUICORRELATED:
            return self._cdf.copy()
        if self.family == CONSTANT:
            return np.full(len(self.grid), self.value)
        raise ValueError("custom generators carry per-realization truth; use realize()")

    def _draw_batches(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # correlated batch z = b*g + c*sum(g): closed-form square root of the
        # equicorrelation matrix, valid for the whole PSD range of rho
        b = int(self.batch_size)
        g = rng.standard_normal((n, b))
        root_small = math.sqrt(1.0 - self.rho)
        root_big = math.sqrt(1.0 + (b - 1) * self.rho)
        if b == 1:
            return g
        return root_small * g + ((root_big - root_small) / b) * g.sum(axis=1, keepdims=True)

    def realize(self, n: int, seed: SeedRecord) -> tuple[LossMatrix, np.ndarray]:
        primary, _, truth = self._draw(n, seed, pair=False)
        return primary, truth

    def realize_pair(self, n: int, seed: SeedRecord) -> tuple[LossMatrix, LossMatrix, np.ndarray]:
        """Loss matrix, an opposing (nonincreasing) companion, and the truth.

        The companion loss is the complement of the primary loss evaluated at
        a shifted threshold, giving a genuine tradeoff: the sum of the two
        population risks is minimized strictly inside the grid. The primary
        matrix and truth are ``realize``'s at the same seed.
        """
        primary, companion, truth = self._draw(n, seed, pair=True)
        if companion is None:
            raise ValueError("this generator has no tradeoff companion; "
                             "use an analytic family or a draw_fn that returns one")
        return primary, companion, truth

    def _draw(self, n: int, seed: SeedRecord,
              pair: bool) -> tuple[LossMatrix, LossMatrix | None, np.ndarray]:
        # the primary matrix, with ``pair`` its companion (else None), and the
        # truth; for the equicorrelated family both score one draw of the batches
        n = int(n)
        if n < 1:
            raise ValueError("need n >= 1")
        if self.family == CUSTOM_FAMILY:
            primary, companion, truth = self.draw_fn(n, seed, pair)
            truth = np.asarray(truth, dtype=float)
            # a NaN makes min or max NaN, which fails both comparisons
            ok = truth.shape == (len(self.grid),) and truth.min() >= 0.0 and truth.max() <= 1.0
            if not ok:
                raise ValueError("a custom draw_fn must return one truth value in [0, 1] "
                                 "per grid point")
            return primary, companion, truth
        m = len(self.grid)
        companion = None
        if self.family == CONSTANT:
            primary = LossMatrix._owning(self.grid, np.full((n, m), self.value), NONDECREASING)
            if pair:
                companion = LossMatrix._owning(self.grid, np.full((n, m), 1.0 - self.value),
                                               NONINCREASING)
            return primary, companion, self.truth_values()
        z = self._draw_batches(n, seed.generator())
        K = z.shape[1]
        # the batch fraction of draws at or below each threshold: a step
        # function of t that rises by 1/K at each draw's bin, kept as those
        # bins; the table c/K (the companion's 1 - c/K) is written directly
        levels = np.arange(K + 1) / K
        bins = np.searchsorted(self.grid.values, z)
        primary = LossMatrix._owning(self.grid, _step_counts(bins, m, levels), NONDECREASING,
                                     steps=bins)
        if pair:
            shifted = np.searchsorted(self.grid.values + self.tradeoff_shift, z)
            companion = LossMatrix._owning(self.grid, _step_counts(shifted, m, 1.0 - levels),
                                           NONINCREASING)
        return primary, companion, self.truth_values()


@dataclass(frozen=True)
class MetricsReport:
    """One Monte Carlo estimate with its standard error and configuration."""

    metric: str
    estimate: float
    runs: int
    std_error: float
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if int(self.runs) < 1:
            raise ValueError("need at least one run")
        if self.metric.startswith("miscoverage") and not 0.0 <= self.estimate <= 1.0:
            raise ValueError("probability estimates must lie in [0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MethodSpec:
    """A band method's name and parameters; the one map from them to a band.

    ``delta`` must lie in (0, 1), and ``B`` is kept as a plain int of at
    least 1 (an integer-valued numpy scalar is converted; 2.5 is refused), so
    ``config_echo`` is JSON-ready. An rrr spec's ``r``, ``delta_glob`` and
    ``delta_loc`` pass ``RRRConfig``'s checks on construction, before any
    band is built.
    """

    name: str
    delta: float = 0.1
    B: int = 1000
    r: float = 0.1
    delta_glob: float = 0.01
    delta_loc: float = 0.09

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError(f"method must be one of {METHOD_NAMES}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        object.__setattr__(self, "B", _replicate_count(self.B))
        if self.name == "rrr":
            self._rrr_config(SeedRecord(0))

    def _rrr_config(self, seed: SeedRecord) -> RRRConfig:
        return RRRConfig(seed=seed, r=self.r, delta_glob=self.delta_glob,
                         delta_loc=self.delta_loc, B=self.B)

    def band(self, matrix: LossMatrix, seed: SeedRecord, side: str = "upper",
             workers: int = 1) -> ConfidenceBand:
        """The method's band on ``matrix``; rrr and pointwise are upper-only."""
        if side != "upper" and self.name in ("rrr", "pointwise"):
            raise ValueError(f"{self.name} builds upper bands only, not side {side!r}")
        if self.name == "nasm":
            return nasm_band(empirical_risk(matrix), self.delta, side=side)
        if self.name == "rr":
            return rr_band(matrix, self.delta, self.B, seed, side=side, workers=workers)
        if self.name == "rrr":
            return rrr_band(matrix, self._rrr_config(seed), workers=workers).band
        return wsr_band(matrix, self.delta)

    def upper_band(self, matrix: LossMatrix, seed: SeedRecord, workers: int = 1) -> ConfidenceBand:
        return self.band(matrix, seed, workers=workers)

    def miscovers(
        self,
        matrix: LossMatrix,
        truth: np.ndarray,
        seed: SeedRecord,
        restrict: np.ndarray | None = None,
        workers: int = 1,
    ) -> bool:
        """Whether the truth exceeds the upper band somewhere on validity, or
        on its intersection with the grid indices ``restrict`` when given."""
        band = None if self.name == "pointwise" else self.upper_band(matrix, seed, workers=workers)
        exceeds = _exceedance(self, matrix, truth, band)
        if restrict is not None:
            exceeds = exceeds[np.asarray(restrict, dtype=np.int64)]
        return bool(exceeds.any())

    def config_echo(self) -> dict:
        # rrr's budget is its two parts' sum, as its band records it; it never reads delta
        delta = self.delta_glob + self.delta_loc if self.name == "rrr" else self.delta
        echo = {"method": self.name, "delta": delta}
        if self.name in ("rr", "rrr"):
            echo["B"] = self.B
        if self.name == "rrr":
            echo.update({"method_r": self.r, "delta_glob": self.delta_glob,
                         "delta_loc": self.delta_loc})
        return echo


def _spec_echo(spec: GeneratorSpec, n: int, runs: int, seed: SeedRecord) -> dict:
    echo = {"family": spec.family, "n": int(n), "runs": int(runs), "seed": seed.as_dict()}
    if spec.family == EQUICORRELATED:
        echo.update({"rho": spec.rho, "batch_size": spec.batch_size})
    if spec.family == CONSTANT:
        echo["value"] = spec.value
    if spec.label:
        echo["label"] = spec.label
    return echo


def oracle_sup_quantile(
    spec: GeneratorSpec,
    n: int,
    delta: float,
    runs: int,
    seed: SeedRecord | int,
    workers: int = 1,
) -> float:
    """Conservative 1-delta quantile of sup_t (truth - empirical risk).

    Simulated from the generator itself; this is the best achievable width of
    a fixed-width upper band at level delta, unscaled by sqrt(n).
    """
    seed = _seed_record(seed)
    sups = np.empty(runs)

    def one(run: int) -> None:
        matrix, truth = spec.realize(n, seed.child(run, 0))
        curve = empirical_risk(matrix)
        sups[run] = (truth - curve.values).max()

    _map(one, range(runs), workers)
    sups.sort()
    return conservative_quantile(sups, delta)


def _exceedance(method: MethodSpec, matrix: LossMatrix, truth: np.ndarray,
                band: ConfidenceBand | None) -> np.ndarray:
    # per grid point: truth above the band on validity (pointwise: the betting test)
    if method.name == "pointwise":
        return wsr_rejects(matrix, truth, method.delta)
    idx = band.validity.indices
    exceeds = np.zeros(matrix.m, dtype=bool)
    exceeds[idx] = truth[idx] > band.upper[idx]
    return exceeds


def _cell_report(metric: str, values: np.ndarray, config: dict, r: float,
                 scheme: str) -> MetricsReport:
    runs = values.size
    if metric != "conservatism":
        p = float(values.mean())
        if metric == "selected":
            config["r"] = r
        return MetricsReport(f"miscoverage-{metric}", p, runs,
                             math.sqrt(p * (1.0 - p) / runs), config)
    kept = values[~np.isnan(values)]
    config.update({"scheme": scheme, "r": r})
    extra = {"excluded_runs": int(runs - kept.size)}
    if kept.size == 0:
        extra["note"] = "every run was excluded; no selected threshold had a valid band value"
        return MetricsReport("conservatism", math.nan, runs, math.nan, config, extra=extra)
    se = float(kept.std(ddof=1) / math.sqrt(kept.size)) if kept.size > 1 else 0.0
    return MetricsReport("conservatism", float(kept.mean()), runs, se, config, extra=extra)


def _trace_records(metric: str, values: np.ndarray) -> list[dict]:
    if metric != "conservatism":
        return [{"run": i, "event": bool(v)} for i, v in enumerate(values)]
    return [{"run": i, "gap": None if np.isnan(v) else float(v)} for i, v in enumerate(values)]


def run_metrics(
    methods: list[MethodSpec],
    spec: GeneratorSpec,
    n: int,
    runs: int,
    seed: SeedRecord | int,
    metrics: list[str],
    r: float = 0.1,
    scheme: str = "even-tradeoff",
    workers: int = 1,
    traces: list | None = None,
) -> list[list[MetricsReport]]:
    """Every (method, metric) cell of one Monte Carlo experiment, run-major.

    Run ``i`` realizes once at ``seed.child(i).child(0)``, with the tradeoff
    companion only when conservatism is asked for (its primary matrix and
    truth equal the plain realization's), and builds each method's band once
    from ``seed.child(i).child(1)``. Every metric reduces that band, so all
    cells share common random numbers. ``pointwise`` builds no band: its
    events come from one betting test per grid point, and its conservatism
    from the betting bound at the selected column alone. ``anywhere``: the
    truth exceeds the band somewhere on validity. ``selected``: the same
    within the empirical sublevel set at ``r``, which must lie in [0, 1]; an
    empty set counts as covered. ``conservatism``: band minus truth at the
    threshold ``scheme`` selects within that set; runs with no selection, or
    one outside validity, are excluded, and a cell whose every run is
    excluded reports a NaN estimate and standard error with a note in
    ``extra``. Returns ``reports[i][j]`` for ``methods[i]`` and
    ``metrics[j]``; ``traces``, when given, is extended with the per-run
    records in the same nesting.
    """
    seed = _seed_record(seed)
    runs = int(runs)
    if runs < 1:
        raise ValueError(f"need runs >= 1, got {runs}")
    if not 0.0 <= r <= 1.0:
        raise ValueError("risk tolerance r must lie in [0, 1]")
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
    if scheme not in SCHEMES:
        raise ValueError("scheme must be 'even-tradeoff' or 'elbow'")
    paired = "conservatism" in metrics
    select = select_even_tradeoff if scheme == "even-tradeoff" else select_elbow
    needs_curve = paired or "selected" in metrics
    needs_band = any(metric != "conservatism" for metric in metrics)
    # per cell: 0/1 miscoverage events, or gaps with NaN for excluded runs
    values = [[np.full(runs, np.nan) if metric == "conservatism" else np.zeros(runs, dtype=bool)
               for metric in metrics] for _ in methods]

    def one(run: int) -> None:
        run_seed = seed.child(run)
        if paired:
            matrix, companion, truth = spec.realize_pair(n, run_seed.child(0))
        else:
            matrix, truth = spec.realize(n, run_seed.child(0))
        selected = chosen = None
        if needs_curve:
            curve = empirical_risk(matrix)
            selected = sublevel_set(curve, r)
            if paired and not selected.is_empty:
                chosen = select(curve, empirical_risk(companion), selected)
        for method, cells in zip(methods, values):
            band = None
            if method.name != "pointwise" and (chosen is not None or needs_band):
                band = method.upper_band(matrix, run_seed.child(1))
            if needs_band:
                exceeds = _exceedance(method, matrix, truth, band)
            for metric, cell in zip(metrics, cells):
                if metric == "anywhere":
                    cell[run] = exceeds.any()
                elif metric == "selected":
                    cell[run] = exceeds[selected.indices].any()
                elif chosen is not None:
                    j = chosen.index
                    if band is None:
                        # pointwise, valid on the whole grid: the betting bound
                        # at column j alone is bit for bit the full band's entry
                        cell[run] = wsr_upper(matrix.values[:, j], method.delta) - truth[j]
                    elif j in band.validity.indices:
                        cell[run] = band.upper[j] - truth[j]

    _map(one, range(runs), workers)
    if traces is not None:
        traces.extend([[_trace_records(metric, cell) for metric, cell in zip(metrics, cells)]
                       for cells in values])
    echo = _spec_echo(spec, n, runs, seed)
    return [[_cell_report(metric, cell, {**method.config_echo(), **echo}, r, scheme)
             for metric, cell in zip(metrics, cells)]
            for method, cells in zip(methods, values)]


def _one_cell(method: MethodSpec, metric: str, trace: list | None, spec: GeneratorSpec,
              n: int, runs: int, seed: SeedRecord | int, **kwargs) -> MetricsReport:
    nested = None if trace is None else []
    [[report]] = run_metrics([method], spec, n, runs, seed, [metric], traces=nested, **kwargs)
    if trace is not None:
        trace.extend(nested[0][0])
    return report


def miscoverage_anywhere(
    method: MethodSpec,
    spec: GeneratorSpec,
    n: int,
    runs: int,
    seed: SeedRecord | int,
    workers: int = 1,
    trace: list | None = None,
) -> MetricsReport:
    """Fraction of runs where the truth exceeds the band somewhere on validity."""
    return _one_cell(method, "anywhere", trace, spec, n, runs, seed, workers=workers)


def miscoverage_selected(
    method: MethodSpec,
    spec: GeneratorSpec,
    n: int,
    runs: int,
    seed: SeedRecord | int,
    r: float = 0.1,
    workers: int = 1,
    trace: list | None = None,
) -> MetricsReport:
    """Miscoverage restricted to the empirical sublevel set at tolerance r.

    A run with an empty selected set counts as covered.
    """
    return _one_cell(method, "selected", trace, spec, n, runs, seed, r=r, workers=workers)


def conservatism(
    method: MethodSpec,
    spec: GeneratorSpec,
    n: int,
    runs: int,
    seed: SeedRecord | int,
    scheme: str = "even-tradeoff",
    r: float = 0.1,
    workers: int = 1,
    trace: list | None = None,
) -> MetricsReport:
    """Mean gap between the band and the truth at a selected threshold.

    The threshold comes from a selection scheme applied to the primary and
    companion empirical risks, constrained to the sublevel set at r. Runs
    where no threshold can be selected, or where the selected threshold falls
    outside the band's validity set, are excluded and counted.
    """
    return _one_cell(method, "conservatism", trace, spec, n, runs, seed, r=r,
                     scheme=scheme, workers=workers)


def surrogate_generator(
    base: LossMatrix,
    companion: LossMatrix | None = None,
    label: str = "surrogate",
) -> GeneratorSpec:
    """Generator that re-splits a finite dataset on every realization.

    Each realization splits the base matrix into holdout and sampling halves,
    treats the holdout empirical curve as ground truth, and draws n rows with
    replacement from the sampling half. Miscoverage at large n is an artifact
    of the finite base population and should be read accordingly.

    ``companion``: a second loss matrix over the same rows (e.g. the opposing
    classification loss) enables the tradeoff-selection metrics; the same
    split and the same resampled row indices are applied to both.
    """
    if base.n < 2:
        raise ValueError("a surrogate base needs at least two rows to split")
    if companion is not None and companion.n != base.n:
        raise ValueError("companion must cover the same rows as the base matrix")

    def draw(n: int, seed: SeedRecord, pair: bool):
        perm = seed.child(0).generator().permutation(base.n)
        half = base.n // 2
        hold_idx, samp_idx = perm[:half], perm[half:]
        rng = seed.child(1).generator()
        picks = samp_idx[rng.integers(0, samp_idx.size, size=n)]
        truth = np.clip(base.values[hold_idx].mean(axis=0), 0.0, 1.0)
        paired = None
        if pair and companion is not None:
            paired = LossMatrix._owning(companion.grid, companion.values[picks],
                                        companion.orientation)
        return LossMatrix._owning(base.grid, base.values[picks], base.orientation), paired, truth

    return GeneratorSpec(CUSTOM_FAMILY, base.grid, draw_fn=draw, label=label)
