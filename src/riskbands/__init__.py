"""Simultaneous confidence bands for monotone risk curves.

From per-sample loss evaluations over a threshold grid, this package builds
uniform (simultaneous) upper confidence bands on the underlying risk curve:
a nonasymptotic fixed-width band, a bootstrap risk-resampling band, and a
localized restricted variant valid over an empirical sublevel set, together
with a pointwise betting baseline, tradeoff selection schemes, composition
and monotonization tools for non-monotone risks, and a Monte Carlo harness
for coverage and quantile-convergence experiments.
"""

from .bootstrap import (
    BootstrapSupDistribution,
    SeedRecord,
    SuggestBResult,
    conservative_quantile,
    resample_counts,
    rr_band,
    suggest_b,
    sup_distribution,
)
from .bounds import (
    ConfidenceBand,
    nasm_band,
    nasm_width,
    tail_bound,
    wsr_band,
    wsr_rejects,
    wsr_upper,
)
from .compose import combine, selective_ratio_upper
from .empirical import (
    IndexSet,
    RiskCurve,
    empirical_risk,
    sublevel_set,
)
from .harness import (
    GeneratorSpec,
    MethodSpec,
    MetricsReport,
    conservatism,
    default_classification_grid,
    default_synthetic_grid,
    miscoverage_anywhere,
    miscoverage_selected,
    oracle_sup_quantile,
    run_metrics,
    surrogate_generator,
)
from .losses import (
    BinaryScorePanel,
    LossMatrix,
    ParameterGrid,
    ValidationReport,
    batch,
    monotonize,
    threshold_losses,
    validate,
)
from .rrr import RRRConfig, RRRResult, rrr_band, rrr_band_population
from .selection import SelectionResult, select_elbow, select_even_tradeoff

__version__ = "0.1.0"

__all__ = [
    "BinaryScorePanel",
    "BootstrapSupDistribution",
    "ConfidenceBand",
    "GeneratorSpec",
    "IndexSet",
    "LossMatrix",
    "MethodSpec",
    "MetricsReport",
    "ParameterGrid",
    "RRRConfig",
    "RRRResult",
    "RiskCurve",
    "SeedRecord",
    "SelectionResult",
    "SuggestBResult",
    "ValidationReport",
    "batch",
    "combine",
    "conservatism",
    "conservative_quantile",
    "default_classification_grid",
    "default_synthetic_grid",
    "empirical_risk",
    "miscoverage_anywhere",
    "miscoverage_selected",
    "monotonize",
    "nasm_band",
    "nasm_width",
    "oracle_sup_quantile",
    "resample_counts",
    "rr_band",
    "rrr_band",
    "rrr_band_population",
    "run_metrics",
    "select_elbow",
    "select_even_tradeoff",
    "selective_ratio_upper",
    "sublevel_set",
    "suggest_b",
    "sup_distribution",
    "surrogate_generator",
    "tail_bound",
    "threshold_losses",
    "validate",
    "wsr_band",
    "wsr_rejects",
    "wsr_upper",
]
