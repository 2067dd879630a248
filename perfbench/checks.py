"""Output checks for the benchmark workloads.

Each check compares a riskbands output against an independent computation
(column means from ``np.loadtxt``, closed-form widths, order statistics,
elementwise arithmetic) or against a property the method must have, and
raises ``CheckFailed`` when it does not hold. None compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import math

import numpy as np

TOL = 1e-12


class CheckFailed(AssertionError):
    """An output violated one of its checks."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_band_csv(path) -> dict[str, np.ndarray]:
    """``lower``, ``upper`` and ``valid`` columns; an absent side is all NaN."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["t", "lower", "upper", "in_validity"],
             f"{path}: not a band CSV")
    cols = list(zip(*rows[1:]))
    side = lambda cells: np.array([float(c) if c else np.nan for c in cells])
    return {"lower": side(cols[1]), "upper": side(cols[2]),
            "valid": np.array([c == "1" for c in cols[3]])}


def nasm_width(n: int, delta: float) -> float:
    return math.sqrt(math.log(math.e / delta) / (2.0 * n))


def nasm_width_exact(width: float, n: int, delta: float) -> None:
    expected = nasm_width(n, delta)
    _require(abs(width - expected) <= TOL,
             f"nasm width {width!r} != sqrt(log(e/delta)/2n) = {expected!r}")


def band_side(values: np.ndarray, colmean: np.ndarray, width: float, sign: int,
              label: str) -> None:
    """A fixed-width side equals clip(column mean +/- width) at every point."""
    expected = np.clip(colmean + sign * width, 0.0, 1.0)
    _require(values.shape == expected.shape, f"{label}: {values.size} points, "
             f"expected {expected.size}")
    err = float(np.max(np.abs(values - expected)))
    _require(err <= TOL, f"{label}: max |band - clip(mean {'+-'[sign < 0]} width)| = {err:.3g}")


def rr_width_within_nasm(width: float, n: int, delta: float) -> None:
    """The distribution-free tail bound caps the bootstrap quantile."""
    _require(0.0 < width <= nasm_width(n, delta),
             f"rr width {width!r} outside (0, nasm width {nasm_width(n, delta)!r}]")


def width_from_quantile(width: float, q: float, n: int) -> None:
    """A bootstrap band's half-width is its quantile over sqrt(n)."""
    _require(abs(width - q / math.sqrt(n)) <= TOL,
             f"width {width!r} != q / sqrt(n) = {q / math.sqrt(n)!r}")


def rrr_validity(valid: np.ndarray, colmean: np.ndarray, r: float) -> None:
    expected = colmean <= r
    _require(np.array_equal(valid, expected),
             f"rrr validity differs from {{t : mean(t) <= {r}}} at "
             f"{int(np.sum(valid != expected))} point(s)")


def paired_quantiles(q_glob: float, q_loc: float, q_rr: float) -> None:
    """Same seed, paired replicates: q_loc <= q_glob and q_glob >= rr's q."""
    _require(q_loc <= q_glob, f"q_loc {q_loc!r} > q_glob {q_glob!r}")
    _require(q_glob >= q_rr, f"q_glob {q_glob!r} < rr q_hat {q_rr!r}")


def quantile_order_statistic(q_hat: float, sorted_sups: np.ndarray, delta: float) -> None:
    """q_hat is order statistic ceil((B+1)(1-delta)) of the sorted suprema."""
    b = sorted_sups.size
    _require(b > 0 and np.all(np.diff(sorted_sups) >= 0), "suprema are not sorted")
    k = min(b, math.ceil((b + 1) * (1.0 - delta) - 1e-9))
    _require(q_hat == sorted_sups[k - 1],
             f"q_hat {q_hat!r} != order statistic {k} of {b} ({sorted_sups[k - 1]!r})")


def selection_argmin(index: int, loss_mean: np.ndarray, tradeoff_mean: np.ndarray,
                     r: float) -> None:
    """Even tradeoff: smallest-index argmin of L + Q over {t : L(t) <= r}."""
    allowed = np.flatnonzero(loss_mean <= r)
    _require(allowed.size > 0, "empty constraint set")
    total = loss_mean[allowed] + tradeoff_mean[allowed]
    expected = int(allowed[np.flatnonzero(total == total.min())[0]])
    _require(index == expected, f"selected index {index}, expected {expected}")


def compose_ratio(upper: np.ndarray, num_upper: np.ndarray, den_lower: np.ndarray,
                  floor: float) -> None:
    expected = np.minimum(1.0, num_upper / np.maximum(den_lower, floor))
    err = float(np.max(np.abs(upper - expected)))
    _require(err <= TOL, f"composed ratio differs from upper/max(lower, floor) by {err:.3g}")


def _capital_rejects(x: np.ndarray, p: float, delta: float) -> bool:
    # betting capital with running mean/variance priors 1/2 and 1/4; the
    # fraction at step i uses the variance through step i-1, capped at 1
    n = x.size
    steps = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(x)) / (1.0 + steps)
    s2 = (0.25 + np.cumsum((x - mu) ** 2)) / (1.0 + steps)
    s2_prev = np.concatenate(([0.25], s2[:-1]))
    lam = np.minimum(1.0, np.sqrt(2.0 * math.log(1.0 / delta) / (n * s2_prev)))
    with np.errstate(divide="ignore"):
        log_capital = np.cumsum(np.log(1.0 - lam * (x - p)))
    return bool(log_capital.max() > math.log(1.0 / delta))


def pointwise_upper(upper: np.ndarray, losses: np.ndarray, delta: float,
                    columns: np.ndarray, margin: float = 1e-7) -> None:
    """The betting bound is where the capital first exceeds 1/delta."""
    for j in columns:
        u = float(upper[j])
        if u < 1.0:
            _require(_capital_rejects(losses[:, j], min(1.0, u + margin), delta),
                     f"pointwise column {j}: capital does not reject just above {u!r}")
        if u > 0.0:
            _require(not _capital_rejects(losses[:, j], max(0.0, u - margin), delta),
                     f"pointwise column {j}: capital already rejects below {u!r}")


def population_sup(colmean: np.ndarray, grid: np.ndarray, n: int,
                   eta: float = 1e-6) -> None:
    """sup |L_hat - Phi| within the two-sided tail bound at level eta."""
    phi = np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in grid])
    dev = float(np.max(np.abs(colmean - phi)))
    bound = math.sqrt(math.log(2.0 * math.e / eta) / (2.0 * n))
    _require(dev <= bound, f"sup|L_hat - Phi| = {dev:.5f} > {bound:.5f}")


def read_metrics_csv(path) -> dict[tuple[str, str], float]:
    """(method, metric) -> estimate from an ``eval`` metrics CSV."""
    with open(path, newline="") as fh:
        return {(row["method"], row["metric"]): float(row["estimate"])
                for row in csv.DictReader(fh)}


_METRIC_NAMES = {"anywhere": "miscoverage-anywhere",
                 "selected": "miscoverage-selected",
                 "conservatism": "conservatism"}


def mc_trace(trace: dict, estimates: dict, methods: tuple[str, ...], n: int,
             runs: int) -> dict[str, np.ndarray]:
    """Per-run checks of one ``eval`` trace; returns the per-run events.

    Every metrics-CSV estimate must be the mean of its traced runs; for nasm
    and rr a selected-set miscoverage implies miscoverage anywhere; a nasm
    miscoverage implies an rr one (rr's band lies inside nasm's), and rr's
    conservatism gap is at most nasm's in every run.
    """
    events, gaps = {}, {}
    for method in methods:
        for metric, label in _METRIC_NAMES.items():
            rows = trace[f"{method}_n{n}_{metric}"]
            _require([r["run"] for r in rows] == list(range(runs)),
                     f"{method} {metric}: trace does not list runs 0..{runs - 1}")
            estimate = estimates[(method, label)]
            if metric == "conservatism":
                g = np.array([np.nan if r["gap"] is None else r["gap"] for r in rows])
                kept = g[~np.isnan(g)]
                _require(kept.size and abs(estimate - kept.mean()) <= TOL,
                         f"{method} conservatism {estimate!r} is not the mean traced gap")
                gaps[method] = g
            else:
                e = np.array([r["event"] for r in rows], dtype=bool)
                _require(estimate == e.sum() / runs,
                         f"{method} {metric} {estimate!r} != {e.sum()}/{runs} traced events")
                events[(method, metric)] = e
    for method in ("nasm", "rr"):
        bad = events[(method, "selected")] & ~events[(method, "anywhere")]
        _require(not bad.any(), f"{method}: selected miscoverage without anywhere "
                 f"miscoverage in run(s) {np.flatnonzero(bad).tolist()}")
    bad = events[("nasm", "anywhere")] & ~events[("rr", "anywhere")]
    _require(not bad.any(), f"nasm miscovers but rr does not in run(s) "
             f"{np.flatnonzero(bad).tolist()}")
    _require(np.array_equal(np.isnan(gaps["rr"]), np.isnan(gaps["nasm"])),
             "rr and nasm exclude different conservatism runs")
    worse = gaps["rr"] > gaps["nasm"]
    _require(not worse.any(), f"rr conservatism gap above nasm's in run(s) "
             f"{np.flatnonzero(worse).tolist()}")
    return {method: events[(method, "anywhere")] for method in ("nasm", "pointwise")}


def mc_rates(nasm_anywhere: np.ndarray, pointwise_anywhere: np.ndarray,
             delta: float) -> None:
    """nasm stays within its budget; the per-point baseline miscovers more."""
    runs = nasm_anywhere.size
    p_nasm = nasm_anywhere.mean()
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / runs)
    _require(p_nasm <= limit, f"nasm anywhere miscoverage {p_nasm:.4f} > {limit:.4f} "
             f"over {runs} runs")
    p_point = pointwise_anywhere.mean()
    _require(p_point > p_nasm, f"pointwise anywhere miscoverage {p_point:.4f} does not "
             f"exceed nasm's {p_nasm:.4f} over {runs} runs")
