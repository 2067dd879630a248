"""Acceptance gate: every release-blocking criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to stream them).
The Monte Carlo criteria use fixed seeds, so the suite is deterministic; the
whole module takes 7 to 13 minutes on two cores.
"""

import math
import os
import time

import numpy as np
import pytest

from riskbands import (
    GeneratorSpec,
    IndexSet,
    LossMatrix,
    MethodSpec,
    ParameterGrid,
    RRRConfig,
    SeedRecord,
    batch,
    combine,
    default_synthetic_grid,
    empirical_risk,
    miscoverage_selected,
    monotonize,
    nasm_width,
    oracle_sup_quantile,
    rr_band,
    rrr_band,
    run_metrics,
    select_elbow,
    select_even_tradeoff,
    sup_distribution,
    tail_bound,
    threshold_losses,
    validate,
    wsr_upper,
)
from riskbands.bounds import ConfidenceBand
from riskbands.fileio import read_panel
from riskbands.harness import EQUICORRELATED

GRID = default_synthetic_grid()  # 1000 points on [-3, 3]
MAX_WORKERS = max(2, os.cpu_count() or 2)


def announce(number, name, ok, detail):
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_closed_form_exactness():
    ns = np.arange(1, 10_001)
    ok = True
    worst = 0.0
    for delta in (0.01, 0.05, 0.1, 0.5):
        widths = np.array([nasm_width(int(n), delta) for n in ns])
        # independent arrangement of the same closed form
        reference = np.sqrt((1.0 - np.log(delta)) / (2.0 * ns))
        err = np.abs(widths - reference).max()
        worst = max(worst, err)
        ok = ok and err <= 1e-12
    announce(1, "closed-form exactness", ok, f"max abs err {worst:.2e} over 4x10^4 pairs")
    assert ok


def test_criterion_02_tail_domination():
    n, runs, rho = 200, 20_000, 0.2
    spec = GeneratorSpec(EQUICORRELATED, GRID, rho=rho)
    seed = SeedRecord(20_002)
    sups = np.empty(runs)
    t0 = time.perf_counter()
    for run in range(runs):
        matrix, truth = spec.realize(n, seed.child(run, 0))
        curve = empirical_risk(matrix)
        sups[run] = math.sqrt(n) * (truth - curve.values).max()
    details = []
    ok = True
    for lam in (0.3, 0.6, 1.0):
        p = float((sups > lam).mean())
        se = math.sqrt(p * (1.0 - p) / runs)
        bound = tail_bound(lam)
        ok = ok and (p <= bound + 3.0 * se)
        details.append(f"lam={lam}: p={p:.4f} <= {bound:.4f}")
    announce(2, "tail domination", ok,
             "; ".join(details) + f" ({time.perf_counter() - t0:.0f}s)")
    assert ok


def test_criterion_03_anywhere_miscoverage():
    n, runs, rho, delta = 1000, 2000, 0.2, 0.1
    spec = GeneratorSpec(EQUICORRELATED, GRID, rho=rho)
    seed = SeedRecord(20_003)
    t0 = time.perf_counter()
    # one run-major pass: each of the 2000 matrices is realized once for all
    # three methods; every event equals that of a separate per-method call
    methods = [MethodSpec("nasm", delta=delta), MethodSpec("rr", delta=delta, B=1000),
               MethodSpec("pointwise", delta=delta)]
    (nasm,), (rr,), (wsr,) = run_metrics(methods, spec, n, runs, seed, ["anywhere"])
    ok_nasm = nasm.estimate <= 0.02
    ok_rr = 0.06 <= rr.estimate <= 0.14
    ok_wsr = wsr.estimate > 0.10 + 3.0 * wsr.std_error
    ok = ok_nasm and ok_rr and ok_wsr
    announce(3, "anywhere miscoverage", ok,
             f"nasm={nasm.estimate:.4f} (<=0.02), rr={rr.estimate:.4f} (in [0.06,0.14]), "
             f"pointwise={wsr.estimate:.4f} (>{0.10 + 3 * wsr.std_error:.4f}) "
             f"({time.perf_counter() - t0:.0f}s)")
    assert ok_nasm, f"nasm anywhere miscoverage {nasm.estimate}"
    assert ok_rr, f"rr anywhere miscoverage {rr.estimate}"
    assert ok_wsr, f"pointwise anywhere miscoverage {wsr.estimate}"


def test_criterion_04_bootstrap_quantile_convergence():
    n, rho, B, runs = 2000, 0.6, 1000, 100
    spec = GeneratorSpec(EQUICORRELATED, GRID, rho=rho)
    t0 = time.perf_counter()
    oracle = oracle_sup_quantile(spec, n, 0.1, runs=3000, seed=SeedRecord(20_040))
    widths = np.empty(runs)
    seed = SeedRecord(20_004)
    for run in range(runs):
        rs = seed.child(run)
        matrix, _ = spec.realize(n, rs.child(0))
        widths[run] = rr_band(matrix, 0.1, B, rs.child(1)).width_info
    median = float(np.median(widths))
    rel = abs(median - oracle) / oracle
    ok = rel <= 0.20
    announce(4, "bootstrap quantile convergence", ok,
             f"median q/sqrt(n)={median:.5f}, oracle={oracle:.5f}, rel err {rel:.3f} "
             f"({time.perf_counter() - t0:.0f}s)")
    assert ok


def test_criterion_05_rrr_selected_set_miscoverage():
    n, runs, rho = 1000, 2000, 0.2
    spec = GeneratorSpec(EQUICORRELATED, GRID, rho=rho)
    method = MethodSpec("rrr", r=0.1, delta_glob=0.01, delta_loc=0.09, B=1000)
    t0 = time.perf_counter()
    rep = miscoverage_selected(method, spec, n, runs, SeedRecord(20_005), r=0.1)
    ok = rep.estimate <= 0.12
    announce(5, "rrr selected-set miscoverage", ok,
             f"estimate={rep.estimate:.4f} (<=0.12) ({time.perf_counter() - t0:.0f}s)")
    assert ok


def test_criterion_06_rrr_tightness():
    n, runs, rho = 1000, 500, 0.2
    spec = GeneratorSpec(EQUICORRELATED, GRID, rho=rho)
    seed = SeedRecord(20_006)
    t0 = time.perf_counter()
    narrower = 0
    for run in range(runs):
        rs = seed.child(run)
        matrix, _ = spec.realize(n, rs.child(0))
        rr = rr_band(matrix, 0.1, 1000, rs.child(1))
        rrr = rrr_band(matrix, RRRConfig(seed=rs.child(1), r=0.1,
                                         delta_glob=0.01, delta_loc=0.09, B=1000))
        narrower += (rrr.band.width_info <= rr.width_info)
    frac = narrower / runs
    ok = frac >= 0.85
    announce(6, "rrr tightness", ok,
             f"rrr width <= rr width in {frac:.1%} of paired runs "
             f"({time.perf_counter() - t0:.0f}s)")
    assert ok


def test_criterion_07_pointwise_coverage_sanity():
    n, runs = 100, 2000
    point = ParameterGrid(np.array([0.0]))  # true risk 0.5 by symmetry
    spec = GeneratorSpec(EQUICORRELATED, point, rho=0.2)
    seed = SeedRecord(20_007)
    t0 = time.perf_counter()
    covered = 0
    for run in range(runs):
        matrix, _ = spec.realize(n, seed.child(run, 0))
        covered += (wsr_upper(matrix.values[:, 0], 0.1) >= 0.5)
    frac = covered / runs
    ok = frac >= 0.88
    announce(7, "pointwise coverage sanity", ok,
             f"coverage {frac:.4f} (>=0.88) ({time.perf_counter() - t0:.0f}s)")
    assert ok


def test_criterion_08_determinism_serial_vs_parallel():
    rng = np.random.default_rng(20_008)
    t0 = time.perf_counter()
    for case in range(20):
        n = int(rng.integers(20, 200))
        m = int(rng.integers(5, 50))
        B = int(rng.integers(50, 400))
        delta = float(rng.uniform(0.02, 0.4))
        grid = ParameterGrid.linspace(0.0, 1.0, m)
        seed = SeedRecord(int(rng.integers(0, 2**62)))
        flat = LossMatrix(grid, rng.random((n, m)), "unconstrained")
        # each side gets its own equal-valued matrix, so neither is served
        # from bootstrap replicates the other left on a shared matrix
        serial = rr_band(flat, delta, B, seed, workers=1)
        parallel = rr_band(LossMatrix(grid, flat.values, flat.orientation), delta, B, seed,
                           workers=MAX_WORKERS)
        assert np.array_equal(serial.upper, parallel.upper), f"rr case {case}"
        assert serial.width_info == parallel.width_info

        mono = LossMatrix(grid, np.minimum.accumulate(rng.random((n, m)), axis=1),
                          "nonincreasing")
        cfg = RRRConfig(seed=seed, r=float(rng.uniform(0.2, 0.8)),
                        delta_glob=delta / 2, delta_loc=delta / 2, B=B)
        a = rrr_band(mono, cfg, workers=1)
        b = rrr_band(LossMatrix(grid, mono.values, mono.orientation), cfg, workers=MAX_WORKERS)
        assert np.array_equal(a.band.upper, b.band.upper), f"rrr case {case}"
        assert (a.q_glob, a.q_loc) == (b.q_glob, b.q_loc)
        assert np.array_equal(a.sublevel.indices, b.sublevel.indices)
    announce(8, "determinism", True,
             f"20 random configs bit-identical serial vs {MAX_WORKERS}-way parallel "
             f"({time.perf_counter() - t0:.0f}s)")


def test_criterion_09_property_suites():
    rng = np.random.default_rng(20_009)
    grid8 = ParameterGrid.linspace(0.0, 1.0, 8)

    # monotonize sandwich and idempotence
    for _ in range(50):
        m = LossMatrix(grid8, rng.random((4, 8)))
        low, high = monotonize(m, "running-min"), monotonize(m, "running-max")
        assert np.all(low.values <= m.values) and np.all(m.values <= high.values)
        assert np.array_equal(monotonize(low, "running-min").values, low.values)
        assert np.array_equal(monotonize(high, "running-max").values, high.values)
        assert validate(low).passed and validate(high).passed

    # batch-mean commutation
    for k in (1, 2, 3, 4, 6, 12):
        m = LossMatrix(grid8, rng.random((12, 8)))
        assert np.allclose(empirical_risk(batch(m, k)).values,
                           empirical_risk(m).values, atol=1e-12)

    # per-replicate subset supremum domination (paired seeds)
    m = LossMatrix(grid8, rng.random((40, 8)))
    seed = SeedRecord(909)
    small = IndexSet(np.array([1, 3, 6]))
    big = IndexSet(np.array([0, 1, 3, 4, 6, 7]))
    for sign in ("plus", "minus", "two-sided"):
        ds = sup_distribution(m, small, sign, 256, seed)
        db = sup_distribution(m, big, sign, 256, seed)
        assert np.all(ds.sorted_values <= db.sorted_values + 1e-15)

    # empirical sublevel set contained in its adjusted inflation
    for case in range(10):
        mono = LossMatrix(grid8, np.minimum.accumulate(rng.random((30, 8)), axis=1),
                          "nonincreasing")
        res = rrr_band(mono, RRRConfig(seed=SeedRecord(case), r=0.5, B=128))
        assert res.sublevel.issubset(res.adjusted)

    # combined-band containment under 10^4 random box samples
    lo1, hi1 = np.sort(rng.random((2, 8)), axis=0)
    lo2, hi2 = np.sort(rng.random((2, 8)), axis=0)
    def mk(lo, hi):
        return ConfidenceBand(grid=grid8, lower=lo, upper=hi,
                              validity=IndexSet.full(grid8), delta=0.05,
                              method="rr", sample_size=10)
    psi = lambda a, b: np.clip(a * (1.0 - b) + 0.1 * a, 0.0, 1.0)
    out = combine([mk(lo1, hi1), mk(lo2, hi2)], psi,
                  psi_monotonicity=["increasing", "decreasing"])
    for _ in range(10_000):
        x1 = lo1 + rng.random(8) * (hi1 - lo1)
        x2 = lo2 + rng.random(8) * (hi2 - lo2)
        vals = psi(x1, x2)
        assert np.all(vals <= out.upper + 1e-12)
        assert np.all(vals >= out.lower - 1e-12)

    # selection determinism and constraint membership
    from riskbands import RiskCurve
    for _ in range(30):
        l = RiskCurve(grid8, rng.random(8), sample_size=10)
        q = RiskCurve(grid8, rng.random(8), sample_size=10)
        cons = IndexSet(rng.choice(8, size=4, replace=False))
        for pick in (select_even_tradeoff, select_elbow):
            a, b = pick(l, q, cons), pick(l, q, cons)
            assert a.index == b.index
            assert a.index in cons.indices

    announce(9, "property suites", True, "all property sweeps green")


# hand-built 10-sample, K=3 panel: scores and binary labels
PANEL_SCORES = [
    [0.90, 0.80, 0.10],
    [0.60, 0.40, 0.20],
    [0.30, 0.20, 0.10],
    [0.95, 0.55, 0.45],
    [0.05, 0.50, 0.85],
    [0.70, 0.70, 0.70],
    [0.50, 0.25, 0.75],
    [0.10, 0.10, 0.10],
    [0.80, 0.60, 0.40],
    [1.00, 0.00, 0.50],
]
PANEL_LABELS = [
    [1, 1, 0],
    [1, 0, 0],
    [0, 0, 1],
    [1, 1, 1],
    [0, 1, 1],
    [0, 0, 0],
    [1, 0, 1],
    [1, 1, 1],
    [0, 1, 0],
    [1, 0, 0],
]
PANEL_GRID = [0.25, 0.5, 0.75]


def hand_losses(kind):
    """Independent straight-line evaluation of the classification losses."""
    out = []
    for scores, labels in zip(PANEL_SCORES, PANEL_LABELS):
        row = []
        for t in PANEL_GRID:
            preds = [1 if s > 1.0 - t else 0 for s in scores]
            n_pos = sum(labels)
            n_neg = len(labels) - n_pos
            n_sel = sum(preds)
            fn = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
            fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
            if kind == "FNP":
                row.append(fn / max(1, n_pos))
            elif kind == "FPP":
                row.append(fp / max(1, n_neg))
            elif kind == "FDP":
                row.append(fp / max(1, n_sel))
            else:
                row.append(n_sel / len(labels))
        out.append(row)
    return np.array(out)


def test_criterion_10_panel_ingestion_with_hand_computed_losses(tmp_path):
    # the large-scale image-dataset figures need external scores and are
    # declared not reproducible here; the CSV panel ingestion path stands in,
    # validated against hand-computed losses on a 10-sample, K=3 panel
    scores_path = tmp_path / "scores.csv"
    labels_path = tmp_path / "labels.csv"
    scores_path.write_text(
        "c1,c2,c3\n" + "\n".join(",".join(map(str, r)) for r in PANEL_SCORES) + "\n")
    labels_path.write_text(
        "\n".join(",".join(map(str, r)) for r in PANEL_LABELS) + "\n")
    panel = read_panel(scores_path, labels_path)
    grid = ParameterGrid(np.array(PANEL_GRID))

    ok = True
    for kind in ("FNP", "FPP", "FDP", "SetSize"):
        matrix = threshold_losses(panel, grid, kind)
        expected = hand_losses(kind)
        if not np.allclose(matrix.values, expected, atol=1e-15):
            ok = False

    # frozen spot checks worked out by hand
    fnp = threshold_losses(panel, grid, "FNP").values
    fpp = threshold_losses(panel, grid, "FPP").values
    fdp = threshold_losses(panel, grid, "FDP").values
    ss = threshold_losses(panel, grid, "SetSize").values
    hand_checks = [
        fnp[0, 1] == 0.0,              # sample 1, t=0.5: predictions (1,1,0)
        ss[0, 1] == pytest.approx(2 / 3),
        fnp[4, 0] == 0.5,              # sample 5, t=0.25: one missed positive of two
        fpp[5, 2] == 1.0,              # sample 6, t=0.75: every class is a false positive
        fdp[5, 2] == 1.0,
        fnp[7, 2] == 1.0,              # sample 8, t=0.75: all positives missed
        fpp[7, 2] == 0.0,              # guarded denominator with zero negatives
        ss[9, 1] == pytest.approx(1 / 3),  # sample 10: score 0.5 not > cutoff 0.5
    ]
    ok = ok and all(hand_checks)
    announce(10, "panel ingestion vs hand-computed losses", ok,
             "10-sample K=3 panel matches on all four loss kinds; "
             "external image-dataset figures declared not reproducible at desk scale")
    assert ok
