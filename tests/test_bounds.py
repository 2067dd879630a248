import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbands.bounds
from riskbands import (
    GeneratorSpec,
    LossMatrix,
    ParameterGrid,
    RiskCurve,
    SeedRecord,
    default_synthetic_grid,
    nasm_band,
    nasm_width,
    tail_bound,
    wsr_band,
    wsr_rejects,
    wsr_upper,
)
from riskbands.bounds import _capital_rejects, _cumsum0, _wsr_blocks, _wsr_lambdas


def oracle_lambdas(losses, delta):
    """Straight-line betting fractions of one loss sequence."""
    n = len(losses)
    steps = np.arange(1, n + 1)
    mu = (0.5 + np.cumsum(losses)) / (1 + steps)
    s2 = (0.25 + np.cumsum((losses - mu) ** 2)) / (1 + steps)
    s2_prev = np.concatenate([[0.25], s2[:-1]])
    return np.minimum(1.0, np.sqrt(2 * np.log(1 / delta) / (n * s2_prev)))


def wsr_oracle_scan(losses, delta):
    """Independent straight-line scan of the capital process on a p grid.

    Coarse 1e-3 pass to bracket the first rejected p, then a 1e-6 pass inside
    the bracket (valid because the rejection region is an up-set in p).
    """
    losses = np.asarray(losses, dtype=float)
    lam = oracle_lambdas(losses, delta)

    def rejected(p):
        return np.cumprod(1.0 - lam * (losses - p)).max() > 1.0 / delta

    hit = None
    for p in np.arange(0.0, 1.0 + 1e-9, 1e-3):
        if rejected(p):
            hit = p
            break
    if hit is None:
        return 1.0
    for p in np.arange(max(0.0, hit - 1e-3), hit + 1e-9, 1e-6):
        if rejected(p):
            return p
    return hit


def whole_lambdas(losses, delta):
    """The betting fractions over a whole n x m array at once: the unblocked
    form, with ``np.cumsum`` and a shifted copy of the running variance."""
    n = losses.shape[0]
    steps = np.arange(1, n + 1, dtype=float)[:, None]
    mu = np.cumsum(losses, axis=0)
    mu += 0.5
    mu /= 1.0 + steps
    sq = losses - mu
    np.square(sq, out=sq)
    s2 = np.cumsum(sq, axis=0)
    s2 += 0.25
    s2 /= 1.0 + steps
    s2[1:] = s2[:-1]
    s2[:1] = 0.25
    s2 *= n
    np.divide(2.0 * np.log(1.0 / delta), s2, out=s2)
    np.sqrt(s2, out=s2)
    return np.minimum(1.0, s2, out=s2)


def whole_log_capital(losses, lam, p):
    """Each column's largest running log capital, over a whole n x m array at
    once, with ``np.cumsum``."""
    factors = 1.0 - lam * (losses - p)
    with np.errstate(divide="ignore"):
        np.log(factors, out=factors)
    return np.cumsum(factors, axis=0).max(axis=0)


def whole_capital_rejects(losses, lam, p, log_threshold):
    """The capital test over a whole n x m array at once: the unblocked form."""
    return whole_log_capital(losses, lam, p) > log_threshold


def whole_bisect(values, delta):
    """The betting bisection over a whole n x m array at once: the unblocked form."""
    k = values.shape[1]
    lam = whole_lambdas(values, delta)
    log_thr = math.log(1.0 / delta)
    at_zero = whole_capital_rejects(values, lam, np.zeros(k), log_thr)
    at_one = whole_capital_rejects(values, lam, np.ones(k), log_thr)
    lo, hi = np.zeros(k), np.ones(k)
    for _ in range(int(math.ceil(math.log2(1.0 / 1e-9)))):
        mid = 0.5 * (lo + hi)
        rej = whole_capital_rejects(values, lam, mid, log_thr)
        hi = np.where(rej, mid, hi)
        lo = np.where(rej, lo, mid)
    return np.where(at_zero, 0.0, np.where(~at_one, 1.0, hi))


class TestNasmWidth:
    def test_frozen_value(self):
        assert nasm_width(100, 0.1) == pytest.approx(0.12850262824148861, abs=1e-15)

    def test_quadrupling_n_halves_width(self):
        for n in (7, 50, 123):
            assert nasm_width(4 * n, 0.3) == pytest.approx(nasm_width(n, 0.3) / 2, rel=1e-12)

    def test_monotone_in_delta(self):
        assert nasm_width(50, 0.01) > nasm_width(50, 0.05) > nasm_width(50, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            nasm_width(0, 0.1)
        with pytest.raises(ValueError):
            nasm_width(10, 0.0)
        with pytest.raises(ValueError):
            nasm_width(10, 1.0)

    @given(st.integers(1, 10_000), st.floats(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_closed_form(self, n, delta):
        assert nasm_width(n, delta) == pytest.approx(
            math.sqrt((1.0 - math.log(delta)) / (2.0 * n)), abs=1e-14
        )


class TestNasmBand:
    def test_constant_curve_upper(self):
        g = ParameterGrid.linspace(0.0, 1.0, 4)
        curve = RiskCurve(g, np.full(4, 0.5), sample_size=100)
        band = nasm_band(curve, 0.1, side="upper")
        assert band.upper == pytest.approx(0.5 + 0.12850262824148861)
        assert band.lower is None
        assert band.method == "nasm"
        assert len(band.validity) == 4
        assert band.simultaneous

    def test_width_shrinks_with_n_and_delta(self):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        curve = RiskCurve(g, np.full(3, 0.5), sample_size=10**8)
        band = nasm_band(curve, 0.99, side="upper")
        assert np.all(band.upper - curve.values < 1e-3)

    def test_clamping(self):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        curve = RiskCurve(g, np.full(3, 0.95), sample_size=100)
        band = nasm_band(curve, 0.1, side="upper")
        assert np.all(band.upper == 1.0)

    def test_two_sided_splits_delta(self):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        curve = RiskCurve(g, np.full(3, 0.5), sample_size=400)
        band = nasm_band(curve, 0.1, side="two-sided")
        assert band.width_info == pytest.approx(nasm_width(400, 0.05))
        assert band.lower is not None and band.upper is not None

    def test_analytic_curve_rejected(self):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        curve = RiskCurve(g, np.full(3, 0.5), sample_size=0)
        with pytest.raises(ValueError):
            nasm_band(curve, 0.1)


class TestTailBound:
    def test_frozen_values(self):
        assert tail_bound(1.0) == pytest.approx(0.36787944117144233, abs=1e-16)
        assert tail_bound(1.5) == pytest.approx(0.030197383422318497, abs=1e-16)

    def test_small_lambda_limit(self):
        assert tail_bound(1e-12) == pytest.approx(math.e, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_bound(0.0)
        with pytest.raises(ValueError):
            tail_bound(-1.0)

    def test_log_concavity_second_difference(self):
        lams = np.linspace(0.05, 3.0, 60)
        neg_log = -np.log([tail_bound(l) for l in lams])
        second = np.diff(neg_log, 2)
        assert np.all(second >= -1e-12)


class TestWsrUpper:
    def test_all_ones_clamps_to_one(self):
        for n in (1, 5, 40):
            assert wsr_upper(np.ones(n), 0.1) == 1.0

    def test_single_zero_loss_closed_form(self):
        # one observation of 0 at delta 0.5: the betting fraction is
        # min(1, sqrt(2 ln 2 / 0.25)) = 1, so capital 1 + p never exceeds 2
        # for p <= 1 and the bound clamps to 1
        assert wsr_upper(np.array([0.0]), 0.5) == 1.0

    def test_constant_zero_matches_grid_scan_oracle(self):
        losses = np.zeros(100)
        oracle = wsr_oracle_scan(losses, 0.1)
        value = wsr_upper(losses, 0.1)
        assert value == pytest.approx(oracle, abs=2e-6)
        assert value == pytest.approx(0.023797592148184776, abs=1e-9)

    def test_random_sequences_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            losses = rng.random(60)
            assert wsr_upper(losses, 0.2) == pytest.approx(
                wsr_oracle_scan(losses, 0.2), abs=2e-6
            )

    def test_nonincreasing_in_delta(self):
        losses = np.random.default_rng(1).random(80) * 0.5
        assert wsr_upper(losses, 0.05) >= wsr_upper(losses, 0.1) >= wsr_upper(losses, 0.3)

    def test_deterministic(self):
        losses = np.random.default_rng(2).random(50)
        assert wsr_upper(losses, 0.1) == wsr_upper(losses, 0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            wsr_upper(np.array([1.2]), 0.1)
        with pytest.raises(ValueError):
            wsr_upper(np.array([0.5]), 0.0)
        # a NaN minimum or maximum fails both range comparisons
        with pytest.raises(ValueError, match=r"losses must lie in \[0, 1\]"):
            wsr_upper(np.array([np.nan, 0.5, 0.2]), 0.1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_capital_nondecreasing_in_p(self, seed):
        rng = np.random.default_rng(seed)
        losses = rng.random(30)
        delta = rng.uniform(0.02, 0.5)
        lam = _wsr_lambdas(losses, delta)
        p = rng.uniform(0.0, 0.999)
        eps = 1e-4
        def max_log_capital(pp):
            with np.errstate(divide="ignore"):
                return np.cumsum(np.log(1.0 - lam * (losses - pp))).max()
        assert max_log_capital(p + eps) >= max_log_capital(p) - 1e-12


class TestWsrBand:
    def test_lambdas_equal_straight_line_formula(self):
        # the in-place columnwise computation keeps the arithmetic bit for bit
        rng = np.random.default_rng(12)
        for n, delta in ((1, 0.1), (2, 0.5), (40, 0.05), (300, 0.1)):
            values = rng.random((n, 7))
            values[:, 0] = 0.0
            lam = _wsr_lambdas(values, delta)
            for j in range(values.shape[1]):
                assert np.array_equal(lam[:, j], oracle_lambdas(values[:, j], delta))
            assert np.array_equal(_wsr_lambdas(values[:, 1], delta), lam[:, 1])

    def test_constant_one_matrix(self):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        m = LossMatrix(g, np.ones((10, 3)))
        band = wsr_band(m, 0.1)
        assert np.all(band.upper == 1.0)
        assert band.method == "pointwise"
        assert not band.simultaneous

    def test_duplicated_column_identical_bound(self):
        g = ParameterGrid.linspace(0.0, 1.0, 2)
        col = np.random.default_rng(5).random(40)
        m = LossMatrix(g, np.column_stack([col, col]))
        band = wsr_band(m, 0.1)
        assert band.upper[0] == band.upper[1]

    def test_matches_columnwise_wsr_upper(self):
        # one bisection serves both: a column's bound is wsr_upper's, bit for bit
        rng = np.random.default_rng(11)
        for n in (1, 2, 30):
            columns = [np.zeros(n), np.ones(n), (rng.random(n) < 0.4).astype(float),
                       rng.random(n), np.full(n, 0.3)]
            grid = ParameterGrid.linspace(0.0, 1.0, len(columns))
            m = LossMatrix(grid, np.column_stack(columns))
            for delta in (0.05, 0.15, 0.5):
                band = wsr_band(m, delta)
                for j, col in enumerate(columns):
                    assert wsr_upper(col, delta) == band.upper[j]

    def test_matches_oracle_scan_per_column(self):
        rng = np.random.default_rng(11)
        values = rng.random((30, 6))
        values[:, 0] = 0.0
        values[:, 1] = (values[:, 1] < 0.5).astype(float)
        values[:, 2] **= 3
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 6), values)
        for delta in (0.15, 0.3):
            band = wsr_band(m, delta)
            for j in range(6):
                assert band.upper[j] == pytest.approx(
                    wsr_oracle_scan(values[:, j], delta), abs=2e-6)


class TestWsrRejects:
    def test_agrees_with_band_comparison(self):
        rng = np.random.default_rng(21)
        g = ParameterGrid.linspace(0.0, 1.0, 8)
        m = LossMatrix(g, rng.random((50, 8)))
        band = wsr_band(m, 0.1)
        # stay clear of the bisection tolerance around the boundary
        for offset in (-0.01, 0.01):
            p = np.clip(band.upper + offset, 0.0, 1.0)
            expected = p > band.upper
            assert np.array_equal(wsr_rejects(m, p, 0.1), expected)

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5, np.inf])
    def test_candidate_mean_outside_unit_interval_refused(self, bad):
        g = ParameterGrid.linspace(0.0, 1.0, 3)
        m = LossMatrix(g, np.full((10, 3), 0.5))
        p = np.array([0.2, bad, 0.7])
        with pytest.raises(ValueError, match="candidate means"):
            wsr_rejects(m, p, 0.1)

    def test_candidate_means_at_the_ends_accepted(self):
        g = ParameterGrid.linspace(0.0, 1.0, 2)
        m = LossMatrix(g, np.full((10, 2), 0.5))
        assert wsr_rejects(m, np.array([0.0, 1.0]), 0.1).tolist() == [False, True]

    def test_rejection_region_is_up_set(self):
        rng = np.random.default_rng(9)
        losses = rng.random((40, 1)) * 0.6
        lam = _wsr_lambdas(losses, 0.1)
        thr = math.log(1.0 / 0.1)
        grid_p = np.linspace(0.0, 1.0, 101)
        flags = [bool(_capital_rejects(losses, lam, p, thr)[0]) for p in grid_p]
        # once rejection starts it never stops
        assert flags == sorted(flags)


class TestWsrBlocks:
    """The betting test runs block by block and equals the whole-array form bit for bit."""

    @staticmethod
    def matrix(n, m, seed):
        # columns cycle through all-0, all-1, constant, Bernoulli and uniform
        rng = np.random.default_rng(seed)
        values = rng.random((n, m))
        values[:, 0::5] = 0.0
        values[:, 1::5] = 1.0
        values[:, 2::5] = 0.3
        values[:, 3::5] = values[:, 3::5] < 0.4
        return LossMatrix(ParameterGrid.linspace(0.0, 1.0, m), values)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 130, 1000])
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_bit_identical_to_whole_array(self, monkeypatch, n, m):
        matrix = self.matrix(n, m, 1000 * n + m)
        delta = 0.1
        values = matrix.values
        expected = whole_bisect(values, delta)
        lam = whole_lambdas(values, delta)
        thr = math.log(1.0 / delta)
        # p at each column's own bound and one ulp either side of it
        candidates = [expected, np.nextafter(expected, -np.inf).clip(0.0, 1.0),
                      np.nextafter(expected, np.inf).clip(0.0, 1.0)]
        for block in (riskbands.bounds.WSR_BLOCK, 1, 7, m):
            monkeypatch.setattr(riskbands.bounds, "WSR_BLOCK", block)
            assert np.array_equal(wsr_band(matrix, delta).upper, expected), block
            for p in candidates:
                assert np.array_equal(wsr_rejects(matrix, p, delta),
                                      whole_capital_rejects(values, lam, p, thr)), block
        for j in sorted({0, 1, 2, 3, 63, 64, m // 2, m - 1} & set(range(m))):
            assert wsr_upper(values[:, j], delta) == expected[j]

    @pytest.mark.parametrize("m", [1, 65, 1000])
    @pytest.mark.parametrize("n", [1, 1000])
    def test_log_capital_bit_identical_to_whole_array(self, n, m):
        # the test flips exactly at each column's largest log capital, so
        # thresholds at it and one ulp below it see its last bit
        matrix = self.matrix(n, m, 7 * n + m)
        delta = 0.1
        values = matrix.values
        lam = whole_lambdas(values, delta)
        p = np.random.default_rng(m).random(m)
        top = whole_log_capital(values, lam, p)
        finite = np.isfinite(top)
        blocks = list(_wsr_blocks(values, delta))
        assert np.array_equal(np.hstack([b_lam for _, _, b_lam in blocks]), lam)
        for cols, block, b_lam in blocks:
            at = _capital_rejects(block, b_lam, p[cols], top[cols])
            below = _capital_rejects(block, b_lam, p[cols], np.nextafter(top[cols], -np.inf))
            assert not at.any()
            assert np.array_equal(below, finite[cols])

    def test_working_memory_is_a_few_blocks(self):
        # the whole-array form peaked at 24 MB; an n x 64 block of float64 is 0.5 MB
        spec = GeneratorSpec("equicorrelated-gaussian-cdf", default_synthetic_grid(), rho=0.2)
        matrix, truth = spec.realize(1000, SeedRecord(3))
        assert matrix.values.shape == (1000, 1000)
        tracemalloc.start()
        try:
            peaks = []
            for call in (lambda: wsr_rejects(matrix, truth, 0.1), lambda: wsr_band(matrix, 0.1)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                call()
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 4_000_000, peaks


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPairedColumns:
    """Contiguous blocks and two-column running sums change no bit of the betting test."""

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("k", [1, 2, 7, 63, 64, 65])
    def test_cumsum0_equals_cumsum(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        wide = rng.random((n, k + 3))
        for a in (wide[:, :k].copy(), np.asfortranarray(wide[:, :k]), wide[:, 1:k + 1],
                  wide[:, :k].copy()[::-1], wide[:, 0]):
            want = np.cumsum(a, axis=0)
            assert same_bits(_cumsum0(a), want)
            out = np.empty_like(want)
            assert _cumsum0(a, out=out) is out and same_bits(out, want)
            inplace = a.copy()
            _cumsum0(inplace, out=inplace)
            assert same_bits(inplace, want)

    @pytest.mark.parametrize("n", [1, 2, 1000])
    @pytest.mark.parametrize("dense", [False, True])
    def test_blocks_equal_the_whole_array(self, monkeypatch, n, dense):
        spec = GeneratorSpec("equicorrelated-gaussian-cdf", default_synthetic_grid(130), rho=0.2)
        matrix, truth = spec.realize(n, SeedRecord(n))
        assert matrix._steps is not None
        if dense:
            matrix = LossMatrix(matrix.grid, matrix.values.copy(), matrix.orientation)
        delta, values = 0.1, matrix.values
        lam = whole_lambdas(values, delta)
        thr = math.log(1.0 / delta)
        upper = whole_bisect(values, delta)
        p = np.random.default_rng(n).random(matrix.m)
        for block in (1, 7, 63, 64, 65):
            monkeypatch.setattr(riskbands.bounds, "WSR_BLOCK", block)
            for cols, b_values, b_lam in _wsr_blocks(values, delta):
                assert b_values.flags.c_contiguous
                assert same_bits(b_lam, lam[:, cols]), (block, cols)
                # a strided column view takes the plain cumulative sum
                assert same_bits(_wsr_lambdas(values[:, cols], delta), lam[:, cols])
                for q in (p[cols], truth[cols]):
                    assert same_bits(_capital_rejects(b_values, b_lam, q, thr),
                                     whole_capital_rejects(values[:, cols], lam[:, cols], q,
                                                           thr))
            assert same_bits(wsr_band(matrix, delta).upper, upper), block
            assert same_bits(wsr_rejects(matrix, truth, delta),
                             whole_capital_rejects(values, lam, truth, thr)), block
