import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbands import (
    BinaryScorePanel,
    GeneratorSpec,
    LossMatrix,
    ParameterGrid,
    SeedRecord,
    batch,
    empirical_risk,
    monotonize,
    threshold_losses,
    validate,
)
from riskbands import losses
from riskbands.harness import EQUICORRELATED
from riskbands.losses import ValidationReport


def grid(*values):
    return ParameterGrid(np.array(values, dtype=float))


class TestParameterGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            grid(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            grid(1.0, 0.5)

    def test_single_point_allowed(self):
        assert len(grid(0.3)) == 1

    def test_values_frozen(self):
        g = grid(0.1, 0.2)
        with pytest.raises(ValueError):
            g.values[0] = 5.0

    def test_linspace(self):
        g = ParameterGrid.linspace(0.0, 1.0, 11)
        assert len(g) == 11
        assert g.values[0] == 0.0 and g.values[-1] == 1.0


class TestLossMatrix:
    def test_bounds_enforced(self):
        g = grid(0.0, 1.0)
        with pytest.raises(ValueError):
            LossMatrix(g, [[0.0, 1.5]])
        with pytest.raises(ValueError):
            LossMatrix(g, [[-0.1, 0.5]])

    @pytest.mark.parametrize("values, message", [
        ([[0.5, np.nan]], "finite"),
        ([[0.5, np.inf]], "finite"),
        ([[2.0, -np.inf]], "finite"),  # non-finite is named before out-of-range
        ([[0.5, 1.5]], r"lie in \[0, 1\]"),
        ([[-0.1, 0.5]], r"lie in \[0, 1\]"),
    ])
    def test_bad_entry_names_its_kind(self, values, message):
        with pytest.raises(ValueError, match=message):
            LossMatrix(grid(0.0, 1.0), values)
        with pytest.raises(ValueError, match=message):
            LossMatrix._owning(grid(0.0, 1.0), np.array(values), "unconstrained")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            LossMatrix(grid(0.0, 1.0), [[0.5, 0.5, 0.5]])
        with pytest.raises(ValueError):
            LossMatrix._owning(grid(0.0, 1.0), np.full((1, 3), 0.5), "unconstrained")

    def test_constructor_copies(self):
        values = np.array([[0.25, 0.5], [0.75, 1.0]])
        m = LossMatrix(grid(0.0, 1.0), values)
        values[0, 0] = 0.0
        assert m.values[0, 0] == 0.25
        assert values.flags.writeable and not m.values.flags.writeable

    def test_owning_path_keeps_the_array(self):
        values = np.array([[0.25, 0.5], [0.75, 1.0]])
        m = LossMatrix._owning(grid(0.0, 1.0), values, "nondecreasing")
        assert m.values is values and not values.flags.writeable
        assert m.orientation == "nondecreasing" and m._steps is None
        with pytest.raises(ValueError):
            LossMatrix._owning(grid(0.0, 1.0), values, "sideways")

    def test_orientation_is_declared_not_enforced(self):
        # a violated declaration constructs fine and is caught by validate()
        m = LossMatrix(grid(0.0, 1.0), [[0.5, 0.6]], "nonincreasing")
        assert not validate(m).passed


class TestValidate:
    def test_constant_matrix_passes_nonincreasing(self):
        m = LossMatrix(grid(0.0, 0.5, 1.0), np.full((4, 3), 0.7), "nonincreasing")
        assert validate(m).passed

    def test_strict_increase_fails_at_second_column(self):
        m = LossMatrix(grid(0.0, 1.0), [[0.5, 0.6]], "nonincreasing")
        report = validate(m)
        assert not report.passed
        assert report.message == "row 0 violates nonincreasing at column 1"
        assert (report.first_row, report.first_col) == (0, 1)

    def test_fdp_losses_fail_nonincreasing(self):
        # the false discovery proportion is not monotone in the threshold
        scores = np.array([[0.9, 0.6, 0.2], [0.8, 0.5, 0.4]])
        labels = np.array([[1, 0, 1], [0, 1, 0]])
        panel = BinaryScorePanel(scores, labels)
        fdp = threshold_losses(panel, ParameterGrid.linspace(0.0, 1.0, 21), "FDP")
        declared = LossMatrix(fdp.grid, fdp.values, "nonincreasing")
        assert not validate(declared).passed

    def test_tolerance_flag(self):
        m = LossMatrix(grid(0.0, 1.0), [[0.5, 0.5 + 1e-12]], "nonincreasing")
        assert not validate(m).passed
        assert validate(m, tolerance=1e-9).passed

    def test_stepped_matrix_passes_and_its_dense_copy_is_still_scanned(self):
        spec = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-2.0, 2.0, 30), rho=0.2)
        stepped, _ = spec.realize(50, SeedRecord(4))
        assert stepped._steps is not None and validate(stepped).passed
        values = stepped.values.copy()
        assert validate(LossMatrix(stepped.grid, values, "nondecreasing")).passed
        # one drop in an otherwise equal-valued copy: the scan must find it
        values[17, 12] = values[17, 11] - 0.2
        report = validate(LossMatrix(stepped.grid, values, "nondecreasing"))
        assert not report.passed
        assert (report.first_row, report.first_col) == (17, 12)
        # the generator's step form is taken as given: no scan reads the values
        trusted = LossMatrix._owning(stepped.grid, values, "nondecreasing",
                                     steps=stepped._steps.copy())
        assert validate(trusted).passed


def reference_validate(matrix, tolerance=0.0):
    """Whole-matrix validate that the row-blocked one must agree with."""
    v = matrix.values
    if matrix.orientation == "unconstrained" or matrix.m == 1:
        return ValidationReport(True)
    diffs = np.diff(v, axis=1)
    bad = diffs > tolerance if matrix.orientation == "nonincreasing" else diffs < -tolerance
    if bad.any():
        r, c = np.argwhere(bad)[0]
        return ValidationReport(False, int(r), int(c) + 1,
                                f"row {r} violates {matrix.orientation} at column {c + 1}")
    return ValidationReport(True)


class TestRowBlockedValidate:
    block = losses._ROW_BLOCK

    def nondecreasing(self, n, m=6):
        return np.tile(np.linspace(0.1, 0.9, m), (n, 1))

    @pytest.mark.parametrize("rows", [
        [(0, 3)],
        [("last", 1)],
        [("block", 2)],
        [("block-1", 5), ("block", 1)],
        [("block", 4), ("block+1", 1)],
        [("2block", 5)],
        [(0, 2), ("last", 4)],
    ])
    def test_first_violation_across_blocks(self, rows):
        n = 2 * self.block + 3
        values = self.nondecreasing(n)
        at = {"last": n - 1, "block": self.block, "block-1": self.block - 1,
              "block+1": self.block + 1, "2block": 2 * self.block}
        for row, col in rows:
            r = at.get(row, row)
            values[r, col] = values[r, col - 1] - 0.05
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 6), values, "nondecreasing")
        report = validate(m)
        assert report == reference_validate(m)
        r0, c0 = rows[0]
        assert (report.first_row, report.first_col) == (at.get(r0, r0), c0)

    @pytest.mark.parametrize("orientation", ["nonincreasing", "nondecreasing"])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 1e-3])
    def test_tolerance_across_blocks(self, orientation, tolerance):
        n = self.block + 5
        rng = np.random.default_rng(3)
        values = np.sort(rng.random((n, 8)), axis=1)
        if orientation == "nonincreasing":
            values = values[:, ::-1].copy()
        step = 1 if orientation == "nondecreasing" else -1
        values[self.block - 1, 3] = values[self.block - 1, 2] - step * 5e-10  # within 1e-9
        values[self.block + 2, 6] = values[self.block + 2, 5] - step * 5e-4  # within 1e-3
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 8), values, orientation)
        report = validate(m, tolerance=tolerance)
        assert report == reference_validate(m, tolerance=tolerance)
        expected = {0.0: (self.block - 1, 3), 1e-9: (self.block + 2, 6), 1e-3: (None, None)}
        assert (report.first_row, report.first_col) == expected[tolerance]


class TestThresholdLosses:
    def test_hand_example(self):
        # scores [0.9, 0.4, 0.1], labels [1, 0, 1], t = 0.5 -> cutoff 0.5,
        # predictions [1, 0, 0]: one missed positive of two, no false positive
        panel = BinaryScorePanel([[0.9, 0.4, 0.1]], [[1, 0, 1]])
        g = grid(0.5)
        assert threshold_losses(panel, g, "FNP").values[0, 0] == 0.5
        assert threshold_losses(panel, g, "FPP").values[0, 0] == 0.0
        assert threshold_losses(panel, g, "FDP").values[0, 0] == 0.0
        assert threshold_losses(panel, g, "SetSize").values[0, 0] == pytest.approx(1 / 3)

    def test_no_positive_labels_gives_zero_fnp(self):
        panel = BinaryScorePanel([[0.2, 0.8, 0.5]], [[0, 0, 0]])
        fnp = threshold_losses(panel, ParameterGrid.linspace(0.0, 1.0, 7), "FNP")
        assert np.all(fnp.values == 0.0)

    def test_threshold_one_predicts_every_positive_score(self):
        panel = BinaryScorePanel([[0.3, 0.9, 0.001]], [[1, 1, 1]])
        ss = threshold_losses(panel, grid(1.0), "SetSize")
        assert ss.values[0, 0] == 1.0
        # a score of exactly zero stays unpredicted (strict inequality)
        panel0 = BinaryScorePanel([[0.0, 0.9]], [[1, 1]])
        ss0 = threshold_losses(panel0, grid(1.0), "SetSize")
        assert ss0.values[0, 0] == 0.5

    def test_orientations(self):
        assert threshold_losses(_panel(), _cgrid(), "FNP").orientation == "nonincreasing"
        assert threshold_losses(_panel(), _cgrid(), "FPP").orientation == "nondecreasing"
        assert threshold_losses(_panel(), _cgrid(), "SetSize").orientation == "nondecreasing"
        assert threshold_losses(_panel(), _cgrid(), "FDP").orientation == "unconstrained"

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_score_outside_unit_interval_rejected(self, bad):
        # a NaN fails the range test too: it would read as a class never predicted
        with pytest.raises(ValueError, match=r"scores must lie in \[0, 1\]"):
            BinaryScorePanel([[bad, 0.5]], [[1, 0]])

    def test_grid_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            threshold_losses(_panel(), grid(-0.5, 0.5), "FNP")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fnp_always_validates_nonincreasing(self, seed):
        rng = np.random.default_rng(seed)
        panel = BinaryScorePanel(rng.random((5, 4)), rng.integers(0, 2, (5, 4)))
        fnp = threshold_losses(panel, ParameterGrid.linspace(0.0, 1.0, 17), "FNP")
        assert validate(fnp).passed
        fpp = threshold_losses(panel, ParameterGrid.linspace(0.0, 1.0, 17), "FPP")
        assert validate(fpp).passed


def reference_threshold_losses(panel, grid, kind):
    """The (n, K, m) prediction-tensor form that threshold_losses must match bit for bit."""
    scores, pos = panel.scores, panel.labels == 1
    K = scores.shape[1]
    n_pos = pos.sum(axis=1)
    preds = scores[:, :, None] > (1.0 - grid.values)[None, None, :]
    fp = (preds & ~pos[:, :, None]).sum(axis=1)
    if kind == "FNP":
        miss = (~preds & pos[:, :, None]).sum(axis=1)
        return miss / np.maximum(1, n_pos).astype(float)[:, None]
    if kind == "FPP":
        return fp / np.maximum(1, K - n_pos).astype(float)[:, None]
    if kind == "FDP":
        return fp / np.maximum(1, preds.sum(axis=1)).astype(float)
    return preds.sum(axis=1) / float(K)


def random_panel(rng, n, K, t):
    """Scores with exact 0s, 1s and 1 - t[j] ties; rows with no and with all positives."""
    scores = rng.random((n, K))
    draw = rng.random((n, K))
    scores[draw < 0.1] = 0.0
    scores[(draw >= 0.1) & (draw < 0.2)] = 1.0
    tied = (draw >= 0.2) & (draw < 0.4)
    scores[tied] = (1.0 - t)[rng.integers(0, t.size, tied.sum())]
    labels = (rng.random((n, K)) < rng.random()).astype(int)
    labels[0] = 0
    labels[-1] = 1
    return BinaryScorePanel(scores, labels)


class TestThresholdLossesStepForm:
    GRIDS = {
        "one-point": np.array([0.5]),
        "unit-ends": np.linspace(0.0, 1.0, 11),
        "random": np.sort(np.random.default_rng(1).random(300)),
        # 1 - t rounds to 1.0 at every point: the cutoffs tie
        "tied-cutoffs": np.arange(8) * 1e-17,
    }

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    @pytest.mark.parametrize("n, K", [(1, 1), (1, 6), (9, 1), (40, 7)])
    def test_bit_identical_to_the_tensor_form(self, kind, grid_name, n, K):
        t = self.GRIDS[grid_name]
        rng = np.random.default_rng([n, K, t.size])
        g = ParameterGrid(t)
        for _ in range(5):
            panel = random_panel(rng, n, K, t)
            got = threshold_losses(panel, g, kind).values
            want = reference_threshold_losses(panel, g, kind)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("kind, factor", [
        ("FNP", 1.25), ("FPP", 1.25), ("SetSize", 1.25), ("FDP", 2.25)])
    def test_peak_memory_is_about_the_output(self, kind, factor):
        # an n x m output and, for FDP only, one n x m count array beside it:
        # no n x K x m tensor and no copy
        rng = np.random.default_rng(2)
        panel = BinaryScorePanel(rng.random((2000, 5)), rng.integers(0, 2, (2000, 5)))
        g = ParameterGrid.linspace(0.0, 1.0, 1000)
        threshold_losses(panel, ParameterGrid.linspace(0.0, 1.0, 3), kind)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = threshold_losses(panel, g, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == 16_000_000
        assert peak - before <= factor * out.values.nbytes


def reference_step_counts(bins, m):
    """The scatter-plus-cumsum build that the run-length fill replaced."""
    n = bins.shape[0]
    counts = np.zeros((n, m))
    rows = np.arange(n)
    for col in bins.T:
        inside = col < m
        counts[rows[inside], col[inside]] += 1.0
    np.cumsum(counts, axis=1, out=counts)
    return counts


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestStepCounts:
    @pytest.mark.parametrize("n, K, m", [(1, 1, 1), (1, 5, 1), (9, 1, 1), (1, 1, 40),
                                         (1, 6, 40), (50, 1, 30), (64, 9, 3), (300, 5, 1000)])
    def test_bit_identical_to_the_scatter_and_cumsum(self, n, K, m):
        rng = np.random.default_rng([n, K, m])
        levels = np.arange(K + 1) / K
        # bins of m (past the grid), bins above m, and few distinct bins, so
        # that rows repeat bins; then rows wholly past the grid, wholly at its
        # start, and one bin repeated K times
        cases = [rng.integers(0, m + 1, (n, K)), rng.integers(0, m + 3, (n, K)),
                 rng.integers(0, 2, (n, K)), np.full((n, K), m), np.zeros((n, K), dtype=int),
                 np.full((n, K), m // 2)]
        for bins in cases:
            want = reference_step_counts(bins, m)
            got = losses._step_counts(bins, m)
            assert same_bits(got, want) and got.flags.c_contiguous
            assert same_bits(losses._step_counts(bins, m, levels), want / K)
            assert same_bits(losses._step_counts(bins, m, 1.0 - levels), 1.0 - want / K)

    @pytest.mark.parametrize("n, batch_size, m", [(1, 5, 1000), (300, 5, 1000), (40, 1, 25),
                                                  (40, 5, 1), (1, 1, 1)])
    def test_generated_values_match_the_old_arithmetic(self, n, batch_size, m):
        # the generator wrote counts / K and then 1 - counts / K in place
        spec = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-2.5, 2.5, m), rho=0.2,
                             batch_size=batch_size, tradeoff_shift=0.7)
        seed = SeedRecord(12).child(n)
        z = spec._draw_batches(n, seed.generator())
        t = spec.grid.values
        primary = reference_step_counts(np.searchsorted(t, z), m)
        primary /= batch_size
        companion = reference_step_counts(np.searchsorted(t + 0.7, z), m)
        companion /= batch_size
        np.subtract(1.0, companion, out=companion)
        assert same_bits(spec.realize(n, seed)[0].values, primary)
        paired, paired_companion, _ = spec.realize_pair(n, seed)
        assert same_bits(paired.values, primary)
        assert same_bits(paired_companion.values, companion)

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    @pytest.mark.parametrize("n, K", [(1, 1), (1, 6), (9, 1), (40, 7)])
    def test_threshold_losses_match_the_old_build(self, monkeypatch, kind, n, K):
        rng = np.random.default_rng([n, K, 3])
        for t in (np.array([0.5]), np.linspace(0.0, 1.0, 11), np.sort(rng.random(300))):
            panel = random_panel(rng, n, K, t)
            got = threshold_losses(panel, ParameterGrid(t), kind).values
            with monkeypatch.context() as patch:
                patch.setattr(losses, "_step_counts", reference_step_counts)
                want = threshold_losses(panel, ParameterGrid(t), kind).values
            assert same_bits(got, want)


def _panel():
    return BinaryScorePanel([[0.9, 0.4, 0.1], [0.2, 0.7, 0.6]], [[1, 0, 1], [0, 1, 1]])


def _cgrid():
    return ParameterGrid.linspace(0.0, 1.0, 9)


class TestMonotonize:
    def test_running_max_example(self):
        m = LossMatrix(grid(0.0, 0.5, 1.0), [[0.2, 0.5, 0.3]])
        out = monotonize(m, "running-max")
        assert out.values.tolist() == [[0.2, 0.5, 0.5]]
        assert out.orientation == "nondecreasing"

    def test_running_min_example(self):
        m = LossMatrix(grid(0.0, 0.5, 1.0), [[0.2, 0.5, 0.3]])
        out = monotonize(m, "running-min")
        assert out.values.tolist() == [[0.2, 0.2, 0.2]]
        assert out.orientation == "nonincreasing"

    def test_idempotent_on_nondecreasing(self):
        m = LossMatrix(grid(0.0, 0.5, 1.0), [[0.1, 0.4, 0.9]], "nondecreasing")
        out = monotonize(m, "running-max")
        assert np.array_equal(out.values, m.values)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sandwich_and_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 8), rng.random((3, 8)))
        low = monotonize(m, "running-min")
        high = monotonize(m, "running-max")
        assert np.all(low.values <= m.values)
        assert np.all(m.values <= high.values)
        assert np.array_equal(monotonize(low, "running-min").values, low.values)
        assert np.array_equal(monotonize(high, "running-max").values, high.values)
        assert validate(low).passed and validate(high).passed


class TestBatch:
    def test_two_row_average(self):
        m = LossMatrix(grid(0.0, 1.0), [[1.0, 0.0], [0.0, 0.0]])
        out = batch(m, 2)
        assert out.values.tolist() == [[0.5, 0.0]]

    def test_k_one_is_identity(self):
        m = LossMatrix(grid(0.0, 1.0), [[0.3, 0.4], [0.6, 0.1]])
        assert np.array_equal(batch(m, 1).values, m.values)

    def test_remainder_dropped_with_report(self):
        m = LossMatrix(grid(0.0, 1.0), np.random.default_rng(0).random((5, 2)))
        with pytest.warns(UserWarning, match="dropping 1"):
            out = batch(m, 2)
        assert out.n == 2

    def test_bad_k(self):
        m = LossMatrix(grid(0.0, 1.0), [[0.3, 0.4]])
        with pytest.raises(ValueError):
            batch(m, 0)
        with pytest.raises(ValueError):
            batch(m, 2)

    @given(st.integers(0, 2**31 - 1), st.sampled_from([1, 2, 3, 6]))
    @settings(max_examples=40, deadline=None)
    def test_mean_commutes_when_k_divides_n(self, seed, k):
        rng = np.random.default_rng(seed)
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5), rng.random((6, 5)))
        direct = empirical_risk(m).values
        batched = empirical_risk(batch(m, k)).values
        assert np.allclose(direct, batched, atol=1e-12)

    def test_orientation_preserved(self):
        m = LossMatrix(grid(0.0, 1.0), [[0.8, 0.2], [0.6, 0.1]], "nonincreasing")
        assert batch(m, 2).orientation == "nonincreasing"
