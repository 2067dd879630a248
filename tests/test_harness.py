import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from riskbands import (
    GeneratorSpec,
    LossMatrix,
    MethodSpec,
    ParameterGrid,
    SeedRecord,
    conservatism,
    default_synthetic_grid,
    empirical_risk,
    miscoverage_anywhere,
    miscoverage_selected,
    oracle_sup_quantile,
    run_metrics,
    select_elbow,
    select_even_tradeoff,
    sublevel_set,
    surrogate_generator,
    wsr_band,
)
import riskbands.harness
from riskbands.harness import CONSTANT, EQUICORRELATED, METHOD_NAMES, METRICS

GRID = ParameterGrid.linspace(-3.0, 3.0, 41)


def spec_for(rho, grid=GRID):
    return GeneratorSpec(EQUICORRELATED, grid, rho=rho)


def equicorrelated_matrix(n, seed):
    return spec_for(0.2).realize(n, SeedRecord(seed))[0]


class TestGenerator:
    def test_truth_at_zero_is_half_for_all_rhos(self):
        g = ParameterGrid(np.array([0.0]))
        for rho in (-0.2, 0.2, 0.6):
            assert spec_for(rho, g).truth_values()[0] == 0.5

    def test_truth_matches_scipy_normal_cdf(self):
        grid = ParameterGrid.linspace(-8.0, 8.0, 100_000)
        truth = spec_for(0.2, grid).truth_values()
        assert np.abs(truth - ndtr(grid.values)).max() <= 4.5e-16

    def test_realize_pair_primary_matches_realize(self):
        # the run loop realizes with the companion whenever conservatism is
        # asked for, and the other metrics then read that primary matrix
        rng = np.random.default_rng(25)
        base = LossMatrix(GRID, np.minimum.accumulate(rng.random((60, 41)), axis=1),
                          "nonincreasing")
        companion = LossMatrix(GRID, np.maximum.accumulate(rng.random((60, 41)), axis=1),
                               "nondecreasing")
        specs = (spec_for(0.2), GeneratorSpec(CONSTANT, GRID, value=0.3),
                 surrogate_generator(base, companion=companion))
        for spec in specs:
            for run in range(5):
                seed = SeedRecord(26).child(run)
                matrix, truth = spec.realize(30, seed)
                primary, _, pair_truth = spec.realize_pair(30, seed)
                assert np.array_equal(matrix.values, primary.values)
                assert matrix.orientation == primary.orientation
                assert np.array_equal(truth, pair_truth)

    def test_rho_range_validated(self):
        spec_for(-0.25)
        spec_for(1.0)
        with pytest.raises(ValueError):
            spec_for(-0.3)
        with pytest.raises(ValueError):
            spec_for(1.1)

    @pytest.mark.parametrize("shift", [float("nan"), float("inf"), -float("inf")])
    def test_tradeoff_shift_must_be_finite(self, shift):
        for family in (EQUICORRELATED, CONSTANT):
            with pytest.raises(ValueError, match="tradeoff_shift must be finite"):
                GeneratorSpec(family, GRID, rho=0.2, tradeoff_shift=shift)

    def test_losses_live_on_fifths(self):
        matrix = equicorrelated_matrix(50, 0)
        assert matrix.orientation == "nondecreasing"
        assert set(np.unique(matrix.values * 5)).issubset({0, 1, 2, 3, 4, 5})

    def test_marginal_risk_matches_normal_cdf(self):
        # 1e5 samples: empirical risk within 4 MC standard errors everywhere,
        # and within 0.005 of Phi(1) at t=1
        grid = ParameterGrid.linspace(-3.0, 3.0, 41)
        for rho in (-0.2, 0.6):
            matrix, truth = spec_for(rho, grid).realize(100_000, SeedRecord(11))
            curve = empirical_risk(matrix)
            se = np.sqrt(matrix.values.var(axis=0, ddof=1) / matrix.n)
            err = np.abs(curve.values - truth)
            assert np.all(err <= 4.0 * np.maximum(se, 1e-6))
        g1 = ParameterGrid(np.array([1.0]))
        matrix, _ = spec_for(0.2, g1).realize(100_000, SeedRecord(12))
        assert abs(empirical_risk(matrix).values[0] - ndtr(1.0)) < 0.005

    def test_batch_covariance_structure(self):
        # empirical covariance of the latent batches matches rho off-diagonal
        spec = spec_for(0.6)
        z = spec._draw_batches(200_000, SeedRecord(5).generator())
        cov = np.cov(z.T)
        assert np.allclose(np.diag(cov), 1.0, atol=0.02)
        off = cov[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 0.6, atol=0.02)

    def test_negative_rho_sampling(self):
        spec = spec_for(-0.25)
        z = spec._draw_batches(100_000, SeedRecord(6).generator())
        off = np.cov(z.T)[~np.eye(5, dtype=bool)]
        assert np.allclose(off, -0.25, atol=0.02)

    def test_realize_deterministic(self):
        a, _ = spec_for(0.2).realize(20, SeedRecord(3))
        b, _ = spec_for(0.2).realize(20, SeedRecord(3))
        assert np.array_equal(a.values, b.values)

    def test_constant_family(self):
        spec = GeneratorSpec(CONSTANT, GRID, value=0.3)
        matrix, truth = spec.realize(10, SeedRecord(0))
        assert np.all(matrix.values == 0.3)
        assert np.all(truth == 0.3)

    @pytest.mark.parametrize("n", [1, 7, 400])
    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_realized_values_are_the_tensor_mean(self, n, batch_size):
        # grids some draws overshoot at both ends, one no draw reaches, and
        # one whose points are draws themselves (z <= t holds at equality)
        seed = SeedRecord(50).child(n)
        drawn = GeneratorSpec(EQUICORRELATED, GRID, rho=0.3, batch_size=batch_size)
        ties = ParameterGrid(np.unique(drawn._draw_batches(n, seed.generator())[:3]))
        for grid in (ParameterGrid.linspace(-1.5, 1.5, 23), ParameterGrid.linspace(-1.0, 2.0, 40),
                     ParameterGrid.linspace(9.0, 10.0, 3), ties):
            spec = GeneratorSpec(EQUICORRELATED, grid, rho=0.3, batch_size=batch_size,
                                 tradeoff_shift=0.7)
            z = spec._draw_batches(n, seed.generator())
            t = grid.values
            primary = (z[:, :, None] <= t[None, None, :]).mean(axis=1)
            companion = 1.0 - (z[:, :, None] <= (t + 0.7)[None, None, :]).mean(axis=1)
            matrix, _ = spec.realize(n, seed)
            assert np.array_equal(matrix.values, primary)
            assert matrix.values.flags.c_contiguous and not matrix.values.flags.writeable
            paired, paired_companion, _ = spec.realize_pair(n, seed)
            assert np.array_equal(paired.values, primary)
            assert np.array_equal(paired_companion.values, companion)
            # the step form describes the values it came with
            bins = matrix._steps
            assert bins.shape == (n, batch_size) and not bins.flags.writeable
            counts = (bins[:, :, None] <= np.arange(len(grid))[None, None, :]).sum(axis=1)
            assert np.array_equal(counts / batch_size, primary)

    def test_realize_holds_one_copy_of_the_matrix(self):
        # realize(2000) on the paper grid builds a 16 MB matrix, which keeps
        # that array: no copy and no n x K x m tensor beside it
        spec = spec_for(0.2, default_synthetic_grid())
        spec.realize(10, SeedRecord(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            matrix, _ = spec.realize(2000, SeedRecord(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.values.nbytes == 16_000_000
        assert peak - before <= 1.25 * matrix.values.nbytes

    def test_realize_pair_holds_its_two_outputs(self):
        # each matrix is written straight from its level table: no count
        # array, in-place division or complement pass beside the two outputs
        spec = spec_for(0.2, default_synthetic_grid())
        spec.realize_pair(10, SeedRecord(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            primary, companion, _ = spec.realize_pair(2000, SeedRecord(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = primary.values.nbytes + companion.values.nbytes
        assert outputs == 32_000_000
        assert peak - before <= 1.1 * outputs

    def test_pair_has_interior_tradeoff(self):
        # the companion's population risk is 1 - Phi(t + shift), so the sum
        # of the two true risks dips strictly inside the grid
        spec = spec_for(0.2)
        primary, companion, _ = spec.realize_pair(5000, SeedRecord(9))
        assert companion.orientation == "nonincreasing"
        total = empirical_risk(primary).values + empirical_risk(companion).values
        interior = np.argmin(total)
        assert 0 < interior < len(GRID) - 1


class TestOracleSupQuantile:
    def test_constant_generator_is_exactly_zero(self):
        spec = GeneratorSpec(CONSTANT, GRID, value=0.25)
        assert oracle_sup_quantile(spec, 50, 0.1, runs=30, seed=SeedRecord(1)) == 0.0

    def test_decreases_with_n(self):
        spec = spec_for(0.2)
        q_small = oracle_sup_quantile(spec, 100, 0.1, runs=300, seed=SeedRecord(2))
        q_large = oracle_sup_quantile(spec, 400, 0.1, runs=300, seed=SeedRecord(2))
        assert q_large < q_small

    def test_reproducible(self):
        spec = spec_for(0.2)
        a = oracle_sup_quantile(spec, 100, 0.1, runs=50, seed=SeedRecord(3))
        b = oracle_sup_quantile(spec, 100, 0.1, runs=50, seed=SeedRecord(3))
        assert a == b


class TestMiscoverage:
    def test_vacuous_band_never_miscovers(self):
        # tiny n clamps the width so the band is 1 everywhere
        spec = GeneratorSpec(CONSTANT, GRID, value=0.9)
        rep = miscoverage_anywhere(MethodSpec("nasm", delta=0.1), spec, 2, 30, SeedRecord(4))
        assert rep.estimate == 0.0

    def test_zero_width_band_miscovers_nondegenerate_generator(self):
        # the empirical curve alone fails to dominate the truth somewhere in
        # essentially every run
        spec = spec_for(0.2)
        misses = 0
        for run in range(20):
            matrix, truth = spec.realize(200, SeedRecord(5).child(run))
            curve = empirical_risk(matrix)
            misses += bool((truth > curve.values).any())
        assert misses >= 19

    def test_selected_never_exceeds_anywhere_per_run(self):
        spec = spec_for(0.2)
        method = MethodSpec("rr", delta=0.1, B=100)
        seed = SeedRecord(6)
        any_tr, sel_tr = [], []
        miscoverage_anywhere(method, spec, 150, 40, seed, trace=any_tr)
        miscoverage_selected(method, spec, 150, 40, seed, r=0.1, trace=sel_tr)
        for a, s in zip(any_tr, sel_tr):
            assert a["run"] == s["run"]
            assert (not s["event"]) or a["event"]

    def test_selected_empty_counts_as_covered(self):
        # constant losses above r leave the selected set empty in every run
        spec = GeneratorSpec(CONSTANT, GRID, value=0.8)
        rep = miscoverage_selected(MethodSpec("pointwise", delta=0.1), spec, 20, 10,
                                   SeedRecord(7), r=0.1)
        assert rep.estimate == 0.0

    def test_reports_echo_configuration(self):
        spec = spec_for(0.2)
        rep = miscoverage_anywhere(MethodSpec("rr", delta=0.2, B=64), spec, 50, 5, 123)
        assert rep.config["method"] == "rr"
        assert rep.config["B"] == 64
        assert rep.config["rho"] == 0.2
        assert rep.config["seed"]["seed"] == 123
        assert rep.std_error == pytest.approx(
            np.sqrt(rep.estimate * (1 - rep.estimate) / rep.runs)
        )

    def test_pointwise_fast_path_matches_band_comparison(self):
        spec = spec_for(0.6)
        method = MethodSpec("pointwise", delta=0.1)
        seed = SeedRecord(8)
        for run in range(10):
            matrix, truth = spec.realize(60, seed.child(run, 0))
            fast = method.miscovers(matrix, truth, seed.child(run, 1))
            band = wsr_band(matrix, 0.1)
            slow = bool((truth > band.upper).any())
            assert fast == slow

    def test_bit_reproducible(self):
        spec = spec_for(0.2)
        method = MethodSpec("rr", delta=0.1, B=64)
        a = miscoverage_anywhere(method, spec, 80, 20, 99)
        b = miscoverage_anywhere(method, spec, 80, 20, 99)
        assert a.estimate == b.estimate

    def test_parallel_runs_match_serial(self):
        spec = spec_for(0.2)
        method = MethodSpec("rr", delta=0.1, B=64)
        a = miscoverage_anywhere(method, spec, 80, 20, 99, workers=1)
        b = miscoverage_anywhere(method, spec, 80, 20, 99, workers=4)
        assert a.estimate == b.estimate


class TestRunMetrics:
    METHODS = [MethodSpec("nasm"), MethodSpec("rr", B=64), MethodSpec("rrr", B=64),
               MethodSpec("pointwise")]

    def test_cells_match_per_run_reference(self):
        # every cell of the shared loop equals the event or gap computed run
        # by run from its own realization and band
        spec = spec_for(0.2)
        seed = SeedRecord(27)
        n, runs = 150, 6
        traces = []
        reports = run_metrics(self.METHODS, spec, n, runs, seed, list(METRICS), traces=traces)
        for method, row, row_traces in zip(self.METHODS, reports, traces):
            anywhere, selected, gaps = [], [], []
            for run in range(runs):
                matrix, truth = spec.realize(n, seed.child(run, 0))
                primary, companion, _ = spec.realize_pair(n, seed.child(run, 0))
                curve = empirical_risk(matrix)
                chosen = select_even_tradeoff(curve, empirical_risk(companion),
                                              sublevel_set(curve, 0.1))
                anywhere.append(method.miscovers(matrix, truth, seed.child(run, 1)))
                selected.append(method.miscovers(matrix, truth, seed.child(run, 1),
                                                 restrict=sublevel_set(curve, 0.1).indices))
                band = method.upper_band(primary, seed.child(run, 1))
                gap = band.upper[chosen.index] - truth[chosen.index]
                gaps.append(gap if chosen.index in band.validity.indices else None)
            assert [t["event"] for t in row_traces[0]] == anywhere
            assert [t["event"] for t in row_traces[1]] == selected
            assert [t["gap"] for t in row_traces[2]] == gaps
            assert row[0].estimate == np.mean(anywhere)
            assert row[1].estimate == np.mean(selected)
            kept = [g for g in gaps if g is not None]
            assert row[2].estimate == np.mean(kept)
            assert row[2].extra["excluded_runs"] == runs - len(kept)

    def test_parallel_runs_match_serial(self):
        spec = spec_for(0.2)
        serial, parallel = [], []
        a = run_metrics(self.METHODS, spec, 80, 8, 31, list(METRICS), traces=serial)
        b = run_metrics(self.METHODS, spec, 80, 8, 31, list(METRICS), workers=3,
                        traces=parallel)
        assert a == b
        assert serial == parallel

    def test_custom_draw_fn_runs_like_its_analytic_twin(self):
        twin = spec_for(0.2)

        def draw(n, seed, pair):
            primary, companion, truth = twin.realize_pair(n, seed)
            return primary, companion if pair else None, truth

        custom = GeneratorSpec("custom", GRID, draw_fn=draw, label="twin")
        for metrics in (["anywhere", "selected"], list(METRICS)):
            expected, traces = [], []
            a = run_metrics(self.METHODS, twin, 60, 4, 33, metrics, traces=expected)
            b = run_metrics(self.METHODS, custom, 60, 4, 33, metrics, traces=traces)
            assert traces == expected
            assert np.array_equal([[r.estimate for r in row] for row in a],
                                  [[r.estimate for r in row] for row in b], equal_nan=True)
            assert all(r.config["family"] == "custom" and r.config["label"] == "twin"
                       for row in b for r in row)

    def test_custom_draw_fn_without_companion(self):
        def draw(n, seed, pair):
            matrix, truth = spec_for(0.2).realize(n, seed)
            return matrix, None, truth

        custom = GeneratorSpec("custom", GRID, draw_fn=draw)
        assert run_metrics(self.METHODS[:1], custom, 30, 2, 34, ["anywhere"])
        with pytest.raises(ValueError, match="no tradeoff companion"):
            run_metrics(self.METHODS[:1], custom, 30, 2, 34, ["conservatism"])
        with pytest.raises(ValueError, match="need a draw_fn"):
            GeneratorSpec("custom", GRID)

    @pytest.mark.parametrize("bad", ["nan", "above-one", "short"])
    def test_custom_truth_is_checked(self, bad):
        def draw(n, seed, pair):
            matrix, truth = spec_for(0.2).realize(n, seed)
            if bad == "nan":
                truth[7] = np.nan
            elif bad == "above-one":
                truth[7] = 1.5
            else:
                truth = truth[:-1]
            return matrix, None, truth

        custom = GeneratorSpec("custom", GRID, draw_fn=draw)
        with pytest.raises(ValueError, match="one truth value in \\[0, 1\\] per grid point"):
            custom.realize(30, SeedRecord(1))
        # a NaN truth would otherwise count as covered for every method
        with pytest.raises(ValueError, match="truth value"):
            run_metrics(self.METHODS, custom, 30, 2, 34, ["anywhere"])

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            run_metrics(self.METHODS, spec_for(0.2), 20, 2, 1, ["coverage"])

    @pytest.mark.parametrize("r", [float("nan"), -0.5, 1.5])
    def test_r_outside_the_unit_interval_is_refused_before_any_run(self, monkeypatch, r):
        def refuse(*args):
            raise AssertionError("no run may start")

        monkeypatch.setattr(GeneratorSpec, "_draw", refuse)
        with pytest.raises(ValueError, match=r"risk tolerance r must lie in \[0, 1\]"):
            run_metrics(self.METHODS, spec_for(0.2), 20, 2, 1, ["anywhere", "selected"], r=r)

    @pytest.mark.parametrize("metrics", [["anywhere"], ["selected"]])
    def test_unknown_scheme_rejected_without_conservatism(self, metrics):
        with pytest.raises(ValueError, match="scheme must be"):
            run_metrics(self.METHODS, spec_for(0.2), 20, 2, 1, metrics, scheme="bogus")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scheme, select", [("even-tradeoff", select_even_tradeoff),
                                                ("elbow", select_elbow)])
    def test_pointwise_gap_is_the_full_band_entry(self, scheme, select, workers):
        # the gap read from the one selected column equals the full betting
        # band's entry there, exactly
        spec = spec_for(0.2)
        seed = SeedRecord(32)
        n, runs, delta = 120, 8, 0.15
        traces = []
        [[rep]] = run_metrics([MethodSpec("pointwise", delta=delta)], spec, n, runs, seed,
                              ["conservatism"], scheme=scheme, workers=workers,
                              traces=traces)
        gaps, columns = [], set()
        for run in range(runs):
            matrix, companion, truth = spec.realize_pair(n, seed.child(run, 0))
            curve = empirical_risk(matrix)
            j = select(curve, empirical_risk(companion), sublevel_set(curve, 0.1)).index
            columns.add(j)
            gaps.append(float(wsr_band(matrix, delta).upper[j] - truth[j]))
        assert [t["gap"] for t in traces[0][0]] == gaps
        assert rep.extra["excluded_runs"] == 0
        assert len(columns) > 1

    def test_pointwise_builds_no_band(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the harness bisected the whole grid")

        monkeypatch.setattr(riskbands.harness, "wsr_band", refuse)
        [reports] = run_metrics([MethodSpec("pointwise")], spec_for(0.2), 60, 3, 33,
                                list(METRICS))
        assert [rep.metric for rep in reports] == [
            "miscoverage-anywhere", "miscoverage-selected", "conservatism"]


class TestConservatism:
    def test_zero_width_band_at_truth_gives_zero(self):
        spec = GeneratorSpec(CONSTANT, GRID, value=0.0625)
        rep = conservatism(MethodSpec("rr", delta=0.1, B=32), spec, 30, 10,
                           SeedRecord(9), scheme="even-tradeoff")
        assert rep.estimate == 0.0
        assert rep.extra["excluded_runs"] == 0

    def test_nasm_dominates_rr_on_average(self):
        spec = spec_for(0.2)
        seed = SeedRecord(10)
        nasm = conservatism(MethodSpec("nasm", delta=0.1), spec, 1000, 20, seed)
        rr = conservatism(MethodSpec("rr", delta=0.1, B=200), spec, 1000, 20, seed)
        assert nasm.estimate >= rr.estimate

    @pytest.mark.parametrize("scheme", ["even-tradeoff", "elbow"])
    def test_all_excluded_cell_reports_nan(self, scheme):
        # harness r above rrr's own r: every selected threshold lies outside
        # rrr's validity set
        spec = spec_for(0.2)
        rep = conservatism(MethodSpec("rrr", B=64), spec, 100, 5, SeedRecord(28),
                           scheme=scheme, r=0.15)
        assert np.isnan(rep.estimate) and np.isnan(rep.std_error)
        assert rep.runs == 5
        assert rep.extra["excluded_runs"] == 5
        assert "every run was excluded" in rep.extra["note"]
        assert rep.config["scheme"] == scheme and rep.config["r"] == 0.15

    def test_rrr_exclusions_counted(self):
        # RRR validity is the sublevel set; thresholds selected outside it
        # are excluded and reported
        spec = spec_for(0.2)
        rep = conservatism(MethodSpec("rrr", B=64), spec, 100, 15, SeedRecord(11),
                           scheme="elbow")
        assert rep.extra["excluded_runs"] >= 0
        assert rep.runs == 15


def surrogate_halves(base, seed):
    """Holdout and sampling rows of ``surrogate_generator``'s split at ``seed``."""
    perm = seed.child(0).generator().permutation(base.n)
    return perm[:base.n // 2], perm[base.n // 2:]


class TestSurrogate:
    def test_minimal_split(self):
        base = LossMatrix(GRID, np.random.default_rng(0).random((2, 41)))
        seed = SeedRecord(12)
        matrix, truth = surrogate_generator(base).realize(5, seed)
        hold, samp = surrogate_halves(base, seed)
        assert hold.size == 1 and samp.size == 1
        assert np.array_equal(truth, base.values[hold[0]])
        assert all(np.array_equal(row, base.values[samp[0]]) for row in matrix.values)

    def test_split_deterministic_and_partitioning(self):
        base = LossMatrix(GRID, np.random.default_rng(1).random((9, 41)))
        gen = surrogate_generator(base)
        m1, t1 = gen.realize(30, SeedRecord(13))
        m2, t2 = gen.realize(30, SeedRecord(13))
        assert np.array_equal(m1.values, m2.values) and np.array_equal(t1, t2)
        hold, samp = surrogate_halves(base, SeedRecord(13))
        assert hold.size == 4 and samp.size == 5
        assert sorted(np.concatenate([hold, samp]).tolist()) == list(range(9))

    def test_split_requires_two_rows(self):
        m = LossMatrix(GRID, np.random.default_rng(2).random((1, 41)))
        with pytest.raises(ValueError, match="two rows"):
            surrogate_generator(m)

    def test_generator_resamples_sampling_half(self):
        base = LossMatrix(GRID, np.random.default_rng(3).random((40, 41)))
        gen = surrogate_generator(base)
        seed = SeedRecord(15)
        matrix, truth = gen.realize(25, seed)
        assert matrix.n == 25
        hold, samp = surrogate_halves(base, seed)
        assert np.array_equal(truth, base.values[hold].mean(axis=0))
        # every drawn row comes from the sampling half
        samp_rows = {tuple(r) for r in base.values[samp]}
        assert all(tuple(r) in samp_rows for r in matrix.values)

    def test_metrics_run_on_surrogate(self):
        base = equicorrelated_matrix(300, 16)
        gen = surrogate_generator(base)
        rep = miscoverage_anywhere(MethodSpec("nasm", delta=0.1), gen, 50, 20, SeedRecord(17))
        assert 0.0 <= rep.estimate <= 1.0

    def test_paired_surrogate_supports_conservatism(self):
        rng = np.random.default_rng(20)
        base = LossMatrix(GRID, np.minimum.accumulate(rng.random((60, 41)), axis=1),
                          "nonincreasing")
        companion = LossMatrix(GRID, np.maximum.accumulate(rng.random((60, 41)), axis=1),
                               "nondecreasing")
        gen = surrogate_generator(base, companion=companion)
        rep = conservatism(MethodSpec("nasm", delta=0.1), gen, 30, 10, SeedRecord(21),
                           scheme="even-tradeoff", r=1.0)
        assert np.isfinite(rep.estimate)
        # the same resampled rows feed both matrices
        primary, paired, _ = gen.realize_pair(15, SeedRecord(22))
        again, paired2, _ = gen.realize_pair(15, SeedRecord(22))
        assert np.array_equal(primary.values, again.values)
        assert np.array_equal(paired.values, paired2.values)

    @pytest.mark.parametrize("paired", [False, True])
    def test_empty_draw_is_refused(self, paired):
        base = equicorrelated_matrix(40, 23)
        gen = surrogate_generator(base, companion=base if paired else None)
        for realize in (gen.realize, gen.realize_pair):
            with pytest.raises(ValueError, match="need n >= 1"):
                realize(0, SeedRecord(24))

    def test_surrogate_without_companion_rejects_pairs(self):
        base = equicorrelated_matrix(40, 23)
        gen = surrogate_generator(base)
        with pytest.raises(ValueError, match="companion"):
            gen.realize_pair(10, SeedRecord(24))


class TestMethodSpec:
    def test_upper_band_dispatch(self):
        matrix = equicorrelated_matrix(60, 18)
        seed = SeedRecord(19)
        for name in METHOD_NAMES:
            method = MethodSpec(name, B=64)
            band = method.upper_band(matrix, seed)
            assert band.upper is not None
            assert band.method == name
            again = method.band(matrix, seed)
            assert np.array_equal(band.upper, again.upper)
            assert band.metadata() == again.metadata()
            for side in ("lower", "two-sided"):
                if name in ("rrr", "pointwise"):
                    with pytest.raises(ValueError, match="upper bands only"):
                        method.band(matrix, seed, side=side)
                else:
                    sided = method.band(matrix, seed, side=side)
                    assert sided.method == name
                    assert (sided.upper is not None) == (side == "two-sided")
                    assert sided.lower is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("bootstrap")

    @pytest.mark.parametrize("B", [2.5, 100.0, "100", 0, -3])
    def test_b_must_be_a_positive_integer(self, B):
        with pytest.raises(ValueError, match="B"):
            MethodSpec("rr", B=B)

    def test_numpy_integer_b_is_stored_as_an_int(self):
        for name in ("rr", "rrr", "nasm"):
            spec = MethodSpec(name, B=np.int64(100))
            assert type(spec.B) is int and spec.B == 100
            json.dumps(spec.config_echo())
        assert MethodSpec("rr", B=np.int64(100)).config_echo()["B"] == 100

    @pytest.mark.parametrize("params, message", [
        ({"delta_glob": 2.0, "r": 5.0}, r"risk tolerance r must lie in \[0, 1\]"),
        ({"delta_glob": 2.0}, r"delta_glob and delta_loc must lie in \(0, 1\)"),
        ({"delta_loc": 0.0}, r"delta_glob and delta_loc must lie in \(0, 1\)"),
        ({"delta_glob": 0.6, "delta_loc": 0.6}, "delta_glob \\+ delta_loc must be below 1"),
        ({"r": -0.1}, r"risk tolerance r must lie in \[0, 1\]"),
    ])
    def test_rrr_parameters_are_checked_on_construction(self, params, message):
        with pytest.raises(ValueError, match=message):
            MethodSpec("rrr", **params)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, float("nan")])
    def test_delta_outside_the_unit_interval_is_refused(self, delta):
        for name in METHOD_NAMES:
            with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
                MethodSpec(name, delta=delta)
