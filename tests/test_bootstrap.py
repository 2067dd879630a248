import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbands import (
    BootstrapSupDistribution,
    GeneratorSpec,
    IndexSet,
    LossMatrix,
    ParameterGrid,
    RRRConfig,
    SeedRecord,
    conservative_quantile,
    default_synthetic_grid,
    empirical_risk,
    resample_counts,
    rr_band,
    rrr_band,
    suggest_b,
    sup_distribution,
)
from riskbands.bootstrap import _count_rows, _deviations
from riskbands.harness import EQUICORRELATED


def random_matrix(seed, n=30, m=6, orientation="unconstrained"):
    rng = np.random.default_rng(seed)
    values = rng.random((n, m))
    if orientation == "nonincreasing":
        values = np.minimum.accumulate(values, axis=1)
    return LossMatrix(ParameterGrid.linspace(0.0, 1.0, m), values, orientation)


def fresh_copy(matrix):
    return LossMatrix(matrix.grid, matrix.values.copy(), matrix.orientation)


def dist_of(values, sign="minus", subset=None):
    values = np.sort(np.asarray(values, dtype=float))
    subset = subset or IndexSet(np.array([0]))
    return BootstrapSupDistribution(values, len(values), sign, subset, SeedRecord(0))


class TestSeedRecord:
    def test_child_streams_differ(self):
        s = SeedRecord(42)
        a = s.child(0).generator().random(4)
        b = s.child(1).generator().random(4)
        assert not np.array_equal(a, b)

    def test_independent_of_construction_order(self):
        assert np.array_equal(
            SeedRecord(7).child(3).generator(2).random(5),
            SeedRecord(7).child(3, 2).generator().random(5),
        )

    def test_seed_domain(self):
        with pytest.raises(ValueError):
            SeedRecord(-1)

    def test_scheme_and_algorithm_are_constants(self):
        with pytest.raises(TypeError):
            SeedRecord(1, algorithm="x")
        with pytest.raises(TypeError):
            SeedRecord(1, (), "other-scheme")
        assert [f.name for f in dataclasses.fields(SeedRecord)] == ["seed", "path"]
        assert SeedRecord(1).child(2, 3).as_dict() == {
            "seed": 1, "path": [2, 3],
            "scheme": "numpy-seedsequence-spawn-key-block64", "algorithm": "pcg64"}


class TestResampleCounts:
    def test_single_atom(self):
        for idx in range(5):
            assert resample_counts(1, SeedRecord(3), idx).tolist() == [1]

    def test_counts_sum_to_n(self):
        seed = SeedRecord(11)
        for idx in range(1000):
            assert resample_counts(17, seed, idx).sum() == 17

    def test_deterministic_in_seed_and_index(self):
        seed = SeedRecord(5)
        a = resample_counts(40, seed, 12)
        b = resample_counts(40, seed, 12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, resample_counts(40, seed, 13))


class TestBlockStreams:
    @pytest.mark.parametrize("n", [1, 7, 1001])
    @pytest.mark.parametrize("chunk", [None, 1, 100, 2500])
    def test_chunked_draws_equal_the_one_shot_block(self, monkeypatch, n, chunk):
        import riskbands.bootstrap as bootstrap_mod
        if chunk is not None:
            # small chunks split one block over several draw calls
            monkeypatch.setattr(bootstrap_mod, "_CHUNK", chunk)
        seed = SeedRecord(13).child(n)
        for j in (0, 3):
            draw = seed.generator(j).integers(0, n, size=(64, n))
            want = np.array([np.bincount(row, minlength=n) for row in draw])
            got = np.array(list(_count_rows(n, seed.generator(j), 64)))
            assert np.array_equal(got, want)
            for r in (0, 37, 63):
                assert np.array_equal(resample_counts(n, seed, 64 * j + r), want[r])

    def test_prefix_is_stable_as_b_grows(self):
        seed = SeedRecord(14)
        short = _deviations(stepped(400, 5, 47), seed, 100)
        long = _deviations(stepped(400, 5, 47), seed, 200)
        assert np.array_equal(long[:100], short)
        # the GEMM's second block has 36 rows at B = 100 and 64 at B = 200:
        # the same counts, but BLAS may round the two shapes differently
        dense = fresh_copy(stepped(400, 5, 47))
        short = _deviations(dense, seed, 100)
        long = _deviations(fresh_copy(dense), seed, 200)
        assert np.abs(long[:100] - short).max() <= 1e-12

    def test_drawing_holds_a_chunk_not_a_block(self):
        n = 20_000
        matrix = stepped(n, 5, 48)
        block_bytes = 64 * n * 8
        # first calls, so one-time imports fall outside the traced window
        resample_counts(n, SeedRecord(0), 0)
        sup_distribution(matrix, None, "minus", 1, SeedRecord(0))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # the last row of block 0: every row of the block is drawn
            counts = resample_counts(n, SeedRecord(15), 63)
            draw_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sup_distribution(matrix, None, "minus", 64, SeedRecord(15))
            kernel_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == n
        assert draw_peak - before < block_bytes / 4
        # the step kernel also holds a transposed copy of the n x K bins
        assert kernel_peak - before < block_bytes / 4 + matrix._steps.nbytes


class TestSupDistribution:
    def test_constant_matrix_gives_zero_suprema(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 4), np.full((12, 4), 0.5))
        for sign in ("plus", "minus", "two-sided"):
            d = sup_distribution(m, None, sign, 64, SeedRecord(1))
            assert np.all(d.sorted_values == 0.0)

    def test_empty_subset_gives_zero(self):
        m = random_matrix(0)
        empty = IndexSet(np.array([], dtype=int))
        d = sup_distribution(m, empty, "minus", 32, SeedRecord(1))
        assert np.all(d.sorted_values == 0.0)

    def test_paired_subset_domination(self):
        m = random_matrix(2, n=40, m=10)
        seed = SeedRecord(4)
        small = IndexSet(np.array([1, 4, 7]))
        big = IndexSet(np.array([0, 1, 3, 4, 6, 7, 9]))
        for sign in ("plus", "minus", "two-sided"):
            # same seed pairs the replicates, so domination holds per replicate
            ds = sup_distribution(m, small, sign, 128, seed)
            db = sup_distribution(m, big, sign, 128, seed)
            assert np.all(ds.sorted_values <= db.sorted_values + 1e-15)

    def test_bit_identical_serial_vs_parallel(self):
        m = random_matrix(3, n=50, m=12)
        seed = SeedRecord(6)
        d1 = sup_distribution(m, None, "two-sided", 300, seed, workers=1)
        # an equal-valued matrix of its own, so the parallel side is computed
        # rather than served from the replicates kept on ``m``
        d2 = sup_distribution(fresh_copy(m), None, "two-sided", 300, seed, workers=4)
        assert np.array_equal(d1.sorted_values, d2.sorted_values)

    def test_sorted_invariant_enforced(self):
        with pytest.raises(ValueError):
            BootstrapSupDistribution(np.array([2.0, 1.0]), 2, "plus",
                                     IndexSet(np.array([0])), SeedRecord(0))


def stepped(n, batch_size, seed):
    """A realized (stepped) equicorrelated matrix on a grid that some draws overshoot."""
    # [-1.5, 1.5] holds 87% of the standard normal, so draws fall past both ends
    spec = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-1.5, 1.5, 23), rho=0.3,
                         batch_size=batch_size)
    return spec.realize(n, SeedRecord(seed))[0]


class TestStepForm:
    @pytest.mark.parametrize("n", [1, 7, 400])
    @pytest.mark.parametrize("batch_size", [1, 5])
    @pytest.mark.parametrize("B", [1, 63, 64, 65, 300])
    def test_matches_dense_copy(self, n, batch_size, B):
        realized = stepped(n, batch_size, 40 + n)
        dense = fresh_copy(realized)
        assert realized._steps is not None and dense._steps is None
        seed = SeedRecord(41).child(B)
        subset = IndexSet(np.array([0, 3, 11, 22]))
        for sign in ("plus", "minus", "two-sided"):
            for index_set in (None, subset):
                got = sup_distribution(realized, index_set, sign, B, seed).sorted_values
                want = sup_distribution(dense, index_set, sign, B, seed).sorted_values
                assert np.abs(got - want).max() <= 1e-12

    def test_draws_fall_past_both_ends(self):
        bins = stepped(400, 5, 440)._steps
        assert bins.shape == (400, 5)
        assert bins.min() == 0 and bins.max() == 23

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_bit_identical_serial_vs_parallel(self, batch_size):
        seed = SeedRecord(42)
        # each side realizes its own matrix, so neither reads the other's replicates
        serial = stepped(400, batch_size, 43)
        parallel = stepped(400, batch_size, 43)
        d1 = sup_distribution(serial, None, "two-sided", 300, seed, workers=1)
        d3 = sup_distribution(parallel, None, "two-sided", 300, seed, workers=3)
        assert np.array_equal(d1.sorted_values, d3.sorted_values)
        assert np.array_equal(serial._replicates[1], parallel._replicates[1])

    def test_constant_columns_give_exact_zeros(self):
        # a grid far below every draw: each column counts no draw, so each
        # replicate's deviations are exactly zero there
        spec = GeneratorSpec(EQUICORRELATED, ParameterGrid.linspace(-40.0, -39.0, 4), rho=0.2)
        matrix, _ = spec.realize(50, SeedRecord(44))
        assert matrix._steps is not None and not matrix.values.any()
        for sign in ("plus", "minus", "two-sided"):
            assert not sup_distribution(matrix, None, sign, 65, SeedRecord(45)).sorted_values.any()


def quantile_upper(dist, delta):
    """The conservative quantile of a supremum distribution, as rr and rrr read it."""
    return conservative_quantile(dist.sorted_values, delta)


class TestQuantileUpper:
    def test_b9_forced_to_max(self):
        d = dist_of(np.arange(1.0, 10.0))
        assert quantile_upper(d, 0.1) == 9.0

    def test_degenerate_distribution(self):
        d = dist_of(np.full(25, 3.25))
        for delta in (0.01, 0.4, 0.9):
            assert quantile_upper(d, delta) == 3.25

    def test_delta_near_one_clamps_to_first(self):
        d = dist_of(np.arange(1.0, 6.0))
        assert quantile_upper(d, 0.999) == 1.0

    def test_conservative_convention(self):
        # B=19, delta=0.05: k = ceil(20 * 0.95) = 19
        d = dist_of(np.arange(1.0, 20.0))
        assert quantile_upper(d, 0.05) == 19.0
        # B=39: k = ceil(40 * 0.95) = 38
        d = dist_of(np.arange(1.0, 40.0))
        assert quantile_upper(d, 0.05) == 38.0

    @given(st.integers(1, 400), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=80, deadline=None)
    def test_nonincreasing_in_delta(self, b, d1, d2):
        values = np.sort(np.random.default_rng(b).random(b))
        dist = dist_of(values)
        lo, hi = sorted((d1, d2))
        assert quantile_upper(dist, lo) >= quantile_upper(dist, hi)


class TestRRBand:
    def test_constant_matrix_band_equals_curve(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5), np.full((20, 5), 0.5))
        band = rr_band(m, 0.1, B=200, seed=SeedRecord(8))
        assert band.width_info == 0.0
        assert np.array_equal(band.upper, empirical_risk(m).values)

    def test_sides(self):
        m = random_matrix(5, n=60, m=8)
        seed = SeedRecord(9)
        up = rr_band(m, 0.1, B=200, seed=seed, side="upper")
        lo = rr_band(m, 0.1, B=200, seed=seed, side="lower")
        two = rr_band(m, 0.1, B=200, seed=seed, side="two-sided")
        assert up.lower is None and lo.upper is None
        assert two.lower is not None and two.upper is not None
        curve = empirical_risk(m).values
        assert np.all(up.upper >= np.clip(curve, 0, 1) - 1e-15)

    def test_nonzero_width_on_nondegenerate_matrix(self):
        m = random_matrix(10, n=40, m=6)
        band = rr_band(m, 0.1, B=200, seed=SeedRecord(2))
        assert band.width_info > 0.0

    def test_metadata_echo(self):
        m = random_matrix(1, n=20, m=4)
        band = rr_band(m, 0.2, B=64, seed=SeedRecord(77))
        assert band.info["B"] == 64
        assert band.info["seed"]["seed"] == 77
        assert band.method == "rr"

    def test_b_must_be_an_integer(self):
        # refused, not truncated: 2.5 replicates are no 2 replicates
        m = random_matrix(29, n=20, m=4)
        for bad in (2.5, 64.0, np.float64(64.0)):
            with pytest.raises(ValueError):
                rr_band(m, 0.1, bad, 1)
            with pytest.raises(ValueError):
                sup_distribution(m, None, "minus", bad, SeedRecord(1))
        dist = sup_distribution(m, None, "minus", np.int64(64), SeedRecord(1))
        assert dist.B == 64 and type(dist.B) is int
        # echoed as an int, so the band's JSON sidecar can be written
        assert type(rr_band(m, 0.1, np.int64(64), 1).info["B"]) is int

    def test_clamped_quantile_is_noted(self):
        m = random_matrix(26, n=40, m=6)
        # B = 50 needs delta >= 1/51 to reach an order statistic below the maximum
        assert rr_band(m, 0.01, 50, SeedRecord(1)).notes == ("quantile-clamped",)
        assert rr_band(m, 0.1, 50, SeedRecord(1)).notes == ()
        assert rr_band(m, 0.01, 99, SeedRecord(1)).notes == ()


class TestSuggestB:
    def test_degenerate_constant_matrix(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 4), np.full((15, 4), 0.5))
        result = suggest_b(m, 0.1, SeedRecord(1), initial_b=128)
        assert result.degenerate
        assert result.B == 128
        assert result.bracket_width == 0.0

    def test_initial_b_floor(self):
        m = random_matrix(4)
        with pytest.raises(ValueError):
            suggest_b(m, 0.1, SeedRecord(1), initial_b=50)
        with pytest.raises(ValueError):
            suggest_b(m, 0.1, SeedRecord(1), initial_b=150.5)

    def test_initial_b_above_the_cap_draws_nothing(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod

        def refuse(*args):
            raise AssertionError("no replicate may be drawn")

        monkeypatch.setattr(bootstrap_mod, "_count_rows", refuse)
        with pytest.raises(ValueError, match="initial_b"):
            suggest_b(random_matrix(4), 0.1, SeedRecord(1), initial_b=2**20 + 1)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, float("nan")])
    def test_delta_outside_the_unit_interval_draws_nothing(self, monkeypatch, delta):
        import riskbands.bootstrap as bootstrap_mod

        def refuse(*args):
            raise AssertionError("no replicate may be drawn")

        monkeypatch.setattr(bootstrap_mod, "_count_rows", refuse)
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\)"):
            suggest_b(random_matrix(4), delta, SeedRecord(1))

    def test_terminates_brackets_and_is_stable(self):
        # continuous-valued losses keep the supremum distribution smooth, so
        # the bracket criterion is reachable at moderate B
        m = random_matrix(6, n=60, m=8)
        seed = SeedRecord(3)
        result = suggest_b(m, 0.1, seed, initial_b=128)
        assert result.met
        assert result.bracket_width < 0.01 * result.q_boot
        assert result.bracket_low <= result.q_boot <= result.bracket_high
        # doubling the replicates as an oracle moves the quantile little
        d_big = sup_distribution(m, None, "minus", 2 * result.B, seed)
        q_big = quantile_upper(d_big, 0.1)
        assert abs(result.q_boot - q_big) <= 0.02 * q_big

    def test_cap_returns_best_effort_with_flag(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 512)
        m = random_matrix(7, n=40, m=6)
        # an unreachable tolerance forces doubling up to the cap
        result = suggest_b(m, 0.1, SeedRecord(4), initial_b=128, rel_tol=1e-9)
        assert result.capped and not result.met
        assert result.B == 512
        assert np.isfinite(result.q_boot)
        # the bracket never widened as B doubled (1/sqrt(B) shrinks)
        widths = [h[2] for h in result.history if np.isfinite(h[2])]
        assert widths == sorted(widths, reverse=True) or len(widths) <= 1

    def test_threads_equal_serial(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 800)
        m = random_matrix(28, n=50, m=9)
        serial = suggest_b(m, 0.1, SeedRecord(16), initial_b=100, rel_tol=1e-9)
        threaded = suggest_b(m, 0.1, SeedRecord(16), initial_b=100, rel_tol=1e-9, workers=3)
        assert serial == threaded

    def test_lattice_losses_stop_before_the_cap(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 2**14)
        n = 50
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(50), rho=0.2)
        matrix, _ = spec.realize(n, SeedRecord(5))
        seed = SeedRecord(6)
        result = suggest_b(matrix, 0.1, seed, initial_b=100)
        assert result.lattice and not result.met and not result.capped
        assert result.B < 2**14
        assert result.bracket_width >= 0.01 * result.q_boot
        # the bracket's ends are adjacent atoms: multiples of 1/(5 sqrt(n))
        # with no supremum between them
        atom = 1.0 / (5 * math.sqrt(n))
        for end in (result.bracket_low, result.bracket_high):
            assert abs(end / atom - round(end / atom)) < 1e-9
        sups = sup_distribution(fresh_copy(matrix), None, "minus", result.B, seed).sorted_values
        inside = (sups > result.bracket_low + 1e-12) & (sups < result.bracket_high - 1e-12)
        assert not inside.any()

    def test_stepped_matrix_matches_its_dense_copy(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(50), rho=0.2)
        realized, _ = spec.realize(50, SeedRecord(5))
        assert realized._steps is not None
        for cap, tol, verdict in ((2**14, 0.2, "met"), (2**14, 0.01, "lattice"),
                                  (800, 0.01, "capped")):
            monkeypatch.setattr(bootstrap_mod, "_B_CAP", cap)
            # the step kernel on the realized matrix, the GEMM on its copy
            step = suggest_b(realized, 0.1, SeedRecord(6), initial_b=100, rel_tol=tol)
            dense = suggest_b(fresh_copy(realized), 0.1, SeedRecord(6), initial_b=100,
                              rel_tol=tol)
            assert getattr(step, verdict)
            assert [h[0] for h in step.history] == [h[0] for h in dense.history]
            assert ((step.B, step.met, step.lattice, step.capped, step.degenerate)
                    == (dense.B, dense.met, dense.lattice, dense.capped, dense.degenerate))
            for (_, q_step, _), (_, q_dense, _) in zip(step.history, dense.history):
                assert abs(q_step - q_dense) <= 1e-12


def reference_deviations(matrix, seed, B, columns=None):
    """sqrt(n) (L* - L) per replicate, from the counts and a GEMM per 64 replicates.

    ``columns`` restricts the GEMM itself to those columns, as a separate
    pass over a subset would compute it.
    """
    values = matrix.values if columns is None else matrix.values[:, columns]
    centered = values - values.mean(axis=0)
    counts = np.array([resample_counts(matrix.n, seed, b) for b in range(B)], dtype=float)
    g = np.empty((B, centered.shape[1]))
    for b0 in range(0, B, 64):
        block = (counts[b0:b0 + 64] - 1.0) @ centered
        block /= math.sqrt(matrix.n)
        g[b0:b0 + 64] = block
    return g


def integer_count_deviations(matrix, K, seed, B):
    """sqrt(n) (L* - L) per replicate for losses that are counts over K.

    The counts and the replicate weights are integers, so their products
    are summed exactly in integer arithmetic before one division.
    """
    counts = np.rint(matrix.values * K).astype(np.int64)
    assert np.array_equal(counts / K, matrix.values)
    weights = np.array([resample_counts(matrix.n, seed, b) - 1 for b in range(B)])
    return (weights @ counts) / (K * math.sqrt(matrix.n))


def blocks(B):
    """How many 64-replicate blocks B replicates span."""
    return -(-B // 64)


class TestReplicateEngine:
    @pytest.fixture
    def draws(self, monkeypatch):
        """(seed, indices) of every generator made: one per replicate block."""
        calls = []
        original = SeedRecord.generator

        def counted(seed, *indices):
            calls.append((seed, *indices))
            return original(seed, *indices)

        monkeypatch.setattr(SeedRecord, "generator", counted)
        return calls

    def test_rr_then_rrr_draw_each_replicate_once(self, draws):
        m = random_matrix(20, n=80, m=15, orientation="nonincreasing")
        seed, B = SeedRecord(5).child(1), 200
        rr_band(m, 0.1, B, seed)
        rrr_band(m, RRRConfig(seed=seed, r=0.5, B=B))
        sup_distribution(m, IndexSet(np.array([2, 3])), "plus", B, seed)
        assert sorted(draws) == [(seed, j) for j in range(blocks(B))]
        # the worker count is not part of the key: it cannot change the bits
        rr_band(m, 0.1, B, seed, workers=3)
        assert len(draws) == blocks(B)

    def test_stepped_matrix_draws_each_replicate_once(self, draws):
        m = stepped(300, 5, 46)
        assert m._steps is not None
        draws.clear()  # the realization's own generators
        seed, B = SeedRecord(5).child(2), 200
        rr_band(m, 0.1, B, seed)
        rrr_band(m, RRRConfig(seed=seed, r=0.5, B=B))
        sup_distribution(m, IndexSet(np.array([2, 3])), "plus", B, seed)
        assert sorted(draws) == [(seed, j) for j in range(blocks(B))]

    @pytest.mark.parametrize("change", ["seed", "B", "matrix"])
    def test_other_seed_b_or_matrix_draws_again(self, draws, change):
        m = random_matrix(21, n=60, m=10, orientation="nonincreasing")
        seed, B = SeedRecord(6), 128
        rr_band(m, 0.1, B, seed)
        assert len(draws) == blocks(B)
        if change == "seed":
            rrr_band(m, RRRConfig(seed=seed.child(0), r=0.5, B=B))
            assert len(draws) == 2 * blocks(B)
        elif change == "B":
            rrr_band(m, RRRConfig(seed=seed, r=0.5, B=B + 64))
            assert len(draws) == 2 * blocks(B) + 1
        else:
            rrr_band(fresh_copy(m), RRRConfig(seed=seed, r=0.5, B=B))
            assert len(draws) == 2 * blocks(B)

    @pytest.mark.parametrize("kind", ["dense", "stepped"])
    def test_suggest_b_draws_each_replicate_once(self, draws, monkeypatch, kind):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 800)
        rows = []
        original = bootstrap_mod._count_rows

        def counted(n, rng, k):
            rows.append(k)
            return original(n, rng, k)

        monkeypatch.setattr(bootstrap_mod, "_count_rows", counted)

        def make():
            return random_matrix(27, n=50, m=9) if kind == "dense" else stepped(50, 5, 27)

        m = make()
        assert (m._steps is not None) == (kind == "stepped")
        draws.clear()  # a realization's own generators
        seed = SeedRecord(12)
        # 100 is no multiple of 64, so every doubling resumes a partial block
        result = suggest_b(m, 0.1, seed, initial_b=100, rel_tol=1e-9)
        assert result.capped and [h[0] for h in result.history] == [100, 200, 400, 800]
        assert sum(rows) == 800
        assert sorted(draws) == [(seed, j) for j in range(blocks(800))]
        monkeypatch.undo()
        for b, q, _ in result.history:
            # a matrix of the same kind, whose replicates are computed afresh
            dist = sup_distribution(make(), None, "minus", b, seed)
            assert q == conservative_quantile(dist.sorted_values, 0.1)

    def test_bands_match_reference_from_counts(self):
        # a curve rising from 0 to 1, so the adjusted set is a proper subset
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(40), rho=0.2)
        n = 400
        realized, _ = spec.realize(n, SeedRecord(22))
        # an equal-valued copy has no step form: it runs the GEMM the reference describes
        m = fresh_copy(realized)
        seed, B = SeedRecord(7).child(1), 300
        cfg = RRRConfig(seed=seed, r=0.3, B=B)
        rr = rr_band(m, 0.1, B, seed)
        rrr = rrr_band(m, cfg)

        g = reference_deviations(m, seed, B)
        curve = empirical_risk(m).values
        q_rr = conservative_quantile(np.sort((-g).max(axis=1)), 0.1)
        assert rr.info["q_hat"] == q_rr
        assert np.array_equal(rr.upper, np.clip(curve + q_rr / math.sqrt(n), 0.0, 1.0))
        q_glob = conservative_quantile(np.sort(np.abs(g).max(axis=1)), cfg.delta_glob)
        assert rrr.q_glob == q_glob

        sublevel = np.flatnonzero(curve <= cfg.r)
        adjusted = np.flatnonzero(curve <= cfg.r + 2.0 * q_glob / math.sqrt(n))
        assert np.array_equal(rrr.sublevel.indices, sublevel)
        assert np.array_equal(rrr.adjusted.indices, adjusted)
        assert 0 < adjusted.size < m.m
        g_loc = reference_deviations(m, seed, B, columns=adjusted)
        q_loc = conservative_quantile(np.sort((-g_loc).max(axis=1)), cfg.delta_loc)
        assert abs(rrr.q_loc - q_loc) <= 1e-12
        assert np.allclose(rrr.band.upper, np.clip(curve + q_loc / math.sqrt(n), 0.0, 1.0),
                           rtol=0, atol=1e-12)

        # the realized matrix runs the step form: within 1e-12 of the GEMM,
        # and bit for bit the quantiles of exact integer count sums
        step_rr = rr_band(realized, 0.1, B, seed)
        step_rrr = rrr_band(realized, cfg)
        assert abs(step_rr.info["q_hat"] - q_rr) <= 1e-12
        assert abs(step_rrr.q_glob - q_glob) <= 1e-12
        assert abs(step_rrr.q_loc - q_loc) <= 1e-12
        g_int = integer_count_deviations(realized, 5, seed, B)
        assert step_rr.info["q_hat"] == conservative_quantile(np.sort((-g_int).max(axis=1)), 0.1)
        assert step_rrr.q_glob == conservative_quantile(np.sort(np.abs(g_int).max(axis=1)),
                                                        cfg.delta_glob)
        assert np.array_equal(step_rrr.adjusted.indices, adjusted)
        assert step_rrr.q_loc == conservative_quantile(
            np.sort((-g_int[:, adjusted]).max(axis=1)), cfg.delta_loc)

    def test_memory_does_not_grow_with_b_times_n(self):
        # n much larger than m: B x n counts would be 16 MB, B x m deviations 0.1 MB
        rng = np.random.default_rng(23)
        n, m, B = 2000, 8, 1000
        values = np.minimum.accumulate(rng.random((n, m)), axis=1)
        matrix = LossMatrix(ParameterGrid.linspace(0.0, 1.0, m), values, "nonincreasing")
        b_times_n = B * n * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = rrr_band(matrix, RRRConfig(seed=SeedRecord(8), r=0.5, B=B))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.q_loc > 0.0
        assert kept - before < b_times_n / 10
        assert peak - before < b_times_n / 3

    def test_suggest_b_keeps_no_b_times_m_array(self, monkeypatch):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 1024)
        rng = np.random.default_rng(24)
        n, m = 20, 2000
        matrix = LossMatrix(ParameterGrid.linspace(0.0, 1.0, m), rng.random((n, m)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = suggest_b(matrix, 0.1, SeedRecord(9), initial_b=256, rel_tol=1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.capped and result.B == 1024
        assert peak - before < 1024 * m * 8 / 3

    def test_concurrent_calls_on_one_matrix(self):
        # threads sharing one matrix with different seeds each get their own
        # replicates, whichever entry the matrix happens to keep
        m = random_matrix(25, n=40, m=12, orientation="nonincreasing")
        seeds = [SeedRecord(10 + i) for i in range(6)]
        expected = [rr_band(fresh_copy(m), 0.1, 128, s).upper for s in seeds]
        results = [None] * len(seeds)

        def work(i):
            for _ in range(5):
                results[i] = rr_band(m, 0.1, 128, seeds[i]).upper
                rrr_band(m, RRRConfig(seed=seeds[i], r=0.5, B=128))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


def same_bits(got, want):
    """Equal arrays down to the last bit, the sign of a zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_step_kernel(matrix):
    """The per-replicate step kernel: K weighted bincounts over n bins per count row."""
    columns = np.ascontiguousarray(matrix._steps.T)
    m = matrix.m
    scale = len(columns) * math.sqrt(matrix.n)

    def kernel(rows, out):
        hist = np.zeros((len(out), m + 1))
        for row, counts in zip(hist, rows):
            weights = counts - 1.0
            for column in columns:
                row += np.bincount(column, weights, minlength=m + 1)
        np.cumsum(hist[:, :m], axis=1, out=out)
        out /= scale
    return kernel


def reference_gemm_kernel(matrix):
    """The GEMM kernel: ((c - 1) @ centered) / sqrt(n) per block of count rows."""
    centered = matrix.values - matrix.values.mean(axis=0)

    def kernel(rows, out):
        weights = np.array([counts - 1.0 for counts in rows])
        np.matmul(weights, centered, out=out)
        out /= math.sqrt(matrix.n)
    return kernel


def reference_block_deviations(matrix, seed, B):
    """B x m deviations, block by block, from the reference kernel of the matrix's kind."""
    kernel = (reference_gemm_kernel if matrix._steps is None else reference_step_kernel)(matrix)
    g = np.empty((B, matrix.m))
    for b0 in range(0, B, 64):
        k = min(64, B - b0)
        kernel(_count_rows(matrix.n, seed.generator(b0 // 64), k), g[b0:b0 + k])
    return g


def reference_signed_sups(g, sign):
    """Per-row suprema through a negated or absolute copy of the rows."""
    if g.shape[1] == 0:
        return np.zeros(g.shape[0])
    if sign == "plus":
        return g.max(axis=1)
    if sign == "minus":
        return (-g).max(axis=1)
    return np.abs(g).max(axis=1)


def reference_sorted_sups(g, indices, sign):
    """Sorted suprema over ``indices``, reduced from a gathered copy of their columns."""
    return np.sort(reference_signed_sups(g if indices.size == g.shape[1] else g[:, indices],
                                         sign))


class TestGroupedStepKernel:
    """The grouped step kernel equals the per-replicate loop bit for bit."""

    @pytest.mark.parametrize("n", [1, 7, 1000, 5000, 20_000])
    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_equals_the_per_replicate_loop(self, n, batch_size):
        seed = SeedRecord(51).child(n)
        want = reference_block_deviations(stepped(n, batch_size, 50 + n), seed, 1000)
        for B in (1, 63, 64, 65, 1000):
            # a fresh matrix per B, so none reads another's kept deviations
            got = _deviations(stepped(n, batch_size, 50 + n), seed, B)
            assert same_bits(got, want[:B]), B

    @pytest.mark.parametrize("group", [1, 3, 21, 64 * 7])
    def test_any_group_size_gives_the_same_bits(self, monkeypatch, group):
        import riskbands.bootstrap as bootstrap_mod
        # n = 7: groups of 1, 3 and 21 replicates leave a short last group in
        # each block; 64 * 7 takes a whole block at once
        monkeypatch.setattr(bootstrap_mod, "_GROUP", 7 * group)
        seed = SeedRecord(52)
        want = reference_block_deviations(stepped(7, 5, 53), seed, 150)
        assert same_bits(_deviations(stepped(7, 5, 53), seed, 150), want)
        assert same_bits(_deviations(stepped(7, 5, 53), seed, 150, workers=3), want)

    def test_paper_scale_equals_the_per_replicate_loop(self):
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=0.2)
        seed = SeedRecord(55)
        # two realizations, so the kernel under test reads no kept deviations
        want = reference_block_deviations(spec.realize(1000, SeedRecord(54))[0], seed, 1000)
        assert same_bits(_deviations(spec.realize(1000, SeedRecord(54))[0], seed, 1000), want)


class TestCopyFreeSuprema:
    """Suprema reduced in place, over a slice where the subset is one run of
    indices, equal the copy-based reduction bit for bit, zeros' signs included."""

    @staticmethod
    def subsets(m, rng):
        return {"empty": np.array([], dtype=np.int64), "full": np.arange(m),
                "prefix": np.arange(m // 3), "middle run": np.arange(m // 4, m - m // 4),
                "last": np.array([m - 1]), "two runs": np.r_[1:m // 5, m // 3:m // 2],
                "scattered": np.sort(rng.choice(m, m // 10, replace=False))}

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n", [7, 1000])
    def test_every_sign_and_subset(self, dense, n):
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=0.2)
        matrix, _ = spec.realize(n, SeedRecord(56))
        if dense:
            matrix = fresh_copy(matrix)
        seed, B = SeedRecord(57), 1000
        g = reference_block_deviations(matrix, seed, B)
        for name, idx in self.subsets(matrix.m, np.random.default_rng(58)).items():
            for sign in ("plus", "minus", "two-sided"):
                got = sup_distribution(matrix, IndexSet(idx), sign, B, seed).sorted_values
                assert same_bits(got, reference_sorted_sups(g, idx, sign)), (name, sign)

    @pytest.mark.parametrize("n, dense", [(7, False), (7, True), (1000, False), (1000, True),
                                          (20_000, False)])
    def test_rr_and_rrr_quantiles_and_sets(self, n, dense):
        spec = GeneratorSpec(EQUICORRELATED, default_synthetic_grid(), rho=0.2)
        matrix, _ = spec.realize(n, SeedRecord(59))
        if dense:
            matrix = fresh_copy(matrix)
        seed, B = SeedRecord(60), 1000
        g = reference_block_deviations(matrix, seed, B)
        full = np.arange(matrix.m)
        for side, sign in (("upper", "minus"), ("lower", "plus"), ("two-sided", "two-sided")):
            band = rr_band(matrix, 0.1, B, seed, side=side)
            assert band.info["q_hat"] == conservative_quantile(
                reference_sorted_sups(g, full, sign), 0.1)
        cfg = RRRConfig(seed=seed, B=B)
        result = rrr_band(matrix, cfg)
        q_glob = conservative_quantile(reference_sorted_sups(g, full, "two-sided"),
                                       cfg.delta_glob)
        assert same_bits(result.q_glob, q_glob)
        curve = empirical_risk(matrix).values
        adjusted = np.flatnonzero(curve <= cfg.r + 2.0 * q_glob / math.sqrt(n))
        assert np.array_equal(result.adjusted.indices, adjusted)
        assert np.array_equal(result.sublevel.indices, np.flatnonzero(curve <= cfg.r))
        assert same_bits(result.q_loc, conservative_quantile(
            reference_sorted_sups(g, adjusted, "minus"), cfg.delta_loc))
        assert same_bits(result.band.upper,
                         np.clip(curve + result.q_loc / math.sqrt(n), 0.0, 1.0))

    @pytest.mark.parametrize("m", [1, 2, 7, 64, 65, 1000])
    def test_signed_zeros(self, m):
        from riskbands.bootstrap import _signed_sups
        rng = np.random.default_rng(61 + m)
        zeros = rng.choice([0.0, -0.0], size=(400, m + 5))
        rows = np.where(rng.random(zeros.shape) < 0.3, 0.5, zeros)
        # all zeros; zeros and positives; zeros and negatives; anything
        g = np.concatenate([zeros[:100], rows[100:200], -rows[200:300], rows[300:] *
                            rng.choice([1.0, -1.0], size=(100, m + 5))])
        for start in (0, 1, 5):
            view = g[:, start:start + m]
            for sign in ("plus", "minus", "two-sided"):
                want = reference_signed_sups(np.ascontiguousarray(view), sign)
                assert same_bits(_signed_sups(view, sign), want), (start, sign)
                assert same_bits(_signed_sups(view.copy(), sign), want), (start, sign)

    def test_constant_columns_on_the_dense_path(self):
        rng = np.random.default_rng(62)
        values = np.sort(rng.random((50, 12)), axis=1)
        values[:, :4] = 0.0
        values[:, 9:] = 1.0
        for matrix in (LossMatrix(ParameterGrid.linspace(0.0, 1.0, 12), values),
                       LossMatrix(ParameterGrid.linspace(0.0, 1.0, 6), np.full((30, 6), 0.5))):
            seed = SeedRecord(63)
            g = reference_block_deviations(matrix, seed, 130)
            for idx in (np.arange(matrix.m), np.arange(3), np.array([0, 2]), np.array([1])):
                for sign in ("plus", "minus", "two-sided"):
                    got = sup_distribution(matrix, IndexSet(idx), sign, 130, seed).sorted_values
                    assert same_bits(got, reference_sorted_sups(g, idx, sign)), (idx, sign)

    @pytest.mark.parametrize("kind", ["stepped", "dense", "random"])
    @pytest.mark.parametrize("sign", ["plus", "minus", "two-sided"])
    def test_resumed_suggest_b_history(self, monkeypatch, kind, sign):
        import riskbands.bootstrap as bootstrap_mod
        monkeypatch.setattr(bootstrap_mod, "_B_CAP", 800)
        matrix = {"stepped": lambda: stepped(400, 5, 64),
                  "dense": lambda: fresh_copy(stepped(400, 5, 64)),
                  "random": lambda: random_matrix(65, n=60, m=9)}[kind]()
        seed = SeedRecord(66)
        result = suggest_b(matrix, 0.1, seed, initial_b=100, sign=sign, rel_tol=1e-6)
        # 100 replicates leave a partial block, which the next doubling resumes
        assert len(result.history) >= 2
        for b, q, _ in result.history:
            want = reference_sorted_sups(reference_block_deviations(matrix, seed, b),
                                         np.arange(matrix.m), sign)
            assert same_bits(q, conservative_quantile(want, 0.1)), b
