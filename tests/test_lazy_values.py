"""Generated loss matrices keep only their jump bins until ``values`` is read.

The reference throughout is the eager build the generator made before:
``_step_counts`` of the bins and level table, handed to ``LossMatrix._owning``
as a dense array. Every output read from a matrix whose values are built on
first use must be bit for bit the reference's.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from riskbands import (
    GeneratorSpec,
    MethodSpec,
    ParameterGrid,
    RRRConfig,
    SeedRecord,
    empirical_risk,
    oracle_sup_quantile,
    rr_band,
    rrr_band,
    run_metrics,
    sublevel_set,
)
from riskbands.harness import EQUICORRELATED
from riskbands.losses import _ROW_BLOCK, NONDECREASING, NONINCREASING, LossMatrix, _step_counts

SHIFT = 0.7


def spec_for(m, K):
    grid = ParameterGrid(np.array([0.25])) if m == 1 else ParameterGrid.linspace(-3.0, 3.0, m)
    return GeneratorSpec(EQUICORRELATED, grid, rho=0.2, batch_size=K, tradeoff_shift=SHIFT)


def eager_pair(spec, n, seed):
    """The primary and companion as the generator built them eagerly."""
    z = spec._draw_batches(n, seed.generator())
    K, m, t = z.shape[1], len(spec.grid), spec.grid.values
    levels = np.arange(K + 1) / K
    bins = np.searchsorted(t, z)
    primary = LossMatrix._owning(spec.grid, _step_counts(bins, m, levels), NONDECREASING,
                                 steps=bins)
    shifted = np.searchsorted(t + SHIFT, z)
    companion = LossMatrix._owning(spec.grid, _step_counts(shifted, m, 1.0 - levels),
                                   NONINCREASING)
    return primary, companion


def built(matrix):
    return "values" in vars(matrix)


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def same_band(got, want):
    sides = all(same_bits(a, b) if b is not None else a is None
                for a, b in ((got.lower, want.lower), (got.upper, want.upper)))
    return (sides and same_bits(got.validity.indices, want.validity.indices)
            and got.notes == want.notes and got.info == want.info and got.delta == want.delta)


def outcome(fn):
    # a refusal must be the same refusal on both sides
    try:
        return fn()
    except ValueError as err:
        return f"ValueError: {err}"


GRIDS = (1, 37, 1000)


class TestBitIdentity:
    @pytest.mark.parametrize("m", GRIDS)
    @pytest.mark.parametrize("K", [1, 5])
    @pytest.mark.parametrize("n", [1, 7, 511, 512, 513, 1000])
    def test_curve_values_bands_and_sets(self, n, K, m):
        spec = spec_for(m, K)
        seed = SeedRecord(30).child(n, K, m)
        lazy = spec.realize_pair(n, seed)[:2]
        eager = eager_pair(spec, n, seed)
        for got, want in zip(lazy, eager):
            assert not built(got)
            curve = empirical_risk(got)
            assert not built(got)
            assert same_bits(curve.values, empirical_risk(want).values)
            assert curve.sample_size == n and got.n == n and got.m == m
            for r in (0.0, 0.1, 0.5, 0.9):
                assert same_bits(sublevel_set(curve, r).indices,
                                 sublevel_set(empirical_risk(want), r).indices)
            band_seed = seed.child(1)
            for side in ("upper", "lower", "two-sided"):
                a, b = (rr_band(x, 0.1, 130, band_seed, side=side) for x in (got, want))
                assert same_band(a, b) and a.info["q_hat"] == b.info["q_hat"]
            config = RRRConfig(seed=band_seed, r=0.4, B=130)
            a, b = (outcome(lambda: rrr_band(x, config)) for x in (got, want))
            if isinstance(b, str):
                assert a == b
            else:
                assert same_band(a.band, b.band) and (a.q_glob, a.q_loc) == (b.q_glob, b.q_loc)
                assert same_bits(a.sublevel.indices, b.sublevel.indices)
                assert same_bits(a.adjusted.indices, b.adjusted.indices)
            # the values, built now, are the eager array bit for bit and stay put
            values = got.values
            assert same_bits(values, want.values) and not values.flags.writeable
            assert values.flags.c_contiguous and got.values is values

    @pytest.mark.parametrize("m", GRIDS)
    @pytest.mark.parametrize("K", [1, 5])
    def test_curve_at_n_20000(self, K, m):
        # one n x m array at a time: the reference's, then the lazy matrix's
        spec = spec_for(m, K)
        seed = SeedRecord(31).child(K, m)
        for side in (0, 1):
            want = empirical_risk(eager_pair(spec, 20_000, seed)[side]).values
            got = spec.realize_pair(20_000, seed)[side]
            assert same_bits(empirical_risk(got).values, want) and not built(got)
            values = got.values
            assert same_bits(np.clip(values.mean(axis=0), 0.0, 1.0), want)
            levels = got._levels
            for start in range(0, 20_000, 4 * _ROW_BLOCK):
                rows = slice(start, start + 4 * _ROW_BLOCK)
                assert same_bits(values[rows], _step_counts(got._steps[rows], m, levels))
            del values, got

    def test_primary_is_the_plain_realization(self):
        spec = spec_for(37, 5)
        plain, _ = spec.realize(300, SeedRecord(32))
        paired = spec.realize_pair(300, SeedRecord(32))[0]
        assert same_bits(plain._steps, paired._steps) and same_bits(plain._levels, paired._levels)
        assert same_bits(empirical_risk(plain).values, empirical_risk(paired).values)


def record_draws(monkeypatch):
    """Every matrix the generator hands out while the patch holds."""
    seen = []
    draw = GeneratorSpec._draw

    def recording(self, n, seed, pair):
        out = draw(self, n, seed, pair)
        seen.extend(x for x in out[:2] if x is not None)
        return out

    monkeypatch.setattr(GeneratorSpec, "_draw", recording)
    return seen


class TestLaziness:
    def test_no_dense_values_without_the_betting_test(self, monkeypatch):
        spec = spec_for(1000, 5)
        seen = record_draws(monkeypatch)
        primary, companion, _ = spec.realize_pair(1000, SeedRecord(33))
        empirical_risk(primary), empirical_risk(companion)
        methods = [MethodSpec("nasm"), MethodSpec("rr", B=200), MethodSpec("rrr", B=200)]
        run_metrics(methods, spec, 1000, 3, SeedRecord(34),
                    ["anywhere", "selected", "conservatism"])
        oracle_sup_quantile(spec, 1000, 0.1, 4, SeedRecord(35))
        # large-n's operation: realize, rr_band, rrr_band
        matrix, _ = spec.realize(3000, SeedRecord(36))
        rr_band(matrix, 0.1, 200, SeedRecord(37))
        rrr_band(matrix, RRRConfig(seed=SeedRecord(37), B=200))
        assert len(seen) == 2 + 3 * 2 + 4 + 1
        assert not any(built(x) for x in seen)

    def test_the_betting_test_builds_the_primary_only(self, monkeypatch):
        spec = spec_for(37, 5)
        seen = record_draws(monkeypatch)
        run_metrics([MethodSpec("pointwise")], spec, 200, 2, SeedRecord(38),
                    ["anywhere", "conservatism"])
        assert [built(x) for x in seen] == [True, False] * 2

    def test_pickle_copy_and_equality_keep_it_unbuilt(self):
        spec = spec_for(37, 5)
        for matrix, want in zip(spec.realize_pair(50, SeedRecord(39))[:2],
                                eager_pair(spec, 50, SeedRecord(39))):
            copies = [pickle.loads(pickle.dumps(matrix)), copy.deepcopy(matrix),
                      copy.copy(matrix)]
            assert not built(matrix) and not any(built(x) for x in copies)
            for twin in copies:
                assert twin.n == 50 and twin.orientation == matrix.orientation
                assert same_bits(empirical_risk(twin).values, empirical_risk(want).values)
                assert twin == matrix and twin == want and same_bits(twin.values, want.values)
            assert matrix == want and want == matrix and matrix != want.values
        first, second = (spec.realize(50, SeedRecord(s))[0] for s in (40, 41))
        assert first != second and first == first

    def test_a_built_matrix_pickles_with_its_values(self):
        matrix, _ = spec_for(37, 1).realize(20, SeedRecord(42))
        values = matrix.values
        twin = pickle.loads(pickle.dumps(matrix))
        assert built(twin) and same_bits(twin.values, values)

    def test_threads_reading_values_at_once_all_get_the_eager_bits(self):
        # a race may build the array more than once; every reader must still
        # get the eager array's bits, and the matrix must keep one of them
        spec = spec_for(1000, 5)
        want = eager_pair(spec, 600, SeedRecord(44))[1].values
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                companion = spec.realize_pair(600, SeedRecord(44))[1]
                got = [None] * 8
                start = threading.Barrier(len(got))

                def read(i):
                    start.wait(timeout=30)
                    got[i] = companion.values

                threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(x is not None and same_bits(x, want) for x in got)
                assert any(companion.values is x for x in got)
                assert same_bits(companion.values, want)
        finally:
            sys.setswitchinterval(interval)

    def test_only_values_is_built_on_demand(self):
        matrix, _ = spec_for(37, 1).realize(20, SeedRecord(43))
        with pytest.raises(AttributeError):
            matrix.no_such_attribute
        assert not built(matrix)
