import numpy as np
import pytest

from riskbands import (
    LossMatrix,
    ParameterGrid,
    RRRConfig,
    SeedRecord,
    conservative_quantile,
    empirical_risk,
    rrr_band,
    sublevel_set,
    sup_distribution,
)


def nonincreasing_matrix(seed, n=50, m=12, scale=1.0):
    rng = np.random.default_rng(seed)
    values = np.minimum.accumulate(rng.random((n, m)), axis=1) * scale
    return LossMatrix(ParameterGrid.linspace(0.0, 1.0, m), values, "nonincreasing")


def config(seed=0, **kw):
    return RRRConfig(seed=SeedRecord(seed), **kw)


class TestRRRConfig:
    def test_defaults(self):
        cfg = config()
        assert (cfg.r, cfg.delta_glob, cfg.delta_loc, cfg.B) == (0.1, 0.01, 0.09, 1000)
        assert cfg.delta == pytest.approx(0.1)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            config(delta_glob=0.5, delta_loc=0.6)
        with pytest.raises(ValueError):
            config(delta_glob=0.0)
        with pytest.raises(ValueError):
            config(r=1.5)

    def test_b_must_be_an_integer(self):
        # refused, not truncated; a numpy integer is an integer
        for bad in (2.5, 100.0, "100"):
            with pytest.raises(ValueError):
                config(B=bad)
        cfg = config(B=np.int64(64))
        assert cfg.B == 64 and type(cfg.B) is int


class TestRRRBand:
    def test_constant_below_r_covers_full_grid(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5),
                       np.full((20, 5), 0.05), "nonincreasing")
        result = rrr_band(m, config(r=0.1, B=128))
        assert result.q_glob == 0.0 and result.q_loc == 0.0
        assert len(result.band.validity) == 5
        assert np.array_equal(result.band.upper, empirical_risk(m).values)

    def test_constant_above_r_empty_validity_with_warning(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5),
                       np.full((20, 5), 0.9), "nonincreasing")
        result = rrr_band(m, config(r=0.1, B=128))
        assert result.band.validity.is_empty
        assert "empty-validity" in result.band.notes

    def test_sublevel_contained_in_adjusted(self):
        for seed in range(5):
            m = nonincreasing_matrix(seed)
            result = rrr_band(m, config(seed, r=0.5, B=128))
            assert result.sublevel.issubset(result.adjusted)

    def test_every_set_is_a_sublevel_set_of_the_curve(self):
        # validity and adjusted set both come from sublevel_set, at r and at
        # r inflated by 2 q_glob / sqrt(n)
        for seed in range(4):
            m = nonincreasing_matrix(seed)
            result = rrr_band(m, config(seed, r=0.5, B=128))
            curve = empirical_risk(m)
            inflated = sublevel_set(curve, result.r + 2.0 * result.q_glob / np.sqrt(m.n))
            assert np.array_equal(result.sublevel.indices, sublevel_set(curve, result.r).indices)
            assert np.array_equal(result.adjusted.indices, inflated.indices)
            assert result.adjusted.provenance == result.sublevel.provenance == "sublevel"

    def test_upsets_for_nonincreasing_curve(self):
        m = nonincreasing_matrix(3)
        result = rrr_band(m, config(3, r=0.5, B=128))
        for s in (result.sublevel, result.adjusted):
            if len(s):
                assert s.indices.tolist() == list(range(s.indices[0], m.m))

    def test_reproducible_with_same_seed(self):
        m = nonincreasing_matrix(4)
        a = rrr_band(m, config(9, r=0.4, B=256))
        # an equal-valued matrix of its own recomputes the replicates
        b = rrr_band(nonincreasing_matrix(4), config(9, r=0.4, B=256))
        assert a.q_glob == b.q_glob and a.q_loc == b.q_loc
        assert np.array_equal(a.band.upper, b.band.upper)
        assert np.array_equal(a.sublevel.indices, b.sublevel.indices)

    def test_local_quantile_dominated_by_full_grid(self):
        # paired replicates: the restricted supremum quantile cannot exceed
        # the full-grid minus-sign quantile at the same budget
        m = nonincreasing_matrix(5, n=60, m=15)
        cfg = config(11, r=0.6, B=256)
        result = rrr_band(m, cfg)
        full = sup_distribution(m, None, "minus", cfg.B, cfg.seed)
        assert result.q_loc <= conservative_quantile(full.sorted_values, cfg.delta_loc) + 1e-15

    def test_global_matches_sup_distribution_bitwise(self):
        # rrr's global quantile and the public two-sided distribution are
        # the same computation replicate for replicate
        m = nonincreasing_matrix(6, n=40, m=8)
        cfg = config(13, r=0.5, B=192)
        result = rrr_band(m, cfg)
        dist = sup_distribution(m, None, "two-sided", cfg.B, cfg.seed)
        assert result.q_glob == conservative_quantile(dist.sorted_values, cfg.delta_glob)

    def test_clamped_quantile_is_noted(self):
        m = nonincreasing_matrix(12, n=60, m=10)
        # delta_glob 0.01 needs B >= 99; at B = 50 q_glob is the sample maximum
        clamped = rrr_band(m, config(3, r=0.5, B=50, delta_glob=0.01))
        assert "quantile-clamped" in clamped.band.notes
        assert rrr_band(m, config(3, r=0.5, B=50, delta_glob=0.05)).band.notes == ()
        # either budget can clamp
        loc = rrr_band(m, config(3, r=0.5, B=50, delta_glob=0.05, delta_loc=0.01))
        assert loc.band.notes == ("quantile-clamped",)

    def test_unconstrained_orientation_rejected(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 4),
                       np.random.default_rng(0).random((10, 4)), "unconstrained")
        with pytest.raises(ValueError):
            rrr_band(m, config())

    def test_violated_orientation_rejected(self):
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 2),
                       [[0.2, 0.6]], "nonincreasing")
        with pytest.raises(ValueError):
            rrr_band(m, config())

    def test_bit_identical_serial_vs_parallel(self):
        a = rrr_band(nonincreasing_matrix(7, n=60, m=10), config(21, r=0.5, B=256), workers=1)
        b = rrr_band(nonincreasing_matrix(7, n=60, m=10), config(21, r=0.5, B=256), workers=4)
        assert np.array_equal(a.band.upper, b.band.upper)
        assert a.q_glob == b.q_glob and a.q_loc == b.q_loc

    def test_zero_global_quantile_leaves_the_adjusted_set_uninflated(self):
        # constant losses have no bootstrap spread, so r + 2 q_glob / sqrt(n) is r
        m = LossMatrix(ParameterGrid.linspace(0.0, 1.0, 5),
                       np.array([[0.3, 0.2, 0.08, 0.05, 0.0]] * 20), "nonincreasing")
        result = rrr_band(m, config(r=0.1, B=128))
        assert result.q_glob == 0.0
        assert result.sublevel.indices.tolist() == [2, 3, 4]
        assert np.array_equal(result.adjusted.indices, result.sublevel.indices)

    def test_r_below_the_curve_yields_empty_validity_but_a_band(self):
        m = nonincreasing_matrix(8, n=30, m=8)
        assert empirical_risk(m).values.min() > 1e-6
        result = rrr_band(m, config(2, r=1e-6, B=128))
        assert result.sublevel.is_empty and result.band.validity.is_empty
        assert "empty-validity" in result.band.notes
        # the adjusted set and the local quantile are still computed
        assert result.sublevel.issubset(result.adjusted)
        assert np.isfinite(result.band.upper).all()

    def test_info_echoes_the_level_and_both_sets(self):
        m = nonincreasing_matrix(9, n=40, m=10)
        cfg = config(3, r=0.5, B=128)
        result = rrr_band(m, cfg)
        info = result.band.info
        assert result.r == info["r"] == cfg.r
        assert sorted(info) == ["B", "adjusted_indices", "delta_glob", "delta_loc", "q_glob",
                                "q_loc", "r", "seed", "sublevel_indices"]
        assert info["q_glob"] == result.q_glob and info["q_loc"] == result.q_loc
        assert info["sublevel_indices"] == result.sublevel.indices.tolist()
        assert info["adjusted_indices"] == result.adjusted.indices.tolist()
        assert np.array_equal(result.band.validity.indices, result.sublevel.indices)


class TestRRRCoverage:
    def test_sets_bracket_the_population_sublevel_set(self):
        # Monte Carlo check of step 2 against the analytic truth: when
        # sup |empirical - truth| <= q_glob / sqrt(n), which should happen in
        # at least a 1 - delta_glob fraction of runs (up to MC error), the
        # adjusted set contains {t : truth <= r} and the empirical sublevel
        # set sits inside {t : truth <= r + q_glob / sqrt(n)}
        from riskbands import GeneratorSpec
        from riskbands.harness import EQUICORRELATED

        grid = ParameterGrid.linspace(-3.0, 3.0, 200)
        spec = GeneratorSpec(EQUICORRELATED, grid, rho=0.2)
        runs, held = 200, 0
        seed = SeedRecord(31)
        for run in range(runs):
            rs = seed.child(run)
            matrix, truth = spec.realize(500, rs.child(0))
            cfg = RRRConfig(seed=rs.child(1), r=0.1, B=200)
            result = rrr_band(matrix, cfg)
            target = np.flatnonzero(truth <= cfg.r)
            widened = np.flatnonzero(truth <= cfg.r + result.q_glob / np.sqrt(matrix.n))
            held += bool(np.isin(target, result.adjusted.indices).all()
                         and np.isin(result.sublevel.indices, widened).all())
        frac = held / runs
        floor = 1.0 - 0.01  # delta_glob
        se = np.sqrt(floor * (1 - floor) / runs)
        assert frac >= floor - 3 * se
