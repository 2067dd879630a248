import numpy as np
import pytest

from riskbands import (
    ConfidenceBand,
    IndexSet,
    ParameterGrid,
    combine,
    selective_ratio_upper,
)


def band(lower, upper, delta=0.05, grid=None, n=100, validity=None):
    lower = None if lower is None else np.asarray(lower, dtype=float)
    upper = None if upper is None else np.asarray(upper, dtype=float)
    m = len(lower) if lower is not None else len(upper)
    grid = grid or ParameterGrid.linspace(0.0, 1.0, m)
    return ConfidenceBand(
        grid=grid,
        lower=lower,
        upper=upper,
        validity=validity or IndexSet.full(grid),
        delta=delta,
        method="rr",
        sample_size=n,
    )


class TestCombine:
    def test_identity_single_component(self):
        b = band([0.1, 0.2], [0.4, 0.5], delta=0.07)
        out = combine([b], lambda x: x, psi_monotonicity=["increasing"])
        assert out.delta == 0.07
        assert np.array_equal(out.lower, b.lower)
        assert np.array_equal(out.upper, b.upper)
        assert out.method == "composed"

    def test_ratio_corner_evaluation(self):
        num = band([0.0, 0.0], [0.2, 0.1], delta=0.05)
        den = band([0.5, 0.4], [1.0, 1.0], delta=0.05)
        floor = 0.01
        psi = lambda a, b: a / np.maximum(b, floor)
        out = combine([num, den], psi, psi_monotonicity=["increasing", "decreasing"])
        assert out.upper[0] == pytest.approx(0.2 / 0.5)
        assert out.upper[1] == pytest.approx(0.1 / 0.4)
        assert out.delta == pytest.approx(0.1)

    def test_delta_additivity_exact(self):
        bands = [band([0.1] * 3, [0.2] * 3, delta=d) for d in (0.01, 0.02, 0.04)]
        out = combine(bands, lambda a, b, c: (a + b + c) / 3,
                      psi_monotonicity=["increasing"] * 3)
        assert out.delta == 0.01 + 0.02 + 0.04

    def test_validity_intersection(self):
        g = ParameterGrid.linspace(0.0, 1.0, 4)
        b1 = band([0.0] * 4, [0.5] * 4, grid=g, validity=IndexSet(np.array([0, 1, 2])))
        b2 = band([0.0] * 4, [0.5] * 4, grid=g, validity=IndexSet(np.array([1, 2, 3])))
        out = combine([b1, b2], lambda a, b: (a + b) / 2,
                      psi_monotonicity=["increasing", "increasing"])
        assert out.validity.indices.tolist() == [1, 2]

    def test_containment_random_boxes(self):
        rng = np.random.default_rng(5)
        lo1, hi1 = np.sort(rng.random((2, 6)), axis=0)
        lo2, hi2 = np.sort(rng.random((2, 6)), axis=0)
        b1, b2 = band(lo1, hi1), band(lo2, hi2)
        psi = lambda a, b: np.clip(a * (1.0 - b), 0.0, 1.0)
        out = combine([b1, b2], psi, psi_monotonicity=["increasing", "decreasing"])
        for _ in range(500):
            u = rng.random(6)
            x1 = lo1 + u * (hi1 - lo1)
            x2 = lo2 + rng.random(6) * (hi2 - lo2)
            vals = psi(x1, x2)
            assert np.all(vals <= out.upper + 1e-12)
            assert np.all(vals >= out.lower - 1e-12)

    def test_clamp_note_when_psi_escapes_unit_interval(self):
        b1 = band([0.0, 0.0], [1.0, 1.0])
        out = combine([b1], lambda a: 2.0 * a, psi_monotonicity=["increasing"])
        assert "psi-output-clamped" in out.notes
        assert np.all(out.upper <= 1.0)

    def test_grid_mismatch_rejected(self):
        b1 = band([0.0, 0.0], [1.0, 1.0])
        b2 = band([0.0, 0.0], [1.0, 1.0], grid=ParameterGrid.linspace(0.0, 2.0, 2))
        with pytest.raises(ValueError, match="component bands must share a grid"):
            combine((b1, b2), lambda a, b: a + b, psi_monotonicity=["increasing"] * 2)

    def test_no_band_rejected(self):
        with pytest.raises(ValueError, match="need at least one component band"):
            combine([], lambda: np.zeros(2), [])

    def test_flags_are_required(self):
        b1 = band([0.0] * 4, [0.99] * 4)
        with pytest.raises(TypeError, match="psi_monotonicity"):
            combine([b1], lambda a: 4.0 * a * (1.0 - a))

    @pytest.mark.parametrize("flags", [[], ["increasing"], ["increasing", "up"]])
    def test_flags_need_one_word_per_component(self, flags):
        bands = [band([0.0, 0.0], [0.5, 0.5]), band([0.0, 0.0], [0.5, 0.5])]
        with pytest.raises(ValueError, match="flag per component"):
            combine(bands, lambda a, b: a + b, flags)

    def test_components_are_checked_before_psi(self):
        def psi(*parts):
            raise AssertionError("psi may not be evaluated")

        bands = [band([0.0, 0.0], [1.0, 1.0], delta=0.5)] * 2
        with pytest.raises(ValueError, match="component error budgets must sum below 1"):
            combine(bands, psi, ["increasing"] * 2)

    @pytest.mark.parametrize("deltas", [(0.5, 0.5), (0.6, 0.3, 0.2)])
    def test_budgets_summing_to_one_rejected(self, deltas):
        bands = [band([0.0, 0.0], [1.0, 1.0], delta=d) for d in deltas]
        with pytest.raises(ValueError, match="component error budgets must sum below 1"):
            combine(bands, lambda *parts: sum(parts),
                    psi_monotonicity=["increasing"] * len(bands))


class TestSelectiveRatioUpper:
    def test_unit_denominator_returns_numerator(self):
        num = band(None, [0.3, 0.4], delta=0.05)
        den = band([1.0, 1.0], None, delta=0.05)
        out = selective_ratio_upper(num, den, floor=0.01)
        assert np.allclose(out.upper, num.upper)
        assert out.delta == pytest.approx(0.1)

    def test_degenerate_denominator_clamps_via_floor(self):
        num = band(None, [0.3, 0.4], delta=0.05)
        den = band([0.0, 0.0], None, delta=0.05)
        out = selective_ratio_upper(num, den, floor=0.2)
        assert np.allclose(out.upper, [1.0, 1.0])

    def test_arithmetic(self):
        num = band(None, [0.05, 0.2], delta=0.05)
        den = band([0.25, 0.5], None, delta=0.05)
        out = selective_ratio_upper(num, den, floor=0.01)
        assert out.upper[0] == pytest.approx(0.2)
        assert out.upper[1] == pytest.approx(0.4)

    def test_default_floor_from_sample_size(self):
        num = band(None, [0.3, 0.4], delta=0.05, n=50)
        den = band([0.5, 0.5], None, delta=0.05, n=50)
        out = selective_ratio_upper(num, den)
        assert out.info["ratio_floor"] == pytest.approx(1.0 / 100)

    def test_floor_domain(self):
        num = band(None, [0.3, 0.4])
        den = band([0.5, 0.5], None)
        for floor in (0.0, float("inf"), 1.5):
            with pytest.raises(ValueError, match=r"floor must lie in \(0, 1\]"):
                selective_ratio_upper(num, den, floor=floor)
        assert np.array_equal(selective_ratio_upper(num, den, floor=1.0).upper, [0.3, 0.4])

    def test_components_are_checked_as_for_combine(self):
        num = band(None, [0.3, 0.4], delta=0.5)
        den = band([0.5, 0.5], None, delta=0.5)
        with pytest.raises(ValueError, match="component error budgets must sum below 1"):
            selective_ratio_upper(num, den, floor=0.1)
        other = band([0.5, 0.5], None, grid=ParameterGrid.linspace(0.0, 2.0, 2))
        with pytest.raises(ValueError, match="component bands must share a grid"):
            selective_ratio_upper(band(None, [0.3, 0.4]), other, floor=0.1)

    def test_missing_sides_rejected(self):
        upper_only = band(None, [0.3, 0.4])
        lower_only = band([0.5, 0.5], None)
        with pytest.raises(ValueError):
            selective_ratio_upper(lower_only, lower_only, floor=0.1)
        with pytest.raises(ValueError):
            selective_ratio_upper(upper_only, upper_only, floor=0.1)
