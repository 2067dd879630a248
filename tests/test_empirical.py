import dataclasses

import numpy as np
import pytest

from riskbands import (
    IndexSet,
    LossMatrix,
    ParameterGrid,
    RiskCurve,
    empirical_risk,
    sublevel_set,
    validate,
)


def grid(m=3):
    return ParameterGrid.linspace(0.0, 1.0, m)


class TestEmpiricalRisk:
    def test_two_row_mean(self):
        m = LossMatrix(grid(2), [[1.0, 0.0], [0.0, 0.0]])
        curve = empirical_risk(m)
        assert curve.values.tolist() == [0.5, 0.0]
        assert curve.sample_size == 2

    def test_single_row(self):
        m = LossMatrix(grid(2), [[0.3, 0.7]])
        assert empirical_risk(m).values.tolist() == [0.3, 0.7]

    def test_constant(self):
        m = LossMatrix(grid(4), np.full((7, 4), 0.25))
        assert np.all(empirical_risk(m).values == 0.25)

    def test_curve_is_kept_on_its_matrix(self):
        values = np.random.default_rng(4).random((9, 5))
        m = LossMatrix(grid(5), values)
        curve = empirical_risk(m)
        assert empirical_risk(m) is curve
        # an equal-valued matrix, and a copy made by replace, get their own
        for other in (LossMatrix(grid(5), values), dataclasses.replace(m)):
            again = empirical_risk(other)
            assert again is not curve
            assert again.values.tobytes() == curve.values.tobytes()
        assert curve.values.tobytes() == np.clip(values.mean(axis=0), 0.0, 1.0).tobytes()

    def test_monotone_input_gives_monotone_curve(self):
        rng = np.random.default_rng(3)
        values = np.minimum.accumulate(rng.random((20, 6)), axis=1)
        m = LossMatrix(grid(6), values, "nonincreasing")
        assert validate(m).passed
        curve = empirical_risk(m)
        assert np.all(np.diff(curve.values) <= 0)


class TestSublevelSet:
    def test_single_qualifying_entry(self):
        c = RiskCurve(grid(3), [0.4, 0.2, 0.05], sample_size=5)
        assert sublevel_set(c, 0.1).indices.tolist() == [2]

    def test_full_grid_at_r_one(self):
        c = RiskCurve(grid(3), [0.4, 0.2, 0.05], sample_size=5)
        assert len(sublevel_set(c, 1.0)) == 3

    def test_empty_below_minimum(self):
        c = RiskCurve(grid(3), [0.4, 0.2, 0.05], sample_size=5)
        assert sublevel_set(c, 0.01).is_empty

    def test_upset_for_nonincreasing_curve(self):
        c = RiskCurve(grid(5), [0.9, 0.6, 0.6, 0.3, 0.1], sample_size=5)
        s = sublevel_set(c, 0.6)
        # every index right of the first included one is included too
        assert s.indices.tolist() == list(range(s.indices[0], 5))


class TestIndexSet:
    def test_sorted_deduplicated(self):
        s = IndexSet(np.array([4, 1, 4, 2]))
        assert s.indices.tolist() == [1, 2, 4]

    def test_out_of_grid_detected(self):
        s = IndexSet(np.array([0, 7]))
        with pytest.raises(ValueError):
            s.check_against(grid(5))

    def test_intersect_and_subset(self):
        a = IndexSet(np.array([0, 1, 3]))
        b = IndexSet(np.array([1, 3, 4]))
        assert a.intersect(b).indices.tolist() == [1, 3]
        assert IndexSet(np.array([1, 3])).issubset(a)
        assert not a.issubset(b)
