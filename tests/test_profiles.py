"""Reference profiles, exponent formulas, and exterior data builders."""

import numpy as np
import pytest

import deadcore as dc
from deadcore import GridSpec, TailModel, make_grid


class TestExponentFormulas:
    def test_growth_exponent_values(self):
        assert dc.growth_exponent(0.75, 0.2) == pytest.approx(1.875)
        assert dc.growth_exponent(0.95, 0.2) == pytest.approx(2.375)
        assert dc.growth_exponent(1.0, 0.2) == pytest.approx(2.5)

    def test_schauder_exponent_values(self):
        assert dc.schauder_exponent(0.75, 0.2) == pytest.approx(1.7)
        assert dc.schauder_exponent(0.95, 0.3) == pytest.approx(2.2)

    def test_growth_strictly_beats_schauder(self):
        # 2s/(1-gamma) > 2s + gamma iff s > (1-gamma)/2, true on all of
        # the admitted range s >= 1/2
        for s in (0.5, 0.75, 0.9, 0.99):
            for gamma in (0.05, 0.2, 0.33):
                assert dc.growth_exponent(s, gamma) > dc.schauder_exponent(s, gamma)


class TestProfileCoefficient:
    def test_frozen_value(self):
        assert dc.profile_coefficient(0.2) == pytest.approx(0.1916288597136449, rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.05, 0.15, 0.25, 0.32])
    def test_defining_identity(self, gamma):
        # kappa^(1-gamma) * beta*(beta-1) = 1 makes kappa*x^beta solve u'' = u^gamma
        beta = 2.0 / (1.0 - gamma)
        kappa = dc.profile_coefficient(gamma)
        assert kappa ** (1 - gamma) * beta * (beta - 1) == pytest.approx(1.0, rel=1e-12)


class TestExactLocalProfile:
    def test_odd_and_zero_tailed(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        np.testing.assert_allclose(u.values, -u.values[::-1], atol=1e-15)
        assert u.tail == TailModel.zero()

    def test_solves_local_equation_pointwise(self):
        # kappa*beta*(beta-1)*|x|^(beta-2) equals |u|^gamma away from 0
        gamma = 0.2
        beta = 2.0 / (1.0 - gamma)
        kappa = dc.profile_coefficient(gamma)
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, gamma)
        x = grid.x
        away = np.abs(x) > 0.1
        lhs = kappa * beta * (beta - 1) * np.abs(x[away]) ** (beta - 2) * np.sign(x[away])
        rhs = np.sign(u.values[away]) * np.abs(u.values[away]) ** gamma
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_growth_at_origin(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        node = np.argmin(np.abs(grid.x - 0.5))
        assert u.values[node] == pytest.approx(
            dc.profile_coefficient(0.2) * 0.5**2.5, rel=1e-12
        )


class TestGetoorProfile:
    def test_shape_and_support(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        w = dc.getoor_profile(0.75, grid)
        inside = np.abs(grid.x) < 1.0
        np.testing.assert_allclose(
            w.values[inside], (1 - grid.x[inside] ** 2) ** 0.75, rtol=1e-14
        )
        assert np.all(w.values[~inside] == 0.0)
        assert w.tail == TailModel.zero()

    def test_constant_values(self):
        assert dc.getoor_constant(0.5) == 1.0
        assert dc.getoor_constant(0.75) == pytest.approx(1.329340388179137, rel=1e-12)


class TestOddExteriorBuilder:
    def test_ramp_shape(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=4.0))
        g = dc.odd_exterior_builder(grid, "ramp", 3.0)
        assert np.all(g.values[grid.interior] == 0.0)
        assert g.tail == TailModel.zero()
        # odd, clamped to full amplitude at |y| >= 2a
        np.testing.assert_allclose(g.values, -g.values[::-1], atol=1e-15)
        far = np.abs(grid.x) >= 2.0
        np.testing.assert_allclose(np.abs(g.values[far]), 3.0, rtol=1e-14)
        # quadratic rise: at |y| = 1.5a the factor is (0.5)^2
        node = np.argmin(np.abs(grid.x - 1.5))
        assert g.values[node] == pytest.approx(3.0 * 0.25, rel=1e-12)

    def test_plateau_shape(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        g = dc.odd_exterior_builder(grid, "plateau", 2.0)
        ext = grid.x[grid.exterior]
        vals = g.values[grid.exterior]
        np.testing.assert_allclose(vals[ext > 0], 2.0)
        np.testing.assert_allclose(vals[ext < 0], -2.0)

    def test_unknown_kind(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        with pytest.raises(ValueError, match="kind"):
            dc.odd_exterior_builder(grid, "sawtooth", 1.0)
