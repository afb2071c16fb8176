"""Grid construction, tail models, grid functions, and nodal calculus."""

import numpy as np
import pytest

from deadcore import (
    GridFunction,
    GridSpec,
    TailModel,
    detect_dead_core,
    discrete_derivative,
    make_grid,
    sup_on_ball,
)
from deadcore.analysis import mask_runs


class TestGridSpec:
    def test_coarse_example_warns_but_builds(self):
        with pytest.warns(UserWarning, match="coarse grid") as record:
            spec = GridSpec(h=0.25, a=1.0, R=4.0)
        assert spec.n_nodes == 33
        # the caller, not the dataclass-generated __init__ ("<string>")
        assert record[0].filename == __file__

    def test_fine_example_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = GridSpec(h=1 / 64, a=1.0, R=2.0)
        assert spec.n_nodes == 257

    @pytest.mark.parametrize(
        "h,a,R,msg",
        [
            (-0.1, 1.0, 2.0, "positive"),
            (0.0, 1.0, 2.0, "positive"),
            (1 / 16, -1.0, 2.0, "positive"),
            (0.3, 1.0, 2.0, "integer"),
            (1 / 16, 1.0, 2.0 + 0.001, "integer"),
            (0.5, 1.0, 4.0, "at least 4"),
            (1 / 16, 1.0, 1.5, "R >= 2a"),
            (1e-320, 1.0, 2.0, "integer"),  # a/h overflows to inf
            (1.0, float("inf"), float("inf"), "integer"),
        ],
    )
    def test_rejects_bad_parameters(self, h, a, R, msg):
        with pytest.raises(ValueError, match=msg):
            GridSpec(h=h, a=a, R=R)

    def test_r_equal_2a_allowed(self):
        spec = GridSpec(h=1 / 32, a=1.0, R=2.0)
        assert spec.R == 2 * spec.a


class TestMakeGrid:
    def test_nodes_and_index_sets(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        assert grid.n == 257
        assert grid.interior.size == 127
        assert grid.exterior.size == 130
        np.testing.assert_allclose(grid.x[0], -2.0, atol=1e-15)
        np.testing.assert_allclose(grid.x[-1], 2.0, atol=1e-15)
        # the window endpoints +-a are exterior, their inner neighbours interior
        assert np.all(np.abs(grid.x_interior) < grid.a)
        assert np.any(np.isclose(grid.x[grid.exterior], grid.a))
        assert np.any(np.isclose(grid.x[grid.exterior], -grid.a))

    def test_origin_is_a_node(self):
        grid = make_grid(GridSpec(h=1 / 32, a=0.5, R=1.0))
        assert np.min(np.abs(grid.x)) == 0.0

    def test_spacing_is_exact(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=4.0))
        np.testing.assert_allclose(np.diff(grid.x), grid.h, rtol=1e-12)


class TestTailModel:
    def test_round_trip_encode_parse(self):
        for tail in (
            TailModel.zero(),
            TailModel.const(-0.125),
            TailModel.power(2.5, 1.75),
        ):
            assert TailModel.parse(tail.encode()) == tail

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            TailModel.parse("linear:3")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown tail kind"):
            TailModel(kind="step")

    def test_values_and_limits(self):
        assert TailModel.zero().value(10.0) == 0.0
        assert TailModel.const(0.3).value(-7.0) == 0.3
        assert TailModel.power(2.0, 1.0).value(-4.0) == pytest.approx(0.5)


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        with pytest.raises(ValueError, match="does not match"):
            GridFunction(grid, np.zeros(grid.n - 1))

    def test_interior_exterior_split(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u = GridFunction(grid, np.arange(grid.n, dtype=float))
        assert u.interior_values.size + u.exterior_values.size == grid.n


class TestSupOnBall:
    def test_closed_ball_includes_boundary_nodes(self):
        grid = make_grid(GridSpec(h=1 / 4, a=4.0, R=8.0))
        v = np.zeros(grid.n)
        v[np.isclose(grid.x, 0.5)] = 3.0  # exactly on the ball boundary
        u = GridFunction(grid, v)
        assert sup_on_ball(u, 0.0, 0.5) == 3.0

    def test_excludes_outside_nodes(self):
        grid = make_grid(GridSpec(h=1 / 4, a=4.0, R=8.0))
        v = np.zeros(grid.n)
        v[np.isclose(grid.x, 1.0)] = 7.0
        u = GridFunction(grid, v)
        assert sup_on_ball(u, 0.0, 0.5) == 0.0

    def test_radius_below_spacing_rejected(self):
        grid = make_grid(GridSpec(h=1 / 4, a=4.0, R=8.0))
        u = GridFunction(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="below the node spacing"):
            sup_on_ball(u, 0.0, 0.1)


class TestDiscreteDerivative:
    def test_exact_on_quadratics(self):
        # second-order stencils, endpoint rows included, are exact on x^2
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u = GridFunction(grid, 3.0 * grid.x**2 - 2.0 * grid.x + 1.0)
        d1 = discrete_derivative(u, 1)
        d2 = discrete_derivative(u, 2)
        np.testing.assert_allclose(d1.values, 6.0 * grid.x - 2.0, atol=1e-10)
        np.testing.assert_allclose(d2.values, 6.0, atol=1e-9)

    def test_second_order_convergence_on_sine(self):
        errs = []
        for h in (1 / 32, 1 / 64):
            grid = make_grid(GridSpec(h=h, a=1.0, R=2.0))
            u = GridFunction(grid, np.sin(grid.x))
            d1 = discrete_derivative(u, 1)
            errs.append(np.abs(d1.values - np.cos(grid.x)).max())
        assert errs[1] < errs[0] / 3.5

    def test_result_has_zero_tail(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x.copy(), TailModel.const(5.0))
        assert discrete_derivative(u, 1).tail == TailModel.zero()

    def test_bad_order_rejected(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u = GridFunction(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="order"):
            discrete_derivative(u, 3)


class TestMaskRuns:
    @staticmethod
    def _runs_loop(mask):
        runs, i, n = [], 0, mask.size
        while i < n:
            if mask[i]:
                j = i
                while j + 1 < n and mask[j + 1]:
                    j += 1
                runs.append([i, j])
                i = j + 1
            else:
                i += 1
        return runs

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(3)
        for n in range(30):
            for _ in range(20):
                mask = rng.random(n) < rng.random()
                assert mask_runs(mask).tolist() == self._runs_loop(mask)

    def test_longest_dead_core_tie_takes_leftmost(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        x = grid.x_interior
        v = np.ones(grid.n)
        v[grid.interior[[0, 1, 3, 4, 6, 7, 8]]] = 0.0
        assert detect_dead_core(GridFunction(grid, v), 0.0) == (x[6], x[8])
        v[grid.interior[8]] = 1.0
        assert detect_dead_core(GridFunction(grid, v), 0.0) == (x[0], x[1])
