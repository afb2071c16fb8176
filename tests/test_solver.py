"""Solver behaviour: validation, convergence, phase structure, reporting."""

import numpy as np
import pytest

import deadcore as dc
from deadcore import (
    GridFunction,
    GridSpec,
    ReactionSpec,
    SolverConfig,
    TailModel,
    make_grid,
)
from deadcore import solver


class TestValidation:
    @pytest.mark.parametrize("gamma", [0.0, 1 / 3, 0.5, -0.1])
    def test_gamma_open_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ReactionSpec(gamma=gamma)

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="reaction mode"):
            ReactionSpec(gamma=0.2, mode="three_phase")

    def test_eps_cap(self):
        with pytest.raises(ValueError, match="eps"):
            ReactionSpec(gamma=0.2, eps=1e-3)

    def test_residual_tol_floor(self):
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=1e-13)

    def test_max_iter_positive(self):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)

    def test_one_phase_property(self):
        assert not ReactionSpec(gamma=0.2).one_phase
        assert ReactionSpec(gamma=0.2, mode="one_phase").one_phase


class TestReactionValue:
    def test_cube_root_case(self):
        out = dc.reaction_value(np.array([8.0]), 0.32, False)
        assert out[0] == pytest.approx(8.0**0.32, rel=1e-14)

    def test_odd_in_two_phase(self):
        u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        f = dc.reaction_value(u, 0.2, False)
        np.testing.assert_allclose(f, -f[::-1], atol=0)
        assert f[2] == 0.0

    def test_one_phase_ignores_negative_part(self):
        u = np.array([-2.0, 0.0, 2.0])
        f = dc.reaction_value(u, 0.2, True)
        assert f[0] == 0.0 and f[1] == 0.0 and f[2] > 0.0


@pytest.fixture(scope="module")
def op_small():
    grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
    return dc.assemble(grid, 0.75)


class TestNonlocalSolve:
    def test_zero_data_gives_zero_solution(self, op_small):
        grid = op_small.grid
        g = GridFunction(grid, np.zeros(grid.n))
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        assert np.abs(rep.solution.values).max() == 0.0

    def test_converges_on_odd_ramp(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        assert rep.residual_inf <= 1e-9
        # energy trace never increases
        jt = np.asarray(rep.energy_trace)
        assert np.all(np.diff(jt) <= 1e-10 * max(1.0, np.abs(jt).max()))

    def test_odd_equivariance(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        g_neg = g.with_values(-g.values)
        r1 = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        r2 = dc.solve(op_small, g_neg, ReactionSpec(gamma=0.2))
        assert np.abs(r1.solution.values + r2.solution.values).max() <= 2e-8

    def test_solution_carries_data_and_tail(self, op_small):
        grid = op_small.grid
        vals = np.zeros(grid.n)
        vals[grid.exterior] = 0.25
        g = GridFunction(grid, vals, TailModel.const(0.25))
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        np.testing.assert_array_equal(
            rep.solution.values[grid.exterior], vals[grid.exterior]
        )
        assert rep.solution.tail == g.tail

    def test_maximum_principle_bounds(self, op_small):
        # solution sup never exceeds the data sup (absorption only pulls down)
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "plateau", 1.5)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.25))
        assert rep.converged
        assert np.abs(rep.solution.interior_values).max() <= 1.5 + 1e-9

    def test_unconverged_reported_not_raised(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2), SolverConfig(max_iter=2))
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.residual_inf > 1e-9

    def test_one_phase_nonnegative_with_degenerate_floor(self, op_small):
        grid = op_small.grid
        vals = np.zeros(grid.n)
        vals[grid.exterior] = 0.05
        g = GridFunction(grid, vals, TailModel.zero())
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2, mode="one_phase"))
        assert rep.converged
        u = rep.solution.interior_values
        assert np.all(u >= 0.0)
        # the central nodes satisfy u^gamma = (operator value), which forces
        # u down to the (1/gamma)-th power of the operator scale
        assert u.min() < 1e-8

    def test_two_phase_reports_no_free_boundary(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.free_boundary is None

    def test_converges_on_the_smoother_when_every_newton_step_fails(self, op_small, monkeypatch):
        # An ascent direction fails every Armijo test, so each iteration
        # keeps only its smoother pass, which must still reach the minimiser.
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 2.0)
        reaction = ReactionSpec(gamma=0.2)
        newton = dc.solve(op_small, g, reaction)
        newton_delta = solver._DenseSystem.newton_delta
        monkeypatch.setattr(
            solver._DenseSystem,
            "newton_delta",
            lambda self, r, free, dd: -newton_delta(self, r, free, dd),
        )
        rep = dc.solve(op_small, g, reaction)
        assert rep.converged
        assert rep.iterations > newton.iterations
        u, v = rep.solution.interior_values, newton.solution.interior_values
        assert np.abs(u - v).max() <= 1e-8
        # smoother passes are exact coordinate minimizations: round-off only
        jt = rep.energy_trace
        assert np.all(np.diff(jt) <= 1e-12 * max(1.0, np.abs(jt).max()))


class TestLocalSolve:
    def test_recovers_exact_profile(self):
        gamma = 0.2
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        exact = dc.exact_local_profile(grid, gamma)
        kappa = dc.profile_coefficient(gamma)
        rep = dc.solve_local(grid, ReactionSpec(gamma=gamma), boundary=(-kappa, kappa))
        assert rep.converged
        err = np.abs(rep.solution.interior_values - exact.interior_values).max()
        assert err < 1e-4
        assert rep.s == 1.0

    def test_energy_trace_monotone(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.25), boundary=(-0.7, 1.1))
        assert rep.converged
        jt = np.asarray(rep.energy_trace)
        assert np.all(np.diff(jt) <= 1e-10 * max(1.0, np.abs(jt).max()))

    def test_one_phase_dead_core_and_free_boundary(self):
        # small boundary data on a wide window forces a dead core; the
        # reported free boundary is the inner edge of the zero run
        grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
        rep = dc.solve_local(
            grid, ReactionSpec(gamma=0.2, mode="one_phase"), boundary=(0.0, 1.0)
        )
        assert rep.converged
        assert rep.free_boundary is not None
        u = rep.solution.interior_values
        assert np.all(u >= 0.0)
        assert np.any(u == 0.0)

    @pytest.mark.parametrize(
        "h, a, R, mode, boundary, budget",
        [
            (2.0**-10, 1.0, 2.0, "two_phase", None, 40),
            (1 / 64, 4.0, 8.0, "one_phase", (0.0, 1.0), 80),
        ],
        ids=["two_phase_h2^-10", "acceptance_08_one_phase"],
    )
    def test_no_wasted_iterations(self, h, a, R, mode, boundary, budget):
        # each iteration is one smoother pass and one Newton step; a solver
        # that waits out stalls spends several times these budgets
        gamma = 0.2
        if boundary is None:
            kappa = dc.profile_coefficient(gamma)
            boundary = (-kappa, kappa)
        grid = make_grid(GridSpec(h=h, a=a, R=R))
        rep = dc.solve_local(grid, ReactionSpec(gamma=gamma, mode=mode), boundary=boundary)
        assert rep.converged
        assert rep.iterations <= budget

    def test_plateau_exterior_continuation(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary=(-0.5, 0.8))
        v = rep.solution.values
        assert np.all(v[grid.x < -1.0] == -0.5)
        assert np.all(v[grid.x > 1.0] == 0.8)


class TestEnergyFunctions:
    def test_energy_matches_report(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 1.0)
        reaction = ReactionSpec(gamma=0.2)
        rep = dc.solve(op_small, g, reaction)
        j = dc.energy(op_small, g, rep.solution.interior_values, reaction)
        assert j == pytest.approx(rep.energy, rel=1e-12, abs=1e-14)

    def test_energy_local_matches_report(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        reaction = ReactionSpec(gamma=0.2)
        rep = dc.solve_local(grid, reaction, boundary=(-0.3, 0.4))
        j = dc.energy_local(grid, (-0.3, 0.4), rep.solution.interior_values, reaction)
        assert j == pytest.approx(rep.energy, rel=1e-12, abs=1e-14)


class TestSidecar:
    def test_keys_and_extras(self, op_small, tmp_path):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 1.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        path = tmp_path / "run.meta"
        rep.write_sidecar(path, extra={"seed": "0", "amplitude": "1"})
        text = path.read_text()
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        for key in ("s", "gamma", "mode", "residual", "iterations", "energy", "converged"):
            assert key in lines
        assert "threads" not in lines
        assert lines["mode"] == "two_phase"
        assert lines["seed"] == "0"
        assert float(lines["s"]) == 0.75

    def test_free_boundary_written_when_present(self, tmp_path):
        grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
        rep = dc.solve_local(
            grid, ReactionSpec(gamma=0.2, mode="one_phase"), boundary=(0.0, 1.0)
        )
        assert rep.free_boundary is not None
        path = tmp_path / "run.meta"
        rep.write_sidecar(path)
        assert "free_boundary=" in path.read_text()
