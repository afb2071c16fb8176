"""Solver behaviour: validation, convergence, phase structure, reporting."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import toeplitz

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
from deadcore.analysis import random_ordered_pair
from deadcore.cli import main


class TestValidation:
    @pytest.mark.parametrize("gamma", [0.0, 1 / 3, 0.5, -0.1])
    def test_gamma_open_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            ReactionSpec(gamma=gamma)

    def test_mode_checked(self):
        with pytest.raises(ValueError, match="reaction mode"):
            ReactionSpec(gamma=0.2, mode="three_phase")

    def test_residual_tol_floor(self):
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=1e-13)

    def test_residual_tol_nan_rejected(self):
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=float("nan"))

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

    def test_odd_equivariance(self, op_small, op_ramp):
        # h = 2^-9 also covers the nested start: its coarse solves and the
        # interpolated start are odd as well
        for op, amplitude in ((op_small, 2.0), (op_ramp, 15.71)):
            g = dc.odd_exterior_builder(op.grid, "ramp", amplitude)
            g_neg = GridFunction(g.grid, -g.values, g.tail)
            r1 = dc.solve(op, g, ReactionSpec(gamma=0.2))
            r2 = dc.solve(op, g_neg, ReactionSpec(gamma=0.2))
            # the coordinate root is odd, so is every step: exactly opposite iterates
            assert r1.iterations == r2.iterations
            np.testing.assert_array_equal(r2.solution.values, -r1.solution.values)

    @pytest.mark.parametrize("gamma", [0.1, 0.08, 0.05, 0.01])
    def test_converges_on_odd_ramp_at_small_gamma(self, op_small, gamma):
        # The centre node's coordinate root lies far below q/d (1.5e-176 at
        # gamma = 0.1, with q/d = 9.4e-21).  A root that stops short of it
        # flips the node's sign every iteration, and the solve never ends.
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=gamma))
        assert rep.converged
        assert rep.iterations <= 20

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

    def test_one_phase_sign_changing_data_converges(self):
        # Unclipped one-phase nodes with u <= 0 are free: f vanishes there and
        # the equation is linear.  Pinning those with r >= 0 out of the Newton
        # step left 13 of these 40 solves unconverged at max_iter, 16,695
        # iterations in all; they take 125.
        grid = make_grid(GridSpec(h=2.0**-6, a=1.0, R=4.0))
        op = dc.assemble(grid, 0.75)
        rng = np.random.default_rng(1001)
        iterations = 0
        for _ in range(20):
            for g in random_ordered_pair(grid, rng):
                rep = dc.solve(op, g, ReactionSpec(gamma=0.2, mode="one_phase"))
                assert rep.converged and rep.iterations <= 20
                iterations += rep.iterations
        assert iterations <= 250

    def test_two_phase_reports_no_free_boundary(self, op_small, tmp_path):
        # the report carries no measurement, and the CLI measures a free
        # boundary of one-phase reports only: on this two-phase solution
        # dc.free_boundary finds the edge 0.75 of the run where |u| <= h^beta
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert not hasattr(rep, "free_boundary")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = 1/32\na = 1\nR = 2\ns = 0.75\ngamma = 0.2\namplitude = 2\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "free_boundary" not in (tmp_path / "run_solve.meta").read_text()

    def test_ramp_iterations_do_not_grow_with_n(self, ramp_reports):
        # acceptance 04's ramp one level finer, nested: 3 fine iterations
        # here and 3 at h = 2^-9
        rep = ramp_reports(10)[1]
        assert rep.converged
        assert rep.iterations <= 8

    def test_cold_ramp_iterations_do_not_grow_with_n(self, ramp_reports):
        # the same solve from the linear start: 15 here and 13 at h = 2^-9
        rep = ramp_reports(10)[0]
        assert rep.converged
        assert rep.iterations <= 25

    def test_subnormal_iterate_is_pinned_at_small_gamma(self, op_small, monkeypatch):
        # At gamma = 0.01, gamma |u|^(gamma - 1) overflows to inf at
        # u = 5e-324; a node below the smoother's snap is pinned instead, so
        # the Newton matrix stays finite and the solve still converges.  The
        # data is positive and so is the solution (min 0.26): the subnormal
        # is planted after the first sweep.
        grid = op_small.grid
        k = grid.interior.size // 2 + 1
        sweep = solver.kernels.gs_polish_red_black

        def subnormal_once(matvec, d, b, u, Au, gamma, one_phase):
            u = sweep(matvec, d, b, u, Au, gamma, one_phase)
            if not steps:
                u[..., k] = 5e-324
            return u

        monkeypatch.setattr(solver.kernels, "gs_polish_red_black", subnormal_once)
        steps = _record_newton_steps(monkeypatch, solver._DenseSystem)
        vals = np.zeros(grid.n)
        vals[grid.exterior] = 1.0
        g = GridFunction(grid, vals, TailModel.const(1.0))
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.01))
        assert rep.converged
        assert all(np.isfinite(dd).all() for _, _, dd, _ in steps)
        _, free, dd, _ = steps[0]
        assert not free[k] and dd[k] == 0.0

    def test_converges_on_the_smoother_when_every_newton_step_fails(self, op_small, monkeypatch):
        # An ascent direction has r.delta > 0, so no Newton step is taken and
        # each iteration keeps only its smoother pass, which must still reach
        # the minimiser: the same iterates as with a zero Newton direction.
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 2.0)
        reaction = ReactionSpec(gamma=0.2)
        newton = dc.solve(op_small, g, reaction)
        with monkeypatch.context() as m:
            _wrap_newton_steps(m, solver._DenseSystem, lambda free, dd, rhs, delta: np.zeros_like(delta))
            smoother = dc.solve(op_small, g, reaction)
        _wrap_newton_steps(monkeypatch, solver._DenseSystem, lambda free, dd, rhs, delta: -delta)
        rep = dc.solve(op_small, g, reaction)
        assert rep.converged
        assert rep.iterations > newton.iterations
        assert rep.iterations == smoother.iterations
        np.testing.assert_array_equal(rep.solution.values, smoother.solution.values)
        np.testing.assert_array_equal(rep.energy_trace, smoother.energy_trace)
        u, v = rep.solution.interior_values, newton.solution.interior_values
        assert np.abs(u - v).max() <= 1e-8
        # smoother passes are exact coordinate minimizations: round-off only
        jt = rep.energy_trace
        assert np.all(np.diff(jt) <= 1e-12 * max(1.0, np.abs(jt).max()))

    def test_newton_steps_below_an_ulp_of_the_energy_get_through(self, op_ramp):
        # Acceptance 04's ramp, one dense sweep per iteration.  Near the end
        # the Newton decrease is at or below one ulp of J, so a line search
        # that only compares two recomputed energies drops or shortens those
        # steps (18 iterations from the linear start, against 13, and 5 fine
        # iterations nested, against 3); the energy change dJ(t), formed as
        # a difference, still shows the descent.
        g = dc.odd_exterior_builder(op_ramp.grid, "ramp", 15.71)
        reaction, config = ReactionSpec(gamma=0.2), SolverConfig(max_iter=60)
        cold = _one_level_solve(op_ramp, g, reaction, config)
        assert cold.converged and cold.iterations <= 25
        nested = dc.solve(op_ramp, g, reaction, config)
        assert nested.converged and nested.iterations <= 8


def _one_level_solve(op, g, reaction, config=None):
    """solve on op's grid alone, from the linear start: no nested start."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_coarse_spec", lambda spec: None)
        return dc.solve(op, g, reaction, config)


@pytest.fixture(scope="module")
def op_ramp():
    """Acceptance 04's operator: h = 2^-9, R = 8, s = 0.95 (1023 unknowns)."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-9, a=1.0, R=8.0)), 0.95)


@pytest.fixture(scope="module")
def ramp_reports():
    """k -> (cold, nested) reports of acceptance 04's ramp at h = 2^-k, solved once."""
    cache = {}

    def reports(k):
        if k not in cache:
            grid = make_grid(GridSpec(h=2.0**-k, a=1.0, R=8.0))
            op = dc.assemble(grid, 0.95)
            g = dc.odd_exterior_builder(grid, "ramp", 15.71)
            reaction = ReactionSpec(gamma=0.2)
            cache[k] = _one_level_solve(op, g, reaction), dc.solve(op, g, reaction)
        return cache[k]

    return reports


class TestNestedStart:
    """solve starts from its own solution on the grid of spacing 2h, when
    that grid nests and keeps at least 255 unknowns."""

    @pytest.mark.parametrize("k", [9, 10])
    def test_matches_the_cold_solve(self, ramp_reports, k):
        cold, nested = ramp_reports(k)
        assert cold.converged and nested.converged
        assert nested.iterations < cold.iterations
        u, v = nested.solution, cold.solution
        assert np.abs(u.values - v.values).max() <= 1e-12
        slopes = []
        for rep in (nested, cold):
            x0 = float(dc.detect_branching(rep.solution, 0.95, 0.2)[0])
            fits = [dc.fit_growth_exponent(rep.solution, x0, deriv_order=d) for d in (0, 1)]
            slopes.append([fit.slope for fit in fits])
        np.testing.assert_allclose(slopes[0], slopes[1], rtol=0, atol=1e-9)

    def test_levels_down_to_255_unknowns(self, op_ramp, monkeypatch):
        # 1023 unknowns start from 511, which start from 255
        sizes = []
        assemble = solver.assemble

        def recording(grid, s):
            sizes.append(grid.interior.size)
            assert s == op_ramp.s
            return assemble(grid, s)

        monkeypatch.setattr(solver, "assemble", recording)
        g = dc.odd_exterior_builder(op_ramp.grid, "ramp", 15.71)
        assert dc.solve(op_ramp, g, ReactionSpec(gamma=0.2)).converged
        assert sizes == [511, 255]

    @pytest.mark.parametrize(
        "h, a", [(2.0**-9, 1.0 + 2.0**-9), (2.0**-7, 1.0)], ids=["odd-a-over-h", "255-unknowns"]
    )
    def test_other_grids_solve_cold(self, h, a, monkeypatch):
        # a/h = 513 does not nest; 255 unknowns would leave 127 on the coarse grid
        grid = make_grid(GridSpec(h=h, a=a, R=8.0))
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        reaction = ReactionSpec(gamma=0.2)
        cold = _one_level_solve(op, g, reaction)

        def no_coarse_grid(*args):
            raise AssertionError("no coarse operator expected")

        monkeypatch.setattr(solver, "assemble", no_coarse_grid)
        rep = dc.solve(op, g, reaction)
        assert rep.converged
        assert rep.iterations == cold.iterations
        np.testing.assert_array_equal(rep.solution.values, cold.solution.values)
        np.testing.assert_array_equal(rep.residual_trace, cold.residual_trace)
        np.testing.assert_array_equal(rep.energy_trace, cold.energy_trace)

    def test_ramp_at_h_2_to_the_minus_11(self):
        # 4095 unknowns, levels 255 -> 4095; PCG from 511 up
        grid = make_grid(GridSpec(h=2.0**-11, a=1.0, R=8.0))
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        rep = dc.solve(dc.assemble(grid, 0.95), g, ReactionSpec(gamma=0.2))
        assert rep.converged and rep.iterations <= 8


def _reduced_newton_delta(A, r, free, dd):
    """Reference: gather (A + diag(dd))_FF, solve it by LU, zero elsewhere."""
    delta = np.zeros_like(r)
    F = np.flatnonzero(free)
    if F.size:
        delta[F] = np.linalg.solve(A[np.ix_(F, F)] + np.diag(dd[F]), -r[F])
    return delta


def _assert_matches_reduced(A, r, free, dd, delta, rtol=1e-12):
    ref = _reduced_newton_delta(A, r, free, dd)
    if free.any():
        err = np.abs(delta[free] - ref[free]).max()
        assert err <= rtol * np.abs(ref[free]).max()
    # +0.0 on pinned nodes: the line search must not move them
    pinned = delta[~free]
    assert np.all(pinned == 0.0) and not np.signbit(pinned).any()


def _wrap_newton_steps(monkeypatch, system_class, step):
    """Wrap ``system_class.solve`` for one one-level solve.

    Its first call is the linear start, solve(every node, 0, -b), and runs
    as it is; each later call is a Newton step, solve(free, dd, -r), and
    returns step(free, dd, rhs, delta) in place of its delta.
    """
    solve = system_class.solve
    calls = []

    def wrapped(self, free, dd, rhs):
        delta = solve(self, free, dd, rhs)
        calls.append(None)
        if len(calls) == 1:
            assert free.all() and not np.any(dd)
            return delta
        return step(free, dd, rhs, delta)

    monkeypatch.setattr(system_class, "solve", wrapped)


def _record_newton_steps(monkeypatch, system_class):
    """Wrap ``system_class.solve`` (_wrap_newton_steps); returns the (r, free, dd, delta) of each Newton step."""
    steps = []

    def recording(free, dd, rhs, delta):
        steps.append((-rhs, free.copy(), dd.copy(), delta.copy()))
        return delta

    _wrap_newton_steps(monkeypatch, system_class, recording)
    return steps


@pytest.fixture(scope="module")
def op_acceptance_08():
    grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=8.0))
    return dc.assemble(grid, 0.95)


@pytest.fixture(scope="module")
def op_511():
    """h = 2^-8, R = 8, s = 0.95: 511 unknowns, the smallest PCG size."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-8, a=1.0, R=8.0)), 0.95)


@pytest.fixture(scope="module")
def op_767():
    """h = 1/384, R = 2, s = 0.75: 767 unknowns, not 2^k - 1, so PCG pads to 1024."""
    return dc.assemble(make_grid(GridSpec(h=1 / 384, a=1.0, R=2.0)), 0.75)


@pytest.fixture(scope="module")
def op_2047():
    """h = 2^-10, R = 8, s = 0.95: 2047 unknowns."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-10, a=1.0, R=8.0)), 0.95)


def _rtol(n):
    """dposv's bound below solver._PCG_MIN unknowns; PCG stops at a relative residual of 1e-10."""
    return 1e-12 if n < solver._PCG_MIN else 1e-9


def _local_matrix(system, n):
    """The tridiagonal system's A on n unknowns as a dense matrix."""
    return toeplitz(np.r_[system.diagonal, system.e, np.zeros(n - 2)])


def _linear_start(system, b):
    """The linear start of a solve: solve(every node, 0, -b)."""
    return system.solve(np.ones(b.size, dtype=bool), np.zeros(b.size), -b)


class TestDenseNewtonStep:
    """The dense Newton step is the free-set system, solved without a gather:
    one dposv below solver._PCG_MIN unknowns (63 and 255 here), PCG from
    there up (511, 767, 1023 and 2047).  The tridiagonal system's banded
    Cholesky solves the same system ("local", 255 unknowns)."""

    @pytest.fixture(params=["h2^-5", "h2^-7", "h2^-8", "h1/384", "h2^-9", "h2^-10", "local"])
    def case(self, request, op_small, op_acceptance_08, op_511, op_767, op_ramp, op_2047):
        """(A as a dense matrix, its system)."""
        if request.param == "local":
            grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=2.0))
            system = solver.local_operator(grid)
            return _local_matrix(system, grid.interior.size), system
        op = {
            "h2^-5": op_small,
            "h2^-7": op_acceptance_08,
            "h2^-8": op_511,
            "h1/384": op_767,
            "h2^-9": op_ramp,
            "h2^-10": op_2047,
        }[request.param]
        return toeplitz(op.row), solver._DenseSystem(op.row)

    @pytest.mark.parametrize("pinned", ["nothing", "interior_block", "both_ends", "everything"])
    def test_matches_the_reduced_system(self, case, pinned):
        A, system = case
        n = A.shape[0]
        rng = np.random.default_rng(8)
        u = rng.standard_normal(n)
        dd = 0.2 * np.abs(u) ** -0.8
        # three adjacent stiff nodes, as next to a branching point
        dd[n // 4 - 1 : n // 4 + 2] = np.array([1e3, 1e20, 1e48]) * A[0, 0]
        r = rng.standard_normal(n)
        free = np.ones(n, dtype=bool)
        if pinned == "interior_block":
            free[n // 3 : 2 * n // 3] = False
        elif pinned == "both_ends":
            free[[0, -1]] = False
        elif pinned == "everything":
            free[:] = False
        delta = system.solve(free, dd, -r)
        _assert_matches_reduced(A, r, free, dd, delta, _rtol(n))

    def test_init_solve_matches_lu(self, case):
        A, system = case
        b = np.random.default_rng(9).standard_normal(A.shape[0])
        x = _linear_start(system, b)
        ref = np.linalg.solve(A, -b)
        assert np.abs(x - ref).max() <= _rtol(b.size) * np.abs(ref).max()

    def test_steps_of_the_one_phase_solve(self, op_acceptance_08, monkeypatch):
        # acceptance 08's nonlocal part: every step the solve takes, on its
        # own free set and its own dd.  Its dead core holds values of 1e-11
        # to 1e-6 but no exact zero, so it pins nothing; the local one-phase
        # solve (TestLocalSolve) covers a large pinned set.
        grid = op_acceptance_08.grid
        vals = np.zeros(grid.n)
        vals[grid.exterior] = 0.05
        g = GridFunction(grid, vals, TailModel.zero())
        steps = _record_newton_steps(monkeypatch, solver._DenseSystem)
        rep = dc.solve(op_acceptance_08, g, ReactionSpec(gamma=0.2, mode="one_phase"))
        assert rep.converged
        assert len(steps) == rep.iterations
        for r, free, dd, delta in steps:
            _assert_matches_reduced(toeplitz(op_acceptance_08.row), r, free, dd, delta)

    def test_not_positive_definite_raises(self, op_small, op_ramp):
        # symmetric, nonsingular and indefinite: LU would solve it, Cholesky
        # must refuse it rather than return the solve of a partial factor,
        # and so must PCG (N = 1023)
        for op in (op_small, op_ramp):
            A = toeplitz(op.row)
            n = A.shape[0]
            eig = np.linalg.eigvalsh(A)
            system = solver._DenseSystem((A - 0.5 * (eig[n // 2] + eig[n // 2 + 1]) * np.eye(n))[0])
            free = np.ones(n, dtype=bool)
            free[::7] = False
            with pytest.raises(np.linalg.LinAlgError):
                _linear_start(system, np.ones(n))
            with pytest.raises(np.linalg.LinAlgError):
                system.solve(np.ones(n, dtype=bool), np.zeros(n), -np.ones(n))
            with pytest.raises(np.linalg.LinAlgError):
                system.solve(free, np.zeros(n), -np.ones(n))

    @pytest.mark.parametrize("size", ["63", "255"])
    def test_reused_work_array_gives_a_fresh_systems_bits(self, size, op_small, op_acceptance_08):
        # dposv overwrites the system's one work array on every call: back to
        # back calls whose free sets alternate, and pin nodes or not, must
        # each give the bits of a fresh system's solve
        row = {"63": op_small, "255": op_acceptance_08}[size].row
        n = row.size
        system = solver._DenseSystem(row)
        rng = np.random.default_rng(13)
        every, ends, block = np.ones(n, dtype=bool), np.ones(n, dtype=bool), np.ones(n, dtype=bool)
        ends[[0, -1]] = False
        block[n // 3 : n // 2] = False
        for free in (every, block, every, ends, block, ends, every):
            dd = 0.2 * np.abs(rng.standard_normal(n)) ** -0.8
            rhs = rng.standard_normal(n)
            x = system.solve(free, dd, rhs)
            fresh = solver._DenseSystem(row).solve(free, dd, rhs)
            assert np.array_equal(x.view(np.int64), fresh.view(np.int64))
            assert np.all(x[~free] == 0.0) and not np.signbit(x[~free]).any()

    def test_pcg_builds_no_dense_matrix(self, op_511, op_2047):
        # a dense copy of A would take 2.1 MB at N = 511 and 33.5 MB at 2047;
        # the system is built under the trace, as dposv's work array is
        rng = np.random.default_rng(10)
        for op in (op_511, op_2047):
            n = op.row.size
            r, free = rng.standard_normal(n), np.ones(n, dtype=bool)
            tracemalloc.start()
            try:
                solver._DenseSystem(op.row).solve(free, np.ones(n), -r)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6, n

    @pytest.mark.parametrize("size", ["511", "767", "1023", "2047"])
    def test_pcg_runs_power_of_two_ffts(self, size, op_511, op_767, op_ramp, op_2047, monkeypatch):
        # 767 is not 2^k - 1: its embedding pads to 2048 and its Strang
        # circulant to 1024.  No FFT runs at a length with a large prime
        # factor, as 8191 is.
        row = {"511": op_511, "767": op_767, "1023": op_ramp, "2047": op_2047}[size].row
        n = row.size
        lengths = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)

            def recording(a, m=None, *args, _transform=transform, **kwargs):
                lengths.append(np.shape(a)[-1] if m is None else m)
                return _transform(a, m, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        system = solver._DenseSystem(row)
        rng = np.random.default_rng(11)
        free = np.ones(n, dtype=bool)
        free[n // 3 : n // 2] = False
        dd = 0.2 * np.abs(rng.standard_normal(n)) ** -0.8
        system.solve(free, dd, rng.standard_normal(n))
        m = 1 << (n - 1).bit_length()
        assert lengths and set(lengths) == {m, 2 * m}


@pytest.fixture(scope="module")
def op_127():
    """h = 2^-6, R = 4, s = 0.75: 127 unknowns, the smallest red-black size."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-6, a=1.0, R=4.0)), 0.75)


def _polish_case(case, op_acceptance_08):
    """(system, b, u0, reaction, clip) of a red-black polish: local, or dense at N = 255.

    b and u0 are one-lane stacks (1 x N), as the solver's sweeps take them.
    """
    if case == "local":
        grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=2.0))
        kappa = dc.profile_coefficient(0.2)
        system, b = solver.local_operator(grid), solver.local_load(grid, (-kappa, kappa))
        return system, b[None], _linear_start(system, b)[None], ReactionSpec(gamma=0.2), False
    grid = op_acceptance_08.grid
    system = solver._DenseSystem(op_acceptance_08.row)
    if case == "one_phase_clipped":
        vals = np.zeros(grid.n)
        vals[grid.exterior] = 0.05
        g = GridFunction(grid, vals, TailModel.zero())
    else:
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
    mode = "two_phase" if case == "two_phase" else "one_phase"
    b = op_acceptance_08.load_vector(g)
    clip = case == "one_phase_clipped"
    u0 = _linear_start(system, b)[None]
    return system, b[None], np.maximum(u0, 0.0) if clip else u0, ReactionSpec(gamma=0.2, mode=mode), clip


def _sweep(system, b, u, gamma, one_phase):
    """The solver's smoother: one red-black sweep of system on the stacks b and u (K x N), in place."""
    return solver.kernels.gs_polish_red_black(system.matvec, system.diagonal, b, u, system.matvec(u), gamma, one_phase)


class TestRedBlackPolish:
    """The local sweep and the dense one are kernels.gs_polish_red_black: each
    colour takes kernels.roots of all its nodes at once, with no line search."""

    @pytest.mark.parametrize(
        "case", ["two_phase", "one_phase_unclipped", "one_phase_clipped", "local"]
    )
    def test_energy_never_rises(self, case, op_acceptance_08):
        system, b, u, reaction, clip = _polish_case(case, op_acceptance_08)

        def J(v):
            return solver._evaluate(system, b, 1.0, v, reaction.gamma, reaction.one_phase)[1][0]

        trace = [J(u)]
        for _ in range(8):
            u = _sweep(system, b, u.copy(), reaction.gamma, reaction.one_phase)
            if clip:
                u = np.maximum(u, 0.0)
            trace.append(J(u))
        rises = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
        assert rises.max() <= 1e-12
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize("matrix", ["diagonal", "h2^-6"])
    def test_a_full_step_takes_the_roots_bits(self, matrix, op_127, monkeypatch):
        # From u = 1 a colour's roots reach down to 1e-150, where 1 + (t - 1)
        # is 0.0: the step must copy the roots, not add delta.  On a
        # diagonal A, q = -b exactly, so the roots are known beforehand, and
        # q = +-1e-250 snaps to +0.0.
        n = op_127.row.size
        row = op_127.row if matrix == "h2^-6" else np.r_[op_127.row[0], np.zeros(n - 1)]
        system = solver._DenseSystem(row)
        b = -np.resize([1e-250, -1e-250, 1e-30, -1e-30, 1.0, -0.5, 1e-3], n)
        calls = []
        roots = solver.kernels.roots

        def recording(d, q, gamma, one_phase):
            t = roots(d, q, gamma, one_phase)
            calls.append((q.copy(), t.copy()))
            return t

        monkeypatch.setattr(solver.kernels, "roots", recording)
        out = _sweep(system, b[None], np.ones((1, n)), 0.2, False)[0]
        assert len(calls) == 2
        for c, (_, t) in enumerate(calls):
            np.testing.assert_array_equal(out[c::2].view(np.int64), t.view(np.int64))
        # the odd colour's data is formed at the even colour's new values
        mid = np.ones(n)
        mid[::2] = out[::2]
        q_odd = row[0] * mid[1::2] - system.matvec(mid[None])[0, 1::2] - b[1::2]
        np.testing.assert_allclose(calls[1][0], q_odd, rtol=0.0, atol=1e-12 * system.abs_row_sum)
        if not row[1:].any():
            snapped = np.abs(b) == 1e-250
            assert np.all(out[snapped] == 0.0) and not np.signbit(out[snapped]).any()
            tiny = np.abs(b) == 1e-30
            assert np.all((np.abs(out[tiny]) < 1e-100) & (1.0 + (out[tiny] - 1.0) != out[tiny]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_negated_data_gives_the_negated_solution(self, op_127, seed):
        # every operation of a colour step commutes with negation and the
        # root is odd, so the sweeps and the Newton steps are exactly negated
        g = random_ordered_pair(op_127.grid, np.random.default_rng(seed))[0]
        r1 = dc.solve(op_127, g, ReactionSpec(gamma=0.2))
        r2 = dc.solve(op_127, GridFunction(g.grid, -g.values, g.tail), ReactionSpec(gamma=0.2))
        assert r1.converged and r1.iterations == r2.iterations
        np.testing.assert_array_equal(r2.solution.values, -r1.solution.values)
        np.testing.assert_array_equal(r2.energy_trace, r1.energy_trace)

    @pytest.mark.parametrize("h", [2.0**-5, 2.0**-6, 2.0**-7], ids=["63", "127", "255"])
    def test_path_by_size(self, h, monkeypatch):
        grid = make_grid(GridSpec(h=h, a=1.0, R=4.0))
        n = grid.interior.size
        op = dc.assemble(grid, 0.75)
        counts = {"roots": [], "gs_polish_red_black": 0}
        roots, red_black = solver.kernels.roots, solver.kernels.gs_polish_red_black

        def counting_roots(d, q, gamma, one_phase):
            counts["roots"].append(q.size)
            return roots(d, q, gamma, one_phase)

        def counting_red_black(*args):
            counts["gs_polish_red_black"] += 1
            return red_black(*args)

        monkeypatch.setattr(solver.kernels, "roots", counting_roots)
        monkeypatch.setattr(solver.kernels, "gs_polish_red_black", counting_red_black)
        g = random_ordered_pair(grid, np.random.default_rng(3))[0]
        rep = dc.solve(op, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        # one path at every size: one red-black sweep per iteration, and one
        # roots call per colour, which finds every lane itself
        assert counts["gs_polish_red_black"] == rep.iterations
        assert counts["roots"] == [(n + 1) // 2, n // 2] * rep.iterations


def _campaign_data(h, n_pairs, seed=1001):
    """(op, data) of a comparison campaign at spacing h: R = 4, s = 0.75, its pairs in draw order."""
    grid = make_grid(GridSpec(h=h, a=1.0, R=4.0))
    rng = np.random.default_rng(seed)
    return dc.assemble(grid, 0.75), [g for _ in range(n_pairs) for g in random_ordered_pair(grid, rng)]


def _assert_lanes_match_lone_solves(op, data, reaction, many):
    assert len(many) == len(data)
    for g, rep in zip(data, many):
        lone = dc.solve(op, g, reaction)
        assert rep.converged == lone.converged and rep.iterations == lone.iterations
        # bit for bit: each lane takes its lone solve's iterates
        assert np.array_equal(rep.solution.values, lone.solution.values)
        assert np.array_equal(rep.energy_trace, lone.energy_trace)
        assert np.array_equal(rep.residual_trace, lone.residual_trace)


class TestLaneBatch:
    """solve_many runs one batch of lanes that share the operator; each lane
    stops on its own and gives the report of its lone solve."""

    @pytest.mark.parametrize("h", [2.0**-5, 2.0**-6], ids=["63", "127"])
    def test_lanes_match_lone_solves(self, h):
        op, data = _campaign_data(h, 20)
        reaction = ReactionSpec(gamma=0.2)
        many = dc.solve_many(op, data, reaction)
        assert all(rep.converged for rep in many)
        # lanes stop at different iterations, so the batch shrinks as it runs
        assert len({rep.iterations for rep in many}) > 1
        _assert_lanes_match_lone_solves(op, data, reaction, many)

    def test_one_phase_batch_clips_lane_by_lane(self):
        # nonnegative data is clipped at zero, sign-changing data is not
        op, data = _campaign_data(2.0**-5, 4)
        data = [v for g in data for v in (g, GridFunction(g.grid, np.abs(g.values), g.tail))]
        reaction = ReactionSpec(gamma=0.2, mode="one_phase")
        many = dc.solve_many(op, data, reaction)
        assert all(rep.converged for rep in many)
        clipped = [rep.solution.interior_values for rep in many[1::2]]
        assert all(u.min() >= 0.0 for u in clipped)
        assert any(rep.solution.interior_values.min() < 0.0 for rep in many[::2])
        _assert_lanes_match_lone_solves(op, data, reaction, many)

    def test_an_overflowing_lane_stops_alone(self):
        # the overflowing lane stops unconverged at once, without a warning;
        # its siblings converge as if alone
        op, data = _campaign_data(2.0**-5, 1)
        grid = op.grid
        overflow = GridFunction(grid, np.zeros(grid.n), TailModel.power(1e300, -0.5))
        data = [data[0], overflow, data[1]]
        reaction = ReactionSpec(gamma=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            many = dc.solve_many(op, data, reaction)
        assert not many[1].converged and many[1].iterations == 0
        assert not np.isfinite(many[1].energy)
        assert many[0].converged and many[2].converged
        _assert_lanes_match_lone_solves(op, data[::2], reaction, many[::2])

    def test_data_on_another_grid_raises_before_iterating(self, op_ramp, monkeypatch):
        # h = 2^-9 and R = 8 on a = 0.5: the same node count as op_ramp's
        # grid, so before the grid check both coarse levels iterated and
        # only the fine level's load_vector refused the data
        calls = []
        iterate = solver._iterate

        def counting(*args, **kwargs):
            calls.append(None)
            return iterate(*args, **kwargs)

        monkeypatch.setattr(solver, "_iterate", counting)
        grid = make_grid(GridSpec(h=2.0**-9, a=0.5, R=8.0))
        assert grid.n == op_ramp.grid.n
        data = [dc.odd_exterior_builder(g, "ramp", 1.0) for g in (op_ramp.grid, grid)]
        with pytest.raises(ValueError, match="different grid"):
            dc.solve_many(op_ramp, data, ReactionSpec(gamma=0.2))
        assert calls == []

    def test_no_data_gives_no_reports(self, op_small):
        assert dc.solve_many(op_small, [], ReactionSpec(gamma=0.2)) == []

    def test_campaign_takes_two_roots_calls_per_batch_iteration(self, monkeypatch):
        # a 50-pair campaign at 63 unknowns is one batch of 100 lanes: each
        # iteration makes one roots call per colour over all live lanes,
        # where a solve at a time made two per solve and iteration
        calls, reports = [], []
        roots, solve_many = solver.kernels.roots, dc.analysis.solve_many

        def counting_roots(d, q, gamma, one_phase):
            calls.append(q.size)
            return roots(d, q, gamma, one_phase)

        def recording(*args):
            reports.extend(solve_many(*args))
            return reports

        monkeypatch.setattr(solver.kernels, "roots", counting_roots)
        monkeypatch.setattr(dc.analysis, "solve_many", recording)
        grid = make_grid(GridSpec(h=2.0**-5, a=1.0, R=4.0))
        trials = dc.comparison_campaign(grid, 0.75, ReactionSpec(gamma=0.2), n_pairs=50, seed=1001)
        assert all(t.converged and t.passed for t in trials)
        iterations = [rep.iterations for rep in reports]
        assert len(iterations) == 100
        assert len(calls) == 2 * max(iterations)
        assert 10 * len(calls) < 2 * sum(iterations)
        assert calls[:2] == [100 * 32, 100 * 31]

    def test_peak_memory_per_lane(self):
        # a batch holds O(N K) arrays: about 31 KB per lane of 127 unknowns
        # at its peak (in the first colour's roots call), its reports
        # included; nothing bounds it in K yet, so its growth is pinned here
        op, data = _campaign_data(2.0**-6, 20)
        tracemalloc.start()
        try:
            many = dc.solve_many(op, data, ReactionSpec(gamma=0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rep.converged for rep in many)
        assert peak <= 40e3 * len(data)


def _dphi_reference(u, step, gamma, one_phase):
    """Phi(u + step) - Phi(u) at 50 digits, with Phi's exponent 1 + gamma as a double."""
    with mpmath.workdps(50):
        e = mpmath.mpf(1.0 + gamma)

        def phi(x):
            return mpmath.mpf(0) if one_phase and x <= 0 else abs(x) ** e / e

        u = mpmath.mpf(float(u))
        return phi(u + mpmath.mpf(float(step))) - phi(u)


class TestEnergyDifferenceLineSearch:
    """A Newton step moves by the largest t = 2^-k with dJ(t) <= 0, formed as
    a difference by solver._step: round-off, and so the BLAS thread count,
    does not decide whether t = 1 passes."""

    @pytest.mark.parametrize("k", [9, 10])
    def test_ramp_fine_iterations_near_the_branching_amplitude(self, k):
        # with two recomputed energies and a derivative test these read
        # 2, 5, 3, 4, 4 (h = 2^-9) and 7, 3, 3, 3, 7 (h = 2^-10), one BLAS thread
        grid = make_grid(GridSpec(h=2.0**-k, a=1.0, R=8.0))
        op = dc.assemble(grid, 0.95)
        for amplitude in (15.0, 15.4, 15.6, 15.71, 16.2):
            g = dc.odd_exterior_builder(grid, "ramp", amplitude)
            rep = dc.solve(op, g, ReactionSpec(gamma=0.2))
            assert rep.converged and rep.iterations <= 3, amplitude
            jt = rep.energy_trace
            assert np.diff(jt).max() <= 1e-12 * max(1.0, np.abs(jt).max())

    def test_blas_threads_do_not_change_the_iterates(self, tmp_path):
        # dposv rounds differently with 1 and 2 threads; with a line search
        # that compared recomputed energies this solve took 4 and 5 iterations
        code = (
            "import sys, numpy as np, deadcore as dc\n"
            "grid = dc.make_grid(dc.GridSpec(h=2.0**-9, a=1.0, R=8.0))\n"
            "g = dc.odd_exterior_builder(grid, 'ramp', 15.71)\n"
            "rep = dc.solve(dc.assemble(grid, 0.95), g, dc.ReactionSpec(gamma=0.2))\n"
            "np.save(sys.argv[1], rep.solution.values)\n"
            "print(rep.iterations, rep.converged)"
        )
        runs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(dc.__file__)),
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                MKL_NUM_THREADS=threads,
            )
            path = str(tmp_path / f"u{threads}.npy")
            out = subprocess.run(
                [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True
            )
            runs.append((out.stdout.split(), np.load(path)))
        (count1, u1), (count2, u2) = runs
        assert count1 == count2 and count1[1] == "True"
        assert np.abs(u1 - u2).max() <= 1e-12

    @pytest.mark.parametrize("phi_of", ["_phi", "u f(u) / (1 + gamma)"])
    @pytest.mark.parametrize("one_phase", [False, True], ids=["two_phase", "one_phase"])
    def test_dphi_matches_a_50_digit_reference(self, phi_of, one_phase):
        gamma = 0.2
        # every change stays a normal double, where relative error is defined
        nodes = np.array([1.0, 0.37, 3e5, 1e-100, 1e-200, -0.8, -2e-7])
        kept = [1e-16, -1e-16, 1e-12, -1e-9, 1e-6, -1e-3, 0.1, -0.5, 0.99, -0.99, 1.0, 10.0, 1e4, 1e10]
        crossing = [-1.0, -1.5, -2.0, -1e10]
        u = np.concatenate([np.repeat(nodes, len(kept) + len(crossing)), np.zeros(4)])
        x = np.concatenate([np.tile(kept + crossing, nodes.size), [1.0, -1.0, 1e-100, 0.0]])
        step = np.where(u == 0.0, x, x * u)
        if phi_of == "_phi":
            phi = solver._phi(u, gamma, one_phase)
        else:
            phi = u * solver.reaction_value(u, gamma, one_phase) / (1.0 + gamma)
        got = solver._dphi(u, step, phi, gamma, one_phase)
        for ui, si, xi, gi in zip(u, step, x, got):
            ref = _dphi_reference(ui, si, gamma, one_phase)
            if ui != 0.0 and xi > -1.0:
                # u + step keeps u's sign: relative to the change itself
                bound = 1e-13 * abs(ref)
            else:
                bound = 1e-13 * float(
                    _dphi_reference(0.0, ui, gamma, one_phase)
                    + _dphi_reference(0.0, ui + si, gamma, one_phase)
                )
            assert abs(gi - ref) <= bound, (ui, xi, gi, ref)

    def test_step_lengths(self):
        # three cases, as the rows of one stack
        u = np.array([[1.0, -2.0, 0.5], [1.0, 1.0, 1.0], [1.0, -2.0, 0.5]])
        delta = np.array([0.25, 0.5, -0.125])
        tiny = 1e-18 * delta
        steps = np.array([delta, [1.0, 0.0, 0.0], tiny])
        phi = solver._phi(u, 0.2, False)
        slope = np.array([1.0, -1.5, -2.0 * abs(tiny @ solver.reaction_value(u[2], 0.2, False))])
        t = solver._step(u, steps, phi, slope, np.array([1.0, 0.5, 0.0]), 0.2, False)
        # an ascent: no t passes
        assert t[0] == 0.0
        # only the first node moves: dJ(t) = -1.5 t + 0.5 t^2 + ((1 + t)^1.2 -
        # 1) / 1.2 is +0.08 at t = 1 and -0.10 at t = 1/2
        assert t[1] == 0.5
        # a decrease far below one ulp of Phi(u) still passes at t = 1
        assert t[2] == 1.0

    @pytest.mark.parametrize("one_phase", [False, True], ids=["two_phase", "one_phase"])
    def test_each_row_takes_its_lone_search(self, one_phase):
        # rows of 63 nodes whose slope at t = 0 is -1 and whose curvatures
        # make them halve 0, 1, 4, 7 and 14 times; the last row ascends, and
        # no t passes
        gamma, n = 0.2, 63
        rng = np.random.default_rng(12)
        u = rng.uniform(-2.0, 2.0, (6, n))
        delta = 0.1 * rng.standard_normal((6, n))
        phi = solver._phi(u, gamma, one_phase)
        f_slope = np.array([d @ f for d, f in zip(delta, solver.reaction_value(u, gamma, one_phase))])
        slope = -f_slope + np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 1.0])
        curv = np.array([0.0, 1.0, 10.0, 100.0, 1e4, 0.0])
        t = solver._step(u, delta, phi, slope, curv, gamma, one_phase)
        lone = [solver._step(u[i : i + 1], delta[i : i + 1], phi[i : i + 1], slope[i : i + 1],
                             curv[i : i + 1], gamma, one_phase)[0] for i in range(6)]
        assert t.tolist() == lone
        assert t[-1] == 0.0
        assert t[:-1].tolist() == [1.0, 2.0**-1, 2.0**-4, 2.0**-7, 2.0**-14]


@pytest.mark.parametrize("module", ["deadcore", "deadcore.cli"])
def test_import_loads_no_scipy_fft_sparse_or_special(module):
    # each would add tens of ms to every process start; the FFTs are numpy's,
    # and only a power-tail load imports scipy.special
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.fft', 'scipy.sparse', 'scipy.special'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _forbid_sweeps(monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(solver.kernels, "gs_polish_red_black", sweep)


class TestNonFiniteData:
    """NaN or inf data never meets the stopping rule, so a solve rejects it
    before its first sweep instead of running all max_iter iterations."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["exterior", "tail_c", "tail_p"])
    def test_solve_raises_before_sweeping(self, op_small, monkeypatch, where, bad):
        _forbid_sweeps(monkeypatch)
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 1.0)
        values, tail = g.values.copy(), TailModel.zero()
        if where == "exterior":
            values[-1] = bad
        elif where == "tail_c":
            tail = TailModel.const(bad)
        else:
            tail = TailModel.power(1.0, bad)
        with pytest.raises(ValueError, match="finite"):
            dc.solve(op_small, GridFunction(op_small.grid, values, tail), ReactionSpec(gamma=0.2))

    @pytest.mark.parametrize("boundary", [(np.nan, 1.0), (0.0, -np.inf)])
    def test_solve_local_raises_before_sweeping(self, monkeypatch, boundary):
        _forbid_sweeps(monkeypatch)
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        with pytest.raises(ValueError, match="finite"):
            dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary)

    def test_overflowing_data_stops_unconverged(self, monkeypatch):
        # finite data whose energy overflows: the residual (6e285) passed the
        # stopping rule's round-off floor, ulp(max|u|) times a row sum, and the
        # solve reported converged with energy NaN
        _forbid_sweeps(monkeypatch)
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        g = GridFunction(grid, np.zeros(grid.n), TailModel.power(1e300, -0.5))
        # the energy overflows, then turns NaN: the report says so, and numpy
        # prints no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = dc.solve(dc.assemble(grid, 0.75), g, ReactionSpec(gamma=0.2))
        assert not rep.converged and rep.iterations == 0
        assert not np.isfinite(rep.energy)

    def test_residual_within_the_rule_with_a_nan_energy_is_not_converged(self, op_small, monkeypatch):
        evaluate = solver._evaluate

        def nan_energy(*args):
            r, J, f, Av = evaluate(*args)
            return np.zeros_like(r), np.full_like(J, np.nan), f, Av

        # a zero residual meets the stopping rule; the NaN energy must not count as converged
        monkeypatch.setattr(solver, "_evaluate", nan_energy)
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 1.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert not rep.converged and rep.iterations == 0 and rep.residual_inf == 0.0


class TestLocalSolve:
    def test_boundary_whose_load_overflows_is_rejected(self):
        # left/h^2 = 4.1e308 overflows at h = 1/64; the message names the value by its key
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        for boundary, key in (((1e305, 1.0), "left"), ((1.0, -1e305), "right")):
            with pytest.raises(ValueError, match=f"{key} = .* overflows"):
                dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary)

    def test_spacing_whose_scale_overflows_is_rejected(self):
        # 2 / h^2 must be a finite double: h^2 underflows to 0.0 at h = 1e-300,
        # and 2 / h^2 overflows at h = 1e-155
        for h in (1e-300, 1e-155):
            grid = make_grid(GridSpec(h=h, a=16 * h, R=32 * h))
            with pytest.raises(ValueError, match="overflows"):
                dc.solve_local(grid, ReactionSpec(gamma=0.2), (1.0, 1.0))
        solver.local_operator(make_grid(GridSpec(h=1e-150, a=16e-150, R=32e-150)))

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

    def test_residual_stop_is_reachable_with_large_data(self):
        # |u| = 100 at h = 2^-8: the round-off of A u alone is about
        # ulp(100) * 4/h^2 = 3.7e-9, above residual_tol = 1e-9, so an absolute
        # stop can never be met; the floor ulp(max|u|) * max row sum stops it
        grid = make_grid(GridSpec(h=2.0**-8, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary=(-100.0, 50.0))
        floor = np.spacing(np.abs(rep.solution.interior_values).max()) * 4.0 / grid.h**2
        assert rep.converged
        assert rep.residual_inf <= floor
        assert rep.iterations < 50

    def test_stopping_floor_uses_the_largest_absolute_row_sum(self, op_small):
        grid = make_grid(GridSpec(h=2.0**-8, a=1.0, R=2.0))
        assert solver.local_operator(grid).abs_row_sum == 4.0 / grid.h**2
        A = toeplitz(op_small.row)
        dense = np.abs(A).sum(axis=1).max()
        assert solver._DenseSystem(op_small.row).abs_row_sum == pytest.approx(dense, rel=1e-14)

    def test_one_phase_dead_core_and_free_boundary(self):
        # small boundary data on a wide window forces a dead core; the
        # reported free boundary is the inner edge of the zero run
        grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
        rep = dc.solve_local(
            grid, ReactionSpec(gamma=0.2, mode="one_phase"), boundary=(0.0, 1.0)
        )
        assert rep.converged
        assert dc.free_boundary(rep.solution, rep.s, rep.gamma) is not None
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

    def test_steps_of_the_one_phase_solve(self, monkeypatch):
        # acceptance 08's local part: its dead core holds exact zeros, so
        # some steps pin a large set, and each matches the reduced system
        grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
        steps = _record_newton_steps(monkeypatch, solver._TridiagSystem)
        reaction = ReactionSpec(gamma=0.2, mode="one_phase")
        rep = dc.solve_local(grid, reaction, boundary=(0.0, 1.0))
        assert rep.converged
        assert len(steps) == rep.iterations
        assert any((~free).sum() > grid.interior.size // 4 for _, free, _, _ in steps)
        A = _local_matrix(solver.local_operator(grid), grid.interior.size)
        for r, free, dd, delta in steps:
            _assert_matches_reduced(A, r, free, dd, delta)

    def test_plateau_exterior_continuation(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary=(-0.5, 0.8))
        v = rep.solution.values
        assert np.all(v[grid.x < -1.0] == -0.5)
        assert np.all(v[grid.x > 1.0] == 0.8)


class TestEachPointEvaluatedOnce:
    """The iterate carries its residual and energy: no point is evaluated twice."""

    @pytest.mark.parametrize("case", ["local_h2^-10", "ramp_h2^-7", "local_one_phase_clipped"])
    def test_every_evaluation_gets_a_new_point(self, case, monkeypatch):
        gamma = 0.2
        points = []
        original = solver.reaction_value

        def recording(u, gamma, one_phase):
            points.append(np.asarray(u).tobytes())
            return original(u, gamma, one_phase)

        monkeypatch.setattr(solver, "reaction_value", recording)
        if case == "local_h2^-10":
            kappa = dc.profile_coefficient(gamma)
            grid = make_grid(GridSpec(h=2.0**-10, a=1.0, R=2.0))
            rep = dc.solve_local(grid, ReactionSpec(gamma=gamma), boundary=(-kappa, kappa))
        elif case == "ramp_h2^-7":
            grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=8.0))
            g = dc.odd_exterior_builder(grid, "ramp", 15.71)
            rep = dc.solve(dc.assemble(grid, 0.95), g, ReactionSpec(gamma=gamma))
        else:
            # nonnegative one-phase data: trials are clipped at zero
            grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
            reaction = ReactionSpec(gamma=gamma, mode="one_phase")
            rep = dc.solve_local(grid, reaction, boundary=(1.0, 1.0))
        assert rep.converged
        distinct = len(set(points))
        assert distinct > rep.iterations
        assert distinct == len(points)


def _matvecs_per_iteration(monkeypatch, system_class, run):
    """Count system_class.matvec calls per iteration of run(); returns (opening count, [(count, moved)]).

    An iteration starts at its sweep; moved says whether its line search
    moved any lane.  The opening count is that of the first evaluation.
    """
    counts = [[0, False]]  # [matvecs, moved] before the first sweep, then per iteration
    matvec, sweep, step = system_class.matvec, solver.kernels.gs_polish_red_black, solver._step

    def counting(self, v):
        counts[-1][0] += 1
        return matvec(self, v)

    def marking(*args):
        counts.append([0, False])
        return sweep(*args)

    def recording(*args):
        t = step(*args)
        counts[-1][1] |= bool((t > 0.0).any())
        return t

    monkeypatch.setattr(system_class, "matvec", counting)
    monkeypatch.setattr(solver.kernels, "gs_polish_red_black", marking)
    monkeypatch.setattr(solver, "_step", recording)
    run()
    (first, _), *iterations = counts
    return first, [tuple(c) for c in iterations]


class TestFourMatvecsPerNewtonIteration:
    """The sweep opens on the A u the last evaluation formed and forms A delta
    between its colours only: an iteration that takes a Newton step makes
    four matvecs, one in the sweep, two evaluations and A delta for the line
    search."""

    @pytest.mark.parametrize("case", ["dense", "lanes", "local"])
    def test_matvec_count(self, case, op_small, monkeypatch):
        reaction = ReactionSpec(gamma=0.2)
        if case == "local":
            kappa = dc.profile_coefficient(0.2)
            grid = make_grid(GridSpec(h=2.0**-8, a=1.0, R=2.0))
            system_class = solver._TridiagSystem

            def run():
                assert dc.solve_local(grid, reaction, boundary=(-kappa, kappa)).converged
        else:
            op = op_small
            data = [dc.odd_exterior_builder(op.grid, "ramp", 2.0)]
            if case == "lanes":
                op, data = _campaign_data(2.0**-5, 4)
            system_class = solver._DenseSystem

            def run():
                assert all(rep.converged for rep in dc.solve_many(op, data, reaction))

        first, iterations = _matvecs_per_iteration(monkeypatch, system_class, run)
        assert first == 1
        newton = [count for count, moved in iterations if moved]
        assert newton and newton == [4] * len(newton)
        # an iteration whose step moves no lane: no second evaluation, and
        # no A delta when no lane's step descends
        assert all(count in (2, 3) for count, moved in iterations if not moved)


def _dense_energy(A, b, h, u, gamma):
    """J(u) = h (u.A u / 2 + b.u + sum Phi(u)) from a dense A, in two-phase mode."""
    phi = np.abs(u) ** (1.0 + gamma) / (1.0 + gamma)
    return h * (0.5 * u @ (A @ u) + b @ u + phi.sum())


class TestEnergyFunctions:
    """A report's energy is J of its solution, by the dense formula."""

    def test_energy_matches_report(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 1.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        j = _dense_energy(toeplitz(op_small.row), op_small.load_vector(g), grid.h, rep.solution.interior_values, 0.2)
        assert j == pytest.approx(rep.energy, rel=1e-12, abs=1e-14)

    def test_energy_local_matches_report(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary=(-0.3, 0.4))
        assert rep.converged
        n = grid.interior.size
        A = toeplitz(np.r_[2.0, -1.0, np.zeros(n - 2)]) / grid.h**2  # the second difference
        b = np.zeros(n)
        b[0], b[-1] = 0.3 / grid.h**2, -0.4 / grid.h**2
        j = _dense_energy(A, b, grid.h, rep.solution.interior_values, 0.2)
        assert j == pytest.approx(rep.energy, rel=1e-12, abs=1e-14)


class TestSidecar:
    """The .meta file the CLI writes for a solve holds the report's values, each exact (.17g round-trips)."""

    @staticmethod
    def _meta(tmp_path, command, **keys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / f"run_{command}.meta").read_text()
        return dict(line.split("=", 1) for line in text.strip().splitlines())

    @staticmethod
    def _assert_report_fields(lines, rep):
        for key, value in (
            ("s", rep.s), ("gamma", rep.gamma), ("residual", rep.residual_inf),
            ("iterations", rep.iterations), ("energy", rep.energy),
        ):
            assert float(lines[key]) == value, key
        assert lines["mode"] == rep.mode
        assert lines["converged"] == str(rep.converged).lower()

    def test_keys_and_extras(self, op_small, tmp_path):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 1.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        lines = self._meta(tmp_path, "solve", h="1/32", a="1", R="2", s="0.75", gamma="0.2", amplitude="1")
        for key in ("s", "gamma", "mode", "residual", "iterations", "energy", "converged"):
            assert key in lines
        assert "threads" not in lines
        assert lines["mode"] == "two_phase"
        assert lines["seed"] == "0"
        assert float(lines["s"]) == 0.75
        self._assert_report_fields(lines, rep)

    def test_free_boundary_written_when_present(self, tmp_path):
        grid = make_grid(GridSpec(h=1 / 64, a=4.0, R=8.0))
        rep = dc.solve_local(
            grid, ReactionSpec(gamma=0.2, mode="one_phase"), boundary=(0.0, 1.0)
        )
        fb = dc.free_boundary(rep.solution, rep.s, rep.gamma)
        assert fb is not None
        lines = self._meta(
            tmp_path, "solve-local", h="1/64", a="4", R="8", gamma="0.2", mode="one_phase", left="0", right="1"
        )
        assert float(lines["free_boundary"]) == fb
        self._assert_report_fields(lines, rep)

    def test_free_boundary_of_a_nested_nonlocal_solve(self, tmp_path):
        # 1023 unknowns, solved on levels of 255, 511 and 1023
        keys = dict(h="1/512", a="1", R="2", s="0.9", gamma="0.2", mode="one_phase", data="const", amplitude="0.02")
        grid = make_grid(GridSpec(h=1 / 512, a=1.0, R=2.0))
        values = np.zeros(grid.n)
        values[grid.exterior] = 0.02  # data = const
        rep = dc.solve(dc.assemble(grid, 0.9), GridFunction(grid, values), ReactionSpec(gamma=0.2, mode="one_phase"))
        fb = dc.free_boundary(rep.solution, rep.s, rep.gamma)
        assert fb is not None
        lines = self._meta(tmp_path, "solve", **keys)
        assert float(lines["free_boundary"]) == fb
        self._assert_report_fields(lines, rep)
