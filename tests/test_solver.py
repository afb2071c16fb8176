"""Solver behaviour: validation, convergence, phase structure, reporting."""

import os
import subprocess
import sys
import tracemalloc

import mpmath
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
from deadcore.analysis import random_ordered_pair


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
            g_neg = g.with_values(-g.values)
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

    def test_two_phase_reports_no_free_boundary(self, op_small):
        grid = op_small.grid
        g = dc.odd_exterior_builder(grid, "ramp", 2.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert rep.free_boundary is None

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
        polish = solver._DenseSystem.polish

        def subnormal_once(self, b, u, gamma, one_phase):
            u = polish(self, b, u, gamma, one_phase)
            if not steps:
                u[k] = 5e-324
            return u

        monkeypatch.setattr(solver._DenseSystem, "polish", subnormal_once)
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
        newton_delta = solver._DenseSystem.newton_delta
        monkeypatch.setattr(
            solver._DenseSystem, "newton_delta", lambda self, r, free, dd: np.zeros_like(r)
        )
        smoother = dc.solve(op_small, g, reaction)
        monkeypatch.setattr(
            solver._DenseSystem,
            "newton_delta",
            lambda self, r, free, dd: -newton_delta(self, r, free, dd),
        )
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
        cold = solver._solve_nonlocal(op_ramp, g, reaction, config)
        assert cold.converged and cold.iterations <= 25
        nested = dc.solve(op_ramp, g, reaction, config)
        assert nested.converged and nested.iterations <= 8


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
            cache[k] = solver._solve_nonlocal(op, g, reaction, None), dc.solve(op, g, reaction)
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

        def recording(grid, s, corrected=True):
            sizes.append(grid.interior.size)
            assert s == op_ramp.s and corrected == op_ramp.corrected
            return assemble(grid, s, corrected)

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
        cold = solver._solve_nonlocal(op, g, reaction, None)

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
        # 4095 unknowns, levels 255 -> 4095; PCG from 1023 up
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


def _record_newton_steps(monkeypatch, system_class):
    """Wrap ``system_class.newton_delta``; returns the list of (r, free, dd, delta) it fills."""
    steps = []
    newton_delta = system_class.newton_delta

    def recording(self, r, free, dd):
        delta = newton_delta(self, r, free, dd)
        steps.append((r.copy(), free.copy(), dd.copy(), delta.copy()))
        return delta

    monkeypatch.setattr(system_class, "newton_delta", recording)
    return steps


@pytest.fixture(scope="module")
def op_acceptance_08():
    grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=8.0))
    return dc.assemble(grid, 0.95)


@pytest.fixture(scope="module")
def op_2047():
    """h = 2^-10, R = 8, s = 0.95: 2047 unknowns."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-10, a=1.0, R=8.0)), 0.95)


def _rtol(n):
    """dposv's bound below solver._PCG_MIN unknowns; PCG stops at a relative residual of 1e-10."""
    return 1e-12 if n < solver._PCG_MIN else 1e-9


class TestDenseNewtonStep:
    """The dense Newton step is the free-set system, solved without a gather:
    one dposv below solver._PCG_MIN unknowns (63 and 255 here), PCG from
    there up (1023 and 2047)."""

    @pytest.fixture(params=["h2^-5", "h2^-7", "h2^-9", "h2^-10"])
    def op(self, request, op_small, op_acceptance_08, op_ramp, op_2047):
        return {"h2^-5": op_small, "h2^-7": op_acceptance_08, "h2^-9": op_ramp, "h2^-10": op_2047}[
            request.param
        ]

    @pytest.mark.parametrize("pinned", ["nothing", "interior_block", "both_ends", "everything"])
    def test_matches_the_reduced_system(self, op, pinned):
        A = op.A
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
        delta = solver._DenseSystem(A[0]).newton_delta(r, free, dd)
        _assert_matches_reduced(A, r, free, dd, delta, _rtol(n))

    def test_init_solve_matches_lu(self, op):
        b = np.random.default_rng(9).standard_normal(op.A.shape[0])
        x = solver._DenseSystem(op.A[0]).init_solve(b)
        ref = np.linalg.solve(op.A, -b)
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
            _assert_matches_reduced(op_acceptance_08.A, r, free, dd, delta)

    def test_not_positive_definite_raises(self, op_small, op_ramp):
        # symmetric, nonsingular and indefinite: LU would solve it, Cholesky
        # must refuse it rather than return the solve of a partial factor,
        # and so must PCG (N = 1023)
        for op in (op_small, op_ramp):
            A = op.A
            n = A.shape[0]
            eig = np.linalg.eigvalsh(A)
            system = solver._DenseSystem((A - 0.5 * (eig[n // 2] + eig[n // 2 + 1]) * np.eye(n))[0])
            free = np.ones(n, dtype=bool)
            free[::7] = False
            with pytest.raises(np.linalg.LinAlgError):
                system.init_solve(np.ones(n))
            with pytest.raises(np.linalg.LinAlgError):
                system.newton_delta(np.ones(n), np.ones(n, dtype=bool), np.zeros(n))
            with pytest.raises(np.linalg.LinAlgError):
                system.newton_delta(np.ones(n), free, np.zeros(n))

    def test_pcg_builds_no_dense_matrix(self, op_2047):
        # a dense copy of A would take 33.5 MB
        n = op_2047.A.shape[0]
        system = solver._DenseSystem(op_2047.row)
        rng = np.random.default_rng(10)
        r, free = rng.standard_normal(n), np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            system.newton_delta(r, free, np.ones(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


@pytest.fixture(scope="module")
def op_127():
    """h = 2^-6, R = 4, s = 0.75: 127 unknowns, the smallest red-black size."""
    return dc.assemble(make_grid(GridSpec(h=2.0**-6, a=1.0, R=4.0)), 0.75)


def _polish_case(case, op_acceptance_08):
    """(system, b, u0, reaction, clip) of a red-black polish: local, or dense at N >= solver._RB_MIN."""
    if case == "local":
        grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=2.0))
        kappa = dc.profile_coefficient(0.2)
        system, b = solver.local_operator(grid), solver._local_load(grid, -kappa, kappa)
        return system, b, system.init_solve(b), ReactionSpec(gamma=0.2), False
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
    u0 = system.init_solve(b)
    return system, b, np.maximum(u0, 0.0) if clip else u0, ReactionSpec(gamma=0.2, mode=mode), clip


class TestRedBlackPolish:
    """The local sweep, and from solver._RB_MIN unknowns up the dense one, is
    kernels.gs_polish_red_black: each colour takes kernels.roots of all its
    nodes at once, with no line search."""

    @pytest.mark.parametrize(
        "case", ["two_phase", "one_phase_unclipped", "one_phase_clipped", "local"]
    )
    def test_energy_never_rises(self, case, op_acceptance_08):
        system, b, u, reaction, clip = _polish_case(case, op_acceptance_08)
        assert case == "local" or u.size >= solver._RB_MIN

        def J(v):
            return solver._evaluate(system, b, 1.0, v, reaction.gamma, reaction.one_phase)[1]

        trace = [J(u)]
        for _ in range(8):
            u = system.polish(b, u.copy(), reaction.gamma, reaction.one_phase)
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
        out = system.polish(b, np.ones(n), 0.2, False)
        assert len(calls) == 2
        for c, (_, t) in enumerate(calls):
            np.testing.assert_array_equal(out[c::2].view(np.int64), t.view(np.int64))
        # the odd colour's data is formed at the even colour's new values
        mid = np.ones(n)
        mid[::2] = out[::2]
        q_odd = row[0] * mid[1::2] - system.matvec(mid)[1::2] - b[1::2]
        np.testing.assert_allclose(calls[1][0], q_odd, rtol=0.0, atol=1e-12 * system.abs_row_sum)
        if not row[1:].any():
            snapped = np.abs(b) == 1e-250
            assert np.all(out[snapped] == 0.0) and not np.signbit(out[snapped]).any()
            tiny = np.abs(b) == 1e-30
            assert np.all((np.abs(out[tiny]) < 1e-100) & (1.0 + (out[tiny] - 1.0) != out[tiny]))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_negated_data_gives_the_negated_solution(self, op_127, seed, monkeypatch):
        # every operation of a colour step commutes with negation and the
        # root is odd, so the sweeps and the Newton steps are exactly negated
        _forbid_sweeps(monkeypatch, ["gs_polish_dense"])
        g = random_ordered_pair(op_127.grid, np.random.default_rng(seed))[0]
        r1 = dc.solve(op_127, g, ReactionSpec(gamma=0.2))
        r2 = dc.solve(op_127, g.with_values(-g.values), ReactionSpec(gamma=0.2))
        assert r1.converged and r1.iterations == r2.iterations
        np.testing.assert_array_equal(r2.solution.values, -r1.solution.values)
        np.testing.assert_array_equal(r2.energy_trace, r1.energy_trace)

    @pytest.mark.parametrize("h", [2.0**-5, 2.0**-6, 2.0**-7], ids=["63", "127", "255"])
    def test_path_by_size(self, h, monkeypatch):
        grid = make_grid(GridSpec(h=h, a=1.0, R=4.0))
        n = grid.interior.size
        op = dc.assemble(grid, 0.75)
        counts = {"roots": [], "scalar_root": 0, "gs_polish_dense": 0, "gs_polish_red_black": 0}
        roots, scalar_root, dense, red_black = (
            solver.kernels.roots, solver.kernels.scalar_root, solver.kernels.gs_polish_dense,
            solver.kernels.gs_polish_red_black,
        )

        def counting_roots(d, q, gamma, one_phase):
            counts["roots"].append(q.size)
            return roots(d, q, gamma, one_phase)

        def counting_scalar_root(*args):
            counts["scalar_root"] += 1
            return scalar_root(*args)

        def counting_dense(*args, **kwargs):
            counts["gs_polish_dense"] += 1
            return dense(*args, **kwargs)

        def counting_red_black(*args):
            counts["gs_polish_red_black"] += 1
            return red_black(*args)

        monkeypatch.setattr(solver.kernels, "roots", counting_roots)
        monkeypatch.setattr(solver.kernels, "scalar_root", counting_scalar_root)
        monkeypatch.setattr(solver.kernels, "gs_polish_dense", counting_dense)
        monkeypatch.setattr(solver.kernels, "gs_polish_red_black", counting_red_black)
        g = random_ordered_pair(grid, np.random.default_rng(3))[0]
        rep = dc.solve(op, g, ReactionSpec(gamma=0.2))
        assert rep.converged
        if n < solver._RB_MIN:
            assert counts["roots"] == [] and counts["gs_polish_dense"] == rep.iterations
            assert counts["gs_polish_red_black"] == 0
            assert counts["scalar_root"] >= n * rep.iterations
        else:
            # roots hands the odd lane out to scalar_root, but no sweep is per node
            assert counts["gs_polish_dense"] == 0
            assert counts["gs_polish_red_black"] == rep.iterations
            assert counts["roots"] == [(n + 1) // 2, n // 2] * rep.iterations
            assert counts["scalar_root"] <= n * rep.iterations // 20


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
        u = np.array([1.0, -2.0, 0.5])
        delta = np.array([0.25, 0.5, -0.125])
        phi = solver._phi(u, 0.2, False)
        # an ascent: no t passes
        assert solver._step(u, delta, phi, 1.0, 1.0, 0.2, False) == 0.0
        # dJ(t) = -1.5 t + 0.5 t^2 + ((1 + t)^1.2 - 1) / 1.2 is +0.08 at t = 1
        # and -0.10 at t = 1/2
        one = np.ones(1)
        assert solver._step(one, one, solver._phi(one, 0.2, False), -1.5, 0.5, 0.2, False) == 0.5
        # a decrease far below one ulp of Phi(u) still passes at t = 1
        tiny = 1e-18 * delta
        slope = -2.0 * abs(tiny @ solver.reaction_value(u, 0.2, False))
        assert solver._step(u, tiny, phi, slope, 0.0, 0.2, False) == 1.0


def test_import_loads_no_scipy_fft_or_sparse():
    # each would add tens of ms to every process start; the FFTs are numpy's
    code = (
        "import sys, deadcore\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.fft', 'scipy.sparse'))))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dc.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _forbid_sweeps(monkeypatch, names=("gs_polish_dense", "gs_polish_red_black")):
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    for name in names:
        monkeypatch.setattr(solver.kernels, name, sweep)


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
        with pytest.warns(RuntimeWarning):  # overflow, then NaN
            rep = dc.solve(dc.assemble(grid, 0.75), g, ReactionSpec(gamma=0.2))
        assert not rep.converged and rep.iterations == 0
        assert not np.isfinite(rep.energy)

    def test_residual_within_the_rule_with_a_nan_energy_is_not_converged(self, op_small, monkeypatch):
        evaluate = solver._evaluate

        def nan_energy(*args):
            r, _, f = evaluate(*args)
            return np.zeros_like(r), np.nan, f

        # a zero residual meets the stopping rule; the NaN energy must not count as converged
        monkeypatch.setattr(solver, "_evaluate", nan_energy)
        g = dc.odd_exterior_builder(op_small.grid, "ramp", 1.0)
        rep = dc.solve(op_small, g, ReactionSpec(gamma=0.2))
        assert not rep.converged and rep.iterations == 0 and rep.residual_inf == 0.0


class TestLocalSolve:
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
        A = op_small.A
        dense = np.abs(A).sum(axis=1).max()
        assert solver._DenseSystem(A[0]).abs_row_sum == pytest.approx(dense, rel=1e-14)

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
        system = solver.local_operator(grid)
        A = np.diag(system.d) + np.diag(system.dl, -1) + np.diag(system.du, 1)
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
