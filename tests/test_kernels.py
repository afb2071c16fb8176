"""Exact coordinate roots and the Gauss-Seidel sweep kernels."""

import math
import struct

import numpy as np
import pytest

import deadcore as dc
from deadcore import GridSpec, ReactionSpec, kernels, make_grid, solver
from deadcore.kernels import gs_polish_dense, gs_polish_red_black, roots, scalar_root


def _reference_root(d, q, gamma, one_phase):
    """The definition scalar_root must reproduce, by plain bisection, extended oddly.

    For q > 0 the root is the least double t in (0, q/d] at which the sign
    test d*t + exp(gamma*log(t)) - q < 0 is false, with q/d passing
    unevaluated, and a root below 1e-280 is 0.0.  Positive doubles sort like
    their int64 bit patterns, so bisection over the patterns of [0, q/d]
    finds it.
    """
    if one_phase and q <= 0.0:
        return q / d
    if q < 0.0:
        return 0.0 - _reference_root(d, -q, gamma, False)
    if q == 0.0:
        return 0.0
    lo, hi = 0, _bits(q / d)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        t = _double(mid)
        if d * t + math.exp(gamma * math.log(t)) - q < 0.0:
            lo = mid
        else:
            hi = mid
    t = _double(hi)
    return 0.0 if t < 1e-280 else t


def _bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _reference_roots(d, q, gamma, one_phase):
    """kernels.roots by the plain bisection, lane by lane."""
    d = np.broadcast_to(d, q.shape)
    return np.array([_reference_root(di, qi, gamma, one_phase) for di, qi in zip(d.tolist(), q.tolist())])


class TestScalarRoot:
    def test_solves_coordinate_equation(self):
        for d, q, gamma in [(2.0, 1.0, 0.2), (5.0, -3.0, 0.3), (1.0, 1e-4, 0.1)]:
            t = scalar_root(d, q, gamma, False)
            f = np.sign(t) * abs(t) ** gamma if t != 0 else 0.0
            assert d * t + f == pytest.approx(q, abs=1e-12 * max(1.0, abs(q)))

    def test_zero_forcing_gives_zero(self):
        assert scalar_root(2.0, 0.0, 0.2, False) == 0.0
        assert scalar_root(2.0, 0.0, 0.2, True) == 0.0

    def test_one_phase_negative_forcing_is_linear(self):
        # no absorption below zero: the equation is d*t = q
        assert scalar_root(4.0, -2.0, 0.2, True) == pytest.approx(-0.5)

    def test_two_phase_is_odd(self):
        # exactly, on every two-phase lane, and a root that snaps to zero is +0.0 on both sides
        d, q, gamma = (np.array(c) for c in zip(*[a[:3] for a in _root_draws() if not a[3]]))
        lanes = list(zip(d.tolist(), q.tolist(), gamma.tolist()))
        pos = np.array([scalar_root(di, qi, gi, False) for di, qi, gi in lanes])
        neg = np.array([scalar_root(di, -qi, gi, False) for di, qi, gi in lanes])
        np.testing.assert_array_equal(neg, -pos)
        assert not np.signbit(np.r_[pos, neg][np.r_[pos, neg] == 0.0]).any()
        pos, neg = roots(d, q, gamma, False), roots(d, -q, gamma, False)
        np.testing.assert_array_equal(neg, -pos)
        assert not np.signbit(np.r_[pos, neg][np.r_[pos, neg] == 0.0]).any()

    def test_degenerate_forcing_drives_deep(self):
        # the root of t + t^0.2 = 1e-60 sits near 1e-300, below the snap
        t = scalar_root(1.0, 1e-60, 0.2, False)
        assert t == 0.0
        assert abs(t + t**0.2 - 1e-60) < 1e-20

    def test_root_far_below_q_over_d(self):
        # the root lies 1e158 below q/d; the centre node of the odd ramp at
        # gamma = 0.1 (tests/test_solver.py) needs it
        d, q, gamma = 277.41, 2.62e-18, 0.1
        t = scalar_root(d, q, gamma, False)
        assert t == pytest.approx(1.524098070253267e-176, rel=1e-12)
        assert _below(d, q, gamma, math.nextafter(t, 0.0)) and not _below(d, q, gamma, t)

    def test_satisfies_the_definition(self):
        # per lane, with the math sign test: the double before t lies below
        # the root and t passes (q/d passes unevaluated), and t is 0.0
        # exactly when the double before 1e-280 passes
        below_snap = math.nextafter(1e-280, 0.0)
        bad = []
        for d, q, gamma, one_phase in _root_draws():
            t = scalar_root(d, q, gamma, one_phase)
            if (one_phase and q <= 0.0) or q == 0.0:
                continue
            q, t, top = abs(q), abs(t), abs(q) / d
            snapped = below_snap >= top or not _below(d, q, gamma, below_snap)
            if t == 0.0:
                ok = snapped
            else:
                ok = not snapped and _below(d, q, gamma, math.nextafter(t, 0.0))
                ok = ok and (t == top or not _below(d, q, gamma, t))
            if not ok:
                bad.append((d, q, gamma, t))
        assert bad == []

    def test_ultra_degenerate_forcing_snaps_to_zero(self):
        # the root, near 1e-1250, lies below the snap: exact zero
        assert scalar_root(1.0, 1e-250, 0.2, False) == 0.0

    # (d, q, gamma, one_phase) at the edges of the fast path
    EDGES = [
        (1.0, 1e-60, 0.2, False),  # deep: the root, near 1e-300, snaps to zero
        (1.0, 1e-250, 0.2, False),  # snap to zero
        (1.0, -1e-250, 0.2, False),
        (4.0, -2.0, 0.2, True),  # one-phase, q <= 0: exactly q/d
        (4.0, -1e-300, 0.2, True),
        (4.0, 0.0, 0.2, True),
        (4.0, 0.0, 0.2, False),
        (4.0, 2.0, 0.2, True),
        (2.0, 0.5, 1e-3, False),  # gamma near 0
        (2.0, -0.5, 1e-3, True),
        (1e6, 3.0, 0.01, False),
        (2.0, 0.5, 1 / 3 - 1e-12, False),  # gamma near 1/3
        (1e6, -3.0, 1 / 3 - 1e-12, False),
        (1.0, 1e200, 0.2, False),  # root within ulps of q/d
        (1.0, -1e200, 0.2, False),
        (0.27916957086637906, -6.159675736995484e235, 0.2, False),  # the pair ends at q/d
        (331224.8777713054, -2.9033261852078305e139, 0.2, False),
        (1.0, 1e250, 0.2, False),  # q/d far from 1
        (1.0, 1.1e250, 0.2, False),
        (1.0, 1e-250, 0.9, False),
        (1.0, 0.99e-250, 0.9, False),
        (1e7, 1e-300, 0.2, False),  # q/d below the snap
        (1.0, 1e-8, 0.2, False),  # the root 1e32 and 1e40 below q/d
        (1.0, 1e-10, 0.2, False),
        (277.41, 2.62e-18, 0.1, False),  # the root 1e158 below q/d
        (1e-44, 5e-324, 0.2, False),  # subnormal q: locating divides by an underflowed zero
    ]

    def test_matches_reference_bisection(self):
        # The located start may only speed the root up, never move a bit.
        bad = [a for a in _root_draws() if scalar_root(*a) != _reference_root(*a)]
        assert bad == []


def _below(d, q, gamma, t):
    """The math sign test at q > 0: True when t lies below the root."""
    return d * t + math.exp(gamma * math.log(t)) - q < 0.0


def _root_draws():
    """(d, q, gamma, one_phase) lanes: seeded draws over the solver's range, and the edges."""
    rng = np.random.default_rng(20261018)
    n = 200_000
    d = 10.0 ** rng.uniform(-2.0, 7.0, n)
    q = 10.0 ** rng.uniform(-300.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    gamma = rng.uniform(0.01, 0.33, n)
    one_phase = rng.random(n) < 0.5
    draws = list(zip(d.tolist(), q.tolist(), gamma.tolist(), one_phase.tolist()))
    # roots from 1e-80 to 1e-5, down to about 1e40 below q/d
    m = 20_000
    t = 10.0 ** rng.uniform(-80.0, -5.0, m)
    d = 10.0 ** rng.uniform(-2.0, 7.0, m)
    gamma = rng.uniform(0.01, 0.33, m)
    q = (d * t + t**gamma) * rng.choice([-1.0, 1.0], m)
    draws += list(zip(d.tolist(), q.tolist(), gamma.tolist(), [False] * m))
    return draws + TestScalarRoot.EDGES


class TestRoots:
    """The array root locates every lane as scalar_root does, with numpy's exp and log, then checks a window."""

    @staticmethod
    def _below(d, q, gamma, t):
        """The sign test at q > 0 with numpy's exp and log."""
        with np.errstate(all="ignore"):
            return d * t + np.exp(gamma * np.log(t)) - q < 0.0

    @classmethod
    def _least_passing(cls, d, q, gamma):
        """The definition with numpy's sign test, by bisection over bit patterns on every lane of q > 0."""
        top = q / d
        lo, hi = np.zeros(q.size, dtype=np.int64), top.view(np.int64).copy()
        while np.any(hi - lo > 1):
            # (lo + hi) >> 1 would overflow int64 once both ends exceed 2.0
            mid = lo + ((hi - lo) >> 1)
            below = cls._below(d, q, gamma, mid.view(np.float64))
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        t = hi.view(np.float64)
        return np.where(t < 1e-280, 0.0, t)

    def test_matches_scalar_root_up_to_the_sign_test(self, monkeypatch):
        draws = _root_draws()
        d, q, gamma, one_phase = (np.array(c) for c in zip(*draws))
        sent = set()

        def recording_root(d, q, gamma, one_phase):  # roots sends |q| and negates
            sent.add((d, q, gamma))
            return scalar_root(d, q, gamma, one_phase)

        monkeypatch.setattr(kernels, "scalar_root", recording_root)
        t = roots(d, q, gamma, one_phase)
        monkeypatch.undo()
        ref = np.array([scalar_root(*a) for a in draws])

        # lanes scalar_root settles at once, and every lane sent to it, equal it
        direct = (one_phase & (q <= 0.0)) | (q == 0.0) | np.array([(a[0], abs(a[1]), a[2]) in sent for a in draws])
        np.testing.assert_array_equal(t[direct], ref[direct])

        # a located lane's |t| is the root by the definition with numpy's sign
        # test at |q|: the least passing double in (0, |q|/d], or 0.0 below
        # the snap
        loc = ~direct
        assert loc.sum() > 5_000
        dl, ql, gl, tl = d[loc], np.abs(q[loc]), gamma[loc], np.abs(t[loc])
        np.testing.assert_array_equal(tl, self._least_passing(dl, ql, gl))
        # and per lane, the double before a root that is not 0.0 lies below it
        nz = tl > 0.0
        top = ql / dl
        assert np.all(self._below(dl, ql, gl, np.nextafter(tl, 0.0))[nz])
        assert np.all(((tl == top) | ~self._below(dl, ql, gl, tl))[nz])

        # where math.exp and numpy's exp round apart the root can move
        differ = t != ref
        ulps = np.abs(t - ref)[differ] / np.spacing(np.abs(ref[differ]))
        print(
            f"roots differs from scalar_root on {differ.sum()} of {t.size} lanes "
            f"({differ.mean():.3%}), by at most {ulps.max(initial=0):.0f} ulps"
        )
        assert differ.mean() < 1e-3

    def test_scalar_arguments_broadcast(self):
        q = np.array([0.7, -0.7, 0.0, -2.0, 1e-60])
        expected = [scalar_root(3.0, qi, 0.25, True) for qi in q.tolist()]
        np.testing.assert_array_equal(roots(3.0, q, 0.25, True), expected)


def _small_problem(seed, n=12):
    rng = np.random.default_rng(seed)
    A = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(
        np.full(n - 1, -1.0), -1
    )
    b = rng.standard_normal(n)
    u0 = rng.standard_normal(n) * 0.5
    return A, b, u0


def _tridiag(A):
    """The tridiagonal matrix A as the solver's tridiagonal system."""
    return solver._TridiagSystem(np.diag(A, -1).copy(), np.diag(A).copy(), np.diag(A, 1).copy())


def _red_black(system, b, u, gamma, one_phase, sweeps):
    """``sweeps`` calls of gs_polish_red_black on a tridiagonal system; returns u."""
    for _ in range(sweeps):
        gs_polish_red_black(system.matvec, system.d, b, u, system.matvec(u), gamma, one_phase)
    return u


class TestBackendEquivalence:
    def test_tridiag_matches_dense_on_tridiagonal_matrix(self):
        # natural order on the red-first permuted system P A P^T is exactly
        # red-black order on A
        A, b, u0 = _small_problem(29)
        u_t = _red_black(_tridiag(A), b, u0.copy(), 0.2, False, sweeps=4)
        p = np.r_[0 : b.size : 2, 1 : b.size : 2]
        u_d = np.empty_like(u0)
        Ap = A[np.ix_(p, p)]
        u_d[p] = gs_polish_dense(Ap, b[p], u0[p], Ap @ u0[p], 0.2, False, sweeps=4)
        np.testing.assert_allclose(u_t, u_d, rtol=1e-13, atol=1e-15)


class TestNumpyKernelsMatchReferenceLoops:
    """The numpy kernels do the arithmetic of plain per-element loops, exactly."""

    @staticmethod
    def _dense_loop(A, b, u, gamma, one_phase, sweeps):
        n = u.size
        Au = A @ u
        for _ in range(sweeps):
            for i in range(n):
                q = A[i, i] * u[i] - Au[i] - b[i]
                t = scalar_root(A[i, i], q, gamma, one_phase)
                if t != u[i]:
                    dt = t - u[i]
                    for j in range(n):
                        Au[j] += A[j, i] * dt
                    u[i] = t
        return u

    @staticmethod
    def _red_black_loop(A, matvec, b, u, gamma, one_phase):
        # one sweep: a colour's data from the same A u, then one node and one
        # 1-lane root at a time, then A u moves by the same matvec
        n = u.size
        Au = matvec(u)
        for colour in (0, 1):
            delta = np.zeros(n)
            for i in range(colour, n, 2):
                q = A[i, i] * u[i] - Au[i] - b[i]
                t = roots(A[i, i : i + 1], np.array([q]), gamma, one_phase)[0]
                delta[i] = t - u[i]
                u[i] = t
            Au = Au + matvec(delta)
        return u

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_dense(self, one_phase):
        A, b, u0 = _small_problem(11)
        M = np.random.default_rng(11).random(A.shape)
        A = A + 0.01 * (M + M.T)
        ref = self._dense_loop(A, b, u0.copy(), 0.2, one_phase, 3)
        u = u0.copy()
        assert gs_polish_dense(A, b, u, A @ u, 0.2, one_phase, sweeps=3) is u
        np.testing.assert_array_equal(u, ref)

    def _check_red_black(self, A, matvec, d, b, u0, one_phase):
        ref = u0.copy()
        for _ in range(3):
            ref = self._red_black_loop(A, matvec, b, ref, 0.25, one_phase)
        u = u0.copy()
        for _ in range(3):
            assert gs_polish_red_black(matvec, d, b, u, matvec(u), 0.25, one_phase) is u
        np.testing.assert_array_equal(u, ref)

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_tridiag(self, one_phase):
        A, b, u0 = _small_problem(17)
        system = _tridiag(A)
        self._check_red_black(A, system.matvec, system.d, b, u0, one_phase)

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_red_black_dense(self, one_phase):
        # a dense A couples nodes of one colour; the sweep's arithmetic is the same
        A, b, u0 = _small_problem(17)
        M = np.random.default_rng(17).random(A.shape)
        A = A + 0.01 * (M + M.T)
        self._check_red_black(A, lambda v: A @ v, A.diagonal(), b, u0, one_phase)


class TestRedBlackSweep:
    def test_sweeps_decrease_energy(self):
        A, b, u = _small_problem(7, n=13)
        system = _tridiag(A)
        J = TestSweepsDecreaseEnergy._J
        vals = [J(A, b, u, 0.2)]
        for _ in range(6):
            u = _red_black(system, b, u, 0.2, False, sweeps=1)
            vals.append(J(A, b, u, 0.2))
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < vals[0]


class TestSweepsDecreaseEnergy:
    @staticmethod
    def _J(A, b, u, gamma):
        phi = np.abs(u) ** (1 + gamma) / (1 + gamma)
        return 0.5 * u @ A @ u + b @ u + phi.sum()

    def test_dense_monotone(self):
        A, b, u = _small_problem(3)
        gamma = 0.2
        vals = [self._J(A, b, u, gamma)]
        for _ in range(6):
            u = gs_polish_dense(A, b, u, A @ u, gamma, False, sweeps=1)
            vals.append(self._J(A, b, u, gamma))
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_sweeps_converge_to_fixed_point(self):
        A, b, u = _small_problem(5)
        u = gs_polish_dense(A, b, u, A @ u, 0.2, False, sweeps=400)
        r = A @ u + b + np.sign(u) * np.abs(u) ** 0.2
        assert np.abs(r).max() < 1e-10


class TestSolvesMatchReferenceRoot:
    """Whole solves against the same solves with every root by the plain bisection.

    scalar_root gives the reference's bits; roots may end a rare lane on a
    neighbouring double (TestRoots), so a solve that calls roots must take the
    same iterations, with energies equal to round-off and a solution equal
    to the solver tolerance.
    """

    @staticmethod
    def _both(monkeypatch, run):
        new = run()
        monkeypatch.setattr(kernels, "scalar_root", _reference_root)
        monkeypatch.setattr(kernels, "roots", _reference_roots)
        return new, run()

    @staticmethod
    def _assert_same_bits(new, ref):
        np.testing.assert_array_equal(new.solution.interior_values, ref.solution.interior_values)
        np.testing.assert_array_equal(new.energy_trace, ref.energy_trace)
        np.testing.assert_array_equal(new.residual_trace, ref.residual_trace)

    @staticmethod
    def _assert_within_tolerance(new, ref):
        # a root a few ulps off moves the energy by round-off, and the
        # solution by no more than the solver tolerance
        assert new.converged and ref.converged
        assert new.iterations == ref.iterations
        np.testing.assert_allclose(new.energy_trace, ref.energy_trace, rtol=1e-13, atol=0.0)
        u, v = new.solution.interior_values, ref.solution.interior_values
        assert np.abs(u - v).max() <= dc.SolverConfig().residual_tol * max(1.0, np.abs(v).max())

    @staticmethod
    def _counting_roots(monkeypatch):
        """Wrap kernels.roots; returns the list of lane counts, one per call."""
        lanes, roots_ = [], kernels.roots

        def counting(d, q, gamma, one_phase):
            lanes.append(q.size)
            return roots_(d, q, gamma, one_phase)

        monkeypatch.setattr(kernels, "roots", counting)
        return lanes

    def test_local(self, monkeypatch):
        # every tridiagonal root goes through roots
        gamma = 0.2
        grid = make_grid(GridSpec(h=2.0**-7, a=1.0, R=2.0))
        kappa = dc.profile_coefficient(gamma)
        new, ref = self._both(
            monkeypatch,
            lambda: dc.solve_local(grid, ReactionSpec(gamma=gamma), boundary=(-kappa, kappa)),
        )
        self._assert_within_tolerance(new, ref)

    def test_nonlocal_ramp(self, monkeypatch):
        # Below _RB_MIN the dense path never calls roots: its sweep calls
        # only scalar_root, which gives the reference's bits, so the solves
        # are the same bits.
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=4.0))
        assert grid.interior.size < solver._RB_MIN
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        lanes = self._counting_roots(monkeypatch)
        new, ref = self._both(monkeypatch, lambda: dc.solve(op, g, ReactionSpec(gamma=0.2)))
        assert lanes == []
        self._assert_same_bits(new, ref)

    def test_nonlocal_ramp_red_black(self, monkeypatch):
        # from _RB_MIN up every dense root goes through roots, one call per colour
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=4.0))
        n = grid.interior.size
        assert n >= solver._RB_MIN
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        lanes = self._counting_roots(monkeypatch)
        new, ref = self._both(monkeypatch, lambda: dc.solve(op, g, ReactionSpec(gamma=0.2)))
        assert set(lanes) == {(n + 1) // 2, n // 2}
        self._assert_within_tolerance(new, ref)
