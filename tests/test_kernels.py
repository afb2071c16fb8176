"""Exact coordinate roots and the Gauss-Seidel sweep kernels."""

import math

import numpy as np
import pytest

import deadcore as dc
from deadcore import GridSpec, ReactionSpec, kernels, make_grid, solver
from deadcore.kernels import gs_polish_red_black, roots


def _below(d, q, gamma, t):
    """numpy's sign test at q > 0: True where t lies below the root."""
    with np.errstate(all="ignore"):
        return d * t + np.exp(gamma * np.log(t)) - q < 0.0


def _reference_roots(d, q, gamma, one_phase):
    """The definition kernels.roots must reproduce, by plain bisection on every lane, extended oddly.

    For q > 0 the root is the least double t in (0, q/d] at which numpy's
    sign test d*t + np.exp(gamma*np.log(t)) - q < 0 is false, with q/d
    passing unevaluated, and a root below 1e-280 is 0.0.  Positive doubles
    sort like their int64 bit patterns, so bisection over the patterns of
    [0, q/d] finds it.
    """
    q = np.asarray(q, dtype=float)
    d, gamma, one_phase = (np.broadcast_to(x, q.shape) for x in (d, gamma, one_phase))
    linear = one_phase & (q <= 0.0)
    lanes = ~linear & (q != 0.0)
    with np.errstate(over="ignore"):
        out = np.where(linear, q / d, 0.0)
        d, a, gamma = d[lanes], np.abs(q[lanes]), gamma[lanes]
        lo, hi = np.zeros(a.size, dtype=np.int64), (a / d).view(np.int64)
    while np.any(hi - lo > 1):
        # (lo + hi) >> 1 would overflow int64 once both ends exceed 2.0
        mid = lo + ((hi - lo) >> 1)
        below = _below(d, a, gamma, mid.view(np.float64))
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t = hi.view(np.float64)
    t = np.where(t < 1e-280, 0.0, t)
    out[lanes] = np.where(q[lanes] < 0.0, 0.0 - t, t)
    return out


def _root(d, q, gamma, one_phase):
    """kernels.roots on one lane."""
    return float(roots(d, np.array([q]), gamma, one_phase)[0])


def gs_polish_dense(A, b, u, Au, gamma, one_phase, sweeps):
    """In-place coordinate sweeps for a dense system, in natural order; returns u.

    One exact coordinate minimization per node, each a one-lane root: the
    reference for the red-black sweep.  Au is the caller's product A @ u,
    which the sweeps update in place.
    """
    d = A.diagonal()
    for _ in range(sweeps):
        for i in range(u.size):
            t = _root(d[i], d[i] * u[i] - Au[i] - b[i], gamma, one_phase)
            if t != u[i]:
                Au += A[:, i] * (t - u[i])
                u[i] = t
    return u


def _columns(draws):
    """(d, q, gamma, one_phase) arrays of a list of lanes."""
    return tuple(np.array(c) for c in zip(*draws))


class TestScalarRoot:
    def test_solves_coordinate_equation(self):
        for d, q, gamma in [(2.0, 1.0, 0.2), (5.0, -3.0, 0.3), (1.0, 1e-4, 0.1)]:
            t = _root(d, q, gamma, False)
            f = np.sign(t) * abs(t) ** gamma if t != 0 else 0.0
            assert d * t + f == pytest.approx(q, abs=1e-12 * max(1.0, abs(q)))

    def test_zero_forcing_gives_zero(self):
        assert _root(2.0, 0.0, 0.2, False) == 0.0
        assert _root(2.0, 0.0, 0.2, True) == 0.0

    def test_one_phase_negative_forcing_is_linear(self):
        # no absorption below zero: the equation is d*t = q
        assert _root(4.0, -2.0, 0.2, True) == pytest.approx(-0.5)

    def test_two_phase_is_odd(self):
        # exactly, on every two-phase lane, in one call and one lane at a
        # time, and a root that snaps to zero is +0.0 on both sides
        d, q, gamma, _ = _columns([a for a in _root_draws() if not a[3]])
        pos, neg = roots(d, q, gamma, False), roots(d, -q, gamma, False)
        np.testing.assert_array_equal(neg, -pos)
        assert not np.signbit(np.r_[pos, neg][np.r_[pos, neg] == 0.0]).any()
        for di, qi, gi, _ in self.EDGES:
            t = _root(di, -abs(qi), gi, False)
            assert t == -_root(di, abs(qi), gi, False)
            assert t != 0.0 or not np.signbit(t)

    def test_degenerate_forcing_drives_deep(self):
        # the root of t + t^0.2 = 1e-60 sits near 1e-300, below the snap
        t = _root(1.0, 1e-60, 0.2, False)
        assert t == 0.0
        assert abs(t + t**0.2 - 1e-60) < 1e-20

    def test_root_far_below_q_over_d(self):
        # the root lies 1e158 below q/d; the centre node of the odd ramp at
        # gamma = 0.1 (tests/test_solver.py) needs it
        d, q, gamma = 277.41, 2.62e-18, 0.1
        t = _root(d, q, gamma, False)
        assert t == pytest.approx(1.524098070253267e-176, rel=1e-12)
        assert _below(d, q, gamma, math.nextafter(t, 0.0)) and not _below(d, q, gamma, t)

    def test_satisfies_the_definition(self):
        # per lane, with numpy's sign test: the double before t lies below
        # the root and t passes (q/d passes unevaluated), and t is 0.0
        # exactly when the double before 1e-280 passes
        d, q, gamma, one_phase = _columns(_root_draws())
        t = roots(d, q, gamma, one_phase)
        lanes = ~(one_phase & (q <= 0.0)) & (q != 0.0)
        d, q, gamma, t = d[lanes], np.abs(q[lanes]), gamma[lanes], np.abs(t[lanes])
        with np.errstate(over="ignore"):  # q/d overflows on one edge
            top, below_snap = q / d, math.nextafter(1e-280, 0.0)
        snapped = (below_snap >= top) | ~_below(d, q, gamma, below_snap)
        ok = np.where(
            t == 0.0,
            snapped,
            ~snapped & _below(d, q, gamma, np.nextafter(t, 0.0)) & ((t == top) | ~_below(d, q, gamma, t)),
        )
        assert snapped.sum() > 100_000 and (t > 0.0).sum() > 40_000
        assert np.flatnonzero(~ok).tolist() == []

    def test_ultra_degenerate_forcing_snaps_to_zero(self):
        # the root, near 1e-1250, lies below the snap: exact zero
        assert _root(1.0, 1e-250, 0.2, False) == 0.0

    # (d, q, gamma, one_phase) at the edges of the search
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
        (10.0, 5e-324, 0.2, False),  # q/d underflows to 0.0
        (1e300, -1e-300, 0.2, False),
        (1e-300, 1e10, 0.2, False),  # q/d overflows to inf
        (1e-300, -1e10, 0.2, True),
        # q/d fails the computed test, and passes only unevaluated: the root is q/d
        (883.7780053832865, 2.4147436863540585e272, 0.16479844405336566, False),
        (0.01770239467781795, -4.837508073104443e235, 0.14750820496040318, False),
        (697.0915510164051, 7.001821104112413e292, 0.03513329635172578, True),
        (1.0, 1e-8, 0.2, False),  # the root 1e32 and 1e40 below q/d
        (1.0, 1e-10, 0.2, False),
        (277.41, 2.62e-18, 0.1, False),  # the root 1e158 below q/d
        (1e-44, 5e-324, 0.2, False),  # subnormal q: locating divides by an underflowed zero
    ]

    def test_matches_reference_bisection(self):
        # one lane at a time, on every edge and every 20th draw: the located
        # start and the fans may only speed the root up, never move a bit
        draws = _root_draws()
        lanes = draws[::20] + self.EDGES
        ref = _reference_roots(*_columns(lanes))
        t = np.array([_root(*a) for a in lanes])
        assert np.flatnonzero(t.view(np.int64) != ref.view(np.int64)).tolist() == []


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
    """The array root equals the plain bisection on every lane, whatever the other lanes of the call."""

    def test_matches_the_reference_on_every_lane(self):
        d, q, gamma, one_phase = _columns(_root_draws())
        ref = _reference_roots(d, q, gamma, one_phase)
        t = roots(d, q, gamma, one_phase)
        assert np.flatnonzero(t.view(np.int64) != ref.view(np.int64)).tolist() == []
        # the same lanes in another order and in calls of 1 to 300 lanes
        order = np.random.default_rng(5).permutation(q.size)
        ends = np.cumsum(np.random.default_rng(6).integers(1, 301, q.size))
        ends = np.r_[0, ends[ends < q.size], q.size]
        shuffled = np.concatenate(
            [roots(d[i], q[i], gamma[i], one_phase[i]) for i in (order[a:b] for a, b in zip(ends, ends[1:]))]
        )
        np.testing.assert_array_equal(shuffled.view(np.int64), t[order].view(np.int64))

    @pytest.mark.parametrize("shift", [None, -300, -40, 40], ids=["none", "-300", "-40", "+40"])
    def test_the_search_needs_no_located_start(self, monkeypatch, shift):
        # the located start and the centred rounds only save rounds: from the
        # full bracket by even fans alone (a column of one probe holds only
        # its slot for hi), or with the first three rounds centred off the
        # located root, every lane still gets the reference's bits
        d, q, gamma, one_phase = _columns(_root_draws()[::10] + TestScalarRoot.EDGES)
        if shift is None:
            monkeypatch.setattr(kernels, "_WINDOW", np.zeros(1, np.int64))
            monkeypatch.setattr(kernels, "_CENTRED", ())
        else:
            moved = [np.r_[offsets[:-1] + shift, 0] for offsets in (kernels._WINDOW, *kernels._CENTRED)]
            monkeypatch.setattr(kernels, "_WINDOW", moved[0])
            monkeypatch.setattr(kernels, "_CENTRED", tuple(moved[1:]))
        t = roots(d, q, gamma, one_phase)
        ref = _reference_roots(d, q, gamma, one_phase)
        np.testing.assert_array_equal(t.view(np.int64), ref.view(np.int64))

    def test_numpy_power_is_monotone_and_elementwise(self):
        # the definition's premise: exp(gamma*log(t)) never decreases over
        # runs of adjacent doubles, and numpy gives an element the same bits
        # alone as in an array, so a lane's root is its lone root
        rng = np.random.default_rng(20261019)
        steps = np.arange(20_000)
        for _ in range(300):
            t0 = np.array([10.0 ** rng.uniform(-250.0, 3.0)])
            t = (t0.view(np.int64) + steps).view(np.float64)
            p = np.exp(rng.uniform(0.01, 0.33) * np.log(t))
            assert np.all(np.diff(p) >= 0.0)
        t = 10.0 ** rng.uniform(-250.0, 3.0, 30_000)
        gamma = rng.uniform(0.01, 0.33, t.size)
        whole = np.exp(gamma * np.log(t))
        alone = np.array([np.exp(g * np.log(np.array([x])))[0] for x, g in zip(t.tolist(), gamma.tolist())])
        np.testing.assert_array_equal(alone.view(np.int64), whole.view(np.int64))

    def test_scalar_arguments_broadcast(self):
        q = np.array([0.7, -0.7, 0.0, -2.0, 1e-60])
        np.testing.assert_array_equal(roots(3.0, q, 0.25, True), _reference_roots(3.0, q, 0.25, True))


def _small_problem(seed, n=12):
    rng = np.random.default_rng(seed)
    A = np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(
        np.full(n - 1, -1.0), -1
    )
    b = rng.standard_normal(n)
    u0 = rng.standard_normal(n) * 0.5
    return A, b, u0


def _tridiag(A):
    """The symmetric tridiagonal Toeplitz matrix A as the solver's tridiagonal system."""
    return solver._TridiagSystem(A[0, 0], A[0, 1])


def _red_black(system, b, u, gamma, one_phase, sweeps):
    """``sweeps`` calls of gs_polish_red_black on a tridiagonal system, on u as a one-lane stack; returns u."""
    lane, b = u[None], b[None]  # lane is a view: the sweeps update u
    for _ in range(sweeps):
        gs_polish_red_black(system.matvec, system.diagonal, b, lane, system.matvec(lane), gamma, one_phase)
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
                t = _root(A[i, i], q, gamma, one_phase)
                if t != u[i]:
                    dt = t - u[i]
                    for j in range(n):
                        Au[j] += A[j, i] * dt
                    u[i] = t
        return u

    @staticmethod
    def _red_black_loop(A, matvec, b, u, gamma, one_phase):
        # one sweep: a colour's data from the same A u, then one node and one
        # 1-lane root at a time, then A u moves by the same matvec, which
        # multiplies each row of a stack by A
        n = u.size
        Au = matvec(u[None])[0]
        for colour in (0, 1):
            delta = np.zeros(n)
            for i in range(colour, n, 2):
                q = A[i, i] * u[i] - Au[i] - b[i]
                t = roots(A[i, i : i + 1], np.array([q]), gamma, one_phase)[0]
                delta[i] = t - u[i]
                u[i] = t
            Au = Au + matvec(delta[None])[0]
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
        # the sweep runs on a one-lane stack, as the solver's do
        ref = u0.copy()
        for _ in range(3):
            ref = self._red_black_loop(A, matvec, b, ref, 0.25, one_phase)
        u = u0.copy()[None]
        for _ in range(3):
            assert gs_polish_red_black(matvec, d, b[None], u, matvec(u), 0.25, one_phase) is u
        np.testing.assert_array_equal(u[0], ref)

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_tridiag(self, one_phase):
        A, b, u0 = _small_problem(17)
        system = _tridiag(A)
        self._check_red_black(A, system.matvec, system.diagonal, b, u0, one_phase)

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_red_black_dense(self, one_phase):
        # a dense A couples nodes of one colour; the sweep's arithmetic is the same
        A, b, u0 = _small_problem(17)
        M = np.random.default_rng(17).random(A.shape)
        A = A + 0.01 * (M + M.T)
        self._check_red_black(A, lambda v: v @ A, A.diagonal(), b, u0, one_phase)  # A is symmetric


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

    roots gives the reference's bits on every lane (TestRoots), so a solve
    takes the same iterates, bit for bit.
    """

    @staticmethod
    def _both(monkeypatch, run):
        new = run()
        monkeypatch.setattr(kernels, "roots", _reference_roots)
        return new, run()

    @staticmethod
    def _assert_identical(new, ref):
        assert new.converged and ref.converged
        assert new.iterations == ref.iterations
        np.testing.assert_array_equal(new.energy_trace, ref.energy_trace)
        np.testing.assert_array_equal(new.solution.values, ref.solution.values)

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
        self._assert_identical(new, ref)

    def test_nonlocal_ramp(self, monkeypatch):
        # 63 unknowns, the campaign's size: the dense sweep is red-black
        # there too, so every root goes through roots, one call per colour
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=4.0))
        n = grid.interior.size
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        lanes = self._counting_roots(monkeypatch)
        new, ref = self._both(monkeypatch, lambda: dc.solve(op, g, ReactionSpec(gamma=0.2)))
        assert set(lanes) == {(n + 1) // 2, n // 2}
        self._assert_identical(new, ref)

    def test_nonlocal_ramp_red_black(self, monkeypatch):
        # 127 unknowns: every dense root goes through roots, one call per colour
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=4.0))
        n = grid.interior.size
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        lanes = self._counting_roots(monkeypatch)
        new, ref = self._both(monkeypatch, lambda: dc.solve(op, g, ReactionSpec(gamma=0.2)))
        assert set(lanes) == {(n + 1) // 2, n // 2}
        self._assert_identical(new, ref)
