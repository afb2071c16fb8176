"""Exact coordinate roots and the Gauss-Seidel sweep kernels."""

import math

import numpy as np
import pytest

import deadcore as dc
from deadcore import GridSpec, ReactionSpec, kernels, make_grid
from deadcore.kernels import gs_polish_dense, gs_polish_tridiag, roots, scalar_root


def _reference_root(d, q, gamma, one_phase):
    """Full-bracket bisection, verbatim: the definition scalar_root must reproduce."""
    if one_phase and q <= 0.0:
        return q / d
    if q == 0.0:
        return 0.0
    if q < 0.0:
        lo, hi = q / d, 0.0
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if d * mid - math.exp(gamma * math.log(-mid)) - q < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-280 + 1e-16 * -lo:
                break
    else:
        lo, hi = 0.0, q / d
        for _ in range(220):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if d * mid + math.exp(gamma * math.log(mid)) - q < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-280 + 1e-16 * lo:
                break
    out = 0.5 * (lo + hi)
    return 0.0 if abs(out) < 1e-280 else out


def _reference_roots(d, q, gamma, one_phase):
    """kernels.roots by the verbatim full-bracket bisection, lane by lane."""
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
        t_pos = scalar_root(3.0, 0.7, 0.25, False)
        t_neg = scalar_root(3.0, -0.7, 0.25, False)
        assert t_neg == pytest.approx(-t_pos, rel=1e-12)

    def test_degenerate_forcing_drives_deep(self):
        # the root of t + t^0.2 = 1e-60 sits near 1e-300; 220 halvings reach
        # ~1e-127, where the coordinate residual is already ~5e-26
        t = scalar_root(1.0, 1e-60, 0.2, False)
        assert 0.0 < t < 1e-100
        assert abs(t + t**0.2 - 1e-60) < 1e-20

    def test_ultra_degenerate_forcing_snaps_to_zero(self):
        # once the bracket collapses below 1e-280 the result is exact zero
        assert scalar_root(1.0, 1e-250, 0.2, False) == 0.0

    # (d, q, gamma, one_phase) at the edges of the located-bracket path
    EDGES = [
        (1.0, 1e-60, 0.2, False),  # deep: the reference stops at the 220 cap
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
        (1.0, 1e250, 0.2, False),  # q/d at the edges of the located path
        (1.0, 1.1e250, 0.2, False),
        (1.0, 1e-250, 0.9, False),
        (1.0, 0.99e-250, 0.9, False),
        (1e7, 1e-300, 0.2, False),
        (1.0, 1e-8, 0.2, False),  # q/d within about 1e40 of the root
        (1.0, 1e-10, 0.2, False),
    ]

    def test_matches_reference_bisection(self):
        # The located bracket may only speed the root up, never move a bit.
        bad = [a for a in _root_draws() if scalar_root(*a) != _reference_root(*a)]
        assert bad == []


def _root_draws():
    """(d, q, gamma, one_phase) lanes: seeded draws over the solver's range, and the edges."""
    rng = np.random.default_rng(20261018)
    n = 200_000
    d = 10.0 ** rng.uniform(-2.0, 7.0, n)
    q = 10.0 ** rng.uniform(-300.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    gamma = rng.uniform(0.01, 0.33, n)
    one_phase = rng.random(n) < 0.5
    draws = list(zip(d.tolist(), q.tolist(), gamma.tolist(), one_phase.tolist()))
    # roots around the 1e40 span to q/d, where the 220-halving cap starts to bind
    m = 20_000
    t = 10.0 ** rng.uniform(-80.0, -5.0, m)
    d = 10.0 ** rng.uniform(-2.0, 7.0, m)
    gamma = rng.uniform(0.01, 0.33, m)
    q = (d * t + t**gamma) * rng.choice([-1.0, 1.0], m)
    draws += list(zip(d.tolist(), q.tolist(), gamma.tolist(), [False] * m))
    return draws + TestScalarRoot.EDGES


class TestRoots:
    """The array root takes scalar_root's steps on all lanes, with numpy's exp and log."""

    @staticmethod
    def _below(d, q, gamma, t):
        """The bisection's sign test with numpy's exp and log, each side its own."""
        with np.errstate(all="ignore"):
            pos = d * t + np.exp(gamma * np.log(t)) - q < 0.0
            neg = d * t - np.exp(gamma * np.log(-t)) - q < 0.0
        return np.where(q < 0.0, neg, pos)

    def test_matches_scalar_root_up_to_the_sign_test(self, monkeypatch):
        draws = _root_draws()
        d, q, gamma, one_phase = (np.array(c) for c in zip(*draws))
        sent = set()

        def recording_root(*lane):
            sent.add(lane)
            return scalar_root(*lane)

        monkeypatch.setattr(kernels, "scalar_root", recording_root)
        t = roots(d, q, gamma, one_phase)
        monkeypatch.undo()
        ref = np.array([scalar_root(*a) for a in draws])

        # lanes scalar_root settles at once, and every lane sent to it, equal it
        direct = (one_phase & (q <= 0.0)) | (q == 0.0) | np.array([a in sent for a in draws])
        np.testing.assert_array_equal(t[direct], ref[direct])

        # a located lane is the midpoint of adjacent doubles across which the
        # numpy sign test changes; q/d, the full bracket's own end, passes unevaluated
        loc = ~direct
        assert loc.sum() > 5_000
        dl, ql, gl, tl = d[loc], q[loc], gamma[loc], t[loc]
        end = ql / dl

        def pair(lo, hi):
            lo_ok = (lo == end) | self._below(dl, ql, gl, lo)
            hi_ok = (hi == end) | ~self._below(dl, ql, gl, hi)
            return lo_ok & hi_ok & (0.5 * (lo + hi) == tl)

        assert np.all(pair(np.nextafter(tl, -np.inf), tl) | pair(tl, np.nextafter(tl, np.inf)))

        # where math.exp and numpy's exp round apart the pair can move
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


class TestBackendEquivalence:
    def test_tridiag_matches_dense_on_tridiagonal_matrix(self):
        # natural order on the red-first permuted system P A P^T is exactly
        # red-black order on A
        A, b, u0 = _small_problem(29)
        dl = np.diag(A, -1).copy()
        du = np.diag(A, 1).copy()
        d = np.diag(A).copy()
        u_t = gs_polish_tridiag(dl, d, du, b, u0.copy(), 0.2, False, sweeps=4)
        p = np.r_[0 : b.size : 2, 1 : b.size : 2]
        u_d = np.empty_like(u0)
        u_d[p] = gs_polish_dense(A[np.ix_(p, p)], b[p], u0[p], 0.2, False, sweeps=4)
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
    def _tridiag_loop(dl, d, du, b, u, gamma, one_phase, sweeps):
        # red-black order, one node and one 1-lane root at a time
        n = u.size
        for _ in range(sweeps):
            for colour in (0, 1):
                for i in range(colour, n, 2):
                    left = dl[i - 1] * u[i - 1] if i > 0 else 0.0
                    right = du[i] * u[i + 1] if i < n - 1 else 0.0
                    q = -(b[i] + (left + right))
                    u[i] = roots(d[i : i + 1], np.array([q]), gamma, one_phase)[0]
        return u

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_dense(self, one_phase):
        A, b, u0 = _small_problem(11)
        M = np.random.default_rng(11).random(A.shape)
        A = A + 0.01 * (M + M.T)
        ref = self._dense_loop(A, b, u0.copy(), 0.2, one_phase, 3)
        u = u0.copy()
        assert gs_polish_dense(A, b, u, 0.2, one_phase, sweeps=3) is u
        np.testing.assert_array_equal(u, ref)

    @pytest.mark.parametrize("one_phase", [False, True])
    def test_tridiag(self, one_phase):
        A, b, u0 = _small_problem(17)
        bands = np.diag(A, -1).copy(), np.diag(A).copy(), np.diag(A, 1).copy()
        ref = self._tridiag_loop(*bands, b, u0.copy(), 0.25, one_phase, 3)
        u = u0.copy()
        assert gs_polish_tridiag(*bands, b, u, 0.25, one_phase, sweeps=3) is u
        np.testing.assert_array_equal(u, ref)


class TestRedBlackSweep:
    @staticmethod
    def _odd_problem(seed=41, n=13):
        # n odd: the mirror i -> n-1-i maps each colour onto itself
        rng = np.random.default_rng(seed)
        half_b, half_u = rng.standard_normal(n // 2), 0.5 * rng.standard_normal(n // 2)
        b = np.r_[half_b, 0.0, -half_b[::-1]]
        u0 = np.r_[half_u, 0.0, -half_u[::-1]]
        off = np.full(n - 1, -1.0)
        return (off, np.full(n, 4.0), off.copy()), b, u0

    def test_odd_data_gives_an_odd_sweep_with_an_odd_root(self, monkeypatch):
        # The per-side sign test breaks exact ties apart, so scalar_root(d, -q)
        # need not be -scalar_root(d, q).  With a root made exactly odd, the
        # sweep itself must be: q is formed mirror-exactly and the order of
        # updates is mirror-symmetric.
        monkeypatch.setattr(
            kernels, "roots", lambda d, q, gamma, one_phase: np.sign(q) * roots(d, np.abs(q), gamma, one_phase)
        )
        monkeypatch.setattr(
            kernels,
            "scalar_root",
            lambda d, q, gamma, one_phase: math.copysign(scalar_root(d, abs(q), gamma, one_phase), q),
        )
        bands, b, u0 = self._odd_problem()
        u = gs_polish_tridiag(*bands, b, u0.copy(), 0.2, False, sweeps=5)
        np.testing.assert_array_equal(u, -u[::-1])

    def test_odd_data_gives_an_odd_sweep_up_to_ties(self):
        bands, b, u0 = self._odd_problem()
        u = gs_polish_tridiag(*bands, b, u0.copy(), 0.2, False, sweeps=5)
        assert np.abs(u + u[::-1]).max() <= 1e-15 * np.abs(u).max()

    def test_sweeps_decrease_energy(self):
        A, b, u = _small_problem(7, n=13)
        bands = np.diag(A, -1).copy(), np.diag(A).copy(), np.diag(A, 1).copy()
        J = TestSweepsDecreaseEnergy._J
        vals = [J(A, b, u, 0.2)]
        for _ in range(6):
            u = gs_polish_tridiag(*bands, b, u, 0.2, False, sweeps=1)
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
            u = gs_polish_dense(A, b, u, gamma, False, sweeps=1)
            vals.append(self._J(A, b, u, gamma))
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_sweeps_converge_to_fixed_point(self):
        A, b, u = _small_problem(5)
        u = gs_polish_dense(A, b, u, 0.2, False, sweeps=400)
        r = A @ u + b + np.sign(u) * np.abs(u) ** 0.2
        assert np.abs(r).max() < 1e-10


class TestSolvesMatchReferenceRoot:
    """Whole solves against the same solves with every root by full-bracket bisection.

    scalar_root gives the reference's bits; roots may end a rare lane on a
    neighbouring pair (TestRoots), so a solve that calls roots must take the
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
        # The dense path never calls roots: its sweep calls only scalar_root,
        # which gives the reference's bits, so the solves are the same bits.
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=4.0))
        op = dc.assemble(grid, 0.95)
        g = dc.odd_exterior_builder(grid, "ramp", 15.71)
        lanes = self._counting_roots(monkeypatch)
        new, ref = self._both(monkeypatch, lambda: dc.solve(op, g, ReactionSpec(gamma=0.2)))
        assert lanes == []
        self._assert_same_bits(new, ref)
