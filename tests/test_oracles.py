"""High-precision oracles for the constants the rest of the suite relies on.

Everything here is computed through an independent route (mpmath arithmetic,
quadrature of the defining singular integral, or a closed-form identity
derived differently) and then compared against the package implementation,
so downstream tests can trust these values as fixed points.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import toeplitz

import deadcore as dc
from deadcore import solver
from deadcore.fraclap import _hurwitz_zeta, interp_defect_constant

mp.mp.dps = 50


def mp_normalization(s):
    """c(s) via the reflection route |Gamma(-s)| = Gamma(1-s)/s."""
    s = mp.mpf(s)
    return s * 4**s * mp.gamma(mp.mpf(1) / 2 + s) / (mp.sqrt(mp.pi) * mp.gamma(1 - s))


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 0.998])
def test_normalization_constant_matches_mpmath(s):
    c = dc.normalization_constant(s)
    assert abs(c - float(mp_normalization(s))) <= 1e-14 * c


def test_normalization_constant_frozen_values():
    assert dc.normalization_constant(0.5) == pytest.approx(1.0 / np.pi, rel=1e-14)
    assert dc.normalization_constant(0.9) == pytest.approx(0.16490493881830272, rel=1e-12)
    assert dc.normalization_constant(0.95) == pytest.approx(0.090992482475194496, rel=1e-12)
    assert dc.normalization_constant(0.99) == pytest.approx(0.019632596687581782, rel=1e-12)


def test_normalization_constant_local_limit():
    # c(s) ~ 2(1-s) as s -> 1
    for s in (0.999, 0.9999):
        assert dc.normalization_constant(s) / (2 * (1 - s)) == pytest.approx(1.0, abs=2e-3)


@pytest.mark.parametrize("s,x", [(0.5, 0.0), (0.5, 0.5), (0.75, 0.0), (0.75, 0.5), (0.95, 0.25)])
def test_getoor_constant_against_singular_quadrature(s, x):
    """The defining singular integral of (1 - y^2)_+^s must reproduce the constant.

    Naive quadrature fails twice over: the symmetric second difference
    cancels catastrophically as t -> 0 (and t^(-1-2s) amplifies the noise),
    and the profile has algebraic cusps at |y| = 1.  So the integral is
    assembled from a Taylor series of the difference near 0, tanh-sinh on
    the cusp pieces, and the exact closed form of the tail, where the
    integrand is a pure power.
    """
    s_mp = mp.mpf(s)
    x_mp = mp.mpf(x)

    def w(y):
        v = 1 - y * y
        return v**s_mp if v > 0 else mp.mpf(0)

    def integrand(t):
        return (2 * w(x_mp) - w(x_mp + t) - w(x_mp - t)) / t ** (1 + 2 * s_mp)

    d = 1 - x_mp
    eps = d / 4
    K = 18
    coeffs = mp.taylor(w, x_mp, 2 * K)
    series = -2 * mp.fsum(
        coeffs[2 * k] * eps ** (2 * k - 2 * s_mp) / (2 * k - 2 * s_mp) for k in range(1, K + 1)
    )
    mid = mp.quad(integrand, [eps, d], maxdegree=10, method="tanh-sinh")
    if x > 0:
        mid += mp.quad(integrand, [d, 1 + x_mp], maxdegree=10, method="tanh-sinh")
    tail = 2 * w(x_mp) * (1 + x_mp) ** (-2 * s_mp) / (2 * s_mp)
    lam = float(mp_normalization(s) * (series + mid + tail))
    assert lam == pytest.approx(dc.getoor_constant(s), rel=1e-10)


def test_getoor_constant_exact_at_half():
    # 4^(1/2) Gamma(1) Gamma(3/2) / sqrt(pi) = 1 exactly
    assert dc.getoor_constant(0.5) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9, 0.95, 0.998])
def test_getoor_constant_matches_mpmath(s):
    # the defining product, not the duplication formula's Gamma(1 + 2s)
    s_mp = mp.mpf(s)
    ref = 4**s_mp * mp.gamma(mp.mpf(1) / 2 + s_mp) * mp.gamma(1 + s_mp) / mp.sqrt(mp.pi)
    assert abs(dc.getoor_constant(s) - float(ref)) <= 1e-15 * float(ref)


def _defect_cell(s_mp, k):
    """int_k^{k+1} (t-k)(k+1-t) t^(-1-2s) dt via antiderivatives."""
    k = mp.mpf(k)
    A, B = k, k + 1
    e0 = (A ** (-2 * s_mp) - B ** (-2 * s_mp)) / (2 * s_mp)
    e1 = (B ** (1 - 2 * s_mp) - A ** (1 - 2 * s_mp)) / (1 - 2 * s_mp)
    e2 = (B ** (2 - 2 * s_mp) - A ** (2 - 2 * s_mp)) / (2 - 2 * s_mp)
    return -e2 + (2 * k + 1) * e1 - k * (k + 1) * e0


@pytest.mark.parametrize("k", [1, 2, 7])
def test_defect_cell_closed_form_against_quadrature(k):
    s_mp = mp.mpf("0.75")
    quad = mp.quad(
        lambda t: (t - k) * (k + 1 - t) * t ** (-1 - 2 * s_mp), [k, k + 1]
    )
    assert abs(_defect_cell(s_mp, k) - quad) < mp.mpf("1e-30")


@pytest.mark.parametrize("s", [0.6, 0.75, 0.9])
def test_interp_defect_constant_against_mpmath_sum(s):
    # Direct summation far past the cutoff the implementation uses, so the
    # two tail treatments would have to agree by accident to mask a bug.
    # (mp.nsum extrapolation is NOT reliable here: its Richardson estimate
    # is off by ~5e-6 at s = 0.6.)
    s_mp = mp.mpf(s)
    n_cells = 20000
    part = mp.fsum(_defect_cell(s_mp, k) for k in range(1, n_cells + 1))
    tail = mp.zeta(1 + 2 * s_mp, n_cells + mp.mpf(3) / 2) / 6
    assert interp_defect_constant(s) == pytest.approx(float(part + tail), rel=2e-11)


@pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.9, 0.95, 0.998])
def test_hurwitz_zeta_tail_matches_mpmath(s):
    # the tail that interp_defect_constant adds past its cutoff; mpmath takes
    # the same double 1 + 2s, whose rounding alone moves zeta by ~2e-15
    x, q = 1 + 2 * s, 4001.5
    ref = mp.zeta(mp.mpf(x), mp.mpf(q))
    assert abs(_hurwitz_zeta(x, q) - float(ref)) <= 1e-14 * float(ref)


def test_free_boundary_offset_identity():
    # Distance from a dead core to a boundary value M, two derivations:
    # profile inversion (M/kappa)^(1/beta) and the first-integral formula.
    for gamma in (0.1, 0.2, 0.3):
        beta = 2 / (1 - gamma)
        kappa = dc.profile_coefficient(gamma)
        for M in (0.1, 1.0, 2.0):
            inv = (M / kappa) ** (1 / beta)
            first_integral = np.sqrt((1 + gamma) / 2) * 2 * M ** ((1 - gamma) / 2) / (1 - gamma)
            assert inv == pytest.approx(first_integral, rel=1e-12)


def test_free_boundary_offset_against_quadrature():
    # Same distance via mpmath quadrature of dx = du / u'(u), using the
    # energy identity u' = sqrt(2/(1+gamma)) u^((1+gamma)/2).
    gamma = mp.mpf("0.2")
    M = mp.mpf(1)
    offset = mp.quad(
        lambda u: 1 / (mp.sqrt(2 / (1 + gamma)) * u ** ((1 + gamma) / 2)), [0, M]
    )
    assert float(offset) == pytest.approx(1.9364916731037085, rel=1e-12)
    kappa = dc.profile_coefficient(0.2)
    assert (1.0 / kappa) ** 0.4 == pytest.approx(float(offset), rel=1e-12)


def test_energy_gradient_matches_residual_nonlocal():
    # Central differences of J must reproduce h * (A u + b + f(u)) componentwise.
    grid = dc.make_grid(dc.GridSpec(h=1 / 16, a=1.0, R=2.0))
    op = dc.assemble(grid, 0.75)
    reaction = dc.ReactionSpec(gamma=0.2)
    g = dc.odd_exterior_builder(grid, "ramp", 1.0)
    rng = np.random.default_rng(3)
    u = 0.2 + 0.5 * rng.uniform(size=grid.interior.size)  # bounded away from 0
    b = op.load_vector(g)
    r = toeplitz(op.row) @ u + b + dc.reaction_value(u, reaction.gamma, False)
    system = solver._DenseSystem(op.row)

    def J(v):  # the solver's energy of v, as a one-lane stack
        return solver._evaluate(system, b[None], grid.h, v[None], reaction.gamma, False)[1][0]

    delta = 1e-6
    for i in range(0, u.size, 7):
        up, um = u.copy(), u.copy()
        up[i] += delta
        um[i] -= delta
        fd = (J(up) - J(um)) / (2 * delta)
        assert fd == pytest.approx(grid.h * r[i], rel=1e-6, abs=1e-10)


def test_energy_gradient_matches_residual_local():
    grid = dc.make_grid(dc.GridSpec(h=1 / 32, a=1.0, R=2.0))
    reaction = dc.ReactionSpec(gamma=0.25)
    boundary = (-0.3, 0.8)
    rng = np.random.default_rng(5)
    u = -0.4 + rng.uniform(size=grid.interior.size)
    u[np.abs(u) < 0.05] = 0.1  # keep away from the kink
    system = solver.local_operator(grid)
    b = np.zeros(u.size)
    b[0] = -boundary[0] / grid.h**2
    b[-1] = -boundary[1] / grid.h**2
    r = system.matvec(u[None])[0] + b + dc.reaction_value(u, reaction.gamma, False)

    def J(v):  # the solver's energy of v, as a one-lane stack
        return solver._evaluate(system, b[None], grid.h, v[None], reaction.gamma, False)[1][0]

    delta = 1e-6
    for i in range(0, u.size, 5):
        up, um = u.copy(), u.copy()
        up[i] += delta
        um[i] -= delta
        fd = (J(up) - J(um)) / (2 * delta)
        assert fd == pytest.approx(grid.h * r[i], rel=2e-5, abs=1e-9)
