"""Exact coordinate roots and the Gauss-Seidel polish sweeps.

Each update replaces one unknown with the exact root of its scalar
coordinate equation d*t + f(t) = q, where f is the absorption term.  Every
such update is an exact coordinate minimization of the convex energy, so
sweeps never increase it.

The red-black sweep ``gs_polish_red_black`` serves both of the solver's
systems.  It updates every even-index node at once, then every odd-index
node: colour c takes the exact roots of q_c = d_c u_c - (A u)_c - b_c from
the current A u, and A u then moves by A delta, one matvec of the caller's
operator.  In a tridiagonal matrix nodes of one colour are not coupled, so a
colour step is an exact block coordinate minimization, and red-black order
is consistently ordered (Young, 1971): Gauss-Seidel keeps the asymptotic
rate of natural order.  In the dense nonlocal matrix nodes of one colour are
coupled through the even lags, so a colour step is not a block minimum, but
it descends without a line search.  Take x a colour's values, B = D + O its
block of A (D its diagonal, O its couplings) and delta the step to its
roots.  The roots solve D delta + f(x + delta) - f(x) = -grad J(x) nodewise,
where J is the energy as a function of x, and its primitive Phi of f is
convex, so Phi(x + delta) - Phi(x) <= f(x + delta).delta and

    J(x + delta) - J(x)  <=  -(delta.D delta - delta.O delta) / 2
                         <=  -(1 - rho) delta.D delta / 2,

where rho is the largest row sum of |O| over A_ii, at most
2 sum_k>0 |A_0,2k| / A_00 for a Toeplitz A.  Every operator
``fraclap.assemble`` builds has off-diagonals <= 0 (an M-matrix) and
rho <= 0.246 (s from 0.5 to 0.998, h from 2^-4 to 2^-10, 1/20 and 1/24, R
from 2 to 8; tests/test_fraclap.py checks rho <= 1 over these), so every
colour step is a descent in exact arithmetic.
``gs_polish_dense`` is sequential, in natural order, one exact coordinate
minimization per node; the solver runs it on the dense system below a size
threshold, where it is faster than the red-black sweep (solver.py).

The root is defined by its property.  For q > 0 it is the least double t
in (0, q/d] at which the sign test d*t + exp(gamma*log(t)) - q < 0 is
false; q/d itself counts as passing without being evaluated.  The computed
test is monotone in t (each operation in it rounds monotonically, as long
as the platform's exp and log are monotone), so that double is the one
where the test changes.  A root below 1e-280 becomes 0.0, an exact zero
that the solver pins out of its Newton step.  The two-phase equation is
odd, and so is its root: q < 0 gives 0.0 - (the root at -q), and q = 0
gives 0.0; only the one-phase q <= 0 branch, q/d, stands apart.

``scalar_root`` finds it in two stages, over the int64 bit patterns of the
doubles, which sort like the positive doubles themselves.  It locates the
root by Newton on G(s) = d e^s + e^(gamma s) - q in s = log t (G is convex
and increasing and the start lies right of the root, so the iterates fall
monotonically onto it) and one Newton step in t.  From there steps of 1, 2,
4, ... ulps find a pair of doubles that straddles the test, and bisection
closes it; every step is clamped into [prev(1e-280), q/d], so there are at
most 64 of each, with no cap and no stop test.  The located double is
usually the root, or one ulp from it, and then two to four evaluations
settle it.  Where t^gamma dominates, the computed test is flat over runs of
up to about |log t| ulps, across which log t keeps its double value, and
the doubling steps cross such a run in a few evaluations.  On the roots of
a 50-pair comparison campaign a root takes 2.8 evaluations on average.

``roots`` is the array form, used by the red-black sweep.  It
locates every lane at |q| at once with numpy's exp and log, tests the
doubles from two ulps below the located root to one above it, and negates
the lanes of q < 0 at the end; every lane whose root is not among them
goes to ``scalar_root`` (21 of the 26,611 roots of a local solve at
h=2^-10).  numpy's vectorized exp rounds differently from math.exp on a
few percent of arguments, so near the root the two sign tests can change
at neighbouring doubles, and a located lane may end an ulp from
``scalar_root``'s root, or a few dozen where the test is flat; the tests
bound how often.

The dense sweep's loop runs over Python floats, which do the same double
arithmetic as numpy scalars, faster; it opens on the caller's A u and
updates it by one numpy operation on column i of A.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = ["scalar_root", "roots", "gs_polish_dense", "gs_polish_red_black"]

_SNAP = 1e-280  # roots below this are 0.0; the solver pins such nodes out of its Newton step
_NEWTON_ITERS = 60
_NEWTON_TOL = 1e-4  # a step this short leaves s within 5e-9, the t step within 1e-16
_ULPS = 1  # roots tests this many ulps either side of the located root
_BELOW_SNAP = math.nextafter(_SNAP, 0.0)  # a root is 0.0 exactly when this double passes the sign test
_INT64, _DOUBLE = struct.Struct("<q"), struct.Struct("<d")
_FLOOR = _INT64.unpack(_DOUBLE.pack(_BELOW_SNAP))[0]  # the bit pattern of _BELOW_SNAP


def scalar_root(d: float, q: float, gamma: float, one_phase: bool) -> float:
    """Root t of d*t + f(t) = q with f(t) = sgn(t)|t|^gamma (d > 0, 0 < gamma < 1).

    In one-phase mode f vanishes for t <= 0, so q <= 0 gives exactly q/d.
    The two-phase root is odd in q: q < 0 gives 0.0 - (the root at -q),
    where 0.0 - keeps a snapped zero from turning into -0.0.
    """
    if one_phase and q <= 0.0:
        return q / d
    if q < 0.0:
        return 0.0 - scalar_root(d, -q, gamma, False)
    if q == 0.0:
        return 0.0
    # the root lies in (0, q/d], where f(t) = t^gamma in either mode
    top = q / d
    if top < _SNAP:
        return 0.0
    try:
        start = _locate(d, q, gamma)
    except ArithmeticError:  # exp overflow, or a division by an underflowed zero, at the ends of the range
        start = top
    return _search(d, q, gamma, top, start)


def _below(d, q, gamma, t):
    """The sign test: True when t lies below the root."""
    return d * t + math.exp(gamma * math.log(t)) - q < 0.0


def _search(d, q, gamma, top, start):
    """The least passing double in (0, top] (top >= 1e-280), or 0.0 when it lies below 1e-280.

    Any start will do: it is clamped into [prev(1e-280), top].  A pair of
    adjacent doubles at the start that straddles the test settles the root
    at once; otherwise steps of 2, 4, 8, ... ulps over bit patterns find a
    pair (lo, hi) with lo below the root and hi passing, and bisection
    closes it.  The root snaps as soon as prev(1e-280) passes.
    """
    t = min(start if start > _BELOW_SNAP else _BELOW_SNAP, top)
    if t == top or not _below(d, q, gamma, t):
        if t < _SNAP:
            return 0.0
        lo = math.nextafter(t, 0.0)
        if _below(d, q, gamma, lo):
            return t
        hi, step = _bits(lo), 2
        while True:
            if hi == _FLOOR:
                return 0.0
            lo = max(hi - step, _FLOOR)
            if _below(d, q, gamma, _double(lo)):
                break
            hi, step = lo, 2 * step
    else:
        hi = math.nextafter(t, math.inf)
        if hi == top or not _below(d, q, gamma, hi):
            return hi
        end, lo, step = _bits(top), _bits(hi), 2
        while True:
            hi = min(lo + step, end)
            if hi == end or not _below(d, q, gamma, _double(hi)):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _below(d, q, gamma, _double(mid)):
            lo = mid
        else:
            hi = mid
    return _double(hi)


def _bits(x):
    """The int64 image of the double x; positive doubles sort like their images."""
    return _INT64.unpack(_DOUBLE.pack(x))[0]


def _double(bits):
    return _DOUBLE.unpack(_INT64.pack(bits))[0]


def _locate(d, q, gamma):
    """Approximate root of d*t + t^gamma = q for q > 0: Newton in s = log t, then one Newton step in t."""
    s = min(math.log(q / d), math.log(q) / gamma)
    for _ in range(_NEWTON_ITERS):
        a = d * math.exp(s)
        b = math.exp(gamma * s)
        step = (a + b - q) / (a + gamma * b)
        s -= step
        if step < _NEWTON_TOL:
            break
    t = math.exp(s)
    if t == 0.0:  # underflow: the search starts at the snap
        return 0.0
    p = math.exp(gamma * s)
    return t - (d * t + p - q) / (d + gamma * p / t)


def roots(d, q, gamma, one_phase):
    """``scalar_root`` on every lane of the 1-D array q; d, gamma and one_phase broadcast."""
    q = np.asarray(q, dtype=float)
    d, gamma = (np.broadcast_to(np.asarray(x, dtype=float), q.shape) for x in (d, gamma))
    one_phase = np.broadcast_to(np.asarray(one_phase, dtype=bool), q.shape)
    linear = one_phase & (q <= 0.0)
    out = np.where(linear, q / d, 0.0)
    lanes = np.flatnonzero(~linear & (q != 0.0))
    dl, ql, gl = d[lanes], np.abs(q[lanes]), gamma[lanes]
    with np.errstate(all="ignore"):
        located, t = _located_roots(dl, ql, gl)
    t = np.where(t < _SNAP, 0.0, t)
    for i in np.flatnonzero(~located).tolist():
        t[i] = scalar_root(float(dl[i]), float(ql[i]), float(gl[i]), False)
    # the two-phase root is odd: a lane of q < 0 takes the root at |q|, negated
    out[lanes] = np.where(q[lanes] < 0.0, 0.0 - t, t)
    return out


def _located_roots(d, q, gamma):
    """(mask, roots) for lanes of q > 0: the lanes settled within ``_ULPS`` of the located root, and their roots.

    The roots are those before the snap, by numpy's sign test; lanes outside
    the mask hold meaningless values.
    """
    top = q / d
    # Newton in s = log t, each lane stopping after its first short step
    s = np.minimum(np.log(top), np.log(q) / gamma)
    live = np.ones(q.shape, dtype=bool)
    for _ in range(_NEWTON_ITERS):
        a = d * np.exp(s)
        b = np.exp(gamma * s)
        step = (a + b - q) / (a + gamma * b)
        s = np.where(live, s - step, s)
        live &= ~(step < _NEWTON_TOL)
        if not live.any():
            break
    # one Newton step in t, clamped as in _search (fmax sends NaN to the lower end)
    t = np.exp(s)
    p = np.exp(gamma * s)
    t = np.minimum(np.fmax(t - (d * t + p - q) / (d + gamma * p / t), _BELOW_SNAP), top)
    # the doubles from _ULPS + 1 below t to _ULPS above it, by their bit
    # patterns (a finite q/d keeps NaN patterns out); q/d passes unevaluated
    window = (t.view(np.int64)[:, None] + np.arange(-_ULPS - 1, _ULPS + 1)).view(np.float64)
    d, q, gamma, top = d[:, None], q[:, None], gamma[:, None], top[:, None]
    passes = (window >= top) | ~(d * window + np.exp(gamma * np.log(window)) - q < 0.0)
    # the first passing double is the root when the window starts below it,
    # or below the snap, and ends on a pass
    root = window[np.arange(t.size), passes.argmax(axis=1)]
    located = passes[:, -1] & (~passes[:, 0] | (window[:, 0] < _SNAP)) & (top[:, 0] < np.inf)
    return located, root


def gs_polish_dense(A, b, u, Au, gamma, one_phase, sweeps):
    """In-place coordinate sweeps for a dense system; returns u.

    Au is the caller's product A @ u, which the sweeps update in place.
    """
    gamma, one_phase = float(gamma), bool(one_phase)
    d, b, v = A.diagonal().tolist(), b.tolist(), u.tolist()
    for _ in range(sweeps):
        for i in range(len(v)):
            q = d[i] * v[i] - float(Au[i]) - b[i]
            t = scalar_root(d[i], q, gamma, one_phase)
            if t != v[i]:
                Au += A[:, i] * (t - v[i])
                v[i] = t
    u[:] = v
    return u


def gs_polish_red_black(matvec, d, b, u, Au, gamma, one_phase):
    """One in-place red-black sweep for the system A u + b + f(u) = 0; returns u.

    matvec(v) is A v, d is A's diagonal (an array or one number) and Au the
    caller's product A @ u, which the sweep updates in place.  Each colour c
    (even indices, then odd) takes the exact roots of all its nodes at once,
    from the current A u, and A u moves by A delta.
    """
    d = np.broadcast_to(d, u.shape)
    for c in (0, 1):
        uc, dc = u[c::2], d[c::2]
        t = roots(dc, dc * uc - Au[c::2] - b[c::2], gamma, one_phase)
        delta = np.zeros(u.size)
        delta[c::2] = t - uc
        u[c::2] = t
        Au += matvec(delta)
    return u
