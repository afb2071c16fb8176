"""Exact coordinate roots and the Gauss-Seidel polish sweeps.

Each update replaces one unknown with the exact root of its scalar
coordinate equation d*t + f(t) = q, where f is the absorption term.  Every
such update is an exact coordinate minimization of the convex energy, so
sweeps never increase it.

The red-black sweep ``gs_polish_red_black`` serves both of the solver's
systems.  It takes the system's matvec and diagonal, and the A u its caller
formed at u (the solver's evaluation of u).  It updates every even-index
node at once, then every odd-index node: colour c takes the exact roots of
q_c = d_c u_c - (A u)_c - b_c from the current A u.  Between the colours
A u moves by the even step's A delta, one matvec; after the odd colour
nothing reads A u (the solver's evaluation forms a fresh one), so it does
not move.  So a sweep costs one matvec on top of the caller's A u.  In a
tridiagonal matrix nodes of one
colour are not coupled, so a colour step is an exact block coordinate
minimization, and red-black order is consistently ordered (Young, 1971):
Gauss-Seidel keeps the asymptotic rate of natural order.  In the dense
nonlocal matrix nodes of one colour are coupled through the even lags, so a
colour step is not a block minimum, but it descends without a line search.
Take x a colour's values, B = D + O its block of A (D its diagonal, O its
couplings) and delta the step to its roots.  The roots solve
D delta + f(x + delta) - f(x) = -grad J(x) nodewise, where J is the energy
as a function of x, and its primitive Phi of f is convex, so
Phi(x + delta) - Phi(x) <= f(x + delta).delta and

    J(x + delta) - J(x)  <=  -(delta.D delta - delta.O delta) / 2
                         <=  -(1 - rho) delta.D delta / 2,

where rho is the largest row sum of |O| over A_ii, at most
2 sum_k>0 |A_0,2k| / A_00 for a Toeplitz A.  Every operator
``fraclap.assemble`` builds has off-diagonals <= 0 (an M-matrix) and
rho <= 0.246 (s from 0.5 to 0.998, h from 2^-4 to 2^-10, 1/20 and 1/24, R
from 2 to 8; tests/test_fraclap.py checks rho <= 1 over these), so every
colour step is a descent in exact arithmetic.  The sweep can run a batch of
systems that share A, one lane per row: lanes are not coupled, so the
argument holds lane by lane, and one ``roots`` call per colour serves all
lanes.  The solver runs every sweep this way, on both systems and at every
size (solver.py).

The root is defined by its property.  For q > 0 it is the least double t
in (0, q/d] at which numpy's sign test d*t + np.exp(gamma*np.log(t)) - q < 0
is false; q/d itself counts as passing without being evaluated.  The
computed test is monotone in t (each operation in it rounds monotonically,
as long as numpy's exp and log are monotone, which tests/test_kernels.py
checks over runs of adjacent doubles), so that double is the one where the
test changes.  A root below 1e-280 becomes 0.0, an exact zero that the
solver pins out of its Newton step.  The two-phase equation is odd, and so
is its root: q < 0 gives 0.0 - (the root at -q), and q = 0 gives 0.0; only
the one-phase q <= 0 branch, q/d, stands apart.  So a root's bits follow
numpy's exp and log, that is numpy's build and the SIMD loop it dispatches
to on the host CPU, not the platform's libm.  numpy rounds each element on
its own, so a lane's root does not depend on the other lanes of the call
(the tests check one-element against array calls), and a lane of a batch
takes the roots of its lone solve.

``roots`` finds every lane at once, over the int64 bit patterns of the
doubles, which sort like the positive doubles themselves.  It locates the
root by Newton on G(s) = d e^s + e^(gamma s) - q in s = log t (G is convex
and increasing and the start lies right of the root, so the iterates fall
monotonically onto it) and one Newton step in t.  Each lane then holds a
bracket (lo, hi] of bit patterns that contains its root, at first from just
below prev(1e-280) to q/d.  Each round tests a column of ascending probes
per open lane and closes its bracket onto the two adjacent probes where the
test changes, until the bracket holds one double.  The first round, on
every lane, tests the doubles from two ulps below the located double to one
above; the next two, on the lanes still open, test every double within 16
ulps of it and then every 32nd within 512 ulps; every later round spreads
32 probes evenly over the bracket.  Where t^gamma dominates, the computed
test is flat over runs of up to about |log t| ulps, across which log t keeps
its double value, and the located double may lie a few to 300 ulps off the
root.  The first round settles all but 20 of the 26,611 lanes of a local
solve at h=2^-10, and all but 7,707 of the 50,589 of a 50-pair comparison
campaign at h=2^-5, where the second round settles 94% of the rest and the
third and fourth all others.  The wider probes take two rounds, not one, so
that no round's arrays grow much beyond the first round's: one round of
all 66 raised the tracemalloc peak of a 300-pair campaign at h=2^-6 from
17.4 to 22.4 MB.  A root further than 512 ulps off takes at most 13 even
rounds (a bracket of 2^63 patterns).  No double below prev(1e-280) is
tested: a root there snaps whatever its bits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roots", "gs_polish_red_black"]

_SNAP = 1e-280  # roots below this are 0.0; the solver pins such nodes out of its Newton step
_NEWTON_ITERS = 60
_NEWTON_TOL = 1e-4  # a step this short leaves s within 5e-9, the t step within 1e-16
_BELOW_SNAP = np.nextafter(_SNAP, 0.0)  # a root is 0.0 exactly when this double passes the sign test
_FLOOR = int(np.float64(_BELOW_SNAP).view(np.int64))  # its bit pattern, the lowest one tested
# the probes of each round, each with a last slot for hi: in ulps from the
# located root, on every lane, then on the lanes still open every double
# within 16 ulps, then every 32nd within 512; then even steps of (hi - lo) // 32
_WINDOW = np.arange(-2, 3)
_CENTRED = (np.arange(-16, 18), 32 * np.arange(-16, 18))
_FAN = np.arange(1, 33)


def roots(d, q, gamma, one_phase):
    """Exact roots t of d*t + f(t) = q on every lane of the 1-D array q; d, gamma and one_phase broadcast.

    f(t) = sgn(t)|t|^gamma (d > 0, 0 < gamma < 1); in one-phase mode f
    vanishes for t <= 0, so q <= 0 gives exactly q/d.  The two-phase root is
    odd in q: q < 0 gives 0.0 - (the root at -q), where 0.0 - keeps a
    snapped zero from turning into -0.0.
    """
    q = np.asarray(q, dtype=float)
    d, gamma = (np.broadcast_to(np.asarray(x, dtype=float), q.shape) for x in (d, gamma))
    one_phase = np.broadcast_to(np.asarray(one_phase, dtype=bool), q.shape)
    linear = one_phase & (q <= 0.0)
    lanes = np.flatnonzero(~linear & (q != 0.0))
    with np.errstate(all="ignore"):  # q/d may overflow, and probes near the ends of the range do
        out = np.where(linear, q / d, 0.0)
        t = _least_passing(d[lanes], np.abs(q[lanes]), gamma[lanes])
    t = np.where(t < _SNAP, 0.0, t)
    out[lanes] = np.where(q[lanes] < 0.0, 0.0 - t, t)
    return out


def _least_passing(d, q, gamma):
    """The root before the snap on lanes of q > 0: the least double in (0, q/d] that passes the sign test.

    Where that double lies below 1e-280 the result is some double below
    1e-280 that passes, or q/d itself, and the caller snaps it to 0.0.
    """
    top = q / d
    # each lane's root lies in the bracket (lo, hi] of bit patterns.  The
    # first round tests the doubles next to the located root on every lane;
    # the lanes still open take two wider fans centred on it, then even fans
    # over their brackets.
    centre, hi = _locate(d, q, gamma, top).view(np.int64), top.view(np.int64)
    lo, hi = _narrow(centre + _WINDOW[:, None], np.minimum(hi, _FLOOR) - 1, hi, d, q, gamma)
    out = hi.view(np.float64)
    lanes = np.flatnonzero(hi - lo > 1)
    d, q, gamma, centre, lo, hi = (a[lanes] for a in (d, q, gamma, centre, lo, hi))
    k = 0
    while lanes.size:
        if k < len(_CENTRED):
            probes = centre[:, None] + _CENTRED[k]
        else:  # steps of (hi - lo) // 32, as (lo + hi) // 2 would overflow int64 once both ends exceed 2.0
            probes = lo[:, None] + np.maximum((hi - lo) // _FAN.size, 1)[:, None] * _FAN
        lo, hi = _narrow(probes.T, lo, hi, d, q, gamma)
        out[lanes] = hi.view(np.float64)
        keep = hi - lo > 1
        lanes, d, q, gamma, centre, lo, hi = (a[keep] for a in (lanes, d, q, gamma, centre, lo, hi))
        k += 1
    return out


def _locate(d, q, gamma, top):
    """The located root on lanes of q > 0, by Newton in s = log t and one Newton step in t.

    Every lane takes every step until no lane's step in s is _NEWTON_TOL or
    longer: the located root only centres the search, and the sign test
    decides the bits.  The result is clamped into [prev(1e-280), q/d], or
    onto prev(1e-280) where q/d lies below it (fmax sends NaN there too), so
    that every probe is a positive double.
    """
    s = np.minimum(np.log(top), np.log(q) / gamma)
    for _ in range(_NEWTON_ITERS):
        a = d * np.exp(s)
        b = np.exp(gamma * s)
        step = (a + b - q) / (a + gamma * b)
        s = s - step
        if not (step >= _NEWTON_TOL).any():  # not step.max(): there may be no lanes
            break
    t = np.exp(s)
    p = np.exp(gamma * s)
    return np.fmax(np.minimum(t - (d * t + p - q) / (d + gamma * p / t), top), _BELOW_SNAP)


def _narrow(probes, lo, hi, d, q, gamma):
    """The brackets (lo, hi] narrowed by one column of ascending probes per lane.

    The last probe of each column is overwritten with hi, and every probe at
    or above hi passes unevaluated, so the test is monotone down each
    column and the number of probes below the root indexes the first that
    passes.  The new bracket runs from the probe before it to that probe, or
    to hi if that lies lower: hi never rises, so q/d always passes unevaluated.
    Where a double below prev(1e-280) passes, the lane's root snaps, and its
    bracket may close there without holding one double.  numpy runs fastest
    when the long axis is contiguous: the lanes in the first round, each
    lane's probes in the later ones.
    """
    probes[-1] = hi
    x = probes.view(np.float64)
    first = ((probes < hi) & (d * x + np.exp(gamma * np.log(x)) - q < 0.0)).sum(axis=0)
    lanes = np.arange(hi.size)
    return np.where(first > 0, probes[first - 1, lanes], lo), np.minimum(probes[first, lanes], hi)


def gs_polish_red_black(matvec, d, b, u, Au, gamma, one_phase):
    """One in-place red-black sweep for the system A u + b + f(u) = 0; returns u.

    matvec(v) is A v, d is A's diagonal (an array or one number) and Au is
    A u at the u passed in.  Each colour c (even indices, then odd) takes
    the exact roots of all its nodes at once, from the current A u; between
    the colours A u moves by the even step's A delta.  u and Au are updated
    in place, and Au is left as A u after the even colour: the odd step's
    A delta is not formed.  u, b and Au may hold one system per row (K x N,
    one lane each, sharing A): a colour then takes the roots of all lanes in
    one ``roots`` call, and matvec must multiply each row by A.
    """
    d = np.broadcast_to(d, u.shape)
    for c in (0, 1):
        uc, dc = u[..., c::2], d[..., c::2]
        q = dc * uc - Au[..., c::2] - b[..., c::2]
        t = roots(dc.ravel(), q.ravel(), gamma, one_phase).reshape(q.shape)
        if c == 0:  # after the odd colour nothing reads A u
            delta = np.zeros(u.shape)
            delta[..., ::2] = t - uc
            Au += matvec(delta)
        u[..., c::2] = t
    return u
