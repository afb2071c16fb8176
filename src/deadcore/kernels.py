"""Exact coordinate roots and the sequential Gauss-Seidel polish sweeps.

Each sweep visits the nodes in natural order and replaces one unknown at a
time with the exact root of its scalar coordinate equation
d*t + f(t) = q, where f is the absorption term.  Every such update is an
exact coordinate minimization of the convex energy, so sweeps never increase
it.  Roots are found by deep bisection: near degenerate nodes the absorption
f(t) = |t|^gamma only falls below solver tolerances for astronomically small
t, so the bracket may be driven far towards zero.  Bisection stops when the
bracket endpoints are adjacent doubles (the midpoint equals one of them), when
the bracket is narrower than 1e-280, or after 220 halvings; a root below
1e-280 in magnitude is snapped to an exact zero.

The coordinate loops run over Python floats, which do the same double
arithmetic as numpy scalars, faster; the dense column update is one numpy
operation.  The solver's proximal step uses the same scalar root.
"""

from __future__ import annotations

import math

__all__ = ["scalar_root", "gs_polish_tridiag", "gs_polish_dense"]

_ROOT_ITERS = 220
_SNAP = 1e-280


def scalar_root(d: float, q: float, gamma: float, one_phase: bool) -> float:
    """Root t of d*t + f(t) = q with f(t) = sgn(t)|t|^gamma (d > 0).

    In one-phase mode f vanishes for t <= 0, so q <= 0 gives exactly q/d.
    """
    if one_phase and q <= 0.0:
        return q / d
    if q == 0.0:
        return 0.0
    # The bracket stays on the side of zero where q lies, so within one call
    # f(t) = sgn(q) * |t|^gamma and the one-phase cut-off never applies.
    if q < 0.0:
        lo, hi = q / d, 0.0
        for _ in range(_ROOT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if d * mid - math.exp(gamma * math.log(-mid)) - q < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _SNAP + 1e-16 * -lo:
                break
    else:
        lo, hi = 0.0, q / d
        for _ in range(_ROOT_ITERS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if d * mid + math.exp(gamma * math.log(mid)) - q < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _SNAP + 1e-16 * lo:
                break
    out = 0.5 * (lo + hi)
    return 0.0 if abs(out) < _SNAP else out


def gs_polish_tridiag(dl, d, du, b, u, gamma, one_phase, sweeps=8):
    """In-place coordinate sweeps for a tridiagonal system; returns u."""
    gamma, one_phase = float(gamma), bool(one_phase)
    dl, d, du, b, v = dl.tolist(), d.tolist(), du.tolist(), b.tolist(), u.tolist()
    n = len(v)
    for _ in range(sweeps):
        for i in range(n):
            q = -b[i]
            if i > 0:
                q -= dl[i - 1] * v[i - 1]
            if i < n - 1:
                q -= du[i] * v[i + 1]
            v[i] = scalar_root(d[i], q, gamma, one_phase)
    u[:] = v
    return u


def gs_polish_dense(A, b, u, gamma, one_phase, sweeps=2):
    """In-place coordinate sweeps for a dense system; returns u."""
    gamma, one_phase = float(gamma), bool(one_phase)
    d, b, v = A.diagonal().tolist(), b.tolist(), u.tolist()
    Au = A @ u
    for _ in range(sweeps):
        for i in range(len(v)):
            q = d[i] * v[i] - float(Au[i]) - b[i]
            t = scalar_root(d[i], q, gamma, one_phase)
            if t != v[i]:
                Au += A[:, i] * (t - v[i])
                v[i] = t
    u[:] = v
    return u
