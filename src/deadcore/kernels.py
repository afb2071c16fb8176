"""Exact coordinate roots and the sequential Gauss-Seidel polish sweeps.

Each sweep visits the nodes in natural order and replaces one unknown at a
time with the exact root of its scalar coordinate equation
d*t + f(t) = q, where f is the absorption term.  Every such update is an
exact coordinate minimization of the convex energy, so sweeps never increase
it.

A root is defined by bisection: starting from the bracket [0, q/d] (or
[q/d, 0]), halve until the endpoints are adjacent doubles (the midpoint
equals one of them), until a bracket at zero is narrower than 1e-280, or
after 220 halvings, and snap a result below 1e-280 in magnitude to an exact
zero.  Near degenerate nodes the absorption f(t) = |t|^gamma only falls below
solver tolerances for astronomically small t, which is why the bracket must
be able to reach so far towards zero.

From the full bracket that takes about 53 halvings per root on the solver's
systems, each costing one exp and one log.  Instead, the root is first
located: Newton on G(s) = d e^s + e^(gamma s) - |q| in s = log|t| (G is
convex and increasing and the start lies right of the root, so the iterates
fall monotonically onto it), then one Newton step in t.  Brackets m(1 -+ w)
around the located m, for w = 4e-16, 1e-12 and 1e-6 in turn, are checked
with the bisection's own sign test, and the first that holds is handed to
the same halving loop, which alone decides the returned bits.  The output
equals that of the full bracket: the computed sign test is monotone in t
(each operation in it rounds monotonically, as long as the platform's exp
and log are monotone), so the full bisection ends on the one adjacent pair
where the test changes, and so does bisection from any bracket whose ends
pass the test.  The full bisection ends there only when the 220 halvings
suffice and the root is not near the 1e-280 stop or the snap: the full
bracket is therefore kept when the located root is below 1e-250, when |q|/d
exceeds it more than 1e40-fold (133 halvings reach its binade, 53 more reach
adjacent doubles), when |q|/d exceeds 1e250, and when no bracket passes.
The tests compare this against the full bisection bit for bit.

The coordinate loops run over Python floats, which do the same double
arithmetic as numpy scalars, faster; the dense column update is one numpy
operation.  The solver's proximal step uses the same scalar root.
"""

from __future__ import annotations

import math

__all__ = ["scalar_root", "gs_polish_tridiag", "gs_polish_dense"]

_ROOT_ITERS = 220
_SNAP = 1e-280
_DEEP = 1e-250  # roots below this, and |q|/d above its inverse, take the full bracket
_LOG_DEEP = math.log(_DEEP)
_SPAN = 1e40  # ... and so do roots more than this factor below |q|/d
_WIDTHS = (4e-16, 1e-12, 1e-6)  # relative half-widths of the checked brackets
_NEWTON_ITERS = 60
_NEWTON_TOL = 1e-4  # a step this short leaves s within 5e-9, the t step within 1e-16


def scalar_root(d: float, q: float, gamma: float, one_phase: bool) -> float:
    """Root t of d*t + f(t) = q with f(t) = sgn(t)|t|^gamma (d > 0, 0 < gamma < 1).

    In one-phase mode f vanishes for t <= 0, so q <= 0 gives exactly q/d.
    """
    if one_phase and q <= 0.0:
        return q / d
    if q == 0.0:
        return 0.0
    # The bracket stays on the side of zero where q lies, so within one call
    # f(t) = sgn(q) * |t|^gamma and the one-phase cut-off never applies.
    bracket = _bracket(d, q, gamma)
    if bracket is None:
        bracket = (q / d, 0.0) if q < 0.0 else (0.0, q / d)
    return _bisect(d, q, gamma, *bracket)


def _bisect(d, q, gamma, lo, hi):
    """Halve [lo, hi] on the side of zero where q lies, down to adjacent doubles."""
    if q < 0.0:
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


def _below(d, q, gamma, t):
    """The sign test of ``_bisect`` at t, verbatim: True when t lies below the root."""
    if q < 0.0:
        return d * t - math.exp(gamma * math.log(-t)) - q < 0.0
    return d * t + math.exp(gamma * math.log(t)) - q < 0.0


def _bracket(d, q, gamma):
    """A bracket a few ulps wide whose ends pass the sign test, or None.

    None means the full bracket must be used: only there can the 220-halving
    cap, the 1e-280 stop or the snap decide the result.
    """
    aq = abs(q)
    top = aq / d
    if not _DEEP <= top <= 1.0 / _DEEP:
        return None
    m = _locate(d, aq, gamma)
    if not _DEEP <= m < top <= _SPAN * m:
        return None
    for w in _WIDTHS:
        lo, hi = m * (1.0 - w), min(m * (1.0 + w), top)
        if q < 0.0:
            lo, hi = -hi, -lo
        # an end at -+top is the full bracket's own end, which bisection never evaluates
        if (lo == -top or _below(d, q, gamma, lo)) and (hi == top or not _below(d, q, gamma, hi)):
            return lo, hi
    return None


def _locate(d, aq, gamma):
    """Approximate root of d*t + t^gamma = aq for aq > 0, or 0.0 below 1e-250."""
    s = min(math.log(aq / d), math.log(aq) / gamma)
    for _ in range(_NEWTON_ITERS):
        a = d * math.exp(s)
        b = math.exp(gamma * s)
        step = (a + b - aq) / (a + gamma * b)
        s -= step
        if step < _NEWTON_TOL:
            break
    if s < _LOG_DEEP:
        return 0.0
    t = math.exp(s)
    p = math.exp(gamma * s)
    return t - (d * t + p - aq) / (d + gamma * p / t)


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
