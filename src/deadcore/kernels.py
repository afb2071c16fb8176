"""Exact coordinate roots and the Gauss-Seidel polish sweeps.

Each update replaces one unknown with the exact root of its scalar
coordinate equation d*t + f(t) = q, where f is the absorption term.  Every
such update is an exact coordinate minimization of the convex energy, so
sweeps never increase it.

The tridiagonal sweep is red-black: it updates every even-index node at
once, then every odd-index node.  Nodes of one colour are not coupled in a
tridiagonal matrix, so each half-sweep is an exact block coordinate
minimization, and red-black order is consistently ordered (Young, 1971):
Gauss-Seidel keeps the asymptotic rate of natural order.  The coordinate
data is formed as q = -(b + (dl*v_left + du*v_right)); addition commutes, so
with an odd number of unknowns, odd data and mirror-symmetric bands give
exactly opposite q at mirrored nodes, and the sweep is odd whenever the roots
of +-q are exact negatives.  They need not be: where the computed sign test
is exactly 0 the two sides break the tie apart, so such a sweep is odd to an
ulp or so.  The dense sweep stays sequential, in natural order.

A root is defined by bisection: starting from the bracket [0, q/d] (or
[q/d, 0]), halve until the endpoints are adjacent doubles (the midpoint
equals one of them), until a bracket at zero is narrower than 1e-280, or
after 220 halvings, and snap a result below 1e-280 in magnitude to an exact
zero.  Near degenerate nodes the absorption f(t) = |t|^gamma only falls below
solver tolerances for astronomically small t, which is why the bracket must
be able to reach so far towards zero.

From the full bracket that takes about 53 halvings per root on the solver's
systems, each costing one exp and one log.  Instead, ``scalar_root`` first
locates the root: Newton on G(s) = d e^s + e^(gamma s) - |q| in s = log|t|
(G is convex and increasing and the start lies right of the root, so the
iterates fall monotonically onto it), then one Newton step in t.  Brackets
m(1 -+ w) around the located m, for w = 4e-16, 1e-12 and 1e-6 in turn, are
checked with the bisection's own sign test, and the first that holds is
handed to the same halving loop, which alone decides the returned bits.  The
output equals that of the full bracket: the computed sign test is monotone
in t (each operation in it rounds monotonically, as long as the platform's
exp and log are monotone), so the full bisection ends on the one adjacent
pair where the test changes, and so does bisection from any bracket whose
ends pass the test.  The full bisection ends there only when the 220
halvings suffice and the root is not near the 1e-280 stop or the snap: the
full bracket is therefore kept when the located root is below 1e-250, when
|q|/d exceeds it more than 1e40-fold (133 halvings reach its binade, 53 more
reach adjacent doubles), when |q|/d exceeds 1e250, and when no bracket
passes.  While one end of the full bracket stays at 0 its other end is
(q/d) 2^-k, so the first halving that moves the zero end (or stops the
loop) is found by a binary search over k with the same monotone test; the
loop then runs on from there.  The tests compare all of this against the
full bisection bit for bit.

``roots`` is the array form, used by the tridiagonal sweep only.  It takes
the same steps on all lanes at once with numpy's exp and log, each lane with
its own side's sign test: Newton in s, one Newton step in t, and the checked
4e-16 bracket halved to adjacent doubles.  Every lane outside the located
regime, and every lane whose 4e-16 bracket fails (which then needs the
wider brackets), goes to ``scalar_root``: 1 to 3 lanes in a thousand in
the local solves, 1 in a hundred in a one-phase solve
whose dead core holds roots below 1e-250.  numpy's vectorized exp
rounds differently from math.exp on a few percent of arguments (4.6% of
those at the roots of a local solve), so near the root the two sign tests
can change on neighbouring pairs: a located lane may then end on a pair a
few ulps from ``scalar_root``'s (0.04% of that solve's lanes, at most 2
ulps), more where |t|^gamma dominates and gamma is small, since the test is
then flat over about 1/gamma ulps.  Roots below 1e-250 always fall back, so
the 1e-280 stop, the snap and the 220 cap never apply to a located lane.

The dense sweep's loop runs over Python floats, which do the same double
arithmetic as numpy scalars, faster; its update of A u is one numpy operation
on column i of A.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scalar_root", "roots", "gs_polish_tridiag", "gs_polish_dense"]

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
        return _bisect(d, q, gamma, *_full_bracket(d, q, gamma))
    return _bisect(d, q, gamma, *bracket)


def _bisect(d, q, gamma, lo, hi, iters=_ROOT_ITERS):
    """Halve [lo, hi] on the side of zero where q lies, down to adjacent doubles."""
    if q < 0.0:
        for _ in range(iters):
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
        for _ in range(iters):
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


def _full_bracket(d, q, gamma):
    """``_bisect``'s state on the full bracket after the halvings that keep 0 as an end.

    Halving k of the full bracket, while its zero end has not moved, only
    moves the far end to (q/d) 2^-(k+1), exactly.  It is skipped when it
    neither moves the zero end nor stops the loop; both conditions are
    monotone in k, so a binary search finds the first halving that is not
    skipped.  Returns (lo, hi, halvings left).
    """
    end = q / d
    if q < 0.0:

        def skipped(mid):  # the zero end is hi; lo = mid keeps it
            return not 0.0 - mid <= _SNAP + 1e-16 * -mid and _below(d, q, gamma, mid)

    else:

        def skipped(mid):  # the zero end is lo; hi = mid keeps it
            return mid > _SNAP and not _below(d, q, gamma, mid)

    k, k_end = 0, _ROOT_ITERS  # halvings below k are skipped, halving k_end is not
    while k < k_end:
        j = (k + k_end) // 2
        if skipped(math.ldexp(end, -(j + 1))):
            k = j + 1
        else:
            k_end = j
    far = math.ldexp(end, -k)
    return (far, 0.0, _ROOT_ITERS - k) if q < 0.0 else (0.0, far, _ROOT_ITERS - k)


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


def roots(d, q, gamma, one_phase):
    """``scalar_root`` on every lane of the 1-D array q; d, gamma and one_phase broadcast."""
    q = np.asarray(q, dtype=float)
    d, gamma = (np.broadcast_to(np.asarray(x, dtype=float), q.shape) for x in (d, gamma))
    one_phase = np.broadcast_to(np.asarray(one_phase, dtype=bool), q.shape)
    linear = one_phase & (q <= 0.0)
    out = np.where(linear, q / d, 0.0)
    lanes = np.flatnonzero(~linear & (q != 0.0))
    with np.errstate(all="ignore"):
        located, t = _located_roots(d[lanes], q[lanes], gamma[lanes])
    out[lanes[located]] = t
    for i in lanes[~located].tolist():
        out[i] = scalar_root(float(d[i]), float(q[i]), float(gamma[i]), bool(one_phase[i]))
    return out


def _located_roots(d, q, gamma):
    """(mask, roots): the lanes of q != 0 that a located 4e-16 bracket settles, and their roots."""
    aq = np.abs(q)
    top = aq / d
    located = (_DEEP <= top) & (top <= 1.0 / _DEEP)
    # Newton in s = log|t|, each lane stopping after its first short step
    s = np.minimum(np.log(top), np.log(aq) / gamma)
    live = located.copy()
    for _ in range(_NEWTON_ITERS):
        a = d * np.exp(s)
        b = np.exp(gamma * s)
        step = (a + b - aq) / (a + gamma * b)
        s = np.where(live, s - step, s)
        live &= ~(step < _NEWTON_TOL)
        if not live.any():
            break
    # one Newton step in t
    t = np.exp(s)
    p = np.exp(gamma * s)
    m = np.where(s < _LOG_DEEP, 0.0, t - (d * t + p - aq) / (d + gamma * p / t))
    located &= (_DEEP <= m) & (m < top) & (top <= _SPAN * m)

    sign = np.where(q < 0.0, -1.0, 1.0)

    def below(t):  # each side's own test: d*t -+ exp(gamma*log(-+t)) - q < 0
        return d * t + sign * np.exp(gamma * np.log(sign * t)) - q < 0.0

    # the checked bracket; wider ones are left to scalar_root
    w = _WIDTHS[0]
    near, far = m * (1.0 - w), np.minimum(m * (1.0 + w), top)
    lo, hi = np.where(q < 0.0, -far, near), np.where(q < 0.0, -near, far)
    located &= ((lo == -top) | below(lo)) & ((hi == top) | ~below(hi))
    lo, hi = np.where(located, lo, 0.0), np.where(located, hi, 0.0)
    # Halve to adjacent doubles.  A lane whose midpoint equals an end keeps
    # that midpoint under further halving, so finished lanes need no mask.
    # From a bracket a few ulps wide at |t| >= 1e-250 neither the 1e-280 stop
    # nor the 220 cap can end the halving early.
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return located, mid[located]
        up = below(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)


def gs_polish_tridiag(dl, d, du, b, u, gamma, one_phase, sweeps=8):
    """In-place red-black coordinate sweeps for a tridiagonal system; returns u.

    Each sweep updates the even-index nodes, then the odd-index ones.
    """
    n = u.size
    v = np.zeros(n + 2)  # u between two zeros: node i is v[i + 1]
    v[1:-1] = u
    left = np.concatenate(([0.0], dl))  # coefficient of node i - 1 in row i
    right = np.concatenate((du, [0.0]))  # coefficient of node i + 1 in row i
    colours = [(c, b[c::2], left[c::2], right[c::2], d[c::2]) for c in (0, 1)]
    for _ in range(sweeps):
        for c, bc, lc, rc, dc in colours:
            q = -(bc + (lc * v[c:n:2] + rc * v[c + 2::2]))
            v[c + 1:n + 1:2] = roots(dc, q, gamma, one_phase)
    u[:] = v[1:-1]
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
