"""Assembly and application of the 1D fractional Laplacian on uniform grids.

The operator acts on piecewise-linear interpolants of nodal values.  Hat
integrals against the kernel |x - y|^(-1-2s) have closed forms, the singular
cell is handled by a second-difference term, and a correction constant
removes the leading interpolation defect so that smooth functions see an
O(h^(3-2s)) consistency error.  The diagonal carries the full-line kernel
mass; data beyond the truncation radius enters through the tail model of the
grid function being applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gamma as gamma_fn, hyp2f1, zeta

from .grid import Grid, GridFunction, TailModel

__all__ = [
    "normalization_constant",
    "FracLapOperator",
    "assemble",
    "check_order",
    "tail_norm",
    "tail_influence_bound",
]

S_MAX = 0.999
_KAPPA_TERMS = 4000


def normalization_constant(s: float) -> float:
    """Kernel normalization 4^s Gamma(1/2+s) / (sqrt(pi) |Gamma(-s)|).

    Equals 1/pi at s = 1/2 and behaves like 2(1-s) as s -> 1, matching the
    classical Laplacian limit.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    return float(4.0**s * gamma_fn(0.5 + s) / (np.sqrt(np.pi) * abs(gamma_fn(-s))))


def _p0(A, B, s):
    """Integral of t^(-1-2s) over [A, B] (lag units)."""
    return (A ** (-2 * s) - B ** (-2 * s)) / (2 * s)


def _p1(A, B, s):
    """Integral of t^(-2s) over [A, B]; log branch at s = 1/2."""
    e = 1.0 - 2.0 * s
    if abs(e) < 1e-9:
        return np.log(np.asarray(B, dtype=float) / np.asarray(A, dtype=float))
    return (B**e - A**e) / e

def _p2(A, B, s):
    """Integral of t^(1-2s) over [A, B]."""
    q = 2.0 - 2.0 * s
    return (B**q - A**q) / q


def interp_defect_constant(s: float, terms: int = _KAPPA_TERMS) -> float:
    """Sum over cells of int (t-k)(k+1-t) t^(-1-2s) dt for k >= 1.

    This is the leading quadratic interpolation defect of the hat basis
    against the kernel; subtracting it from the singular-cell weight restores
    second-difference accuracy.  The remainder past ``terms`` cells is summed
    with a Hurwitz zeta midpoint estimate.
    """
    k = np.arange(1, terms + 1, dtype=float)
    val = -_p2(k, k + 1, s) + (2 * k + 1) * _p1(k, k + 1, s) - k * (k + 1) * _p0(k, k + 1, s)
    tail = zeta(1 + 2 * s, terms + 1.5) / 6.0
    return float(val.sum() + tail)


def _weight_tables(s: float, n: int, corrected: bool):
    """Hat weights by lag (h^(-2s) units): full hats, endpoint half hats."""
    gh = np.zeros(n)
    gh[1] = 2 * _p0(1.0, 2.0, s) - _p1(1.0, 2.0, s)
    if n > 2:
        kk = np.arange(2, n, dtype=float)
        gh[2:] = (_p1(kk - 1, kk, s) - (kk - 1) * _p0(kk - 1, kk, s)) + (
            (kk + 1) * _p0(kk, kk + 1, s) - _p1(kk, kk + 1, s)
        )
    gh_end = np.zeros(n)
    if n > 2:
        mm = np.arange(2, n, dtype=float)
        gh_end[2:] = _p1(mm - 1, mm, s) - (mm - 1) * _p0(mm - 1, mm, s)
    lam = 1.0 / (2.0 - 2.0 * s) - (interp_defect_constant(s) if corrected else 0.0)
    return gh, gh_end, lam


@dataclass(frozen=True)
class FracLapOperator:
    """Discrete fractional Laplacian split into interior and data parts.

    A is the dense symmetric action on interior unknowns.  exterior_weights
    maps exterior nodal data into the interior residual; truncation_mass is
    the kernel mass beyond R seen from each interior node (times the
    normalization), which completes row balance: A@1 + exterior_weights@1
    equals truncation_mass exactly, so constants are annihilated once the
    constant tail correction is applied.
    """

    grid: Grid
    s: float
    c: float
    A: np.ndarray
    exterior_weights: np.ndarray
    truncation_mass: np.ndarray
    corrected: bool

    def tail_load(self, tail: TailModel) -> np.ndarray:
        """Interior contribution of data beyond R described by ``tail``."""
        if tail.kind == "zero":
            return np.zeros(self.grid.interior.size)
        if tail.kind == "const":
            return -self.truncation_mass * tail.c
        s, R = self.s, self.grid.R
        xi = self.grid.x_interior
        z = xi / R
        pw = tail.p + 2 * s
        H = R ** (-pw) / pw * (
            hyp2f1(1 + 2 * s, pw, pw + 1, z) + hyp2f1(1 + 2 * s, pw, pw + 1, -z)
        )
        return -self.c * tail.c * H

    def load_vector(self, g: GridFunction) -> np.ndarray:
        """Data term b(g): exterior nodal part plus analytic tail part."""
        if g.grid is not self.grid and g.grid.spec != self.grid.spec:
            raise ValueError("data lives on a different grid")
        return self.exterior_weights @ g.exterior_values + self.tail_load(g.tail)

    def apply(self, u: GridFunction) -> np.ndarray:
        """Operator value at interior nodes, using u's own tail model."""
        return self.A @ u.interior_values + self.load_vector(u)

    def dump(self, path: str) -> None:
        """Interior matrix as CSV rows i,j,weight in row-major order."""
        with open(path, "w") as fh:
            fh.write("i,j,weight\n")
            for i in range(self.A.shape[0]):
                for j in range(self.A.shape[1]):
                    fh.write(f"{i},{j},{self.A[i, j]:.17g}\n")


def check_order(s: float) -> None:
    """Raise ValueError unless ``assemble`` admits the order s."""
    if not (0.5 <= s < S_MAX):
        raise ValueError(f"s must lie in [0.5, {S_MAX})")


def assemble(grid: Grid, s: float, corrected: bool = True) -> FracLapOperator:
    """Assemble the dense interior matrix and exterior weight map.

    s is admitted on [1/2, 0.999); the normalization degenerates near s = 1
    and the closed-form weights lose relative accuracy there.  Weights depend
    only on the lag |i - j|, so every row is a window of one lag table.
    """
    check_order(s)
    c = normalization_constant(s)
    h = grid.h
    n = grid.n
    gi = grid.interior
    gh, gh_end, lam = _weight_tables(s, n, corrected)
    scale = c * h ** (-2.0 * s)
    # 2*lam covers the two adjacent cells' corrected weights; 1/s is the
    # kernel mass at lag >= 1 on the full line.
    diag = 2 * lam + 1.0 / s
    # Row i of the interior x all-nodes map is T[|i - j|]: the window of
    # [T[n-1], ..., T[1], T[0], T[1], ..., T[n-1]] that starts at n - 1 - i.
    # The interior is a contiguous run of nodes, so its rows are one slice of
    # windows and only A and the exterior weights are ever stored.
    T = -(gh + lam * (np.arange(n) == 1)) * scale
    windows = sliding_window_view(np.concatenate((T[:0:-1], T)), n)
    rows = windows[n - 1 - gi[-1] : n - gi[0]][::-1]
    A = rows[:, gi]
    A[np.arange(gi.size), np.arange(gi.size)] = diag * scale
    B = rows[:, grid.exterior]
    B[:, 0] = -gh_end[np.abs(gi)] * scale
    B[:, -1] = -gh_end[np.abs(gi - (n - 1))] * scale
    xi = grid.x[gi]
    T0 = c * ((grid.R - xi) ** (-2 * s) + (grid.R + xi) ** (-2 * s)) / (2 * s)
    return FracLapOperator(
        grid=grid,
        s=s,
        c=c,
        A=A,
        exterior_weights=B,
        truncation_mass=T0,
        corrected=corrected,
    )


def _tail_weight_integral(c_abs: float, p: float, R: float, s: float, terms: int = 80) -> float:
    """Integral of c|y|^(-p) / (1 + |y|^(1+2s)) over |y| > R, by series.

    Expands 1/(1 + y^(1+2s)) in powers of y^-(1+2s); valid since R >= 1 by
    the grid invariants, and convergent term decay is geometric in R^(1+2s).
    """
    tot = 0.0
    for m in range(terms):
        e = (m + 1) * (1 + 2 * s) + p
        tot += (-1) ** m * R ** (1.0 - e) / (e - 1.0)
    return 2 * c_abs * tot


def tail_norm(u: GridFunction, s: float) -> float:
    """Weighted integral of |u(y)| / (1 + |y|^(1+2s)) over the whole line.

    Trapezoid rule over the grid plus the analytic contribution of the tail
    model beyond R.
    """
    if not (0.0 < s < 1.0):
        raise ValueError("s must lie in (0, 1)")
    tail = u.tail
    if tail.kind == "power" and tail.p <= -2 * s:
        raise ValueError("power tail grows too fast for the weight to be integrable")
    x, v = u.grid.x, u.values
    w = np.abs(v) / (1.0 + np.abs(x) ** (1 + 2 * s))
    h = u.grid.h
    total = h * (w.sum() - 0.5 * w[0] - 0.5 * w[-1])
    R = u.grid.R
    if tail.kind == "const":
        total += _tail_weight_integral(abs(tail.c), 0.0, R, s)
    elif tail.kind == "power":
        total += _tail_weight_integral(abs(tail.c), tail.p, R, s)
    return float(total)


def tail_influence_bound(op: FracLapOperator, u: GridFunction) -> float:
    """Bound on how much data beyond R can move the operator on the interior.

    For |x| <= a and |y| > R, |x - y| >= |y| (1 - a/R), and the kernel weight
    against |u| is controlled by the tail part of the weighted norm, inflated
    by (1 + R^(-1-2s)) to trade the weight denominator for |y|^(1+2s).
    """
    s = op.s
    a, R = op.grid.a, op.grid.R
    tail = u.tail
    if tail.kind == "zero":
        tail_part = 0.0
    elif tail.kind == "const":
        tail_part = _tail_weight_integral(abs(tail.c), 0.0, R, s)
    else:
        tail_part = _tail_weight_integral(abs(tail.c), tail.p, R, s)
    return float(
        op.c * (1 - a / R) ** (-1 - 2 * s) * (1 + R ** (-1 - 2 * s)) * tail_part
    )
