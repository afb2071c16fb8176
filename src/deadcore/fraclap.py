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

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction, TailModel

__all__ = [
    "normalization_constant",
    "FracLapOperator",
    "assemble",
    "check_order",
    "check_tail",
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
    return 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(-s)))


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


def _hurwitz_zeta(x: float, q: float) -> float:
    """Hurwitz zeta(x, q), the sum of (q + n)^(-x) over n >= 0, for x > 1 and q in the thousands.

    Euler-Maclaurin (DLMF 25.11): q^(1-x)/(x-1) + q^(-x)/2 plus, for k = 1, 2, 3,
    B_2k/(2k)! x(x+1)...(x+2k-2) q^(-x-2k+1).  For x <= 3 the first term left
    out is below q^(-8) of the sum, far under one ulp.
    """
    total = q ** (1.0 - x) / (x - 1.0) + q**-x / 2.0
    t = x * q ** (-x - 1.0)
    total += t / 12.0
    t *= (x + 1.0) * (x + 2.0) / q**2
    total -= t / 720.0
    t *= (x + 3.0) * (x + 4.0) / q**2
    return total + t / 30240.0


def interp_defect_constant(s: float) -> float:
    """Sum over cells of int (t-k)(k+1-t) t^(-1-2s) dt for k >= 1.

    This is the leading quadratic interpolation defect of the hat basis
    against the kernel; subtracting it from the singular-cell weight restores
    second-difference accuracy.  Each cell past _KAPPA_TERMS is taken as
    (k + 1/2)^(-1-2s)/6, the kernel at its midpoint times the integral 1/6 of
    (t-k)(k+1-t), and their sum is the Hurwitz zeta(1 + 2s, _KAPPA_TERMS +
    3/2)/6: 3e-4 of the constant at s = 1/2, 1.5e-7 at s = 0.95.
    """
    k = np.arange(1, _KAPPA_TERMS + 1, dtype=float)
    val = -_p2(k, k + 1, s) + (2 * k + 1) * _p1(k, k + 1, s) - k * (k + 1) * _p0(k, k + 1, s)
    tail = _hurwitz_zeta(1 + 2 * s, _KAPPA_TERMS + 1.5) / 6.0
    return float(val.sum() + tail)


def _weight_tables(s: float, n: int):
    """Hat weights by lag (h^(-2s) units): full hats, endpoint half hats, and
    the singular-cell weight lam, less the interpolation defect."""
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
    lam = 1.0 / (2.0 - 2.0 * s) - interp_defect_constant(s)
    return gh, gh_end, lam


def _mirrored(t: np.ndarray) -> np.ndarray:
    """[t[k-1], ..., t[1], t[0], t[1], ..., t[k-1]]: entry k - 1 + m is t[|m|]."""
    return np.concatenate((t[:0:-1], t))


@dataclass(frozen=True)
class FracLapOperator:
    """Discrete fractional Laplacian, stored as its lag table.

    Every weight depends only on the lag |i - j| between nodes, so the
    operator keeps O(n) numbers.  Row i of the interior x all-nodes map is
    lags[|i - j|] over the nodes j, except in the columns of the end nodes
    0 and n - 1, which hold ``end_columns`` (half hats).  lags[0] is the
    interior diagonal, the full-line kernel mass.  The interior matrix A is
    therefore symmetric Toeplitz with first row ``row``; ``apply`` and
    ``load_vector`` are direct convolutions with the lag table.
    truncation_mass is the kernel mass beyond R seen from each interior node
    (times the normalization), which completes row balance: the load of
    unit exterior data plus A@1 equals truncation_mass exactly, so
    constants are annihilated once the constant tail correction is applied.
    """

    grid: Grid
    s: float
    c: float
    lags: np.ndarray
    end_columns: np.ndarray
    truncation_mass: np.ndarray

    @property
    def row(self) -> np.ndarray:
        """First row r of A, a view of the lag table: A[i, j] = r[|i - j|]."""
        return self.lags[: self.grid.interior.size]

    def tail_load(self, tail: TailModel) -> np.ndarray:
        """Interior contribution of data beyond R described by ``tail``; it must pass check_tail."""
        check_tail(tail, self.s)
        if tail.kind == "zero":
            return np.zeros(self.grid.interior.size)
        if tail.kind == "const":
            return -self.truncation_mass * tail.c
        from scipy.special import hyp2f1  # only a power tail pays for scipy.special's import

        s, R = self.s, self.grid.R
        xi = self.grid.x_interior
        z = xi / R
        pw = tail.p + 2 * s
        H = R ** (-pw) / pw * (
            hyp2f1(1 + 2 * s, pw, pw + 1, z) + hyp2f1(1 + 2 * s, pw, pw + 1, -z)
        )
        return -self.c * tail.c * H

    def load_vector(self, g: GridFunction) -> np.ndarray:
        """Data term b(g): exterior nodal part plus analytic tail part.

        The exterior part is one convolution of the nodal data, with the
        interior and the two end nodes zeroed, against the slice of
        _mirrored(lags) that the interior rows see, so lag 0 never enters;
        the end nodes enter through their own columns.
        """
        if g.grid is not self.grid and g.grid.spec != self.grid.spec:
            raise ValueError("data lives on a different grid")
        n, gi = self.grid.n, self.grid.interior
        v = g.values.copy()
        v[gi] = 0.0
        v[[0, -1]] = 0.0
        window = _mirrored(self.lags)[gi[0] : gi[0] + n - 1 + gi.size]
        b = np.convolve(window, v, "valid")
        b += g.values[[0, -1]] @ self.end_columns
        return b + self.tail_load(g.tail)

    def apply(self, u: GridFunction) -> np.ndarray:
        """Operator value at interior nodes, using u's own tail model."""
        Au = np.convolve(_mirrored(self.row), u.interior_values, "valid")
        return Au + self.load_vector(u)


def check_order(s: float, h: float | None = None) -> None:
    """Raise ValueError unless ``assemble`` admits the order s and, if given, the spacing h.

    h is admitted when the factor c h^(-2s) of every weight is finite, a
    rule that needs no grid.
    """
    if not (0.5 <= s < S_MAX):
        raise ValueError(f"s must lie in [0.5, {S_MAX})")
    try:
        finite = h is None or math.isfinite(normalization_constant(s) * h ** (-2.0 * s))
    except OverflowError:  # a Python float power raises where numpy's gives inf
        finite = False
    if not finite:
        raise ValueError(f"h = {h:.17g} is too small for s = {s:.17g}: h^(-2s) overflows")


def check_tail(tail: TailModel, s: float) -> None:
    """Raise ValueError unless data beyond R described by ``tail`` has a finite load at order s.

    A power tail c|y|^(-p) loads the interior with the integral of
    c|y|^(-p) |x - y|^(-1-2s) over |y| > R, which is finite only for p > -2s.
    """
    if tail.kind == "power" and not tail.p > -2 * s:
        raise ValueError(f"power tail p = {tail.p:.17g} grows too fast for s = {s:.17g}: it needs p > -2s")


def assemble(grid: Grid, s: float) -> FracLapOperator:
    """Assemble the lag table, with the diagonal at lag 0, and the end columns.

    s is admitted on [1/2, 0.999); the normalization degenerates near s = 1
    and the closed-form weights lose relative accuracy there.  Storage and
    time are O(n): no N x N or N x n_ext array is built.
    """
    check_order(s, grid.h)
    c = normalization_constant(s)
    h = grid.h
    n = grid.n
    gi = grid.interior
    gh, gh_end, lam = _weight_tables(s, n)
    scale = c * h ** (-2.0 * s)
    T = -(gh + lam * (np.arange(n) == 1)) * scale
    # 2*lam covers the two adjacent cells' corrected weights; 1/s is the
    # kernel mass at lag >= 1 on the full line.
    T[0] = (2 * lam + 1.0 / s) * scale
    ends = np.stack((-gh_end[np.abs(gi)] * scale, -gh_end[np.abs(gi - (n - 1))] * scale))
    xi = grid.x[gi]
    T0 = c * ((grid.R - xi) ** (-2 * s) + (grid.R + xi) ** (-2 * s)) / (2 * s)
    return FracLapOperator(grid=grid, s=s, c=c, lags=T, end_columns=ends, truncation_mass=T0)
