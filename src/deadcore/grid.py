"""Uniform symmetric 1D grids, tail models, and grid-function utilities.

Everything downstream (operator assembly, solvers, exponent fits) works on a
uniform grid over [-R, R] with an open interior window (-a, a).  Exterior
nodes carry Dirichlet data; behaviour beyond the truncation radius R is
described by a small analytic tail model instead of more nodes.  The
module only computes: it reads and writes no file (deadcore.cli writes a
grid function's nodes and tail).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridSpec",
    "Grid",
    "TailModel",
    "GridFunction",
    "make_grid",
    "sup_on_ball",
    "discrete_derivative",
]

_INT_TOL = 1e-9


def _near_int(x: float) -> bool:
    return math.isfinite(x) and abs(x - round(x)) <= _INT_TOL * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Parameters of a uniform grid on [-R, R] with interior window (-a, a).

    Parameters
    ----------
    h : float
        Node spacing.  Must divide both a and R.
    a : float
        Half-width of the interior window; nodes with |x| < a are unknowns.
    R : float
        Truncation radius.  Data beyond R is represented by a TailModel.
    """

    h: float
    a: float
    R: float

    def __post_init__(self) -> None:
        if not (self.h > 0 and self.a > 0 and self.R > 0):
            raise ValueError("grid parameters must be positive")
        if not (_near_int(self.a / self.h) and _near_int(self.R / self.h)):
            raise ValueError("a/h and R/h must be integers")
        if round(self.a / self.h) < 4 or round(self.R / self.h) < 4:
            raise ValueError("a/h and R/h must be at least 4")
        if self.R < 2 * self.a - _INT_TOL:
            raise ValueError("truncation radius must satisfy R >= 2a")
        if self.h > self.a / 16 + _INT_TOL:
            # 3: past this method and the dataclass-generated __init__
            warnings.warn(
                f"coarse grid: h={self.h} exceeds a/16={self.a / 16}",
                stacklevel=3,
            )

    @property
    def n_nodes(self) -> int:
        return 2 * round(self.R / self.h) + 1


@dataclass(frozen=True)
class Grid:
    """Realized grid: node coordinates plus interior/exterior index sets."""

    spec: GridSpec
    x: np.ndarray
    interior: np.ndarray  # indices of nodes with |x| < a
    exterior: np.ndarray  # complement, including the endpoints +-a

    @property
    def h(self) -> float:
        return self.spec.h

    @property
    def a(self) -> float:
        return self.spec.a

    @property
    def R(self) -> float:
        return self.spec.R

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def x_interior(self) -> np.ndarray:
        return self.x[self.interior]


def make_grid(spec: GridSpec) -> Grid:
    """Build the node set x_i = -R + i*h, i = 0..2R/h.

    Interior nodes are those with |x| strictly below a; the nodes at +-a
    belong to the exterior (they carry Dirichlet data).
    """
    nR = round(spec.R / spec.h)
    na = round(spec.a / spec.h)
    n = 2 * nR + 1
    x = -spec.R + spec.h * np.arange(n)
    interior = np.arange(nR - na + 1, nR + na)
    exterior = np.setdiff1d(np.arange(n), interior)
    return Grid(spec=spec, x=x, interior=interior, exterior=exterior)


@dataclass(frozen=True)
class TailModel:
    """Analytic description of data beyond the truncation radius.

    kind is one of "zero" (data vanishes), "const" (data equals c on both
    sides), or "power" (data decays like c*|y|^(-p)).  Const and power tails
    are even in y; odd data should be truncated to a zero tail.
    """

    kind: str = "zero"
    c: float = 0.0
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "const", "power"):
            raise ValueError(f"unknown tail kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "TailModel":
        return cls("zero")

    @classmethod
    def const(cls, c: float) -> "TailModel":
        return cls("const", c=float(c))

    @classmethod
    def power(cls, c: float, p: float) -> "TailModel":
        return cls("power", c=float(c), p=float(p))

    def encode(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "const":
            return f"const:{self.c:.17g}"
        return f"power:{self.c:.17g},{self.p:.17g}"

    @classmethod
    def parse(cls, text: str) -> "TailModel":
        text = text.strip()
        kind, colon, args = text.partition(":")
        try:
            numbers = [float(tok) for tok in args.split(",")] if colon else []
            # a wrong count of numbers is the constructor's TypeError
            return {"zero": cls.zero, "const": cls.const, "power": cls.power}[kind](*numbers)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"cannot parse tail model {text!r}") from None

    def value(self, y: float) -> float:
        """Tail value at |y| > R (even extension)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "const":
            return self.c
        return self.c * abs(y) ** (-self.p)


@dataclass
class GridFunction:
    """Nodal values on a grid together with a tail model.

    values has one entry per node of ``grid`` (interior and exterior alike).
    """

    grid: Grid
    values: np.ndarray
    tail: TailModel = field(default_factory=TailModel.zero)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid size {self.grid.n}"
            )

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior]

    @property
    def exterior_values(self) -> np.ndarray:
        return self.values[self.grid.exterior]


def sup_on_ball(u: GridFunction, x0: float, r: float) -> float:
    """Max of |u| over grid nodes in the closed ball of radius r about x0.

    Requires r >= h so the ball contains at least one node-to-node gap; the
    ball is closed with a relative slack of h*1e-9 so that nodes landing
    exactly on the boundary are included despite rounding.
    """
    h = u.grid.h
    if r < h:
        raise ValueError(f"ball radius {r} is below the node spacing {h}")
    mask = np.abs(u.grid.x - x0) <= r + h * 1e-9
    return float(np.abs(u.values[mask]).max())


def discrete_derivative(u: GridFunction, order: int) -> GridFunction:
    """Second-order finite-difference derivative of the nodal values.

    Central differences everywhere except the two endpoint nodes, which use
    one-sided second-order stencils.  order is 1 or 2.  The result carries a
    zero tail; differentiating the tail model is out of scope.
    """
    v = u.values
    h = u.grid.h
    n = v.size
    out = np.empty(n)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
        out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    elif order == 2:
        out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2
        out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2
    else:
        raise ValueError("derivative order must be 1 or 2")
    return GridFunction(u.grid, out, TailModel.zero())
