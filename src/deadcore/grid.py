"""Uniform symmetric 1D grids, tail models, and grid-function utilities.

Everything downstream (operator assembly, solvers, exponent fits) works on a
uniform grid over [-R, R] with an open interior window (-a, a).  Exterior
nodes carry Dirichlet data; behaviour beyond the truncation radius R is
described by a small analytic tail model instead of more nodes.
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
    "format_field",
    "write_lines",
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
        if text == "zero":
            return cls.zero()
        if text.startswith("const:"):
            return cls.const(float(text[6:]))
        if text.startswith("power:"):
            c_str, p_str = text[6:].split(",")
            return cls.power(float(c_str), float(p_str))
        raise ValueError(f"cannot parse tail model {text!r}")

    def value(self, y: float) -> float:
        """Tail value at |y| > R (even extension)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "const":
            return self.c
        return self.c * abs(y) ** (-self.p)


def format_field(value) -> str:
    """One field of an output file: a float as .17g, which round-trips; a
    bool or None in lower case; anything else as str."""
    if value is None or isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_lines(path: str, rows, sep: str = ",") -> None:
    """Write one line per row: its fields through format_field, joined by sep.

    Every file deadcore writes goes through here: a CSV's rows with sep ","
    and a .meta file's (key, value) items with sep "=".
    """
    with open(path, "w") as fh:
        fh.writelines(sep.join(map(format_field, row)) + "\n" for row in rows)


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

    def to_csv(self, path: str) -> None:
        """Write ``# tail=...`` comment, ``x,u`` header, one node per row."""
        write_lines(path, [(f"# tail={self.tail.encode()}",), ("x", "u"), *zip(self.grid.x, self.values)])

    @classmethod
    def from_csv(cls, path: str, a: float) -> "GridFunction":
        """Read a grid function written by to_csv.

        The interior half-width ``a`` is not stored in the file and must be
        supplied by the caller.
        """
        with open(path) as fh:
            first = fh.readline().strip()
            if not first.startswith("# tail="):
                raise ValueError("missing tail comment line")
            tail = TailModel.parse(first[len("# tail="):])
            header = fh.readline().strip()
            if header != "x,u":
                raise ValueError(f"unexpected header {header!r}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if len(rows) < 3:
            raise ValueError(f"{len(rows)} node rows; a grid has at least three")
        x = np.array([float(r[0]) for r in rows])
        u = np.array([float(r[1]) for r in rows])
        # h from R and the node count, as make_grid lays the nodes out; the
        # difference x[1] - x[0] misses the written h by ulps on most grids
        R = -float(x[0])
        spec = GridSpec(h=R / ((x.size - 1) // 2), a=float(a), R=R)
        grid = make_grid(spec)
        if grid.n != x.size or not np.allclose(grid.x, x, rtol=0, atol=1e-12 * max(1.0, abs(x[0]))):
            raise ValueError("node coordinates are not a uniform symmetric grid")
        return cls(grid, u, tail)


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
