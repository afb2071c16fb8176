"""Closed-form profiles, exponent formulas, and exterior data builders."""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, GridFunction, TailModel

__all__ = [
    "growth_exponent",
    "schauder_exponent",
    "profile_coefficient",
    "exact_local_profile",
    "getoor_profile",
    "getoor_constant",
    "odd_exterior_builder",
]


def growth_exponent(s: float, gamma: float) -> float:
    """Sharp growth rate 2s/(1-gamma) at branching points."""
    return 2.0 * s / (1.0 - gamma)


def schauder_exponent(s: float, gamma: float) -> float:
    """Naive regularity rate 2s + gamma; strictly below the sharp rate."""
    return 2.0 * s + gamma


def profile_coefficient(gamma: float) -> float:
    """Coefficient kappa with (kappa x^beta)'' = (kappa x^beta)^gamma, beta = 2/(1-gamma)."""
    beta = growth_exponent(1.0, gamma)
    return float((beta * (beta - 1.0)) ** (-1.0 / (1.0 - gamma)))


def exact_local_profile(grid: Grid, gamma: float) -> GridFunction:
    """Two-phase local solution kappa*(x_+^beta - x_-^beta) sampled on the grid."""
    beta = growth_exponent(1.0, gamma)
    kappa = profile_coefficient(gamma)
    x = grid.x
    vals = kappa * (
        np.maximum(x, 0.0) ** beta - np.maximum(-x, 0.0) ** beta
    )
    return GridFunction(grid, vals, TailModel.zero())


def getoor_profile(s: float, grid: Grid) -> GridFunction:
    """(1 - x^2)_+^s on the grid; its fractional Laplacian is constant on (-1, 1)."""
    vals = np.maximum(1.0 - grid.x**2, 0.0) ** s
    return GridFunction(grid, vals, TailModel.zero())


def getoor_constant(s: float) -> float:
    """Value of the fractional Laplacian of (1 - x^2)_+^s inside (-1, 1).

    It is 4^s Gamma(1/2+s) Gamma(1+s)/sqrt(pi), which Legendre's duplication
    formula (DLMF 5.5.5) turns into Gamma(1 + 2s); at s = 1/2 that is 1 exactly.
    """
    return math.gamma(1.0 + 2.0 * s)


def odd_exterior_builder(grid: Grid, kind: str, amplitude: float) -> GridFunction:
    """Odd exterior data with zero interior values and a zero tail.

    kind "ramp": sign(y) * amplitude * min((|y|-a)/a, 1)^2, vanishing at the
    interior boundary and saturating one window further out.  kind "plateau":
    sign(y) * amplitude on the whole exterior.  Odd data cannot be expressed
    by the even tail models, so both builders truncate to a zero tail.
    """
    a = grid.a
    y = grid.x
    vals = np.zeros(grid.n)
    ext = grid.exterior
    ye = y[ext]
    if kind == "ramp":
        vals[ext] = amplitude * np.sign(ye) * np.minimum((np.abs(ye) - a) / a, 1.0) ** 2
    elif kind == "plateau":
        vals[ext] = amplitude * np.sign(ye)
    else:
        raise ValueError(f"unknown builder kind {kind!r}")
    return GridFunction(grid, vals, TailModel.zero())
