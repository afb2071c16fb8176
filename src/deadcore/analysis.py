"""Empirical verification layer: core detection, exponent fits, rescaling,
comparison and growth probes.

All measurements work on grid functions; nothing here solves an equation
except the study drivers (comparison_campaign, s_limit_study), which call
the solver.  The module only computes and writes no file; the command line
(deadcore.cli) builds every output row from what it returns.
Radii are snapped to lattice multiples of the spacing so that sup-over-ball
values are reproducible and rescaling comparisons are exact where possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fraclap import assemble
from .grid import (
    Grid,
    GridFunction,
    GridSpec,
    TailModel,
    discrete_derivative,
    make_grid,
    sup_on_ball,
)
from .profiles import growth_exponent
from .solver import ReactionSpec, SolveReport, SolverConfig, solve, solve_local, solve_many

__all__ = [
    "mask_runs",
    "detect_dead_core",
    "free_boundary",
    "detect_branching",
    "ExponentFit",
    "check_fit",
    "fit_radii",
    "fit_growth_exponent",
    "blow_up_window",
    "blow_up",
    "comparison_check",
    "LiouvilleReport",
    "liouville_radii",
    "liouville_probe",
    "comparison_campaign",
    "SLimitRow",
    "s_limit_study",
    "vanishing",
]

def mask_runs(mask: np.ndarray) -> np.ndarray:
    """Maximal runs of True in a 1D mask as rows (start, end), end inclusive."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    return np.column_stack((np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1))


def detect_dead_core(u: GridFunction, threshold: float):
    """Largest interior interval where |u| <= threshold, as (x_lo, x_hi), or None.

    The interval spans the longest run of interior nodes; on a tie the
    leftmost of the longest runs wins.  A core spans at least two nodes: a
    lone small node, such as the zero of an odd solution, is none.
    """
    runs = mask_runs(np.abs(u.interior_values) <= threshold)
    runs = runs[runs[:, 1] > runs[:, 0]]
    if not runs.size:
        return None
    i0, i1 = runs[np.argmax(runs[:, 1] - runs[:, 0])]
    x = u.grid.x_interior
    return float(x[i0]), float(x[i1])


def free_boundary(u: GridFunction, s: float, gamma: float) -> float | None:
    """The interior edge of u's dead core, where the core meets a phase; or None.

    The core is the largest interior run where |u| <= h^beta, with beta =
    growth_exponent(s, gamma) (detect_dead_core).  Its right end is the edge
    unless it lies within 1.5h of a, and then its left end unless that lies
    within 1.5h of -a.  None when there is no core or it reaches both ends.
    """
    h, a = u.grid.h, u.grid.a
    core = detect_dead_core(u, h ** growth_exponent(s, gamma))
    if core is None:
        return None
    lo, hi = core
    if hi < a - 1.5 * h:
        return hi
    if lo > -a + 1.5 * h:
        return lo
    return None


def detect_branching(u: GridFunction, s: float, gamma: float) -> np.ndarray:
    """Interior nodes where u, Du, and D2u all vanish to scale.

    The thresholds are (10 h^beta, 10 h^(beta-1), 10 h^(beta-2)) with
    beta = 2s/(1-gamma), the rates at which the three quantities vanish when
    u grows exactly like |x - x0|^beta.  Contiguous candidate runs are
    coalesced to the single node minimizing the combined normalized score,
    so an exact profile yields exactly one point.
    """
    h, beta = u.grid.h, growth_exponent(s, gamma)
    t0, t1, t2 = 10 * h**beta, 10 * h ** (beta - 1), 10 * h ** (beta - 2)
    v0, v1, v2 = np.abs(vanishing(u))
    cand = (v0 <= t0) & (v1 <= t1) & (v2 <= t2)
    if not cand.any():
        return np.array([])
    score = v0 / t0 + v1 / t1 + v2 / t2
    x_int = u.grid.x_interior
    return np.array([x_int[i + np.argmin(score[i : j + 1])] for i, j in mask_runs(cand)])


def vanishing(u: GridFunction, points=None) -> np.ndarray:
    """Rows u, Du, D2u: at the interior nodes, or at the node nearest each of ``points``."""
    if points is None:
        idx = u.grid.interior
    else:
        idx = [int(np.argmin(np.abs(u.grid.x - x0))) for x0 in points]
    return np.array([v.values[idx] for v in (u, discrete_derivative(u, 1), discrete_derivative(u, 2))])


@dataclass
class ExponentFit:
    slope: float
    intercept: float
    r2: float
    radii: np.ndarray
    values: np.ndarray
    deriv_order: int


def check_fit(k: int, deriv_order: int, n_nodes: int) -> None:
    """Raise ValueError unless a fit of k radii and deriv_order fits n_nodes nodes.

    Snapped radii are distinct lattice multiples of h.  Fewer than n_nodes
    of them lie below 2R, the width of the grid, and a wider ball about a
    node holds every node, so a larger k adds no information.
    """
    if deriv_order not in (0, 1):
        raise ValueError("deriv_order must be 0 or 1")
    if k < 4:
        raise ValueError("at least 4 radii are required")
    if k > n_nodes:
        raise ValueError(f"k={k} exceeds the grid's {n_nodes} nodes")


def fit_radii(spec: GridSpec, r_min: float | None, r_max: float | None, k: int) -> np.ndarray:
    """The radii of a growth fit on a grid with ``spec``.

    k radii log-spaced in [r_min, r_max], snapped to distinct lattice
    multiples of h, at least 4h.  Defaults: r_min = 8h, r_max = a/4.  Raise
    ValueError unless r_min >= 4h, r_min < r_max <= 2R (the grid's width,
    so that r_max / h fits an integer) and at least 4 radii remain; k must
    have passed check_fit.
    """
    h = spec.h
    if r_min is None:
        r_min = 8 * h
    if r_max is None:
        r_max = spec.a / 4
    if r_min < 4 * h:
        raise ValueError("fit window must start at or above 4h")
    if not r_max > r_min:
        raise ValueError("empty fit window")
    if r_max > 2 * spec.R:
        raise ValueError(f"fit window must end at or below the grid width 2R = {2 * spec.R}")
    raw = np.exp(np.linspace(np.log(r_min), np.log(r_max), k))
    mults = np.unique(np.maximum(np.round(raw / h).astype(int), 4))
    radii = mults * h
    if radii.size < 4:
        raise ValueError("fit window too narrow after lattice snapping")
    return radii


def fit_growth_exponent(
    u: GridFunction,
    x0: float,
    r_min: float | None = None,
    r_max: float | None = None,
    k: int = 8,
    deriv_order: int = 0,
) -> ExponentFit:
    """Log-log regression of sup-over-ball growth about x0.

    Measures q(r) = sup over the closed ball B_r(x0) of |u| (or |Du| for
    deriv_order 1) at the radii fit_radii gives for [r_min, r_max] and k.
    deriv_order must be 0 or 1, and 4 <= k <= the grid's node count
    (check_fit).
    """
    check_fit(k, deriv_order, u.grid.n)
    radii = fit_radii(u.grid.spec, r_min, r_max, k)
    target = u if deriv_order == 0 else discrete_derivative(u, 1)
    vals = np.array([sup_on_ball(target, x0, r) for r in radii])
    if np.all(vals < 1e-300):
        raise ValueError("flat function: nothing to fit in the window")
    t = np.log(radii)
    y = np.log(vals)
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    sst = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - float(np.sum(resid**2)) / float(sst) if sst > 0 else 1.0
    return ExponentFit(
        slope=float(slope),
        intercept=float(intercept),
        r2=float(r2),
        radii=radii,
        values=vals,
        deriv_order=deriv_order,
    )


def blow_up_window(spec: GridSpec, x0: float, r: float) -> tuple[GridSpec, bool]:
    """The grid of blow_up(u, x0, r) for u on a grid with ``spec``.

    Returns its spec and whether r is a lattice multiple of h.  Raise
    ValueError unless r lies in (0, 1], x0 is a grid node and the window
    reaches at least twice the unit interior window.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError("r must lie in (0, 1]")
    h = spec.h
    R = spec.R
    if not abs(x0) <= R or abs(x0 / h - round(x0 / h)) > 1e-9:
        raise ValueError("x0 must be a grid node")
    aligned = abs(r / h - round(r / h)) <= 1e-9 * max(1.0, r / h)
    if aligned:
        hp = h / r  # node j of the new grid maps to u-node x0 + j*h
        m_half = int(min(round((R - abs(x0)) / h), round(R * r / h)))
    else:
        hp = h
        m_half = int(min(np.floor((R - abs(x0)) / (r * h)), round(R / h)))
    if m_half * hp < 2.0:
        raise ValueError("rescaled window does not fit the grid")
    return GridSpec(h=hp, a=1.0, R=m_half * hp), aligned


def blow_up(u: GridFunction, x0: float, r: float, s: float, gamma: float) -> GridFunction:
    """Rescaled function v_r(x) = u(x0 + r x) / r^(2s/(1-gamma)).

    x0 must be a grid node and r must lie in (0, 1].  When r is a lattice
    multiple of h (r/h integer), v_r lives on a grid with spacing h/r and its
    values are exact nodal gathers of u; otherwise v_r is resampled onto a
    spacing-h grid by linear interpolation.  The window is the largest
    standard grid that keeps x0 + r*x inside [-R, R]; it must reach at least
    twice the unit interior window (blow_up_window).
    """
    spec, aligned = blow_up_window(u.grid.spec, x0, r)
    scale = r ** (-growth_exponent(s, gamma))
    new_grid = make_grid(spec)
    if aligned:
        i0 = int(round((x0 + u.grid.R) / u.grid.h))
        half = new_grid.n // 2
        vals = u.values[i0 - half : i0 + half + 1] * scale
    else:
        vals = np.interp(x0 + r * new_grid.x, u.grid.x, u.values) * scale
    return GridFunction(new_grid, vals, TailModel.zero())


def _tails_ordered(t1: TailModel, t2: TailModel, R: float) -> bool:
    # Zero tails carry c = 0 and p = 0 and const tails p = 0, so the difference
    # of two tail values is c1 y^-p1 - c2 y^-p2 = y^-p2 (c1 y^(p2-p1) - c2),
    # which changes sign at most once on (R, inf): it is >= 0 there exactly
    # when it is >= 0 at R and for large y.  For large y the tail with the
    # least p decides, and c1 - c2 when p1 = p2.
    if t1.p == t2.p:
        far = t1.c - t2.c
    else:
        far = t1.c if t1.p < t2.p else -t2.c
    return t1.value(R) - t2.value(R) >= 0 and far >= 0


def comparison_check(u1: GridFunction, u2: GridFunction, residual_tol: float) -> bool:
    """Discrete comparison test: does u1 dominate u2 up to solver error?

    Requires the exterior data of u1 to dominate that of u2 at every
    exterior node and in the tail (rejects unordered inputs); returns True
    when u1 >= u2 - 10*residual_tol at every interior node.
    """
    if u1.grid.spec != u2.grid.spec:
        raise ValueError("grid mismatch")
    g1 = u1.exterior_values
    g2 = u2.exterior_values
    if not (g1 >= g2).all():
        raise ValueError("exterior data are not ordered")
    if not _tails_ordered(u1.tail, u2.tail, u1.grid.R):
        raise ValueError("tail models are not ordered")
    return bool((u1.interior_values >= u2.interior_values - 10 * residual_tol).all())


@dataclass
class LiouvilleReport:
    classification: str  # "decaying", "critical", or "growing"
    radii: np.ndarray
    q: np.ndarray


def liouville_radii(spec: GridSpec) -> np.ndarray:
    """The radii of liouville_probe on a grid with ``spec``: 4h, 8h, ... up to a.

    Raise ValueError unless there are at least three.
    """
    r = 4 * spec.h
    rs = []
    while r <= spec.a:
        rs.append(r)
        r *= 2
    if len(rs) < 3:
        raise ValueError("need at least three doubling radii")
    return np.array(rs)


def liouville_probe(u: GridFunction, s: float, gamma: float) -> LiouvilleReport:
    """Classify the growth of q(r) = sup_{B_r}|u| / r^(2s/(1-gamma)).

    Per doubling of r: a strict decrease by factor >= 1.1 classifies as
    "decaying", staying within factor 1.1 as "critical", anything else as
    "growing".  This is a classifier over a truncated grid, not a proof
    device: only the growth hypothesis is examined.  The radii are those of
    liouville_radii.
    """
    beta = growth_exponent(s, gamma)
    radii = liouville_radii(u.grid.spec)
    q = np.array([sup_on_ball(u, 0.0, r) / r**beta for r in radii])
    if np.all(q < 1e-300):
        cls = "decaying"  # identically zero at working precision
    else:
        ratios = q[1:] / np.maximum(q[:-1], 1e-300)
        if np.all(ratios <= 1.0 / 1.1):
            cls = "decaying"
        elif np.all(ratios <= 1.1) and np.all(ratios >= 1.0 / 1.1):
            cls = "critical"
        else:
            cls = "growing"
    return LiouvilleReport(classification=cls, radii=radii, q=q)


def random_ordered_pair(grid: Grid, rng: np.random.Generator) -> tuple[GridFunction, GridFunction]:
    """Smooth bounded exterior data g1 >= g2 with a strictly positive gap.

    Each function is a sum of three Gaussian bumps with random centers in the
    exterior band, random widths, amplitudes, and left-side signs; the gap is
    0.02 plus a squared bump, so the ordering is strict everywhere.  Both
    carry zero tails.
    """

    def bumps(y):
        g = np.zeros_like(y)
        for _ in range(3):
            c = rng.uniform(grid.a, grid.R)
            w = rng.uniform(0.3, 1.5)
            amp = rng.uniform(-1.0, 1.0)
            sgn = (-1.0, 1.0)[rng.integers(2)]  # rng.choice's draw, about 6x faster
            g += amp * np.exp(-(((np.abs(y) - c) / w) ** 2)) * np.where(y < 0, sgn, 1.0)
        return g

    ye = grid.x[grid.exterior]
    v1 = np.zeros(grid.n)
    v2 = np.zeros(grid.n)
    base = bumps(ye)
    gap = 0.02 + 0.5 * bumps(ye) ** 2
    v1[grid.exterior] = base
    v2[grid.exterior] = base - gap
    return (
        GridFunction(grid, v1, TailModel.zero()),
        GridFunction(grid, v2, TailModel.zero()),
    )


@dataclass
class ComparisonTrial:
    pair: int
    violation: float  # max over interior of (u2 - u1), 0 when ordered
    passed: bool
    converged: bool


def comparison_campaign(
    grid: Grid,
    s: float,
    reaction: ReactionSpec,
    n_pairs: int,
    seed: int,
    config: SolverConfig | None = None,
) -> list[ComparisonTrial]:
    """Solve random ordered data pairs and test the discrete comparison property.

    All pairs are drawn first and solved as one batch (solve_many).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    config = config or SolverConfig()
    op = assemble(grid, s)
    rng = np.random.default_rng(seed)
    data = [g for _ in range(n_pairs) for g in random_ordered_pair(grid, rng)]
    reports = solve_many(op, data, reaction, config)
    trials = []
    for k in range(n_pairs):
        rep1, rep2 = reports[2 * k], reports[2 * k + 1]
        gap = float(
            (rep2.solution.interior_values - rep1.solution.interior_values).max()
        )
        passed = comparison_check(rep1.solution, rep2.solution, config.residual_tol)
        trials.append(
            ComparisonTrial(
                pair=k,
                violation=max(0.0, gap),
                passed=passed,
                converged=rep1.converged and rep2.converged,
            )
        )
    return trials


@dataclass
class SLimitRow:
    """One order s of s_limit_study, with the report of its nonlocal solve."""

    s: float
    distance: float
    report: SolveReport


def s_limit_study(
    grid: Grid,
    s_values,
    reaction: ReactionSpec,
    g: GridFunction,
    config: SolverConfig | None = None,
) -> tuple[list[SLimitRow], SolveReport]:
    """Solve at each s with fixed data and measure the distance to the local limit.

    The local reference uses the same gamma and the Dirichlet values of g at
    the nodes +-a.  distance is the interior sup difference.  Each row
    carries its solve's report, and the local reference's report says
    whether that one converged.  Data that vanish at +-a, as the ramp does,
    give the local reference u = 0, and distance is then just sup|u_s|;
    plateau data give a nontrivial reference.
    """
    config = config or SolverConfig()
    ia = int(grid.interior[0] - 1)
    ib = int(grid.interior[-1] + 1)
    local_rep = solve_local(grid, reaction, (g.values[ia], g.values[ib]), config)
    u_loc = local_rep.solution.interior_values
    rows = []
    for s in s_values:
        op = assemble(grid, float(s))
        rep = solve(op, g, reaction, config)
        d = float(np.abs(rep.solution.interior_values - u_loc).max())
        rows.append(SLimitRow(s=float(s), distance=d, report=rep))
    return rows, local_rep
