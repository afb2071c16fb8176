"""Solvers for the discrete two-phase dead-core equation.

The interior unknowns satisfy A u + b(g) + f(u) = 0 where A is either the
nonlocal operator from :mod:`deadcore.fraclap` or the local second
difference, b(g) carries the exterior data, and f(u) = u_+^gamma - u_-^gamma
is the absorption term (one-phase mode drops the negative branch).  This is
the Euler-Lagrange equation of the strictly convex energy

    J(u) = h * ( u.A u / 2 + b.u + sum_i Phi(u_i) ),

and reports expose the full energy trace.

Each iteration is one step of a one-level truncated nonsmooth Newton
multigrid (TNNMG) scheme (Graeser & Kornhuber, J. Comput. Math. 27 (2009);
Graeser & Sander, IMA J. Numer. Anal. 39 (2019)):

1. the system's smoother: exact coordinate-descent sweeps;
2. one truncated Newton step from the smoothed iterate, on the free set
   only: nodes at the degenerate scale are frozen, and one-phase mode
   additionally respects the active set;
3. an Armijo line search on that step, which also asks that the
   recomputed J not rise; if no backtrack passes, the Newton update is
   dropped.

The smoother descends on a strictly convex energy, so every iteration
descends and the scheme needs no fallback.  The sweeps are what finish the
job near degenerate nodes, where f has unbounded slope and Newton steps
stall or chatter; the Newton step carries the smooth part.  The smoother's
result is accepted without an energy comparison: J cannot rise in exact
arithmetic, but the J recomputed after a sweep can exceed the previous value
by round-off (+2.7e-19 at |J| = 1.9e-4 has been seen).  The trace is
therefore non-increasing up to round-off; the tests allow a rise of
1e-12 * max(1, max|J|).  When one-phase data is nonnegative the iterate is
clipped at zero after every step; zero is then a subsolution and truncation
never increases the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from . import kernels
from .fraclap import FracLapOperator
from .grid import Grid, GridFunction, TailModel, dead_core_interval

__all__ = [
    "ReactionSpec",
    "SolverConfig",
    "SolveReport",
    "reaction_value",
    "reaction_energy",
    "energy",
    "energy_local",
    "solve",
    "solve_local",
    "local_operator",
]

GAMMA_MAX = 1.0 / 3.0
_EPS_CAP = 1e-6
_ARMIJO = 1e-4


@dataclass(frozen=True)
class ReactionSpec:
    """Absorption term parameters.

    gamma must lie strictly inside (0, 1/3); mode is "two_phase" or
    "one_phase".  eps is the degenerate-node scale below which unknowns are
    pinned out of Newton steps; 0 selects 1e-8 times the data amplitude.
    """

    gamma: float
    mode: str = "two_phase"
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < GAMMA_MAX):
            raise ValueError("gamma must lie strictly in (0, 1/3)")
        if self.mode not in ("two_phase", "one_phase"):
            raise ValueError(f"unknown reaction mode {self.mode!r}")
        if not (0.0 <= self.eps <= _EPS_CAP):
            raise ValueError(f"eps must lie in [0, {_EPS_CAP}]")

    @property
    def one_phase(self) -> bool:
        return self.mode == "one_phase"


@dataclass(frozen=True)
class SolverConfig:
    residual_tol: float = 1e-9
    max_iter: int = 1200

    def __post_init__(self) -> None:
        if self.residual_tol < 1e-12:
            raise ValueError("residual_tol below 1e-12 is not resolvable")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveReport:
    """Outcome of a solve: solution, convergence data, and traces.

    iterations counts smoother + Newton pairs.  energy_trace is
    non-increasing up to round-off: a smoother pass can raise the
    recomputed energy by a few ulps of max|J| (see the module docstring);
    residual_inf is the sup norm of A u + b + f(u) at the reported iterate.
    free_boundary is the interior edge of the detected dead core for
    one-phase runs (None when there is no core or it fills the interior).
    """

    solution: GridFunction
    converged: bool
    iterations: int
    residual_inf: float
    energy: float
    residual_trace: np.ndarray
    energy_trace: np.ndarray
    s: float
    gamma: float
    mode: str
    free_boundary: float | None = None

    def write_sidecar(self, path: str, extra: dict | None = None) -> None:
        """Key=value metadata lines next to a solution CSV."""
        items = [
            ("s", f"{self.s:.17g}"),
            ("gamma", f"{self.gamma:.17g}"),
            ("mode", self.mode),
            ("residual", f"{self.residual_inf:.17g}"),
            ("iterations", str(self.iterations)),
            ("energy", f"{self.energy:.17g}"),
            ("converged", str(self.converged).lower()),
        ]
        if self.free_boundary is not None:
            items.append(("free_boundary", f"{self.free_boundary:.17g}"))
        for key in sorted(extra or {}):
            items.append((key, str((extra or {})[key])))
        with open(path, "w") as fh:
            for key, value in items:
                fh.write(f"{key}={value}\n")


def reaction_value(u: np.ndarray, gamma: float, one_phase: bool) -> np.ndarray:
    """f(u) = u_+^gamma - u_-^gamma, with powers taken as exp(gamma*log)."""
    u = np.asarray(u)
    out = np.zeros_like(u, dtype=float)
    pos = u > 0
    if pos.any():
        out[pos] = np.exp(gamma * np.log(u[pos]))
    if not one_phase:
        neg = u < 0
        if neg.any():
            out[neg] = -np.exp(gamma * np.log(-u[neg]))
    return out


def reaction_energy(u: np.ndarray, gamma: float, one_phase: bool) -> np.ndarray:
    """Primitive Phi with Phi' = f; equals u*f(u)/(1+gamma) nodewise."""
    return u * reaction_value(u, gamma, one_phase) / (1.0 + gamma)


class _DenseSystem:
    def __init__(self, A: np.ndarray):
        self.A = A

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return self.A @ u

    def init_solve(self, b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.A, -b)

    def newton_delta(self, r, free, dd):
        delta = np.zeros_like(r)
        F = np.where(free)[0]
        if F.size:
            AF = self.A[np.ix_(F, F)] + np.diag(dd[F])
            delta[F] = np.linalg.solve(AF, -r[F])
        return delta

    def polish(self, b, u, gamma, one_phase):
        """Three natural-order sweeps, in place.

        With one sweep per iteration the ramp at h=2^-9 (acceptance 04)
        took 401 iterations: from about iteration 20 on, the predicted
        Newton decrease h*r.delta (2.6e-18, then smaller) is at or below one
        ulp of J (1.7e-18 at J = -0.0124), so the energy comparison cannot
        see the step and only the smoother makes progress.  One, two, three
        and four sweeps took 401, 36, 26 and 22 iterations and 23, 2.4, 2.0
        and 1.8 s (single runs on 2 cores, one BLAS thread).
        """
        return kernels.gs_polish_dense(self.A, b, u, gamma, one_phase, sweeps=3)


class _TridiagSystem:
    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        self.dl, self.d, self.du = dl, d, du

    def matvec(self, u: np.ndarray) -> np.ndarray:
        out = self.d * u
        out[1:] += self.dl * u[:-1]
        out[:-1] += self.du * u[1:]
        return out

    def _banded_solve(self, diag, sup, rhs):
        ab = np.zeros((2, diag.size))
        ab[0, 1:] = sup
        ab[1, :] = diag
        return solveh_banded(ab, rhs)

    def init_solve(self, b: np.ndarray) -> np.ndarray:
        return self._banded_solve(self.d, self.du, -b)

    def newton_delta(self, r, free, dd):
        # Pinned nodes become identity rows; couplings through them vanish,
        # which reproduces the reduced system exactly for a tridiagonal A.
        diag = np.where(free, self.d + dd, 1.0)
        sup = np.where(free[:-1] & free[1:], self.du, 0.0)
        rhs = np.where(free, -r, 0.0)
        return self._banded_solve(diag, sup, rhs)

    def polish(self, b, u, gamma, one_phase):
        """One red-black sweep, in place."""
        return kernels.gs_polish_tridiag(
            self.dl, self.d, self.du, b, u, gamma, one_phase, sweeps=1
        )


def _energy(system, b, h, u, gamma, one_phase):
    return h * (
        0.5 * u @ system.matvec(u) + b @ u + reaction_energy(u, gamma, one_phase).sum()
    )


def _iterate(system, b, h, reaction: ReactionSpec, config: SolverConfig, data_sup: float, clip: bool):
    """Smoother + truncated Newton iteration; returns (u, iters, traces, converged)."""
    gamma, one_phase = reaction.gamma, reaction.one_phase
    tol = config.residual_tol
    eps = reaction.eps if reaction.eps > 0 else max(1e-8 * data_sup, 1e-300)

    def resid(v):
        return system.matvec(v) + b + reaction_value(v, gamma, one_phase)

    def clipped(v):
        return np.maximum(v, 0.0) if clip else v

    u = clipped(system.init_solve(b))
    r_trace: list[float] = []
    j_trace: list[float] = []
    Ju = _energy(system, b, h, u, gamma, one_phase)
    for it in range(config.max_iter):
        r = resid(u)
        rn = float(np.abs(r).max())
        r_trace.append(rn)
        j_trace.append(Ju)
        if rn <= tol:
            return u, it, np.array(r_trace), np.array(j_trace), True

        u = clipped(system.polish(b, u, gamma, one_phase))
        Ju = _energy(system, b, h, u, gamma, one_phase)

        r = resid(u)
        free = np.abs(u) >= eps
        dd = gamma * np.maximum(np.abs(u), eps) ** (gamma - 1.0)
        if one_phase:
            free &= (u > 0) | (r < 0)
            dd = dd * (u > 0)
        delta = system.newton_delta(r, free, dd)
        gd = h * float(r @ delta)
        t = 1.0
        for _ in range(40):
            un = clipped(u + t * delta)
            Jn = _energy(system, b, h, un, gamma, one_phase)
            if Jn <= Ju + _ARMIJO * t * gd and Jn <= Ju:
                u, Ju = un, Jn
                break
            t *= 0.5

    r = resid(u)
    rn = float(np.abs(r).max())
    r_trace.append(rn)
    j_trace.append(Ju)
    return u, config.max_iter, np.array(r_trace), np.array(j_trace), rn <= tol


def _tail_min_nonnegative(tail: TailModel) -> bool:
    if tail.kind == "zero":
        return True
    return tail.c >= 0.0


def _beta(s: float, gamma: float) -> float:
    return 2.0 * s / (1.0 - gamma)


def _find_free_boundary(x_int: np.ndarray, u: np.ndarray, threshold: float, a: float, h: float):
    """Interior edge of the largest |u| <= threshold run, or None."""
    core = dead_core_interval(x_int, u, threshold)
    if core is None:
        return None
    lo, hi = core
    if hi < a - 1.5 * h:
        return hi
    if lo > -a + 1.5 * h:
        return lo
    return None


def energy(op: FracLapOperator, g: GridFunction, u_interior: np.ndarray, reaction: ReactionSpec) -> float:
    """Discrete energy J at interior values u against exterior data g."""
    system = _DenseSystem(op.A)
    b = op.load_vector(g)
    return float(_energy(system, b, op.grid.h, u_interior, reaction.gamma, reaction.one_phase))


def solve(
    op: FracLapOperator,
    g: GridFunction,
    reaction: ReactionSpec,
    config: SolverConfig | None = None,
) -> SolveReport:
    """Solve the nonlocal dead-core equation with exterior data g."""
    config = config or SolverConfig()
    grid = op.grid
    b = op.load_vector(g)
    data_sup = max(float(np.abs(g.exterior_values).max()), abs(g.tail.c))
    clip = reaction.one_phase and bool(
        (g.exterior_values >= 0).all() and _tail_min_nonnegative(g.tail)
    )
    system = _DenseSystem(op.A)
    u, iters, r_trace, j_trace, ok = _iterate(
        system, b, grid.h, reaction, config, data_sup, clip
    )
    values = g.values.copy()
    values[grid.interior] = u
    fb = None
    if reaction.one_phase:
        threshold = grid.h ** _beta(op.s, reaction.gamma)
        fb = _find_free_boundary(grid.x_interior, u, threshold, grid.a, grid.h)
    return SolveReport(
        solution=GridFunction(grid, values, g.tail),
        converged=bool(ok),
        iterations=iters,
        residual_inf=float(r_trace[-1]),
        energy=float(j_trace[-1]),
        residual_trace=r_trace,
        energy_trace=j_trace,
        s=op.s,
        gamma=reaction.gamma,
        mode=reaction.mode,
        free_boundary=fb,
    )


def local_operator(grid: Grid) -> _TridiagSystem:
    """Second-difference operator -u'' on the interior nodes of ``grid``."""
    m = grid.interior.size
    h = grid.h
    d = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return _TridiagSystem(off, d, off.copy())


def solve_local(
    grid: Grid,
    reaction: ReactionSpec,
    boundary: tuple[float, float],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Solve the local (classical Laplacian) dead-core equation.

    boundary gives the Dirichlet values at -a and +a.  The report's exterior
    values continue the boundary values as plateaus; they do not enter the
    local operator.  The sidecar records s = 1 for local runs.
    """
    config = config or SolverConfig()
    uL, uR = float(boundary[0]), float(boundary[1])
    system = local_operator(grid)
    h = grid.h
    m = grid.interior.size
    b = np.zeros(m)
    b[0] = -uL / h**2
    b[-1] = -uR / h**2
    data_sup = max(abs(uL), abs(uR))
    clip = reaction.one_phase and uL >= 0 and uR >= 0
    u, iters, r_trace, j_trace, ok = _iterate(
        system, b, h, reaction, config, data_sup, clip
    )
    values = np.empty(grid.n)
    values[grid.x < 0] = uL
    values[grid.x >= 0] = uR
    values[grid.interior] = u
    fb = None
    if reaction.one_phase:
        threshold = h ** _beta(1.0, reaction.gamma)
        fb = _find_free_boundary(grid.x_interior, u, threshold, grid.a, h)
    return SolveReport(
        solution=GridFunction(grid, values, TailModel.zero()),
        converged=bool(ok),
        iterations=iters,
        residual_inf=float(r_trace[-1]),
        energy=float(j_trace[-1]),
        residual_trace=r_trace,
        energy_trace=j_trace,
        s=1.0,
        gamma=reaction.gamma,
        mode=reaction.mode,
        free_boundary=fb,
    )


def energy_local(
    grid: Grid, boundary: tuple[float, float], u_interior: np.ndarray, reaction: ReactionSpec
) -> float:
    """Discrete energy of the local problem at interior values u."""
    system = local_operator(grid)
    h = grid.h
    b = np.zeros(grid.interior.size)
    b[0] = -float(boundary[0]) / h**2
    b[-1] = -float(boundary[1]) / h**2
    return float(_energy(system, b, h, u_interior, reaction.gamma, reaction.one_phase))
