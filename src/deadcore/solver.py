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

1. the system's smoother: one exact coordinate-descent sweep, red-black
   (kernels.gs_polish_red_black) on the tridiagonal system and on the dense
   one from _RB_MIN = 127 unknowns up, and in natural order
   (kernels.gs_polish_dense) on the dense one below (the _DenseSystem.polish
   docstring);
2. one truncated Newton step delta from the smoothed iterate, on the free
   set only.  Phi is twice differentiable at every u != 0, so only nodes
   below the roots' snap (|u| < 1e-280, where a sweep puts exact zeros)
   are pinned; in one-phase mode f vanishes for u < 0, so the Newton
   diagonal is zero there, and a nonnegative run clips the step.
   The snap, not u != 0, bounds the Newton diagonal gamma |u|^(gamma - 1)
   by gamma * 1e280: at gamma = 0.01 it is inf at the subnormal 5e-324,
   which a Newton step can produce.  Both systems solve the free-set
   system the same way: pinned nodes become identity rows and columns with
   a zero right-hand side, so their delta is exactly 0.0, and the whole
   symmetric positive definite matrix goes to one solve: a banded Cholesky
   on the tridiagonal system, a dense one (LAPACK dposv) on a dense system
   below _PCG_MIN = 1023 unknowns, and FFT-based preconditioned CG on a
   dense system from there up (the _DenseSystem docstring);
3. a line search on that step, taken only when r.delta < 0: the largest
   t = 2^-k (k < 40) whose energy change dJ(t) is <= 0 (_step).  If no t
   passes, the Newton update is dropped.

The smoother descends on a strictly convex energy, so every iteration
descends and the scheme needs no fallback.  The sweeps are what finish the
job near degenerate nodes, where f has unbounded slope and Newton steps
stall or chatter; the Newton step carries the smooth part.  As in TNNMG, the
smoother descends by construction and only the Newton step needs a line
search.  A natural-order update is an exact coordinate minimization, and a
red-black colour step descends because every assembled operator is an
M-matrix whose same-colour couplings sum to at most 0.246 of its diagonal
(the kernels docstring).  The Newton step moves only by a t with

    dJ(t) / h = t delta.(A u + b) + t^2/2 delta.A delta
                + sum(Phi(u + t delta) - Phi(u))  <=  0,

so J cannot rise in exact arithmetic.  Each change of Phi is formed without
cancellation (_dphi), so dJ keeps its sign where the decrease lies far below
one ulp of J, and round-off does not decide whether t = 1 passes.
The recomputed J can still exceed the previous value by round-off (+2.7e-19
at |J| = 1.9e-4 has been seen; up to 3.3e-15 relative on the nested ramp
from h = 2^-9 to 2^-11).  The trace is therefore non-increasing up to
round-off; the tests allow a rise of 1e-12 * max(1, max|J|).  When one-phase
data is nonnegative the iterate is clipped at zero after every step; zero is
then a subsolution and truncation never increases the energy, so dJ is
taken at the unclipped u + t delta.

Each point is evaluated once: one matvec and one f(u) give its residual, its
energy and Phi(u) = u f(u) / (1 + gamma), and the iterate carries them into
the next iteration.  An iteration evaluates the smoothed iterate and the
point its Newton step reaches; the line search needs one matvec A delta and
no evaluation.  The local h = 2^-10 solve makes 27 evaluations in 13
iterations and the nonlocal ramp at h = 2^-9 from the linear start 27 in
13 (35 over the three levels of its nested solve, below).

A nonlocal solve starts from its own coarse-grid solution (nested iteration:
Brandt, Math. Comp. 31 (1977); Hackbusch, Multi-Grid Methods and
Applications (1985)) when the grid nests, that is a/h and R/h are even, and
the grid GridSpec(2h, a, R) keeps at least _NEST_MIN = 255 interior unknowns,
so N >= 511.  It solves the same data there (every other node, the same
tail, reaction and config), itself nested by the same rule, and starts from
the linear interpolant of that solution at the interior nodes.  Any other
nonlocal solve, and every local one, starts from the linear solve.  On the
ramp of acceptance 04 (R = 8, s = 0.95, amplitude 15.71; medians of 7 runs,
one BLAS thread, measured with the natural-order dense sweep), by the
coarsest level:

    coarsest level      none            511            255            127
    ramp at h = 2^-9    0.444 s, 17 it  0.196 s, 4 it  0.169 s, 4 it  0.210 s, 6 it

With 255 the levels are 255 -> 511 -> 1023.  The nested solutions differ
from the cold ones by at most 1.3e-14 at h = 2^-9 and 5.8e-14 at
h = 2^-10.  The local tridiagonal iteration is cheap, and a
ladder gave it no gain (h = 2^-10: 15.5 ms cold, 13.9 to 17.0 ms nested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dposv

from . import kernels
from .fraclap import FracLapOperator, assemble
from .grid import Grid, GridFunction, GridSpec, TailModel, dead_core_interval, make_grid

__all__ = [
    "REACTION_MODES",
    "ReactionSpec",
    "SolverConfig",
    "check_finite",
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
REACTION_MODES = ("two_phase", "one_phase")
# Fewest unknowns of a coarse grid a nonlocal solve starts from; the ramp at
# h = 2^-9 is fastest with its coarsest level at 255 (the module docstring's
# table).  Nesting the 63-unknown campaign down to 31 saved 20% of the node
# updates but needed 22% more sweeps, and gained nothing.
_NEST_MIN = 255
# Fewest unknowns whose linear solves run PCG instead of dposv, and PCG's
# relative residual and iteration cap (the _DenseSystem docstring).
_PCG_MIN = 1023
_PCG_RTOL = 1e-10
_PCG_MAXITER = 200
# Fewest unknowns whose dense sweep runs red-black on kernels.roots (the
# _DenseSystem.polish docstring).
_RB_MIN = 127


@dataclass(frozen=True)
class ReactionSpec:
    """Absorption term parameters.

    gamma must lie strictly inside (0, 1/3); mode is "two_phase" or
    "one_phase".
    """

    gamma: float
    mode: str = "two_phase"

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < GAMMA_MAX):
            raise ValueError("gamma must lie strictly in (0, 1/3)")
        if self.mode not in REACTION_MODES:
            raise ValueError(f"unknown reaction mode {self.mode!r}")

    @property
    def one_phase(self) -> bool:
        return self.mode == "one_phase"


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of a solve.

    A solve stops, converged, at the first iterate u whose residual sup norm
    is at most max(residual_tol, ulp(max|u|) * max_i sum_j |A_ij|).  The
    second term is the round-off of A u itself: with large data it exceeds
    residual_tol (3.7e-9 for |u| = 100 at h = 2^-8 locally), and an
    absolute stop could never be met.  It is 1.2e-10 on the local solve at
    h = 2^-10 and 3.7e-12 on the nonlocal ramp at h = 2^-9 (acceptance 04),
    where residual_tol governs.  max_iter bounds the iterations; a solve
    that reaches it reports converged = False unless its last iterate meets
    the same rule.  A solve also stops, with converged = False, at the first
    residual or energy that is not finite.
    """

    residual_tol: float = 1e-9
    max_iter: int = 1200

    def __post_init__(self) -> None:
        if not self.residual_tol >= 1e-12:  # NaN fails too
            raise ValueError("residual_tol below 1e-12 is not resolvable")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveReport:
    """Outcome of a solve: solution, convergence data, and traces.

    iterations counts smoother + Newton pairs on the finest grid only; the
    coarse solves of a nested start (see the module docstring) are not
    counted, and the traces cover the finest grid too.  energy_trace is
    non-increasing up to round-off: a smoother pass or a Newton step can
    raise the recomputed energy by a few ulps of max|J| (see the module
    docstring); residual_inf is the sup norm of A u + b + f(u) at the
    reported iterate.
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


def check_finite(*values) -> None:
    """Raise ValueError unless every value (scalar or array) is finite.

    A solve checks its data with it before it iterates: NaN or inf data
    never meets the stopping rule, and would run all max_iter iterations.
    """
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("data must be finite")


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


def _phi(u, gamma, one_phase):
    """Phi(u) as |u|^(1+gamma) / (1+gamma), even in two-phase mode bit for bit.

    It does not call reaction_value, whose calls are counted as the
    solver's evaluations.
    """
    return (np.maximum(u, 0.0) if one_phase else np.abs(u)) ** (1.0 + gamma) / (1.0 + gamma)


class _DenseSystem:
    """The nonlocal system: A is symmetric positive definite Toeplitz.

    It is stored as its first row r, through W = [r[N-1], ..., r[1], r[0],
    r[1], ..., r[N-1]].  The matvec is np.convolve(W, u, "valid"): 170 us
    at N = 1023 and 550 us at N = 2047, against 370 us and 1.5 ms for the
    dense A @ u, and 2.5 us at N = 63, against 1.3 us (best of seven runs,
    one BLAS thread).  Its relative error against a long-double product is
    6.5e-16 at N = 1023, against 1.3e-15 for A @ u.

    ``A`` is the zero-copy N x N view of W's windows, whose entries are the
    dense A's bits: A[k, i] = W[N - 1 - i + k], so column i is the
    contiguous run W[N-1-i : 2N-1-i], which the dense sweep and the
    Fortran-order copy read in one pass.  numpy has no BLAS path for a
    view with a negative stride: A @ u on it takes 0.96 ms at N = 1023,
    against 0.13 ms for the matvec, so the sweep opens on the matvec.

    The free-set Newton system, and the linear solve of the start, are
    solved as in _TridiagSystem: pinned nodes become identity rows and
    columns with a zero right-hand side, so their entries are exactly +0.0.
    Below _PCG_MIN = 1023 unknowns the whole N x N matrix goes to one dense
    Cholesky solve (LAPACK dposv) on a Fortran-order copy of the view, with
    no gather; the factorisation costs N^3/3 whatever the free set.

    From _PCG_MIN up no N x N array is built: the system is solved by
    preconditioned conjugate gradients (Strang, Stud. Appl. Math. 74 (1986);
    Chan & Ng, SIAM Review 38 (1996)).  The matvec multiplies by A through
    numpy.fft on the 2N circulant that embeds it.  The preconditioner is
    split by node: free nodes whose Newton diagonal dd exceeds A_ii get
    1 / (A_ii + dd) (the 1 to 3 nodes next to a branching point, where dd
    reaches 1e48 A_ii), and the other free nodes get the inverse of A's
    Strang circulant, whose eigenvalues are the rfft of the wrapped row;
    on pinned nodes residual and direction stay +0.0.  PCG stops at
    |res|_2 <= 1e-10 |rhs|_2; at its cap of 200 iterations it returns its
    last iterate, which is still a descent direction (rhs.x = x.H x > 0).

    On the nested ramp (R = 8, s = 0.95, amplitude 15.71) PCG takes 22 to
    28 iterations at every N from 1023 to 8191; without the diagonal split
    it took 30 to 163 below N = 8191 and reached the cap there.  One linear
    solve of that ramp's takes, dposv against PCG, 0.72 against 2.0 ms at
    N = 255, 3.6 against 4.4 ms at N = 511, 22 against 5.1 ms at N = 1023
    and 138 against 12 ms at N = 2047 (medians, one BLAS thread); hence
    _PCG_MIN.  The FFT lengths 2N and N are slow where N has a large prime
    factor: at N = 8191, a prime, one iteration costs about 6 ms, against
    about 1 ms at the padded lengths 16384 and 8192.

    A matrix that is not positive definite raises np.linalg.LinAlgError
    instead of returning a wrong solve: dposv reports a failed factor, and
    PCG refuses a Strang circulant eigenvalue <= 0 or a direction with
    p.Hp <= 0.
    """

    def __init__(self, row: np.ndarray):
        self.row = row
        self.W = np.concatenate((row[:0:-1], row))
        self.A = sliding_window_view(self.W, row.size)[:, ::-1]
        # row i sums |r| over lags 0, 1..i and 1..N-1-i: the middle row is largest
        c = np.concatenate(([0.0], np.cumsum(np.abs(row[1:]))))
        self.abs_row_sum = float(abs(row[0]) + (c + c[::-1]).max())
        n = row.size
        if n >= _PCG_MIN:
            # eigenvalues of the 2N circulant that embeds A and of A's Strang
            # circulant: real, as both circulants are symmetric
            self._embed_eig = np.fft.rfft(np.concatenate((row, [0.0], row[:0:-1]))).real
            k = np.arange(n)
            self._strang_eig = np.fft.rfft(row[np.minimum(k, n - k)]).real

    def matvec(self, u: np.ndarray) -> np.ndarray:
        return np.convolve(self.W, u, "valid")

    def init_solve(self, b: np.ndarray) -> np.ndarray:
        n = b.size
        return self._solve(np.ones(n, dtype=bool), np.zeros(n), -b)

    def newton_delta(self, r, free, dd):
        return self._solve(free, dd, -r)

    def _solve(self, free, dd, rhs):
        """(A + diag(dd)) x = rhs on the free nodes; x is +0.0 on the others."""
        if self.row.size >= _PCG_MIN:
            return self._pcg(free, dd, rhs)
        H = self.A.copy(order="F")
        pinned = np.flatnonzero(~free)
        H[pinned, :] = 0.0
        H[:, pinned] = 0.0
        np.fill_diagonal(H, np.where(free, self.row[0] + dd, 1.0))
        _, x, info = dposv(H, np.where(free, rhs, 0.0), lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dposv info = {info}: not positive definite")
        return x

    def _pcg(self, free, dd, rhs):
        """_solve by preconditioned CG with FFT matvecs (see the class docstring)."""
        if not self._strang_eig.min() > 0.0:
            raise np.linalg.LinAlgError("Strang circulant not positive definite")
        n = self.row.size
        d = np.where(free, dd, 0.0)
        stiff = free & (d > self.row[0])
        soft = free & ~stiff
        # 1 / H_ii on stiff nodes; pinned ones keep residual and direction +0.0
        diag_inv = np.where(stiff, 1.0 / (self.row[0] + d), 0.0)

        def H(p):
            Ap = np.fft.irfft(self._embed_eig * np.fft.rfft(p, 2 * n), 2 * n)[:n]
            return np.where(free, Ap + d * p, 0.0)

        def precondition(v):
            z = np.fft.irfft(np.fft.rfft(np.where(soft, v, 0.0)) / self._strang_eig, n)
            return np.where(soft, z, diag_inv * v)

        x = np.zeros(n)
        res = np.where(free, rhs, 0.0)
        stop = _PCG_RTOL * np.sqrt(res @ res)
        if stop == 0.0:
            return x
        z = precondition(res)
        p, rz = z, res @ z
        for _ in range(_PCG_MAXITER):
            q = H(p)
            pq = p @ q
            if not pq > 0.0:
                raise np.linalg.LinAlgError("p.Hp <= 0: not positive definite")
            alpha = rz / pq
            x += alpha * p
            res -= alpha * q
            if np.sqrt(res @ res) <= stop:
                break
            z = precondition(res)
            rz, rz_old = res @ z, rz
            p = z + (rz / rz_old) * p
        return x

    def polish(self, b, u, gamma, one_phase):
        """One sweep, in place: natural order below _RB_MIN unknowns, red-black from there up.

        Below _RB_MIN the sweep is kernels.gs_polish_dense, one exact
        coordinate minimization per node in a Python loop.  From _RB_MIN up
        it is kernels.gs_polish_red_black, as on the tridiagonal system:
        each colour (even indices, then odd) moves to the exact roots of all
        its nodes at once (kernels.roots), from the current A u, and A u
        moves by one matvec.  A colour takes the roots' bits, so snapped
        zeros stay +0.0.  Every operation commutes with negation and the
        root is odd, so data -g still gives exactly -u.  Nodes of one colour
        are coupled through the even lags of A, so a colour step is not a
        block minimum, but it descends with no line search: A is an M-matrix
        whose same-colour couplings sum to at most 0.246 of A_ii (the
        kernels docstring).

        Why _RB_MIN = 127: one-level solves (no nested start), sequential
        against red-black, medians of 7 alternating runs, one BLAS thread.
        Campaign-type is comparison_campaign's random ordered pairs (s =
        0.75, R = 4, seed 1001), ramp-type acceptance 04's ramp (s = 0.95,
        R = 8, amplitude 15.71) from the linear start:

            N                        63          127         255         511
            campaign-type solves     40          40          20          8
              time (ms)              321 / 363   661 / 517   943 / 578   1108 / 645
              iterations             316 / 330   359 / 387   235 / 262   112 / 122
            ramp-type time (ms)      10.6 / 7.1  34.5 / 18.8 43.4 / 16.8 189 / 69
              iterations             11 / 7      13 / 11     13 / 10     13 / 12

        The 50-pair campaigns at N = 63 (seeds 1001 to 1003) took 0.85,
        0.82 and 0.88 s sequential against 0.99, 1.28 and 0.93 s red-black
        (medians of 4).  At N = 63 red-black needs more sweeps and its fixed
        numpy cost per colour outweighs the Python loop it saves; from 127 up
        it wins on both kinds of solve.  Without a line search in the colour
        step, the 50-pair campaign at N = 63 (seed 1001) takes 0.45 s
        sequential against 0.62 s red-black (medians of 9 alternating runs
        in one process).

        One sweep per iteration: with 1 and 2 red-black sweeps the nested
        ramp took 0.062 and 0.063 s at h = 2^-9 and 0.135 and 0.149 s at
        2^-10, and 40 campaign-type solves at N = 127 took 0.46 and 0.64 s
        (387 and 323 iterations); medians of 5.  With 1, 2 and 3
        natural-order sweeps the 100-pair comparison campaign at h=2^-6
        (seed 11) took 1810, 1557 and 1419 iterations over its 200 solves in
        2.4, 4.2 and 5.2 s (single runs on 2 cores, one BLAS thread).
        """
        Au = self.matvec(u)
        if u.size < _RB_MIN:
            return kernels.gs_polish_dense(self.A, b, u, Au, gamma, one_phase, sweeps=1)
        return kernels.gs_polish_red_black(self.matvec, self.row[0], b, u, Au, gamma, one_phase)


class _TridiagSystem:
    def __init__(self, dl: np.ndarray, d: np.ndarray, du: np.ndarray):
        self.dl, self.d, self.du = dl, d, du
        sums = np.abs(d)
        sums[1:] += np.abs(dl)
        sums[:-1] += np.abs(du)
        self.abs_row_sum = float(sums.max())

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
        return kernels.gs_polish_red_black(self.matvec, self.d, b, u, self.matvec(u), gamma, one_phase)


def _evaluate(system, b, h, v, gamma, one_phase):
    """Residual A v + b + f(v), energy J(v) and f(v) from one matvec and one f(v)."""
    Av = system.matvec(v)
    f = reaction_value(v, gamma, one_phase)
    J = h * (0.5 * v @ Av + b @ v + (v * f / (1.0 + gamma)).sum())
    return Av + b + f, J, f


def _dphi(u, step, phi, gamma, one_phase):
    """Phi(u + step) - Phi(u) nodewise, given phi = Phi(u), without cancellation.

    Where |step| < |u|, u + step keeps u's sign and the change is
    phi * expm1((1 + gamma) log1p(step / u)), exact to a few ulps of itself
    however small.  Elsewhere it is the plain difference: the identity needs
    u's sign kept, and a step that at least doubles |u| cancels by at most a
    factor of about 2 (there (1 + step / u)^(1 + gamma) could overflow).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x = step / u
        out = phi * np.expm1((1.0 + gamma) * np.log1p(x))
    far = ~(np.abs(x) < 1.0)
    out[far] = _phi(u[far] + step[far], gamma, one_phase) - phi[far]
    return out


def _step(u, delta, phi, slope, curv, gamma, one_phase):
    """The Newton step's line search.

    Returns the largest t = 2^-k (k < 40) with

        dJ(t) = t slope + t^2 curv + sum(Phi(u + t delta) - Phi(u))  <=  0,

    where slope = delta.(A u + b), curv = delta.A delta / 2 and phi = Phi(u)
    over u's nodes, or 0.0 if no t passes.  h dJ(t) is J(u + t delta) -
    J(u), and every term is formed as a difference (_dphi), so its sign is
    not lost against |J| or Phi(u) even where the decrease lies many orders
    of magnitude below one ulp of J.
    """
    t = 1.0
    for _ in range(40):
        if t * slope + t * t * curv + _dphi(u, t * delta, phi, gamma, one_phase).sum() <= 0.0:
            return t
        t *= 0.5
    return 0.0


def _iterate(system, b, h, reaction: ReactionSpec, config: SolverConfig, clip: bool, start=None):
    """Smoother + truncated Newton iteration; returns (u, iters, traces, converged).

    The iteration starts from ``start`` (None: the linear solve), clipped.
    It stops, not converged, at the first residual or energy that is not
    finite: data whose products overflow would otherwise pass the stopping
    rule's round-off floor.
    u travels with its residual r, energy Ju and f(u) (see the module
    docstring).
    """
    gamma, one_phase = reaction.gamma, reaction.one_phase

    def clipped(v):
        return np.maximum(v, 0.0) if clip else v

    u = clipped(system.init_solve(b) if start is None else start)
    r, Ju, f = _evaluate(system, b, h, u, gamma, one_phase)
    r_trace: list[float] = []
    j_trace: list[float] = []
    for it in range(config.max_iter + 1):
        rn = float(np.abs(r).max())
        r_trace.append(rn)
        j_trace.append(Ju)
        finite = np.isfinite(rn) and np.isfinite(Ju)
        ok = finite and rn <= max(config.residual_tol, np.spacing(np.abs(u).max()) * system.abs_row_sum)
        if ok or not finite or it == config.max_iter:
            return u, it, np.array(r_trace), np.array(j_trace), ok

        u = clipped(system.polish(b, u, gamma, one_phase))
        r, Ju, f = _evaluate(system, b, h, u, gamma, one_phase)
        free = np.abs(u) >= kernels._SNAP
        dd = np.zeros_like(u)
        dd[free] = gamma * np.abs(u[free]) ** (gamma - 1.0)
        if one_phase:
            dd = dd * (u > 0)
        delta = system.newton_delta(r, free, dd)
        if not r @ delta < 0.0:
            continue
        t = _step(u, delta, u * f / (1.0 + gamma), delta @ (r - f),
                  0.5 * (delta @ system.matvec(delta)), gamma, one_phase)
        if t > 0.0:
            u = clipped(u + t * delta)
            r, Ju, f = _evaluate(system, b, h, u, gamma, one_phase)


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


def _solve(system, b, grid: Grid, values, tail, s, reaction, config, clip, start=None) -> SolveReport:
    """Iterate on ``system`` from ``start``, write u into ``values`` and report.

    s sets the core threshold.
    """
    u, iters, r_trace, j_trace, ok = _iterate(
        system, b, grid.h, reaction, config or SolverConfig(), clip, start
    )
    values[grid.interior] = u
    fb = None
    if reaction.one_phase:
        threshold = grid.h ** _beta(s, reaction.gamma)
        fb = _find_free_boundary(grid.x_interior, u, threshold, grid.a, grid.h)
    return SolveReport(
        solution=GridFunction(grid, values, tail),
        converged=bool(ok),
        iterations=iters,
        residual_inf=float(r_trace[-1]),
        energy=float(j_trace[-1]),
        residual_trace=r_trace,
        energy_trace=j_trace,
        s=s,
        gamma=reaction.gamma,
        mode=reaction.mode,
        free_boundary=fb,
    )


def energy(op: FracLapOperator, g: GridFunction, u_interior: np.ndarray, reaction: ReactionSpec) -> float:
    """Discrete energy J at interior values u against exterior data g."""
    b = op.load_vector(g)
    J = _evaluate(_DenseSystem(op.row), b, op.grid.h, u_interior, reaction.gamma, reaction.one_phase)[1]
    return float(J)


def solve(
    op: FracLapOperator,
    g: GridFunction,
    reaction: ReactionSpec,
    config: SolverConfig | None = None,
) -> SolveReport:
    """Solve the nonlocal dead-core equation with exterior data g.

    On a grid that nests (see the module docstring) the solve starts from
    its own solution on the grid of spacing 2h.  Non-finite values of g or
    its tail raise ValueError (check_finite).
    """
    check_finite(g.values, g.tail.c, g.tail.p)
    return _solve_nested(op, g, reaction, config)


def _coarse_spec(spec: GridSpec) -> GridSpec | None:
    """GridSpec(2h, a, R) when it nests and keeps _NEST_MIN unknowns, else None."""
    na, nR = round(spec.a / spec.h), round(spec.R / spec.h)
    if na % 2 or nR % 2 or na - 1 < _NEST_MIN:
        return None
    return GridSpec(2 * spec.h, spec.a, spec.R)


def _solve_nested(op: FracLapOperator, g: GridFunction, reaction, config) -> SolveReport:
    """solve without the data check: the same data on the coarse grid first, if any."""
    start = None
    coarse = _coarse_spec(op.grid.spec)
    if coarse is not None:
        grid = make_grid(coarse)
        rep = _solve_nested(
            assemble(grid, op.s, op.corrected), GridFunction(grid, g.values[::2], g.tail),
            reaction, config,
        )
        start = np.interp(op.grid.x_interior, grid.x, rep.solution.values)
    return _solve_nonlocal(op, g, reaction, config, start)


def _solve_nonlocal(op: FracLapOperator, g: GridFunction, reaction, config, start=None) -> SolveReport:
    """One nonlocal solve from ``start`` (None: the linear solve), on op's grid only."""
    # a zero tail carries c = 0
    clip = reaction.one_phase and bool((g.exterior_values >= 0).all() and g.tail.c >= 0.0)
    return _solve(
        _DenseSystem(op.row), op.load_vector(g), op.grid, g.values.copy(), g.tail,
        op.s, reaction, config, clip, start,
    )


def local_operator(grid: Grid) -> _TridiagSystem:
    """Second-difference operator -u'' on the interior nodes of ``grid``.

    Raises ValueError unless its diagonal 2/h^2 is a finite double, the
    local operator's scale rule (fraclap.check_order has the nonlocal one).
    """
    m = grid.interior.size
    h = grid.h
    if not h * h > 2.0 / np.finfo(float).max:
        raise ValueError(f"h = {h:.17g} is too small for the local operator: h^-2 overflows")
    d = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    return _TridiagSystem(off, d, off.copy())


def _local_load(grid: Grid, uL: float, uR: float) -> np.ndarray:
    """The Dirichlet values' share of A u + b: -u_L/h^2 and -u_R/h^2 at the end rows."""
    b = np.zeros(grid.interior.size)
    b[0] = -uL / grid.h**2
    b[-1] = -uR / grid.h**2
    return b


def solve_local(
    grid: Grid,
    reaction: ReactionSpec,
    boundary: tuple[float, float],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Solve the local (classical Laplacian) dead-core equation.

    boundary gives the Dirichlet values at -a and +a.  The report's exterior
    values continue the boundary values as plateaus; they do not enter the
    local operator.  The sidecar records s = 1 for local runs.  Non-finite
    boundary values raise ValueError (check_finite).
    """
    uL, uR = float(boundary[0]), float(boundary[1])
    check_finite(uL, uR)
    values = np.where(grid.x < 0, uL, uR)
    clip = reaction.one_phase and uL >= 0 and uR >= 0
    return _solve(
        local_operator(grid), _local_load(grid, uL, uR), grid, values, TailModel.zero(),
        1.0, reaction, config, clip,
    )


def energy_local(
    grid: Grid, boundary: tuple[float, float], u_interior: np.ndarray, reaction: ReactionSpec
) -> float:
    """Discrete energy of the local problem at interior values u."""
    b = _local_load(grid, float(boundary[0]), float(boundary[1]))
    J = _evaluate(local_operator(grid), b, grid.h, u_interior, reaction.gamma, reaction.one_phase)[1]
    return float(J)
