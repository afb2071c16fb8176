"""Solvers for the discrete two-phase dead-core equation.

The interior unknowns satisfy A u + b(g) + f(u) = 0 where A is either the
nonlocal operator from :mod:`deadcore.fraclap` or the local second
difference, b(g) carries the exterior data, and f(u) = u_+^gamma - u_-^gamma
is the absorption term (one-phase mode drops the negative branch).  This is
the Euler-Lagrange equation of the strictly convex energy

    J(u) = h * ( u.A u / 2 + b.u + sum_i Phi(u_i) ),

J is formed in one place, the evaluation of an iterate (_evaluate), and a
SolveReport carries its last value and its full trace.  The module only
computes and writes no file; the command line (deadcore.cli) turns a
SolveReport into its output files.

Each iteration is one step of a one-level truncated nonsmooth Newton
multigrid (TNNMG) scheme (Graeser & Kornhuber, J. Comput. Math. 27 (2009);
Graeser & Sander, IMA J. Numer. Anal. 39 (2019)).  It needs four things of
a system: its matvec, its diagonal, its largest absolute row sum (the
stopping rule's round-off floor) and solve(free, dd, rhs), which solves
(A + diag(dd)) x = rhs on the free nodes and returns +0.0 on the others.

1. the smoother: one exact coordinate-descent sweep in red-black order
   (kernels.gs_polish_red_black), on either system and at every size (the
   _iterate docstring);
2. one truncated Newton step delta from the smoothed iterate, on the free
   set only.  Phi is twice differentiable at every u != 0, so only nodes
   below the roots' snap (|u| < 1e-280, where a sweep puts exact zeros)
   are pinned; in one-phase mode f vanishes for u < 0, so the Newton
   diagonal is zero there, and a nonnegative run clips the step.
   The snap, not u != 0, bounds the Newton diagonal gamma |u|^(gamma - 1)
   by gamma * 1e280: at gamma = 0.01 it is inf at the subnormal 5e-324,
   which a Newton step can produce.  The step is solve(free, dd, -r), and
   the linear start is solve(every node, 0, -b).  Both systems solve the
   same way: pinned nodes become identity rows and columns with a zero
   right-hand side, so their delta is exactly 0.0, and the whole symmetric
   positive definite matrix goes to one solve: a banded Cholesky on the
   tridiagonal system, a dense one (LAPACK dposv) on a dense system below
   _PCG_MIN = 511 unknowns, and preconditioned CG with power-of-two FFTs on
   a dense system from there up (the _DenseSystem docstring);
3. a line search on that step, taken only when r.delta < 0: the largest
   t = 2^-k (k < 40) whose energy change dJ(t) is <= 0 (_step).  If no t
   passes, the Newton update is dropped.

The smoother descends on a strictly convex energy, so every iteration
descends and the scheme needs no fallback.  The sweeps are what finish the
job near degenerate nodes, where f has unbounded slope and Newton steps
stall or chatter; the Newton step carries the smooth part.  As in TNNMG, the
smoother descends by construction and only the Newton step needs a line
search.  A red-black colour step is an exact block minimization on the
tridiagonal system, and on the dense one it descends because every
assembled operator is an M-matrix whose same-colour couplings sum to at
most 0.246 of its diagonal (the kernels docstring).  The Newton step moves
only by a t with

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
energy, Phi(u) = u f(u) / (1 + gamma) and A u, and the iterate carries them
into the next iteration, where the sweep opens on that A u.  An iteration
evaluates the smoothed iterate and the point its Newton step reaches; the
line search needs one matvec A delta and no evaluation.  So an iteration
that takes a Newton step makes four matvecs: one in the sweep, between its
colours, two evaluations and A delta.  The evaluation forms a fresh A u:
the sweep leaves its A u at the first colour's iterate, and a product moved
step by step drifts by round-off, while the stopping rule's round-off floor
holds for a product formed once.  The local
h = 2^-10 solve makes 27 evaluations in 13 iterations and the nonlocal ramp
at h = 2^-9 from the linear start 27 in 13 (35 over the three levels of its
nested solve, below).

Data sets that share an operator are solved as one batch (solve_many): u,
b, r, f and J carry one row or entry per data set, a lane, and every lane
runs the iteration above as if alone (_iterate).  The smoother takes the
roots of one colour of all lanes in one kernels.roots call and multiplies
each lane by A; the evaluations run on all lanes at once, and so does the
Newton step: its descent test, slope, curvature, line search and update act
on every lane's row of one K x N stack.  Only the linear solve runs lane by
lane, on the same per-lane system as a lone solve.  Lanes are not coupled
and every operation acts on a lane's row as on a lone vector (one
convolution, one BLAS dot or one pairwise sum per row), so a lane's
iterates are those of its lone solve, bit for bit.  A lane that meets its
stopping rule leaves the batch.  A lone solve is the batch of one.

A nonlocal solve starts from its own coarse-grid solution (nested iteration:
Brandt, Math. Comp. 31 (1977); Hackbusch, Multi-Grid Methods and
Applications (1985)) when the grid nests, that is a/h and R/h are even, and
the grid GridSpec(2h, a, R) keeps at least _NEST_MIN = 255 interior unknowns,
so N >= 511.  It solves the same data there (every other node, the same
tail, reaction and config), itself nested by the same rule, and starts from
the linear interpolant of that solution at the interior nodes; a batch
nests as a whole.  Any other nonlocal solve, and every local one, starts
from the linear solve.  On the ramp of acceptance 04 (R = 8, s = 0.95,
amplitude 15.71; medians of 21 runs, one BLAS thread), by the coarsest
level:

    coarsest level      none            511            255            127
    ramp at h = 2^-9    0.084 s, 13 it  0.093 s, 3 it  0.065 s, 3 it  0.061 s, 3 it

With 255 the levels are 255 -> 511 -> 1023.  The nested solutions differ
from the cold ones by at most 1.3e-14 at h = 2^-9 and 5.8e-14 at
h = 2^-10.  The local tridiagonal iteration is cheap, and a
ladder gave it no gain (h = 2^-10: 15.5 ms cold, 13.9 to 17.0 ms nested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dposv

from . import kernels
from .fraclap import FracLapOperator, assemble
from .grid import Grid, GridFunction, GridSpec, TailModel, make_grid

__all__ = [
    "REACTION_MODES",
    "ReactionSpec",
    "SolverConfig",
    "check_finite",
    "SolveReport",
    "reaction_value",
    "solve",
    "solve_many",
    "solve_local",
    "local_operator",
    "local_load",
]

GAMMA_MAX = 1.0 / 3.0
REACTION_MODES = ("two_phase", "one_phase")
# Fewest unknowns of a coarse grid a nonlocal solve starts from; on the ramp
# at h = 2^-9, 255 and 127 are within 6% of each other and ahead of no
# nesting (the module docstring's table).  Nesting the 63-unknown campaign
# down to 31 saved 20% of the node updates but needed 22% more sweeps, and
# gained nothing.
_NEST_MIN = 255
# Fewest unknowns whose linear solves run PCG instead of dposv (a Newton
# step of the nested ramp: 0.92 against 1.6 ms at 511, 0.69 against 0.26 ms
# at 255), and PCG's relative residual and iteration cap (the _DenseSystem
# docstring).
_PCG_MIN = 511
_PCG_RTOL = 1e-10
_PCG_MAXITER = 200


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
    reported iterate.  A report holds no measurement of its solution:
    dead cores and free boundaries are measured by deadcore.analysis.
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
    with np.errstate(divide="ignore"):  # log 0 = -inf, and exp(-inf) = 0
        p = np.exp(gamma * np.log(np.abs(u)))
    if one_phase:
        return np.where(u > 0, p, 0.0)
    return np.where(u > 0, p, np.where(u < 0, -p, 0.0))


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

    solve(free, dd, rhs) solves (A + diag(dd)) x = rhs on the free nodes, as
    _TridiagSystem.solve does: pinned nodes become identity rows and columns
    with a zero right-hand side, so their entries are exactly +0.0.  Below
    _PCG_MIN = 511 unknowns the whole N x N matrix goes to one dense
    Cholesky solve (LAPACK dposv), with no gather; the factorisation costs
    N^3/3 whatever the free set.  The system keeps one Fortran-order N x N
    work array, which dposv overwrites with its factor: each solve copies
    the view in and writes the diagonal through a strided view of it; only
    when a node is pinned does it zero rows and columns and mask the
    right-hand side.  So a call allocates no N x N array: 20 us a call at
    N = 63 against 28 us with a fresh copy, and 0.26 ms either way at
    N = 255 (medians, one BLAS thread, a 2-core Xeon VM).  A batch of lanes
    shares it and solves lane by lane: a K x N x N stack of the lanes'
    matrices would need 258 MB at 2000 lanes of 127 unknowns.

    From _PCG_MIN up no N x N array is built: the system is solved by
    preconditioned conjugate gradients (Strang, Stud. Appl. Math. 74 (1986);
    Chan & Ng, SIAM Review 38 (1996)).  Let m be the least power of two
    >= N.  The matvec multiplies by A through numpy.fft on the circulant of
    length 2m that embeds it, whose first column is r, 2m - 2N + 1 zeros
    and r[N-1], ..., r[1].  The preconditioner is split by node: free nodes
    whose Newton diagonal dd exceeds A_ii get 1 / (A_ii + dd) (the 1 to 3
    nodes next to a branching point, where dd reaches 1e48 A_ii), and the
    other free nodes get the inverse of the m x m Strang circulant,
    c_j = r[min(j, m - j)], whose eigenvalues are the rfft of c: their
    residual is padded with zeros to length m, solved with, and cut back to
    N.  That is P^T C^-1 P with P the injection, positive definite because
    C is.  On pinned nodes residual and direction stay +0.0.  PCG stops at
    |res|_2 <= 1e-10 |rhs|_2; at its cap of 200 iterations it returns its
    last iterate, which is still a descent direction (rhs.x = x.H x > 0).

    On the nested ramp (R = 8, s = 0.95, amplitude 15.71) PCG takes 16 to
    18 iterations at N = 511, 15 to 19 at 1023, 17 to 23 at 2047, 17 to 26
    at 4095 and 21 to 28 at 8191; without the diagonal split it took 30 to
    163 below N = 8191 and reached the cap there.  One Newton step of that
    ramp's takes, dposv against PCG, 0.26 against 0.69 ms at N = 255, 1.6
    against 0.92 ms at N = 511, 10 against 1.3 ms at N = 1023 and 69
    against 2.7 ms at N = 2047 (medians, one BLAS thread); hence _PCG_MIN.
    Every FFT has a power-of-two length, 2m or m.  The lengths 2N and N
    would be slow where N has a large prime factor: at N = 8191, a prime,
    numpy falls back to Bluestein's algorithm, and the three PCG solves of
    the h = 2^-12 ramp take 0.31 s, against 0.035 s at 16384 and 8192.

    A matrix that is not positive definite raises np.linalg.LinAlgError
    instead of returning a wrong solve: dposv reports a failed factor, and
    PCG refuses a Strang circulant eigenvalue <= 0 or a direction with
    p.Hp <= 0.
    """

    def __init__(self, row: np.ndarray):
        self.row = row
        self.diagonal = row[0]
        self.W = np.concatenate((row[:0:-1], row))
        self.A = sliding_window_view(self.W, row.size)[:, ::-1]
        # row i sums |r| over lags 0, 1..i and 1..N-1-i: the middle row is largest
        c = np.concatenate(([0.0], np.cumsum(np.abs(row[1:]))))
        self.abs_row_sum = float(abs(row[0]) + (c + c[::-1]).max())
        n = row.size
        if n < _PCG_MIN:
            # dposv's work array, which it overwrites, and a view of its diagonal
            self._H = np.empty((n, n), order="F")
            self._H_diagonal = self._H.reshape(-1, order="F")[:: n + 1]
        else:
            # eigenvalues of the 2m circulant that embeds A and of the m x m
            # Strang circulant, m the least power of two >= N: real, as both
            # circulants are symmetric
            m = self._m = 1 << (n - 1).bit_length()
            self._embed_eig = np.fft.rfft(np.concatenate((row, np.zeros(2 * m - 2 * n + 1), row[:0:-1]))).real
            k = np.arange(m)
            self._strang_eig = np.fft.rfft(row[np.minimum(k, m - k)]).real

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A times each row of a stack of lanes u (K x N, K >= 1): one convolution per row."""
        return np.array([np.convolve(self.W, v, "valid") for v in u])

    def solve(self, free, dd, rhs):
        """(A + diag(dd)) x = rhs on the free nodes; x is +0.0 on the others."""
        if self.row.size >= _PCG_MIN:
            return self._pcg(free, dd, rhs)
        H = self._H
        H[...] = self.A
        diagonal = self.diagonal + dd
        if not free.all():
            pinned = np.flatnonzero(~free)
            H[pinned, :] = 0.0
            H[:, pinned] = 0.0
            diagonal[pinned] = 1.0
            rhs = np.where(free, rhs, 0.0)
        self._H_diagonal[...] = diagonal
        _, x, info = dposv(H, rhs, lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dposv info = {info}: not positive definite")
        return x

    def _pcg(self, free, dd, rhs):
        """solve by preconditioned CG with FFT matvecs (see the class docstring)."""
        if not self._strang_eig.min() > 0.0:
            raise np.linalg.LinAlgError("Strang circulant not positive definite")
        n, m = self.row.size, self._m
        d = np.where(free, dd, 0.0)
        stiff = free & (d > self.row[0])
        soft = free & ~stiff
        # 1 / H_ii on stiff nodes; pinned ones keep residual and direction +0.0
        diag_inv = np.where(stiff, 1.0 / (self.row[0] + d), 0.0)

        def H(p):
            Ap = np.fft.irfft(self._embed_eig * np.fft.rfft(p, 2 * m), 2 * m)[:n]
            return np.where(free, Ap + d * p, 0.0)

        def precondition(v):
            z = np.fft.irfft(np.fft.rfft(np.where(soft, v, 0.0), m) / self._strang_eig, m)[:n]
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


class _TridiagSystem:
    """A symmetric tridiagonal Toeplitz system: the numbers d on the diagonal, e off it.

    abs_row_sum is a middle row's sum, |d| + |e| + |e| in that order; an end
    row's is no larger.
    """

    def __init__(self, d: float, e: float):
        self.diagonal, self.e = d, e
        self.abs_row_sum = abs(d) + abs(e) + abs(e)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A times each row of a stack of lanes u (K x N)."""
        out = self.diagonal * u
        out[..., 1:] += self.e * u[..., :-1]
        out[..., :-1] += self.e * u[..., 1:]
        return out

    def solve(self, free, dd, rhs):
        """(A + diag(dd)) x = rhs on the free nodes by a banded Cholesky; x is +0.0 on the others.

        Pinned nodes become identity rows; couplings through them vanish,
        which reproduces the reduced system exactly for a tridiagonal A.
        """
        ab = np.zeros((2, rhs.size))
        ab[0, 1:] = np.where(free[:-1] & free[1:], self.e, 0.0)
        ab[1] = np.where(free, self.diagonal + dd, 1.0)
        return solveh_banded(ab, np.where(free, rhs, 0.0))


def _dots(x, y):
    """x.y along the last axis: one BLAS dot per lane, bit for bit x @ y of its rows."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _evaluate(system, b, h, v, gamma, one_phase):
    """Residual A v + b + f(v), energy J(v), f(v) and A v from one matvec and one f(v).

    v and b hold one lane per row (K x N), and J one energy per lane.  This
    is the only place J is formed: a report's energy and energy_trace are
    its values.  A v is returned for the next sweep to open on.  Data that
    overflow give inf or NaN here, which the caller's finiteness check
    reports, so numpy is not asked to warn about them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Av = system.matvec(v)
        f = reaction_value(v, gamma, one_phase)
        J = h * (_dots(0.5 * v, Av) + _dots(b, v) + (v * f / (1.0 + gamma)).sum(axis=-1))
        return Av + b + f, J, f, Av


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
    """The Newton step's line search on a batch of lanes.

    u, delta and phi = Phi(u) hold one lane per row (K x N), slope =
    delta.(A u + b) and curv = delta.A delta / 2 one entry per lane.
    Returns, per lane, the largest t = 2^-k (k < 40) with

        dJ(t) = t slope + t^2 curv + sum(Phi(u + t delta) - Phi(u))  <=  0,

    summed over the lane's nodes, or 0.0 if no t passes.  h dJ(t) is
    J(u + t delta) - J(u), and every term is formed as a difference (_dphi),
    so its sign is not lost against |J| or Phi(u) even where the decrease
    lies many orders of magnitude below one ulp of J.  Every open lane tries
    the same t, and a lane leaves once its t passes, so each lane makes the
    tests of its lone search; a row's sum is its own pairwise sum.
    """
    out = np.zeros(slope.shape)
    lanes = np.arange(slope.size)  # the lane of each open row
    t = 1.0
    for _ in range(40):
        ok = t * slope + t * t * curv + _dphi(u, t * delta, phi, gamma, one_phase).sum(axis=-1) <= 0.0
        out[lanes[ok]] = t
        if ok.all():
            break
        lanes, u, delta, phi, slope, curv = (a[~ok] for a in (lanes, u, delta, phi, slope, curv))
        t *= 0.5
    return out


def _newton(system, u, r, f, floor, gamma, one_phase):
    """The truncated Newton step on every lane (row) of u, in place; returns whether any lane moved.

    r and f are the residual and f(u) at u, floor each lane's clip.  Only
    system.solve runs lane by lane.  A lane whose step fails the descent
    test r.delta < 0 takes no line search and does not move, nor does one
    whose line search finds no t.  The step's K x N temporaries are freed on
    return, before the next sweep's roots calls, where a batch peaks.
    """
    free = np.abs(u) >= kernels._SNAP
    dd = np.zeros_like(u)
    dd[free] = gamma * np.abs(u[free]) ** (gamma - 1.0)
    if one_phase:
        dd = dd * (u > 0)
    delta = np.empty_like(u)
    for i in range(len(u)):
        delta[i] = system.solve(free[i], dd[i], -r[i])
    t = np.zeros(len(u))
    k = _dots(r, delta) < 0.0  # the lanes whose step descends
    if k.any():
        uk, dk = u[k], delta[k]
        t[k] = _step(uk, dk, uk * f[k] / (1.0 + gamma), _dots(dk, r[k] - f[k]),
                     0.5 * _dots(dk, system.matvec(dk)), gamma, one_phase)
    k = t > 0.0  # the lanes that move
    u[k] = np.maximum(u[k] + t[k, None] * delta[k], floor[k])
    return bool(k.any())


def _iterate(system, b, grid: Grid, gs, s, reaction: ReactionSpec, config, start=None) -> list[SolveReport]:
    """Smoother + truncated Newton iteration on a batch of lanes; one SolveReport per lane.

    b holds one lane per row (K x N) and gs its data set, and start (None:
    the linear solves) one starting row per lane.  A lane is clipped at zero
    (the module docstring) when its data set is one-phase and nonnegative:
    every exterior value and the tail's c (0 for a zero tail) at least 0.  A
    lane starts from its row, clipped if it is, and is reported as its u on
    ``grid`` with its data set's exterior values and tail, with s and the
    reaction.
    Every lane meets its own stopping rule and then leaves the batch, frozen;
    it stops, not converged, at the first residual or energy that is not
    finite: data whose products overflow would otherwise pass the stopping
    rule's round-off floor.  The smoother, the evaluations and the Newton
    step (_newton) run on all live lanes at once; only system.solve runs
    lane by lane.  Every operation acts on each lane as on a lone one, so a
    lane's iterates do not depend on the batch.  After the Newton step every
    live lane is evaluated again if any lane moved: a lane that did not move
    gets the same bits again.
    u travels with its residual r, energy J, f(u) and A u, on which the
    next sweep opens (see the module docstring).  system is a _DenseSystem
    or a _TridiagSystem; the iteration uses only its matvec, diagonal,
    abs_row_sum and solve.

    One red-black sweep per iteration: with 1 and 2 sweeps the nested ramp
    took 0.062 and 0.063 s at h = 2^-9 and 0.135 and 0.149 s at 2^-10, and
    40 campaign-type solves at N = 127 (R = 4, s = 0.75) took 0.46 and
    0.64 s (387 and 323 iterations); medians of 5.  Every operation of a
    sweep commutes with negation and the root is odd, so data -g gives
    exactly -u.
    """
    config = config or SolverConfig()
    gamma, one_phase = reaction.gamma, reaction.one_phase
    clip = [one_phase and bool((g.exterior_values >= 0).all() and g.tail.c >= 0.0) for g in gs]
    floor = np.where(clip, 0.0, -np.inf)[:, None]  # each lane's clip: u = max(u, floor)
    if start is None:
        every = np.ones(b.shape[1], dtype=bool)
        start = np.array([system.solve(every, np.zeros_like(row), -row) for row in b])
    u = np.maximum(start, floor)
    r, J, f, Au = _evaluate(system, b, grid.h, u, gamma, one_phase)
    lanes = list(range(b.shape[0]))  # the lane of each live row
    traces = [([], []) for _ in lanes]
    out = [None] * len(lanes)
    for it in range(config.max_iter + 1):
        rn = np.abs(r).max(axis=1)
        tol = np.maximum(config.residual_tol, np.spacing(np.abs(u).max(axis=1)) * system.abs_row_sum)
        live = []
        for i, k in enumerate(lanes):
            r_trace, j_trace = traces[k]
            r_trace.append(rn[i])
            j_trace.append(J[i])
            finite = math.isfinite(rn[i]) and math.isfinite(J[i])
            ok = finite and bool(rn[i] <= tol[i])
            if ok or not finite or it == config.max_iter:
                v = gs[k].values.copy()
                v[grid.interior] = u[i]
                out[k] = SolveReport(
                    solution=GridFunction(grid, v, gs[k].tail),
                    converged=ok,
                    iterations=it,
                    residual_inf=float(rn[i]),
                    energy=float(J[i]),
                    residual_trace=np.array(r_trace),
                    energy_trace=np.array(j_trace),
                    s=s,
                    gamma=gamma,
                    mode=reaction.mode,
                )
            else:
                live.append(i)
        if not live:
            return out
        if len(live) < len(lanes):
            lanes = [lanes[i] for i in live]
            b, floor, u, Au = b[live], floor[live], u[live], Au[live]

        u = np.maximum(kernels.gs_polish_red_black(system.matvec, system.diagonal, b, u, Au, gamma, one_phase), floor)
        r, J, f, Au = _evaluate(system, b, grid.h, u, gamma, one_phase)
        if _newton(system, u, r, f, floor, gamma, one_phase):
            r, J, f, Au = _evaluate(system, b, grid.h, u, gamma, one_phase)


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
    return solve_many(op, [g], reaction, config)[0]


def solve_many(
    op: FracLapOperator,
    gs: list[GridFunction],
    reaction: ReactionSpec,
    config: SolverConfig | None = None,
) -> list[SolveReport]:
    """``solve`` for each data set of gs, as one batch of lanes; one report per data set.

    The lanes share op, and each report is the one ``solve`` gives for its
    data set alone (the module docstring).  On a grid that nests, the batch
    starts from its own solve_many of the same data on the coarse grid.
    Non-finite data in any of gs (check_finite), or data on another grid
    than op's (op.load_vector), raise ValueError before any level iterates;
    no data sets give no reports.
    """
    for g in gs:
        check_finite(g.values, g.tail.c, g.tail.p)
    if not gs:
        return []
    b = np.array([op.load_vector(g) for g in gs])
    start = None
    coarse = _coarse_spec(op.grid.spec)
    if coarse is not None:
        grid = make_grid(coarse)
        reps = solve_many(assemble(grid, op.s), [GridFunction(grid, g.values[::2], g.tail) for g in gs], reaction, config)
        start = np.array([np.interp(op.grid.x_interior, grid.x, rep.solution.values) for rep in reps])
    return _iterate(_DenseSystem(op.row), b, op.grid, gs, op.s, reaction, config, start)


def _coarse_spec(spec: GridSpec) -> GridSpec | None:
    """GridSpec(2h, a, R) when it nests and keeps _NEST_MIN unknowns, else None."""
    na, nR = round(spec.a / spec.h), round(spec.R / spec.h)
    if na % 2 or nR % 2 or na - 1 < _NEST_MIN:
        return None
    return GridSpec(2 * spec.h, spec.a, spec.R)


def local_operator(grid: Grid) -> _TridiagSystem:
    """Second-difference operator -u'' on the interior nodes of ``grid``: 2/h^2 on the diagonal, -1/h^2 off it.

    Raises ValueError unless its diagonal 2/h^2 is a finite double, the
    local operator's scale rule (fraclap.check_order has the nonlocal one).
    """
    h = grid.h
    if not h * h > 2.0 / np.finfo(float).max:
        raise ValueError(f"h = {h:.17g} is too small for the local operator: h^-2 overflows")
    return _TridiagSystem(2.0 / h**2, -1.0 / h**2)


def local_load(grid: Grid, boundary: tuple[float, float]) -> np.ndarray:
    """The Dirichlet values' share of A u + b on ``grid``: -u_L/h^2 and -u_R/h^2 at the end rows.

    boundary is (u_L, u_R), the values at -a and +a.  Raises ValueError
    unless both values are finite (check_finite) and so are their loads; the
    message names the value whose load overflows by its config key, left or
    right.  grid must pass local_operator's scale rule.
    """
    check_finite(*boundary)
    b = np.zeros(grid.interior.size)
    for key, row, u in zip(("left", "right"), (0, -1), map(float, boundary)):
        b[row] = -u / grid.h**2
        if not math.isfinite(b[row]):
            raise ValueError(f"{key} = {u:.17g} is too large for h = {grid.h:.17g}: its load {key}/h^2 overflows")
    return b


def solve_local(
    grid: Grid,
    reaction: ReactionSpec,
    boundary: tuple[float, float],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Solve the local (classical Laplacian) dead-core equation.

    boundary gives the Dirichlet values at -a and +a.  The report's exterior
    values continue the boundary values as plateaus with a zero tail; they
    do not enter the local operator, whose data term is local_load.  They
    are the data set that decides the clip, as for a nonlocal solve (_iterate).
    The report's s is 1 for local runs.  Boundary values that are not
    finite, or whose load u/h^2 overflows, raise ValueError (local_load).
    """
    system = local_operator(grid)
    b = local_load(grid, boundary)
    g = GridFunction(grid, np.where(grid.x < 0, float(boundary[0]), float(boundary[1])), TailModel.zero())
    return _iterate(system, b[None], grid, [g], 1.0, reaction, config)[0]
