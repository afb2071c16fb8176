"""Operator assembly invariants, consistency rates, and tail handling."""

import os
import subprocess
import sys

import numpy as np
import pytest

import deadcore as dc
from deadcore import fraclap, solver
from deadcore import GridFunction, GridSpec, TailModel, make_grid
from deadcore.fraclap import check_order, tail_influence_bound, tail_norm


@pytest.fixture(scope="module")
def op_mid():
    grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
    return dc.assemble(grid, 0.75)


class TestAssemblyInvariants:
    def test_s_range_enforced(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        for s in (0.49, 0.999, 1.2):
            with pytest.raises(ValueError, match="s must lie"):
                dc.assemble(grid, s)

    def test_spacing_whose_scale_overflows_is_rejected(self):
        # c h^(-2s): 1e450 at h = 1e-300 and s = 0.75, which no double holds
        grid = make_grid(GridSpec(h=1e-300, a=1e-298, R=2e-298))
        with pytest.raises(ValueError, match="overflows"):
            dc.assemble(grid, 0.75)
        with pytest.raises(ValueError, match="overflows"):
            check_order(0.75, 1e-300)
        check_order(0.75, 1e-150)

    def test_symmetric(self, op_mid):
        A = op_mid.A
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()

    def test_sign_pattern(self, op_mid):
        A = op_mid.A
        off = A - np.diag(np.diag(A))
        assert np.all(np.diag(A) > 0)
        assert np.all(off <= 1e-14)
        assert np.all(op_mid.exterior_weights <= 1e-14)

    @pytest.mark.parametrize("corrected", [True, False])
    @pytest.mark.parametrize("s", [0.5, 0.6, 0.75, 0.85, 0.95, 0.99, 0.998])
    def test_same_colour_couplings_are_dominated(self, s, corrected):
        # the premise of the red-black sweep's descent without a line search
        # (kernels docstring): off-diagonals <= 0, and the couplings of a node
        # to its own colour (even lags, both sides) at most A_ii; they reach
        # 0.246 A_ii over these grids
        for h in [2.0**-k for k in range(4, 11)] + [1 / 20, 1 / 24]:
            for R in (2.0, 3.0, 4.0, 8.0):
                row = dc.assemble(make_grid(GridSpec(h=h, a=1.0, R=R)), s, corrected).row
                assert row[1:].max() <= 0.0, (h, R)
                assert 2.0 * np.abs(row[2::2]).sum() <= row[0], (h, R)

    def test_positive_definite(self, op_mid):
        ev = np.linalg.eigvalsh(op_mid.A)
        assert ev.min() > 0

    def test_toeplitz_structure(self, op_mid):
        # weights depend only on the lag |i - j|
        A = op_mid.A
        for k in range(A.shape[0]):
            d = np.diag(A, k)
            assert np.abs(d - d[0]).max() <= 1e-12 * max(1.0, abs(d[0]))

    def test_row_balance_is_exact(self, op_mid):
        ones_int = np.ones(op_mid.A.shape[0])
        ones_ext = np.ones(op_mid.exterior_weights.shape[1])
        resid = op_mid.A @ ones_int + op_mid.exterior_weights @ ones_ext - op_mid.truncation_mass
        assert np.abs(resid).max() <= 1e-12 * np.abs(op_mid.A).max()

    def test_constants_annihilated(self, op_mid):
        grid = op_mid.grid
        u = GridFunction(grid, np.full(grid.n, 3.7), TailModel.const(3.7))
        assert np.abs(op_mid.apply(u)).max() <= 1e-11 * np.abs(op_mid.A).max()

    def test_antisymmetry_on_odd_data(self, op_mid):
        grid = op_mid.grid
        u = GridFunction(grid, np.sin(np.pi * grid.x / grid.R))
        out = op_mid.apply(u)
        assert np.abs(out + out[::-1]).max() <= 1e-10 * np.abs(out).max()

    def test_load_vector_rejects_foreign_grid(self, op_mid):
        other = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        g = GridFunction(other, np.zeros(other.n))
        with pytest.raises(ValueError, match="different grid"):
            op_mid.load_vector(g)


def _getoor_window_error(s, h, corrected=True):
    """Sup over |x| <= 3/4 of the operator defect on the exact profile."""
    grid = make_grid(GridSpec(h=h, a=1.0, R=2.0))
    w = dc.getoor_profile(s, grid)
    out = dc.assemble(grid, s, corrected=corrected).apply(w)
    window = np.abs(grid.x_interior) <= 0.75 + 1e-12
    return np.abs(out[window] - dc.getoor_constant(s)).max()


def _dense_lag_assembly(grid, s, corrected=True):
    """The former construction, verbatim: an int64 lag matrix and the full interior x nodes map."""
    c = dc.normalization_constant(s)
    n, gi = grid.n, grid.interior
    gh, gh_end, lam = fraclap._weight_tables(s, n, corrected)
    scale = c * grid.h ** (-2.0 * s)
    diag = 2 * lam + 1.0 / s
    lag = np.abs(gi[:, None] - np.arange(n)[None, :])
    W = -(gh[lag] + lam * (lag == 1))
    W[np.arange(gi.size), gi] = diag
    W[:, 0] = -gh_end[np.abs(gi)]
    W[:, n - 1] = -gh_end[np.abs(gi - (n - 1))]
    W *= scale
    return W[:, gi], W[:, grid.exterior]


@pytest.mark.parametrize(
    "h, R, s, corrected",
    [(1 / 32, 4.0, 0.75, True), (1 / 64, 2.0, 0.5, True), (1 / 128, 8.0, 0.95, True), (1 / 32, 2.0, 0.6, False)],
)
def test_assembly_matches_dense_lag_construction(h, R, s, corrected):
    grid = make_grid(GridSpec(h=h, a=1.0, R=R))
    op = dc.assemble(grid, s, corrected=corrected)
    A, B = _dense_lag_assembly(grid, s, corrected)
    np.testing.assert_array_equal(op.A, A)
    np.testing.assert_array_equal(op.exterior_weights, B)
    # the same memory layout keeps A @ u bit-identical too
    assert op.A.strides == A.strides


_GRIDS = [(1 / 32, 4.0, 0.75, True), (1 / 64, 2.0, 0.5, True), (1 / 128, 8.0, 0.95, True), (1 / 32, 2.0, 0.6, False)]
_TAILS = [TailModel.zero(), TailModel.const(0.7), TailModel.power(-1.3, 1.5)]


class TestLagTableOperator:
    """The stored lag table against the dense A and exterior map it stands for."""

    @staticmethod
    def _data(grid, tail, seed):
        v = np.random.default_rng(seed).standard_normal(grid.n)
        # the end nodes have their own (half-hat) columns
        v[0], v[-1] = 2.5, -1.5
        return GridFunction(grid, v, tail)

    @pytest.mark.parametrize("h, R, s, corrected", _GRIDS)
    @pytest.mark.parametrize("tail", _TAILS, ids=lambda t: t.kind)
    def test_apply_and_load_match_the_dense_maps(self, h, R, s, corrected, tail):
        grid = make_grid(GridSpec(h=h, a=1.0, R=R))
        op = dc.assemble(grid, s, corrected=corrected)
        u = self._data(grid, tail, 5)
        load = op.exterior_weights @ u.exterior_values + op.tail_load(tail)
        ref = op.A @ u.interior_values + load
        assert np.abs(op.load_vector(u) - load).max() <= 1e-14 * np.abs(load).max()
        assert np.abs(op.apply(u) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("h, R, s, corrected", _GRIDS)
    def test_energy_matches_the_dense_formula(self, h, R, s, corrected):
        grid = make_grid(GridSpec(h=h, a=1.0, R=R))
        op = dc.assemble(grid, s, corrected=corrected)
        g = self._data(grid, TailModel.power(-1.3, 1.5), 6)
        u = np.random.default_rng(7).standard_normal(grid.interior.size)
        reaction = dc.ReactionSpec(gamma=0.2)
        b = op.exterior_weights @ g.exterior_values + op.tail_load(g.tail)
        phi = solver.reaction_energy(u, 0.2, False)
        ref = h * (0.5 * u @ (op.A @ u) + b @ u + phi.sum())
        assert abs(dc.energy(op, g, u, reaction) - ref) <= 1e-14 * abs(ref)

    def test_stored_arrays_are_linear_in_the_grid(self):
        # the nonlocal-ramp grid: n = 8193 nodes, 1023 unknowns
        op = dc.assemble(make_grid(GridSpec(h=2.0**-9, a=1.0, R=8.0)), 0.95)
        stored = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
        assert stored < 2**20

    def test_assembly_load_and_energy_allocate_no_dense_arrays(self):
        # h = 2^-10, R = 8: the dense A and exterior map would take 32 MB and
        # 224 MB.  Peak RSS is read in a fresh process after the grid and
        # data exist, so only what the three calls allocate counts.
        code = """
import resource
import numpy as np
import deadcore as dc
grid = dc.make_grid(dc.GridSpec(h=2.0**-10, a=1.0, R=8.0))
g = dc.odd_exterior_builder(grid, "ramp", 15.71)
u = np.linspace(-1.0, 1.0, grid.interior.size)
reaction = dc.ReactionSpec(gamma=0.2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
op = dc.assemble(grid, 0.95)
op.load_vector(g)
dc.energy(op, g, u, reaction)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""
        # the child imports the deadcore this test imported
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dc.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert float(out.stdout) < 20.0


class TestConsistency:
    def test_exact_profile_half(self):
        # at s = 1/2 the target constant is exactly 1
        assert _getoor_window_error(0.5, 1 / 128) < 2e-3

    def test_exact_profile_three_quarters(self):
        assert _getoor_window_error(0.75, 1 / 128) < 2e-3

    def test_halving_rate_with_correction(self):
        ratio = _getoor_window_error(0.75, 1 / 64) / _getoor_window_error(0.75, 1 / 128)
        assert ratio > 2.4  # near the h^(3-2s) design rate 2^1.5

    def test_correction_earns_its_keep(self):
        # without the defect correction the rate degrades toward h^(2-2s)
        ratio = _getoor_window_error(0.75, 1 / 64, corrected=False) / _getoor_window_error(
            0.75, 1 / 128, corrected=False
        )
        assert ratio < 2.0
        assert _getoor_window_error(0.75, 1 / 128, corrected=False) > _getoor_window_error(
            0.75, 1 / 128, corrected=True
        )


class TestTailLoad:
    def test_zero_tail_loads_nothing(self, op_mid):
        assert np.all(op_mid.tail_load(TailModel.zero()) == 0.0)

    def test_const_tail_matches_truncation_mass(self, op_mid):
        load = op_mid.tail_load(TailModel.const(-2.0))
        np.testing.assert_allclose(load, 2.0 * op_mid.truncation_mass, rtol=1e-13)

    def test_power_tail_against_quadrature(self, op_mid):
        import mpmath as mp

        mp.mp.dps = 30
        s, R = mp.mpf("0.75"), mp.mpf(2)
        c0, p = 0.8, 1.5
        load = op_mid.tail_load(TailModel.power(c0, p))
        xs = op_mid.grid.x_interior
        for idx in (0, len(xs) // 3, len(xs) - 1):
            x = mp.mpf(float(xs[idx]))
            quad = mp.quad(
                lambda y: y ** mp.mpf(-p)
                * ((y - x) ** (-1 - 2 * s) + (y + x) ** (-1 - 2 * s)),
                [R, mp.inf],
            )
            expect = -op_mid.c * c0 * float(quad)
            assert load[idx] == pytest.approx(expect, rel=1e-8)


class TestTailNorm:
    def test_cauchy_weight_integral(self):
        # u == 1 everywhere at s = 1/2: integral of 1/(1+y^2) over R is pi
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=4.0))
        u = GridFunction(grid, np.ones(grid.n), TailModel.const(1.0))
        assert tail_norm(u, 0.5) == pytest.approx(np.pi, rel=1e-4)

    def test_scales_linearly(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        u = GridFunction(grid, np.ones(grid.n), TailModel.const(1.0))
        v = GridFunction(grid, 3.0 * np.ones(grid.n), TailModel.const(3.0))
        assert tail_norm(v, 0.75) == pytest.approx(3.0 * tail_norm(u, 0.75), rel=1e-12)

    def test_rejects_fast_growth(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        u = GridFunction(grid, np.ones(grid.n), TailModel.power(1.0, -1.6))
        with pytest.raises(ValueError, match="grows too fast"):
            tail_norm(u, 0.75)

    def test_s_range(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        u = GridFunction(grid, np.ones(grid.n))
        with pytest.raises(ValueError, match="s must lie"):
            tail_norm(u, 1.0)


class TestTailInfluenceBound:
    @pytest.mark.parametrize("tail", [TailModel.const(0.5), TailModel.power(1.0, 1.0)])
    def test_dominates_actual_load(self, tail):
        for s in (0.5, 0.75, 0.9):
            for R in (2.0, 4.0):
                grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=R))
                op = dc.assemble(grid, s)
                u = GridFunction(grid, np.zeros(grid.n), tail)
                bound = tail_influence_bound(op, u)
                assert np.abs(op.tail_load(tail)).max() <= bound

    def test_zero_tail_bound_is_zero(self, op_mid):
        u = GridFunction(op_mid.grid, np.zeros(op_mid.grid.n))
        assert tail_influence_bound(op_mid, u) == 0.0

    def test_bound_shrinks_with_radius(self):
        tail = TailModel.power(1.0, 1.0)
        vals = []
        for R in (2.0, 4.0, 8.0):
            grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=R))
            op = dc.assemble(grid, 0.75)
            u = GridFunction(grid, np.zeros(grid.n), tail)
            vals.append(tail_influence_bound(op, u))
        assert vals[0] > vals[1] > vals[2]
