"""Dead-core detection, exponent fits, blow-up, comparison, and study drivers."""

import warnings

import numpy as np
import pytest

import deadcore as dc
from deadcore import (
    GridFunction,
    GridSpec,
    ReactionSpec,
    SolverConfig,
    TailModel,
    make_grid,
)
from deadcore.analysis import (
    ComparisonTrial,
    LiouvilleReport,
    SLimitRow,
    fit_radii,
    random_ordered_pair,
    vanishing,
)
from deadcore.cli import main


class TestDeadCoreInterval:
    def test_finds_longest_run(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        x = grid.x_interior
        v = np.ones(grid.n)
        v[grid.interior[3:5]] = 0.0
        v[grid.interior[10:16]] = 1e-12
        lo, hi = dc.detect_dead_core(GridFunction(grid, v), 1e-9)
        assert lo == pytest.approx(x[10])
        assert hi == pytest.approx(x[15])

    def test_none_when_nothing_small(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        assert dc.detect_dead_core(GridFunction(grid, np.ones(grid.n)), 1e-9) is None

    def test_detect_on_grid_function(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        v = np.ones(grid.n)
        core = np.abs(grid.x) <= 0.25
        v[core] = 0.0
        u = GridFunction(grid, v)
        lo, hi = dc.detect_dead_core(u, 1e-9)
        assert lo == pytest.approx(-0.25)
        assert hi == pytest.approx(0.25)

    def test_one_node_is_no_core(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        v = np.ones(grid.n)
        v[grid.interior[7]] = 0.0
        assert dc.detect_dead_core(GridFunction(grid, v), 1e-9) is None
        v[grid.interior[8]] = 0.0
        x = grid.x_interior
        assert dc.detect_dead_core(GridFunction(grid, v), 1e-9) == (x[7], x[8])

    def test_odd_ramp_above_branching_has_no_core(self):
        # above the branching threshold the odd solution is small only at
        # its zero x = 0 (u(0) ~ 1e-58), one node, which is no dead core
        grid = make_grid(GridSpec(h=2.0**-9, a=1.0, R=8.0))
        g = dc.odd_exterior_builder(grid, "ramp", 16.1)
        rep = dc.solve(dc.assemble(grid, 0.95), g, ReactionSpec(gamma=0.2))
        assert rep.converged
        assert dc.detect_dead_core(rep.solution, grid.h ** dc.growth_exponent(0.95, 0.2)) is None
        assert dc.free_boundary(rep.solution, 0.95, 0.2) is None


class TestDetectBranching:
    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3])
    def test_exact_profile_yields_origin(self, gamma):
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, gamma)
        pts = dc.detect_branching(u, 1.0, gamma)
        np.testing.assert_array_equal(pts, [0.0])

    def test_no_false_positive_on_linear(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, 2.0 * grid.x + 0.5)
        assert dc.detect_branching(u, 0.75, 0.2).size == 0


class TestFitGrowthExponent:
    def test_quadratic(self):
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        fit = dc.fit_growth_exponent(u, 0.0)
        assert fit.slope == pytest.approx(2.0, abs=1e-3)
        assert fit.r2 > 0.99999

    def test_local_profile_growth(self):
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        fit = dc.fit_growth_exponent(u, 0.0)
        assert fit.slope == pytest.approx(2.5, abs=1e-2)
        assert fit.r2 > 0.9999

    def test_derivative_order_drops_slope_by_one(self):
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        fit = dc.fit_growth_exponent(u, 0.0, deriv_order=1)
        assert fit.slope == pytest.approx(1.5, abs=2e-2)
        assert fit.deriv_order == 1

    def test_off_center_fit(self):
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = GridFunction(grid, np.abs(grid.x - 0.25) ** 1.5)
        fit = dc.fit_growth_exponent(u, 0.25, r_max=0.125)
        assert fit.slope == pytest.approx(1.5, abs=2e-2)

    def test_window_validation(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        with pytest.raises(ValueError, match="4h"):
            dc.fit_growth_exponent(u, 0.0, r_min=grid.h)
        with pytest.raises(ValueError, match="empty fit window"):
            dc.fit_growth_exponent(u, 0.0, r_min=0.25, r_max=0.25)
        with pytest.raises(ValueError, match="at least 4 radii"):
            dc.fit_growth_exponent(u, 0.0, k=3)

    @pytest.mark.parametrize("r_max", [4.0 + 1 / 64, 1e300, np.inf])
    def test_window_ends_within_the_grid(self, r_max):
        # r_max / h once overflowed the integer cast: numpy warned "invalid
        # value encountered in cast" and the window was called too narrow
        spec = GridSpec(h=1 / 64, a=1.0, R=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"grid width 2R = 4\.0"):
                fit_radii(spec, None, r_max, 8)
        assert fit_radii(spec, None, 4.0, 8)[-1] == 4.0

    @pytest.mark.parametrize("order", [-1, 2, 3])
    def test_derivative_order_is_0_or_1(self, order):
        # |Du| is fitted for any nonzero order, so any other order would be
        # compared with the wrong target
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        with pytest.raises(ValueError, match="deriv_order must be 0 or 1"):
            dc.fit_growth_exponent(u, 0.0, deriv_order=order)

    def test_more_radii_than_nodes_rejected_before_allocating(self):
        # 10**12 log-spaced radii would take 7.3 TiB; snapped radii are
        # distinct lattice multiples of h, so the grid bounds their number
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        with pytest.raises(ValueError, match="exceeds the grid's 257 nodes"):
            dc.fit_growth_exponent(u, 0.0, k=10**12)
        with pytest.raises(ValueError, match="exceeds"):
            dc.fit_growth_exponent(u, 0.0, k=grid.n + 1)
        fit = dc.fit_growth_exponent(u, 0.0, k=grid.n)
        assert fit.slope == pytest.approx(2.0, abs=1e-2)

    def test_flat_function_rejected(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="flat function"):
            dc.fit_growth_exponent(u, 0.0)


class TestBlowUp:
    def test_profile_is_fixed_point(self):
        # kappa|x|^beta rescales to itself exactly on aligned lattices
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        for r in (0.5, 0.25, 0.125):
            v = dc.blow_up(u, 0.0, r, 1.0, 0.2)
            w = dc.exact_local_profile(v.grid, 0.2)
            window = np.abs(v.grid.x) <= 1.0
            err = np.abs(v.values[window] - w.values[window]).max()
            assert err <= 1e-10

    def test_aligned_gather_is_exact(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        rng = np.random.default_rng(2)
        u = GridFunction(grid, rng.standard_normal(grid.n))
        v = dc.blow_up(u, 0.0, 0.5, 0.75, 0.2)
        # v(x) at node x must equal u(x/2) * 2^beta at the source node
        beta = dc.growth_exponent(0.75, 0.2)
        i_src = np.argmin(np.abs(grid.x - 0.25))
        j_dst = np.argmin(np.abs(v.grid.x - 0.5))
        assert v.values[j_dst] == u.values[i_src] * 0.5 ** (-beta)

    def test_off_lattice_uses_interpolation(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        r = 0.3  # not a lattice multiple of h
        v = dc.blow_up(u, 0.0, r, 1.0, 0.2)
        assert v.grid.h == grid.h
        beta = dc.growth_exponent(1.0, 0.2)
        expect = (r * v.grid.x) ** 2 * r ** (-beta)
        # linear interpolation of x^2 errs by h^2/8 * 2, inflated by r^-beta
        np.testing.assert_allclose(v.values, expect, atol=2e-3)

    def test_requires_node_center(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        with pytest.raises(ValueError, match="grid node"):
            dc.blow_up(u, 0.013, 0.5, 0.75, 0.2)

    def test_window_must_fit(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        with pytest.raises(ValueError, match="does not fit"):
            dc.blow_up(u, 1.75, 0.5, 0.75, 0.2)

    def test_r_range(self):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        u = GridFunction(grid, grid.x**2)
        with pytest.raises(ValueError, match="r must lie"):
            dc.blow_up(u, 0.0, 1.5, 0.75, 0.2)

    def test_matches_fit_radii(self):
        # rescaling commutes with the sup-over-ball fit: the fitted slope on
        # the blow-up at radii r0/r equals the slope on u at radii r0
        grid = make_grid(GridSpec(h=1 / 256, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        fit_u = dc.fit_growth_exponent(u, 0.0, r_min=1 / 16, r_max=1 / 4)
        v = dc.blow_up(u, 0.0, 0.25, 1.0, 0.2)
        fit_v = dc.fit_growth_exponent(v, 0.0, r_min=1 / 4, r_max=1.0)
        assert fit_v.slope == pytest.approx(fit_u.slope, abs=1e-6)


class TestComparisonCheck:
    def _pair(self, shift):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        base = np.cos(grid.x)
        u1 = GridFunction(grid, base + shift, TailModel.zero())
        u2 = GridFunction(grid, base, TailModel.zero())
        return u1, u2

    def test_ordered_passes(self):
        u1, u2 = self._pair(0.1)
        assert dc.comparison_check(u1, u2, 1e-9)

    def test_interior_violation_detected(self):
        u1, u2 = self._pair(0.1)
        v = u1.values.copy()
        v[u1.grid.interior[3]] = u2.values[u1.grid.interior[3]] - 1.0
        assert not dc.comparison_check(GridFunction(u1.grid, v, u1.tail), u2, 1e-9)

    def test_unordered_exterior_rejected(self):
        u1, u2 = self._pair(-0.1)
        with pytest.raises(ValueError, match="not ordered"):
            dc.comparison_check(u1, u2, 1e-9)

    def test_grid_mismatch_rejected(self):
        u1, _ = self._pair(0.1)
        other = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u2 = GridFunction(other, np.zeros(other.n))
        with pytest.raises(ValueError, match="grid mismatch"):
            dc.comparison_check(u1, u2, 1e-9)

    def test_tail_ordering(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=2.0))
        zero_tail = GridFunction(grid, np.zeros(grid.n), TailModel.zero())
        neg_tail = GridFunction(grid, np.zeros(grid.n), TailModel.const(-0.1))
        assert dc.comparison_check(zero_tail, neg_tail, 1e-9)
        with pytest.raises(ValueError, match="tail models"):
            dc.comparison_check(neg_tail, zero_tail, 1e-9)

    @pytest.mark.parametrize(
        "t1, t2",
        [
            # +0.25 at R = 2, about -0.083 near y = 6; both tails tend to 0
            (TailModel.power(3.0, 2.0), TailModel.power(1.0, 1.0)),
            # both grow without bound, and the second overtakes at y ~ 5.66
            (TailModel.power(2.0, -0.1), TailModel.power(1.0, -0.5)),
        ],
        ids=["decaying", "growing"],
    )
    def test_crossing_tails_rejected(self, t1, t2):
        # ordered at R, equal data on the grid, yet the tails cross beyond R
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        assert t1.value(grid.R) > t2.value(grid.R)
        u1 = GridFunction(grid, np.zeros(grid.n), t1)
        u2 = GridFunction(grid, np.zeros(grid.n), t2)
        with pytest.raises(ValueError, match="tail models are not ordered"):
            dc.comparison_check(u1, u2, 1e-9)

    @pytest.mark.parametrize(
        "t1, t2",
        [
            (TailModel.const(0.5), TailModel.zero()),
            # the upper tail grows faster, from above at R
            (TailModel.power(2.0, -0.5), TailModel.power(1.0, -0.1)),
        ],
        ids=["const-over-zero", "growing"],
    )
    def test_ordered_tails_pass(self, t1, t2):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        u1 = GridFunction(grid, np.zeros(grid.n), t1)
        u2 = GridFunction(grid, np.zeros(grid.n), t2)
        assert dc.comparison_check(u1, u2, 1e-9)


class TestLiouvilleProbe:
    def test_linear_growth_below_critical_decays(self):
        # |x| grows slower than r^beta, so q(r) falls with r
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        u = GridFunction(grid, np.abs(grid.x))
        rep = dc.liouville_probe(u, 0.75, 0.2)
        assert rep.classification == "decaying"

    def test_exact_profile_is_critical(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        u = dc.exact_local_profile(grid, 0.2)
        rep = dc.liouville_probe(u, 1.0, 0.2)
        assert rep.classification == "critical"

    def test_steeper_growth_classified_growing(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        u = GridFunction(grid, np.abs(grid.x) ** 2.5)
        rep = dc.liouville_probe(u, 0.75, 0.2)  # beta = 1.875 < 2.5
        assert rep.classification == "growing"

    def test_zero_solution_asserts_smallness(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        u = GridFunction(grid, np.zeros(grid.n))
        rep = dc.liouville_probe(u, 0.75, 0.2)
        assert rep.classification == "decaying"

    def test_radii_floor(self):
        # a/h = 8: only two doubling radii, 4h and 8h
        with pytest.warns(UserWarning, match="coarse grid"):
            grid = make_grid(GridSpec(h=1 / 8, a=1.0, R=2.0))
        u = GridFunction(grid, np.abs(grid.x))
        with pytest.raises(ValueError, match="three doubling radii"):
            dc.liouville_probe(u, 0.75, 0.2)

    def test_report_fields(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        u = GridFunction(grid, np.abs(grid.x))
        rep = dc.liouville_probe(u, 0.75, 0.2)
        assert isinstance(rep, LiouvilleReport)
        assert rep.radii.size == rep.q.size


class TestRandomOrderedPair:
    def test_strict_ordering_and_zero_tails(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=4.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            g1, g2 = random_ordered_pair(grid, rng)
            assert np.all(g1.exterior_values >= g2.exterior_values + 0.02 - 1e-12)
            assert np.all(g1.values[grid.interior] == 0.0)
            assert g1.tail == TailModel.zero()
            assert g2.tail == TailModel.zero()

    def test_reproducible(self):
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=4.0))
        a1 = random_ordered_pair(grid, np.random.default_rng(5))
        a2 = random_ordered_pair(grid, np.random.default_rng(5))
        np.testing.assert_array_equal(a1[0].values, a2[0].values)
        np.testing.assert_array_equal(a1[1].values, a2[1].values)

    @pytest.mark.parametrize("seed", [0, 5, 11, 1001, 2521])
    def test_draws_the_pairs_of_rng_choice(self, seed):
        # the signs are drawn by rng.integers(2), which takes from the stream
        # what rng.choice((-1.0, 1.0)) takes: every pair of a campaign, and
        # the stream after it, are those of a choice-based draw
        grid = make_grid(GridSpec(h=1 / 32, a=1.0, R=4.0))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            pair, expected = random_ordered_pair(grid, rng), _choice_ordered_pair(grid, ref)
            for g, e in zip(pair, expected):
                assert np.array_equal(g.values.view(np.int64), e.view(np.int64))
        assert rng.random() == ref.random()


def _choice_ordered_pair(grid, rng):
    """random_ordered_pair's exterior values as drawn with rng.choice for the signs."""

    def bumps(y):
        g = np.zeros_like(y)
        for _ in range(3):
            c = rng.uniform(grid.a, grid.R)
            w = rng.uniform(0.3, 1.5)
            amp = rng.uniform(-1.0, 1.0)
            sgn = rng.choice((-1.0, 1.0))
            g += amp * np.exp(-(((np.abs(y) - c) / w) ** 2)) * np.where(y < 0, sgn, 1.0)
        return g

    ye = grid.x[grid.exterior]
    v1, v2 = np.zeros(grid.n), np.zeros(grid.n)
    base = bumps(ye)
    gap = 0.02 + 0.5 * bumps(ye) ** 2
    v1[grid.exterior] = base
    v2[grid.exterior] = base - gap
    return v1, v2


class TestCampaignAndSLimit:
    def test_small_campaign(self):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        trials = dc.comparison_campaign(
            grid, 0.75, ReactionSpec(gamma=0.2), n_pairs=3, seed=1
        )
        assert len(trials) == 3
        for t in trials:
            assert isinstance(t, ComparisonTrial)
            assert t.converged
            assert t.passed
            assert t.violation == 0.0

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_campaign_needs_a_pair(self, n_pairs):
        grid = make_grid(GridSpec(h=1 / 16, a=1.0, R=2.0))
        with pytest.raises(ValueError, match="n_pairs"):
            dc.comparison_campaign(grid, 0.75, ReactionSpec(gamma=0.2), n_pairs=n_pairs, seed=1)

    def test_s_limit_smoke(self):
        # h = a/64 keeps the default fit window [8h, a/4] nonempty
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        g = dc.odd_exterior_builder(grid, "ramp", 4.0)
        rows, local_rep = dc.s_limit_study(
            grid, [0.75, 0.9], ReactionSpec(gamma=0.2), g
        )
        assert local_rep.converged
        assert len(rows) == 2
        assert all(isinstance(r, SLimitRow) for r in rows)
        # closer to local as s rises
        assert rows[1].distance < rows[0].distance


    def test_s_limit_against_a_nontrivial_local_reference(self):
        # plateau data is nonzero at +-a, so the local reference solve has
        # work to do (the odd ramp vanishes there and gives u_loc = 0)
        amplitude = 4.0
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        g = dc.odd_exterior_builder(grid, "plateau", amplitude)
        rows, local_rep = dc.s_limit_study(
            grid, [0.75, 0.9, 0.99], ReactionSpec(gamma=0.2), g
        )
        assert local_rep.converged
        assert local_rep.iterations >= 1
        assert np.abs(local_rep.solution.interior_values).max() > 0.5 * amplitude
        d = [row.distance for row in rows]
        assert d[0] > d[1] > d[2]
        assert d[2] < d[0] / 10


def _csv_rows(tmp_path, command, name, **keys):
    """Run ``deadcore command`` on a config of ``keys``: the rows of its output ``run_<name>.csv``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    header, *rows = (tmp_path / "out" / f"run_{name}.csv").read_text().splitlines()
    return header, [[float(field) for field in row.split(",")] for row in rows]


KAPPA = dc.profile_coefficient(0.2)  # u(+-1) = +-KAPPA: the local solution is the exact profile


class TestCsvWriters:
    """The CLI's CSV files hold the library's values: .17g round-trips, so each field is exact."""

    @pytest.fixture(scope="class")
    def local_exponent(self):
        grid = make_grid(GridSpec(h=1 / 128, a=1.0, R=2.0))
        rep = dc.solve_local(grid, ReactionSpec(gamma=0.2), boundary=(-KAPPA, KAPPA))
        pts = dc.detect_branching(rep.solution, rep.s, 0.2)
        return rep, pts

    def _run_exponent(self, tmp_path, name):
        return _csv_rows(
            tmp_path, "exponent", name, h="1/128", a="1", R="2", gamma="0.2",
            operator="local", left=-KAPPA, right=KAPPA,
        )

    def test_exponent_csv(self, tmp_path, local_exponent):
        rep, pts = local_exponent
        x0 = float(pts[np.argmin(np.abs(pts))])  # the point nearest the config's x0 = 0
        fit = dc.fit_growth_exponent(rep.solution, x0)
        target = dc.growth_exponent(rep.s, 0.2) - fit.deriv_order
        header, rows = self._run_exponent(tmp_path, "exponent")
        assert header == "s,gamma,x0,slope,target,relative_gap,r2"
        assert rows == [[rep.s, 0.2, x0, fit.slope, target, abs(fit.slope - target) / target, fit.r2]]
        assert rows[0][4] == pytest.approx(2.5)

    def test_branching_csv(self, tmp_path, local_exponent):
        rep, pts = local_exponent
        assert pts.size >= 1
        header, rows = self._run_exponent(tmp_path, "branching")
        assert header == "x0,u,du,d2u"
        assert len(rows) == pts.size
        assert rows == [[x0, *v] for x0, v in zip(pts, vanishing(rep.solution, pts).T)]

    def test_slimit_csv(self, tmp_path):
        grid = make_grid(GridSpec(h=1 / 64, a=1.0, R=2.0))
        g = dc.odd_exterior_builder(grid, "ramp", 4.0)
        expect, _ = dc.s_limit_study(grid, [0.9, 0.95], ReactionSpec(gamma=0.2), g)
        header, rows = _csv_rows(
            tmp_path, "slimit", "slimit", h="1/64", a="1", R="2", gamma="0.2", s_list="0.9, 0.95", amplitude="4"
        )
        assert header == "s,distance,slope"
        assert rows == [[row.s, row.distance, row.slope] for row in expect]
        assert rows[0][0] == 0.9
