"""Every output check rejects a wrong answer, and the tracer survives renames.

Run from the repository root:  python3 -m pytest perfbench -q
None of these tests imports deadcore: the checks are fed hand-made right and
wrong answers.
"""

import sys
import types

import numpy as np
import pytest

import checks
from layers import Tracer

GAMMA = 0.2
H = 2.0**-10


def _x(h=H, a=1.0):
    m = round(2 * a / h) - 1
    return (np.arange(m) - (m - 1) // 2) * h


class TestLocalProfile:
    def test_reference_solves_the_local_equation(self):
        # u'' = u_+^gamma - u_-^gamma at points away from the origin
        x = np.array([-0.7, -0.3, 0.2, 0.9])
        d = 1e-4
        u = checks.local_profile(x, GAMMA)
        upp = (checks.local_profile(x + d, GAMMA) - 2 * u + checks.local_profile(x - d, GAMMA)) / d**2
        np.testing.assert_allclose(upp, checks.reaction(u, GAMMA), rtol=1e-6)

    def test_wrong_exponent_fails_sup_error(self):
        x = _x()
        exact = checks.local_profile(x, GAMMA)
        kappa = float(checks.local_profile(np.array([1.0]), GAMMA)[0])
        wrong = kappa * np.sign(x) * np.abs(x) ** 2.4
        bound = 5 * H**1.5
        assert checks.sup_error(exact + 0.5 * bound, exact, bound) == []
        assert checks.sup_error(wrong, exact, bound)

    def test_slope_of_wrong_exponent_fails(self):
        target = checks.growth_exponent(1.0, GAMMA)
        assert target == 2.5
        assert checks.slope_near(2.5 * 1.019, target, 0.02) == []
        assert checks.slope_near(2.4, target, 0.02)
        assert checks.slope_near(2.56, target, 0.02)


class TestSolverProperties:
    def test_converged(self):
        assert checks.converged(True) == []
        assert checks.converged(False)

    def test_energy_rise_fails(self):
        assert checks.energy_non_increasing([3.0, 2.0, 2.0, 1.0]) == []
        assert checks.energy_non_increasing([3.0, 3.0 + 1e-13]) == []  # within slack
        assert checks.energy_non_increasing([3.0, 2.0, 2.5, 1.0])
        assert checks.energy_non_increasing([-1.0, -1.0 + 1e-9])

    def test_residual_of_wrong_solution_fails(self):
        # tridiagonal test system with a known solution: b is built from u
        n = 63
        A = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        u = np.sin(np.linspace(-3, 3, n))
        b = -(A @ u + checks.reaction(u, GAMMA))
        tol = 1e-9
        assert checks.residual_within(A @ u + b + checks.reaction(u, GAMMA), tol) == []
        v = u + 1e-7
        assert checks.residual_within(A @ v + b + checks.reaction(v, GAMMA), tol)

    def test_sign_flipped_half_is_not_odd(self):
        x = _x(2.0**-9)
        u = np.sign(x) * np.abs(x) ** 2.375
        assert checks.odd(x, u, 1e-9) == []
        flipped = np.abs(u)  # left half sign-flipped: even, not odd
        assert checks.odd(x, flipped, 1e-9)
        assert checks.odd(x, u + 1e-6 * (x > 0), 1e-9)

    def test_odd_needs_a_symmetric_grid(self):
        x = _x(2.0**-9)
        assert checks.odd(x + 2.0**-10, x, 1e-9)


class TestBranchingAndGrowth:
    def test_single_point_at_origin(self):
        assert checks.single_branching_at_origin(np.array([0.0])) == []
        assert checks.single_branching_at_origin(np.array([]))
        assert checks.single_branching_at_origin(np.array([0.0, 0.25]))
        assert checks.single_branching_at_origin(np.array([H]))

    def test_nonlocal_slope_window_and_schauder_floor(self):
        s = 0.95
        target = checks.growth_exponent(s, GAMMA)
        assert target == pytest.approx(2.375)
        assert checks.slope_near(2.4, target, 0.10) == []
        assert checks.slope_near(2.0, target, 0.10)
        assert checks.slope_above(2.2, 2 * s + GAMMA) == []
        assert checks.slope_above(2.1, 2 * s + GAMMA)  # exactly the Schauder rate
        assert checks.slope_above(2.05, 2 * s + GAMMA)


def _csv(rows):
    return "pair,violation,passed\n" + "".join(f"{k},{v},{p}\n" for k, v, p in rows)


class TestComparisonOutput:
    N = 100

    def _good(self):
        return [(k, "0", "true") for k in range(self.N)]

    def _failed_pairs(self, code, text):
        return [k for k, msgs in enumerate(checks.comparison_output(code, text, self.N)) if msgs]

    def test_ordered_campaign_passes(self):
        assert self._failed_pairs(0, _csv(self._good())) == []

    def test_unordered_pair_fails(self):
        rows = self._good()
        rows[7] = (7, "0.0125", "false")
        assert self._failed_pairs(0, _csv(rows)) == [7]

    def test_violation_must_be_exactly_zero(self):
        rows = self._good()
        rows[3] = (3, "1e-17", "true")
        assert self._failed_pairs(0, _csv(rows)) == [3]

    def test_missing_and_duplicate_pairs_fail(self):
        rows = self._good()
        del rows[42]
        rows.append((5, "0", "true"))
        assert self._failed_pairs(0, _csv(rows)) == [5, 42]

    def test_exit_code_and_missing_file_fail_every_pair(self):
        assert len(self._failed_pairs(3, _csv(self._good()))) == self.N
        assert len(self._failed_pairs(0, None)) == self.N
        assert len(self._failed_pairs(0, "")) == self.N


class TestTracer:
    @pytest.fixture
    def fake_modules(self):
        def inner(x):
            return 2 * x

        outer_mod = types.ModuleType("deadcore.benchfake_outer")
        inner_mod = types.ModuleType("deadcore.benchfake_inner")
        inner_mod.inner = inner
        outer_mod.inner = inner  # a re-export, as "from .x import name" makes

        def outer(x):
            return outer_mod.inner(x) + 1

        outer_mod.outer = outer
        names = (outer_mod.__name__, inner_mod.__name__)
        sys.modules.update({outer_mod.__name__: outer_mod, inner_mod.__name__: inner_mod})
        yield outer_mod, inner_mod
        for name in names:
            sys.modules.pop(name, None)

    def test_missing_names_are_reported_absent(self, fake_modules):
        tracer = Tracer()
        tracer.install("deadcore.benchfake_outer", "no_such_function", "x.y")
        tracer.install("deadcore.benchfake_missing_module", "f", "x.z")
        tracer.install("deadcore.benchfake_outer", "NoClass.method", "x.w")
        assert tracer.absent == [
            "deadcore.benchfake_outer.no_such_function",
            "deadcore.benchfake_missing_module.f",
            "deadcore.benchfake_outer.NoClass.method",
        ]

    def test_reexports_are_wrapped_and_self_time_excludes_children(self, fake_modules):
        outer_mod, inner_mod = fake_modules
        tracer = Tracer()
        tracer.install("deadcore.benchfake_inner", "inner", "layer.inner")
        tracer.install("deadcore.benchfake_outer", "outer", "layer.outer")
        assert outer_mod.inner is inner_mod.inner
        assert outer_mod.outer(3) == 7
        assert tracer.calls["layer.inner"] == 1 and tracer.calls["layer.outer"] == 1
        outer_total = tracer.total["layer.outer"]
        assert tracer.self_time["layer.outer"] == pytest.approx(outer_total - tracer.total["layer.inner"])
