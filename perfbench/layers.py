"""Call tracing for the per-layer split, installed from outside the program.

A Tracer replaces public entry points of deadcore (and the numpy/scipy
solvers the solver module calls) with wrappers that time each call and keep
a stack of open spans, so a layer's self time is its own time minus the time
of traced calls made inside it.  A wrapper is installed at the named
attribute and at every deadcore module attribute bound to the same object,
which covers ``from .x import name`` re-exports.  A name that does not exist
is recorded as absent instead of raising, so a refactor that renames an
entry point leaves the benchmark running with that layer reading zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # layer -> seconds inside its calls
        self.self_time = defaultdict(float)  # layer -> seconds minus traced children
        self.calls = defaultdict(int)
        self.absent: list[str] = []
        self.solve_times: list[float] = []
        self.iterations = 0
        self.node_updates = 0
        self.operator_bytes = 0
        self._stack: list[list[float]] = []  # per open span: [child seconds]

    def install(self, module_name: str, qualname: str, layer: str, timed: bool = True, on_call=None, on_result=None):
        """Wrap module_name.qualname; record it as absent if it is missing."""
        try:
            owner = importlib.import_module(module_name)
            *path, name = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.absent.append(f"{module_name}.{qualname}")
            return
        wrapper = self._wrap(original, layer, timed, on_call, on_result)
        setattr(owner, name, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "deadcore" or mod_name.startswith("deadcore.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, layer, timed, on_call, on_result):
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[layer] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            self.calls[layer] += 1
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.total[layer] += dt
                self.self_time[layer] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
            if on_result is not None:
                on_result(result, dt)
            return result

        return timed_call

    # hooks ------------------------------------------------------------

    def _sweep_counter(self, fn_module: str, fn_name: str):
        """Count sweeps * unknowns from a gs_polish_* call's own arguments."""
        try:
            sig = inspect.signature(getattr(importlib.import_module(fn_module), fn_name))
        except (ImportError, AttributeError, TypeError, ValueError):
            return None
        if "u" not in sig.parameters or "sweeps" not in sig.parameters:
            self.absent.append(f"{fn_module}.{fn_name}(u, sweeps)")
            return None

        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.node_updates += int(bound.arguments["sweeps"]) * int(np.size(bound.arguments["u"]))

        return on_call

    def _on_solve(self, report, dt):
        self.solve_times.append(dt)
        self.iterations += int(getattr(report, "iterations", 0))

    def _on_assemble(self, op, dt):
        # arrays the operator object stores; a lazily built matrix is not counted
        stored = sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))
        self.operator_bytes = max(self.operator_bytes, stored)

    def install_all(self) -> None:
        """Wrap every entry point the per-layer metrics read."""
        self.install("deadcore.fraclap", "assemble", "fraclap.assemble", on_result=self._on_assemble)
        self.install("deadcore.fraclap", "FracLapOperator.load_vector", "fraclap.load_vector")
        for name, layer in (("gs_polish_tridiag", "kernels.tridiag"), ("gs_polish_dense", "kernels.dense")):
            self.install("deadcore.kernels", name, layer, on_call=self._sweep_counter("deadcore.kernels", name))
        for name in ("solve", "solve_local"):
            self.install("deadcore.solver", name, "solver.solve", on_result=self._on_solve)
        self.install("deadcore.solver", "reaction_value", "solver.reaction_value", timed=False)
        self.install("deadcore.solver", "solveh_banded", "solver.linsolve")
        self.install("numpy.linalg", "solve", "solver.linsolve")
        for name in ("detect_branching", "fit_growth_exponent", "comparison_check"):
            self.install("deadcore.analysis", name, "analysis.measure")
        self.install("deadcore.analysis", "comparison_campaign", "analysis.campaign")
        self.install("deadcore.cli", "main", "cli.main")

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of everything traced so far."""
        kernel_s = self.total["kernels.tridiag"] + self.total["kernels.dense"]
        solves = np.asarray(self.solve_times) if self.solve_times else np.zeros(1)
        return {
            "fraclap.assemble_s": self.total["fraclap.assemble"],
            "fraclap.operator_mb": self.operator_bytes / 2**20,
            "fraclap.load_vector_s": self.total["fraclap.load_vector"],
            "kernels.tridiag_s": self.total["kernels.tridiag"],
            "kernels.tridiag_calls": self.calls["kernels.tridiag"],
            "kernels.dense_s": self.total["kernels.dense"],
            "kernels.dense_calls": self.calls["kernels.dense"],
            "kernels.node_updates": self.node_updates,
            "kernels.us_per_update": 1e6 * kernel_s / self.node_updates if self.node_updates else 0.0,
            "solver.solve_s": self.total["solver.solve"],
            "solver.iterations": self.iterations,
            "solver.linsolve_s": self.total["solver.linsolve"],
            "solver.linsolve_calls": self.calls["solver.linsolve"],
            "solver.self_s": self.self_time["solver.solve"],
            "solver.evals_per_iteration": (
                self.calls["solver.reaction_value"] / self.iterations if self.iterations else 0.0
            ),
            "solver.solve_p50_s": float(np.percentile(solves, 50)),
            "solver.solve_p95_s": float(np.percentile(solves, 95)),
            "analysis.measure_s": self.total["analysis.measure"],
            "cli.self_s": self.self_time["cli.main"],
        }
