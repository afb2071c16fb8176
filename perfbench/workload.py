"""One round of a benchmark workload, in a fresh process started by run.py.

    python3 perfbench/workload.py WORKLOAD SEED MODE WORKDIR

MODE is ``plain`` (one timed operation), ``traced`` (the same with the
per-layer wrappers of layers.py installed) or ``setup`` (set up and exit).
The process prints ``ready`` once set-up is done, that is after interpreter
start, ``import deadcore`` and building the inputs, and then one line
``result <json>``.
Wall and CPU time are taken from the end of set-up to checked outputs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import checks

GAMMA = 0.2


def _import_deadcore(root: str):
    import deadcore

    src = os.path.join(root, "src", "deadcore")
    if os.path.dirname(os.path.realpath(deadcore.__file__)) != os.path.realpath(src):
        raise SystemExit(f"deadcore was imported from {deadcore.__file__}, not from {src}")
    return deadcore


class LocalBranching:
    """Local solve at h = 2^-10 on (-1, 1), boundary values from the exact profile."""

    OPS = 1

    def __init__(self, dc, seed, workdir):
        self.dc = dc
        self.h = 2.0**-10
        self.grid = dc.make_grid(dc.GridSpec(h=self.h, a=1.0, R=2.0))
        self.reaction = dc.ReactionSpec(gamma=GAMMA)
        self.exact = checks.local_profile(self.grid.x_interior, GAMMA)
        kappa = float(checks.local_profile(np.array([1.0]), GAMMA)[0])
        self.boundary = (-kappa, kappa)

    def run(self):
        dc = self.dc
        rep = dc.solve_local(self.grid, self.reaction, boundary=self.boundary)
        points = dc.detect_branching(rep.solution, 1.0, GAMMA)
        fit = dc.fit_growth_exponent(rep.solution, float(points[0]) if points.size else 0.0)
        failures = (
            checks.converged(rep.converged)
            + checks.sup_error(rep.solution.interior_values, self.exact, 5 * self.h**1.5)
            + checks.energy_non_increasing(rep.energy_trace)
            + checks.single_branching_at_origin(points)
            + checks.slope_near(fit.slope, checks.growth_exponent(1.0, GAMMA), 0.02)
        )
        return (1 if failures else 0), failures


class NonlocalRamp:
    """Nonlocal solve at s = 0.95, h = 2^-9, R = 8 on the odd ramp of amplitude 15.71."""

    OPS = 1
    S = 0.95

    def __init__(self, dc, seed, workdir):
        self.dc = dc
        self.grid = dc.make_grid(dc.GridSpec(h=2.0**-9, a=1.0, R=8.0))
        self.data = dc.odd_exterior_builder(self.grid, "ramp", 15.71)
        self.reaction = dc.ReactionSpec(gamma=GAMMA)
        self.tol = dc.SolverConfig().residual_tol

    def run(self):
        dc = self.dc
        op = dc.assemble(self.grid, self.S)
        rep = dc.solve(op, self.data, self.reaction)
        points = dc.detect_branching(rep.solution, self.S, GAMMA)
        fit = dc.fit_growth_exponent(rep.solution, float(points[0]) if points.size else 0.0)
        u = rep.solution.interior_values
        residual = op.apply(rep.solution) + checks.reaction(u, GAMMA)
        failures = (
            checks.converged(rep.converged)
            + checks.residual_within(residual, self.tol)
            # natural-order sweeps are not mirror symmetric, so oddness holds to
            # the solver's convergence error, not to round-off
            + checks.odd(self.grid.x_interior, u, self.tol)
            + checks.energy_non_increasing(rep.energy_trace)
            + checks.single_branching_at_origin(points)
            + checks.slope_near(fit.slope, checks.growth_exponent(self.S, GAMMA), 0.10)
            + checks.slope_above(fit.slope, 2 * self.S + GAMMA)
        )
        return (1 if failures else 0), failures


class ComparisonCampaign:
    """``deadcore compare`` through cli.main: 50 random ordered pairs, h = 2^-5, s = 0.75.

    Acceptance 06 runs 100 pairs at h = 2^-6.  Here a run draws about 250
    pairs of 63-unknown solves, so that the cost of the seed's draws varies
    less from seed to seed, and rounds are short enough for a median.
    """

    PAIRS = 50
    OPS = 2 * PAIRS  # an operation is one solve; each pair is checked on both

    def __init__(self, dc, seed, workdir):
        from deadcore import cli

        self.cli = cli
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(workdir, "campaign.cfg")
        with open(self.config, "w") as fh:
            fh.write(f"h = 1/32\na = 1\nR = 4\ns = 0.75\ngamma = {GAMMA}\npairs = {self.PAIRS}\n")

    def run(self):
        out = os.path.join(self.workdir, "out")
        code = self.cli.main(
            ["compare", "--config", self.config, "--out", out, "--seed", str(self.seed)]
        )
        try:
            with open(os.path.join(out, "campaign_compare.csv")) as fh:
                text = fh.read()
        except OSError:
            text = None
        per_pair = checks.comparison_output(code, text, self.PAIRS)
        failures = [msg for msgs in per_pair for msg in msgs]
        return 2 * sum(1 for msgs in per_pair if msgs), failures


WORKLOADS = {
    "local-branching": LocalBranching,
    "nonlocal-ramp": NonlocalRamp,
    "comparison-campaign": ComparisonCampaign,
}


def main(argv) -> int:
    name, seed, mode, workdir = argv[1], int(argv[2]), argv[3], argv[4]
    root = os.getcwd()
    dc = _import_deadcore(root)
    tracer = None
    if mode == "traced":
        from layers import Tracer

        tracer = Tracer()
        tracer.install_all()
    workload = WORKLOADS[name](dc, seed, workdir)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    t0, c0 = time.perf_counter(), time.process_time()
    attempted = workload.OPS
    try:
        failed, failures = workload.run()
    except Exception:  # a crash fails the round's operations, it does not stop the run
        traceback.print_exc()
        failed, failures = attempted, ["operation raised; traceback on stderr"]
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    result = dict(
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
        run_s=run_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
