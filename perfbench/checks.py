"""Output checks for the benchmark workloads.

Each check takes plain numbers and arrays, never a solver object, so the
tests in test_checks.py can feed it wrong answers without running the
program.  Every function returns a list of failure messages; an empty list
means the output passed.  References are computed here from closed forms or
from properties the method must have, never from a stored copy of earlier
output.
"""

from __future__ import annotations

import numpy as np


def growth_exponent(s: float, gamma: float) -> float:
    """Sharp growth rate 2s/(1-gamma) at a branching point (s = 1: local)."""
    return 2.0 * s / (1.0 - gamma)


def local_profile(x: np.ndarray, gamma: float) -> np.ndarray:
    """Closed-form local solution kappa*(x_+^beta - x_-^beta), beta = 2/(1-gamma).

    kappa solves kappa*beta*(beta-1) = kappa^gamma, so that u'' = u_+^gamma -
    u_-^gamma holds exactly.
    """
    beta = growth_exponent(1.0, gamma)
    kappa = (beta * (beta - 1.0)) ** (-1.0 / (1.0 - gamma))
    return kappa * (np.maximum(x, 0.0) ** beta - np.maximum(-x, 0.0) ** beta)


def reaction(u: np.ndarray, gamma: float) -> np.ndarray:
    """Two-phase absorption u_+^gamma - u_-^gamma."""
    return np.sign(u) * np.abs(u) ** gamma


def converged(flag: bool) -> list[str]:
    return [] if flag else ["solver reports no convergence"]


def energy_non_increasing(trace) -> list[str]:
    """Every accepted step must not raise the energy (relative slack 1e-12)."""
    jt = np.asarray(trace, dtype=float)
    slack = 1e-12 * max(1.0, float(np.abs(jt).max())) if jt.size else 0.0
    rises = np.diff(jt) > slack
    if rises.any():
        k = int(np.argmax(rises))
        return [f"energy rises at step {k + 1}: {jt[k]!r} -> {jt[k + 1]!r}"]
    return []


def sup_error(u: np.ndarray, reference: np.ndarray, bound: float) -> list[str]:
    err = float(np.abs(np.asarray(u) - np.asarray(reference)).max())
    return [] if err <= bound else [f"sup error {err:.3e} above {bound:.3e}"]


def single_branching_at_origin(points) -> list[str]:
    pts = np.asarray(points, dtype=float).ravel()
    if pts.size != 1:
        return [f"expected one branching point, found {pts.size}: {pts.tolist()}"]
    if pts[0] != 0.0:
        return [f"branching point at {pts[0]!r}, expected 0"]
    return []


def slope_near(slope: float, target: float, rel_tol: float) -> list[str]:
    rel = abs(slope - target) / target
    if rel <= rel_tol:
        return []
    return [f"slope {slope:.6g} is {rel:.1%} from {target:.6g} (allowed {rel_tol:.0%})"]


def slope_above(slope: float, floor: float) -> list[str]:
    return [] if slope > floor else [f"slope {slope:.6g} not above {floor:.6g}"]


def residual_within(residual: np.ndarray, tol: float) -> list[str]:
    rn = float(np.abs(np.asarray(residual)).max())
    return [] if rn <= tol else [f"recomputed residual {rn:.3e} above {tol:.3e}"]


def odd(x: np.ndarray, u: np.ndarray, tol: float) -> list[str]:
    """u(-x) = -u(x) on a grid symmetric about 0, to within tol at every node."""
    x, u = np.asarray(x), np.asarray(u)
    if not np.array_equal(x, -x[::-1]):
        return ["grid is not symmetric about 0"]
    defect = float(np.abs(u + u[::-1]).max())
    return [] if defect <= tol else [f"odd defect {defect:.3e} above {tol:.3e}"]


def comparison_output(exit_code: int, csv_text: str | None, n_pairs: int) -> list[list[str]]:
    """Per-pair failures of ``deadcore compare``: exit code and CSV text.

    Returns one list of messages for each pair 0 .. n_pairs-1.  A pair is
    correct only when the command exited 0 and the CSV (header
    pair,violation,passed) lists it exactly once, passed, with violation
    exactly 0: ordered data must give ordered solutions.
    """
    if exit_code != 0:
        return [[f"deadcore compare exited with {exit_code}"] for _ in range(n_pairs)]
    if csv_text is None:
        return [["no campaign CSV"] for _ in range(n_pairs)]
    lines = csv_text.splitlines()
    if not lines or lines[0].strip() != "pair,violation,passed":
        return [["campaign CSV has no pair,violation,passed header"] for _ in range(n_pairs)]
    out: list[list[str]] = [[] for _ in range(n_pairs)]
    seen = [0] * n_pairs
    for line in lines[1:]:
        fields = line.strip().split(",")
        if len(fields) != 3 or not fields[0].isdigit() or int(fields[0]) >= n_pairs:
            continue
        k = int(fields[0])
        seen[k] += 1
        if fields[2] != "true":
            out[k].append(f"pair {k}: passed={fields[2]!r}")
        try:
            violation = float(fields[1])
        except ValueError:
            violation = float("nan")
        if violation != 0.0:
            out[k].append(f"pair {k}: violation {fields[1]!r}, expected exactly 0")
    for k, count in enumerate(seen):
        if count != 1:
            out[k].append(f"pair {k}: appears {count} times in the CSV")
    return out
