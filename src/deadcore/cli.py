"""Command-line front end.

Every run takes one or more line-oriented config files (``key = value``,
``#`` comments) and writes CSV outputs plus a key=value metadata sidecar
into the output directory, with file names derived from the config stem.

Exit codes: 0 success, 2 for validation failures or malformed config lines
(reported with their line number), 3 when a solve fails to converge.
Single-threaded runs are byte-deterministic for a fixed config and seed;
--jobs only parallelizes across independent configs.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analysis, profiles
from .fraclap import assemble, check_order
from .grid import GridFunction, GridSpec, TailModel, make_grid
from .solver import ReactionSpec, SolverConfig, solve, solve_local

__all__ = ["main"]

MODES = (
    "solve",
    "solve-local",
    "exponent",
    "blowup",
    "compare",
    "liouville",
    "slimit",
    "validate",
)

_COMMON_KEYS = {"h", "a", "R", "residual_tol", "max_iter"}
_DATA_KEYS = {"s", "gamma", "mode", "data", "amplitude", "tail"}
_MODE_KEYS = {
    "solve": _COMMON_KEYS | _DATA_KEYS,
    "solve-local": _COMMON_KEYS | {"gamma", "mode", "left", "right"},
    "exponent": _COMMON_KEYS | _DATA_KEYS | {"operator", "left", "right", "x0", "fit_rmin", "fit_rmax", "fit_k", "deriv_order"},
    "blowup": _COMMON_KEYS | _DATA_KEYS | {"x0", "r"},
    "compare": _COMMON_KEYS | {"s", "gamma", "mode", "pairs"},
    "liouville": _COMMON_KEYS | _DATA_KEYS,
    "slimit": _COMMON_KEYS | {"s_list", "gamma", "mode", "data", "amplitude"},
    # validate accepts any solve-shaped config and checks only the parameters
    "validate": _COMMON_KEYS | _DATA_KEYS | {"operator", "left", "right", "x0", "r", "pairs", "s_list", "fit_rmin", "fit_rmax", "fit_k", "deriv_order"},
}

# keys every run of a mode needs; exponent with operator = local needs those of solve-local
_REQUIRED_KEYS = {
    "solve": ("h", "a", "s", "gamma"),
    "solve-local": ("h", "a", "gamma", "left", "right"),
    "exponent": ("h", "a", "s", "gamma"),
    "blowup": ("h", "a", "s", "gamma", "r"),
    "compare": ("h", "a", "s", "gamma"),
    "liouville": ("h", "a", "s", "gamma"),
    "slimit": ("h", "a", "gamma", "s_list"),
    "validate": ("s", "gamma"),
}


class ConfigError(Exception):
    pass


class SolveFailure(Exception):
    pass


def _parse_number(text: str) -> float:
    """Float literal or exact fraction like 1/256."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise ConfigError(f"division by zero in {text!r}") from None
    return float(text)


def read_config(path: str) -> dict[str, str]:
    """Parse key = value lines; malformed lines fail with their number."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def _check_keys(cfg: dict[str, str], mode: str, path: str) -> None:
    allowed = _MODE_KEYS[mode]
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key {key!r} for mode {mode}")


def _grid_spec_from(cfg: dict[str, str]) -> GridSpec:
    h = _parse_number(cfg["h"])
    a = _parse_number(cfg["a"])
    R = _parse_number(cfg["R"]) if "R" in cfg else 2 * a
    return GridSpec(h=h, a=a, R=R)


def _grid_from(cfg: dict[str, str]):
    return make_grid(_grid_spec_from(cfg))


def _reaction_from(cfg: dict[str, str]) -> ReactionSpec:
    return ReactionSpec(
        gamma=_parse_number(cfg["gamma"]),
        mode=cfg.get("mode", "two_phase"),
    )


def _solver_config_from(cfg: dict[str, str]) -> SolverConfig:
    kwargs = {}
    if "residual_tol" in cfg:
        kwargs["residual_tol"] = _parse_number(cfg["residual_tol"])
    if "max_iter" in cfg:
        kwargs["max_iter"] = int(cfg["max_iter"])
    return SolverConfig(**kwargs)


def _data_from(cfg: dict[str, str], grid) -> GridFunction:
    kind = cfg.get("data", "ramp")
    amplitude = _parse_number(cfg.get("amplitude", "1"))
    if kind in ("ramp", "plateau"):
        g = profiles.odd_exterior_builder(grid, kind, amplitude)
    elif kind == "const":
        vals = np.zeros(grid.n)
        vals[grid.exterior] = amplitude
        g = GridFunction(grid, vals, TailModel.zero())
    else:
        raise ConfigError(f"unknown data kind {kind!r}")
    if "tail" in cfg:
        g = GridFunction(grid, g.values, TailModel.parse(cfg["tail"]))
    return g


def _require(cfg: dict[str, str], keys, path: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")


def _local_exponent(cfg: dict[str, str], path: str) -> bool:
    operator = cfg.get("operator", "nonlocal")
    if operator not in ("local", "nonlocal"):
        raise ConfigError(f"{path}: operator must be local or nonlocal")
    return operator == "local"


def _check_params(cfg: dict[str, str], mode: str, path: str) -> None:
    """The parameter checks of a run, made before it assembles or solves.

    Covers the required keys, the grid spec, the reaction and the order s
    (each entry of s_list for slimit), and exponent's fit_k and
    deriv_order.  validate makes its own checks and reports them, so for it
    only the required keys are checked here.
    """
    local = mode == "exponent" and _local_exponent(cfg, path)
    required = _REQUIRED_KEYS["solve-local" if local else mode]
    _require(cfg, required, path)
    if mode == "validate":
        return
    spec = _grid_spec_from(cfg)
    _reaction_from(cfg)
    if "s" in required:
        check_order(_parse_number(cfg["s"]))
    if mode == "slimit":
        for tok in cfg["s_list"].split(","):
            check_order(_parse_number(tok))
    if mode == "exponent":
        analysis.check_fit(*_fit_k_and_order(cfg), spec.n_nodes)


def _fit_k_and_order(cfg):
    return int(cfg.get("fit_k", "8")), int(cfg.get("deriv_order", "0"))


def _converged(report, path):
    if not report.converged:
        raise SolveFailure(f"{path}: solve did not converge")
    return report


def _nonlocal_solve(cfg, path):
    grid = _grid_from(cfg)
    reaction = _reaction_from(cfg)
    op = assemble(grid, _parse_number(cfg["s"]))
    g = _data_from(cfg, grid)
    return _converged(solve(op, g, reaction, _solver_config_from(cfg)), path)


def _local_solve(cfg, path):
    report = solve_local(
        _grid_from(cfg),
        _reaction_from(cfg),
        (_parse_number(cfg["left"]), _parse_number(cfg["right"])),
        _solver_config_from(cfg),
    )
    return _converged(report, path)


def _write_solution(report, out_dir, stem, mode, seed) -> None:
    report.solution.to_csv(os.path.join(out_dir, f"{stem}_{mode}.csv"))
    report.write_sidecar(
        os.path.join(out_dir, f"{stem}_{mode}.meta"), extra={"seed": seed}
    )


def _run_solve(cfg, path, out_dir, stem, seed):
    _write_solution(_nonlocal_solve(cfg, path), out_dir, stem, "solve", seed)


def _run_solve_local(cfg, path, out_dir, stem, seed):
    _write_solution(_local_solve(cfg, path), out_dir, stem, "solve-local", seed)


def _run_exponent(cfg, path, out_dir, stem, seed):
    solve_run = _local_solve if _local_exponent(cfg, path) else _nonlocal_solve
    report = solve_run(cfg, path)
    s, gamma = report.s, report.gamma  # s is 1 for the local operator
    u = report.solution
    points = analysis.detect_branching(u, s, gamma)
    hint = _parse_number(cfg.get("x0", "0"))
    x0 = float(points[np.argmin(np.abs(points - hint))]) if points.size else hint
    k, deriv_order = _fit_k_and_order(cfg)
    fit = analysis.fit_growth_exponent(
        u,
        x0,
        r_min=_parse_number(cfg["fit_rmin"]) if "fit_rmin" in cfg else None,
        r_max=_parse_number(cfg["fit_rmax"]) if "fit_rmax" in cfg else None,
        k=k,
        deriv_order=deriv_order,
    )
    analysis.write_exponent_csv(
        os.path.join(out_dir, f"{stem}_exponent.csv"), [(s, gamma, x0, fit)]
    )
    analysis.write_branching_csv(
        os.path.join(out_dir, f"{stem}_branching.csv"), u, points
    )
    report.write_sidecar(
        os.path.join(out_dir, f"{stem}_exponent.meta"),
        extra={"seed": seed, "slope": f"{fit.slope:.17g}", "r2": f"{fit.r2:.17g}"},
    )


def _run_blowup(cfg, path, out_dir, stem, seed):
    report = _nonlocal_solve(cfg, path)
    v = analysis.blow_up(
        report.solution,
        _parse_number(cfg.get("x0", "0")),
        _parse_number(cfg["r"]),
        report.s,
        report.gamma,
    )
    v.to_csv(os.path.join(out_dir, f"{stem}_blowup.csv"))
    report.write_sidecar(
        os.path.join(out_dir, f"{stem}_blowup.meta"),
        extra={"seed": seed, "r": cfg["r"]},
    )


def _run_compare(cfg, path, out_dir, stem, seed):
    grid = _grid_from(cfg)
    trials = analysis.comparison_campaign(
        grid,
        _parse_number(cfg["s"]),
        _reaction_from(cfg),
        n_pairs=int(cfg.get("pairs", "100")),
        seed=seed,
        config=_solver_config_from(cfg),
    )
    if not all(t.converged for t in trials):
        raise SolveFailure(f"{path}: a campaign solve did not converge")
    with open(os.path.join(out_dir, f"{stem}_compare.csv"), "w") as fh:
        fh.write("pair,violation,passed\n")
        for t in trials:
            fh.write(f"{t.pair},{t.violation:.17g},{str(t.passed).lower()}\n")
    failures = sum(not t.passed for t in trials)
    with open(os.path.join(out_dir, f"{stem}_compare.meta"), "w") as fh:
        fh.write(f"pairs={len(trials)}\n")
        fh.write(f"failures={failures}\n")
        fh.write(f"seed={seed}\n")


def _run_liouville(cfg, path, out_dir, stem, seed):
    report = _nonlocal_solve(cfg, path)
    probe = analysis.liouville_probe(
        report.solution, report.s, report.gamma, from_solver=True
    )
    with open(os.path.join(out_dir, f"{stem}_liouville.csv"), "w") as fh:
        fh.write("r,q\n")
        for r, q in zip(probe.radii, probe.q):
            fh.write(f"{r:.17g},{q:.17g}\n")
    report.write_sidecar(
        os.path.join(out_dir, f"{stem}_liouville.meta"),
        extra={
            "seed": seed,
            "classification": probe.classification,
            "asserted_small": str(probe.asserted_small).lower(),
        },
    )


def _run_slimit(cfg, path, out_dir, stem, seed):
    grid = _grid_from(cfg)
    g = _data_from(cfg, grid)
    s_values = [_parse_number(tok) for tok in cfg["s_list"].split(",")]
    rows, local_rep = analysis.s_limit_study(
        grid, s_values, _reaction_from(cfg), g, _solver_config_from(cfg)
    )
    if not local_rep.converged:
        raise SolveFailure(f"{path}: local reference solve did not converge")
    analysis.write_slimit_csv(os.path.join(out_dir, f"{stem}_slimit.csv"), rows)
    local_rep.write_sidecar(
        os.path.join(out_dir, f"{stem}_slimit.meta"),
        extra={"seed": seed, "s_list": cfg["s_list"]},
    )


def _run_validate(cfg, path, out_dir, stem, seed):
    # the checks solve and exponent apply, without allocating nodes
    spec = _grid_spec_from(cfg) if "h" in cfg and "a" in cfg else None
    if "fit_k" in cfg or "deriv_order" in cfg:
        k, deriv_order = _fit_k_and_order(cfg)
        # without a grid there is no node count to bound k by
        analysis.check_fit(k, deriv_order, spec.n_nodes if spec else k)
    rep = profiles.validate_params(
        _parse_number(cfg["s"]), _parse_number(cfg["gamma"])
    )
    lines = []
    for err in rep.errors:
        lines.append(f"status=error message={err}")
    for warn in rep.warnings:
        lines.append(f"status=warning message={warn}")
    for row in rep.rows:
        nu = "indeterminate" if row.nu is None else str(row.nu)
        lines.append(
            f"status=ok s={row.s:.17g} gamma={row.gamma:.17g} "
            f"growth={row.growth:.17g} schauder={row.schauder:.17g} nu={nu}"
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        with open(os.path.join(out_dir, f"{stem}_validate.meta"), "w") as fh:
            fh.write(text)
            fh.write(f"seed={seed}\n")
    if rep.errors:
        raise ConfigError(f"{path}: invalid parameters")


_RUNNERS = {
    "solve": _run_solve,
    "solve-local": _run_solve_local,
    "exponent": _run_exponent,
    "blowup": _run_blowup,
    "compare": _run_compare,
    "liouville": _run_liouville,
    "slimit": _run_slimit,
    "validate": _run_validate,
}


def _run_one(task) -> int:
    mode, path, out_dir, seed, dry_run = task
    try:
        cfg = read_config(path)
        _check_keys(cfg, mode, path)
        _check_params(cfg, mode, path)
        stem = os.path.splitext(os.path.basename(path))[0]
        if dry_run:
            print(f"dry-run: {path} -> {mode} outputs {stem}_{mode}.* in {out_dir}")
            if mode == "validate":
                # validate's checks need no outputs; run it without writing
                _RUNNERS[mode](cfg, path, None, stem, seed)
            return 0
        os.makedirs(out_dir, exist_ok=True)
        _RUNNERS[mode](cfg, path, out_dir, stem, seed)
        return 0
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolveFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deadcore",
        description="Dead-core equation laboratory: solves, exponent fits, and probes.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument(
        "--config",
        action="append",
        required=True,
        help="config file (repeatable; configs run independently)",
    )
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers across configs, at most one per config")
    parser.add_argument("--seed", type=int, default=0, help="campaign seed, recorded in sidecars")
    parser.add_argument("--dry-run", action="store_true", help="parse and plan without writing")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")

    tasks = [(args.mode, path, args.out, args.seed, args.dry_run) for path in args.config]
    # the pool starts all its workers at the first submit: no more than there are tasks
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            codes = list(pool.map(_run_one, tasks))
    else:
        codes = [_run_one(t) for t in tasks]
    return max(codes) if codes else 0


if __name__ == "__main__":
    raise SystemExit(main())
