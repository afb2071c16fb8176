"""Command-line front end.

Every run takes one or more line-oriented config files (``key = value``,
``#`` comments) and writes CSV outputs plus a key=value metadata sidecar
into the output directory, with file names derived from the config stem.

Each value is parsed once, by its key's parser in _KEYS, and a mode's
runner gets the parsed values.  Every key a mode accepts is parsed and
checked, with every rule that needs only the grid, before anything is
assembled or written; --dry-run stops there.

Exit codes: 0 success, 2 for validation failures, malformed config lines
(reported with their line number) or a grid too large to allocate, 3 when a
solve fails to converge.
Single-threaded runs are byte-deterministic for a fixed config and seed;
--jobs only parallelizes across independent configs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np

from . import analysis, profiles
from .fraclap import assemble, check_order
from .grid import GridFunction, GridSpec, TailModel, make_grid
from .solver import REACTION_MODES, ReactionSpec, SolverConfig, check_finite, local_operator, solve, solve_local

__all__ = ["main"]


class ConfigError(Exception):
    pass


class SolveFailure(Exception):
    pass


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


def _number(text: str) -> float:
    """A finite float literal or an exact fraction like 1/256."""
    num, slash, den = text.partition("/")
    try:
        value = float(num) / float(den) if slash else float(text)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _pairs(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("pairs must be at least 1")
    return n


def _orders(text: str) -> list[float]:
    """Comma-separated orders s, each admitted by check_order."""
    orders = [_number(tok) for tok in text.split(",")]
    for s in orders:
        check_order(s)
    return orders


def _tail(text: str) -> TailModel:
    tail = TailModel.parse(text)
    check_finite(tail.c, tail.p)
    return tail


def _choice(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}")
        return text

    return parse


# key: (parser, value when absent); a parser makes every check of its own key
_KEYS = {
    "h": (_number, None),
    "a": (_number, None),
    "R": (_number, None),  # absent: 2a
    "residual_tol": (_number, SolverConfig.residual_tol),
    "max_iter": (int, SolverConfig.max_iter),
    "s": (_number, None),
    "gamma": (_number, None),
    "mode": (_choice(*REACTION_MODES), ReactionSpec.mode),
    "data": (_choice("ramp", "plateau", "const"), "ramp"),
    "amplitude": (_number, 1.0),
    "tail": (_tail, TailModel.zero()),
    "operator": (_choice("nonlocal", "local"), "nonlocal"),
    "left": (_number, None),
    "right": (_number, None),
    "x0": (_number, 0.0),
    "r": (_number, None),
    "fit_rmin": (_number, None),
    "fit_rmax": (_number, None),
    "fit_k": (int, 8),
    "deriv_order": (int, 0),
    "pairs": (_pairs, 100),
    "s_list": (_orders, None),
}


def _parse(cfg: dict[str, str], mode: str, path: str) -> SimpleNamespace:
    """Parse and check every value of ``cfg``: all that a run of ``mode`` checks before it solves.

    Returns each key's value (its default when absent), the config text and
    the GridSpec, Grid, ReactionSpec and SolverConfig they build.  validate
    builds no ReactionSpec and needs no grid: it reports bad s and gamma
    itself.
    """
    _, required, optional = _MODE_TABLE[mode]
    accepted = f"{required} {optional}".split()
    for key in cfg:
        if key not in accepted:
            raise ConfigError(f"{path}: unknown key {key!r} for mode {mode}")
    values = {}
    for key, (parse, default) in _KEYS.items():
        try:
            values[key] = parse(cfg[key]) if key in cfg else default
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} = {cfg[key]}: {exc}") from None
    p = SimpleNamespace(**values, text=cfg, spec=None)
    p.local = mode == "solve-local" or (mode == "exponent" and p.operator == "local")
    if p.local:
        required = _MODE_TABLE["solve-local"][1]
    required = required.split()
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    if p.h is not None and p.a is not None:
        p.spec = GridSpec(h=p.h, a=p.a, R=2 * p.a if p.R is None else p.R)
    p.config = SolverConfig(residual_tol=p.residual_tol, max_iter=p.max_iter)
    if mode in ("exponent", "validate"):
        # without a grid, validate has no node count to bound fit_k by
        analysis.check_fit(p.fit_k, p.deriv_order, p.spec.n_nodes if p.spec else p.fit_k)
    if mode == "validate":
        return p
    p.reaction = ReactionSpec(gamma=p.gamma, mode=p.mode)
    for s in [p.s] if "s" in required else p.s_list or []:
        check_order(s, p.h)
    p.grid = make_grid(p.spec)
    if p.local or mode == "slimit":  # slimit's reference solve is local
        local_operator(p.grid)  # its scale rule
    if mode == "exponent":
        analysis.fit_radii(p.spec, p.fit_rmin, p.fit_rmax, p.fit_k)
    if mode == "blowup":
        analysis.blow_up_window(p.spec, p.x0, p.r)
    return p


def _data(p, grid) -> GridFunction:
    if p.data == "const":
        values = np.zeros(grid.n)
        values[grid.exterior] = p.amplitude
    else:
        values = profiles.odd_exterior_builder(grid, p.data, p.amplitude).values
    return GridFunction(grid, values, p.tail)


def _solved(p, path):
    """The converged solve of a parsed config: solve-local's, or the nonlocal one."""
    if p.local:
        report = solve_local(p.grid, p.reaction, (p.left, p.right), p.config)
    else:
        report = solve(assemble(p.grid, p.s), _data(p, p.grid), p.reaction, p.config)
    if not report.converged:
        raise SolveFailure(f"{path}: solve did not converge")
    return report


def _run_solve(p, path, out_dir, stem, seed):
    report = _solved(p, path)
    name = os.path.join(out_dir, f"{stem}_{'solve-local' if p.local else 'solve'}")
    report.solution.to_csv(f"{name}.csv")
    report.write_sidecar(f"{name}.meta", extra={"seed": seed})


def _run_exponent(p, path, out_dir, stem, seed):
    report = _solved(p, path)
    s, gamma = report.s, report.gamma  # s is 1 for the local operator
    u = report.solution
    points = analysis.detect_branching(u, s, gamma)
    x0 = float(points[np.argmin(np.abs(points - p.x0))]) if points.size else p.x0
    fit = analysis.fit_growth_exponent(
        u, x0, r_min=p.fit_rmin, r_max=p.fit_rmax, k=p.fit_k, deriv_order=p.deriv_order
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


def _run_blowup(p, path, out_dir, stem, seed):
    report = _solved(p, path)
    v = analysis.blow_up(report.solution, p.x0, p.r, report.s, report.gamma)
    v.to_csv(os.path.join(out_dir, f"{stem}_blowup.csv"))
    report.write_sidecar(
        os.path.join(out_dir, f"{stem}_blowup.meta"),
        extra={"seed": seed, "r": p.text["r"]},
    )


def _run_compare(p, path, out_dir, stem, seed):
    trials = analysis.comparison_campaign(
        p.grid, p.s, p.reaction, n_pairs=p.pairs, seed=seed, config=p.config
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


def _run_liouville(p, path, out_dir, stem, seed):
    report = _solved(p, path)
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


def _run_slimit(p, path, out_dir, stem, seed):
    rows, local_rep = analysis.s_limit_study(
        p.grid, p.s_list, p.reaction, _data(p, p.grid), p.config
    )
    if not local_rep.converged:
        raise SolveFailure(f"{path}: local reference solve did not converge")
    analysis.write_slimit_csv(os.path.join(out_dir, f"{stem}_slimit.csv"), rows)
    local_rep.write_sidecar(
        os.path.join(out_dir, f"{stem}_slimit.meta"),
        extra={"seed": seed, "s_list": p.text["s_list"]},
    )


def _run_validate(p, path, out_dir, stem, seed):
    rep = profiles.validate_params(p.s, p.gamma)
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


# mode: (runner, required keys, optional keys); validate accepts every key,
# and exponent with operator = local requires the keys of solve-local instead
_MODE_TABLE = {
    "solve": (_run_solve, "h a s gamma", "R residual_tol max_iter mode data amplitude tail"),
    "solve-local": (_run_solve, "h a gamma left right", "R residual_tol max_iter mode"),
    "exponent": (
        _run_exponent,
        "h a s gamma",
        "R residual_tol max_iter mode data amplitude tail operator left right x0 fit_rmin fit_rmax fit_k deriv_order",
    ),
    "blowup": (_run_blowup, "h a s gamma r", "R residual_tol max_iter mode data amplitude tail x0"),
    "compare": (_run_compare, "h a s gamma", "R residual_tol max_iter mode pairs"),
    "liouville": (_run_liouville, "h a s gamma", "R residual_tol max_iter mode data amplitude tail"),
    "slimit": (_run_slimit, "h a gamma s_list", "R residual_tol max_iter mode data amplitude"),
    "validate": (_run_validate, "s gamma", " ".join(_KEYS)),
}
MODES = tuple(_MODE_TABLE)


def _run_one(task) -> int:
    mode, path, out_dir, seed, dry_run = task
    try:
        p = _parse(read_config(path), mode, path)
        stem = os.path.splitext(os.path.basename(path))[0]
        if dry_run:
            print(f"dry-run: {path} -> {mode} outputs {stem}_{mode}.* in {out_dir}")
            if mode == "validate":
                # validate's checks need no outputs; run it without writing
                _run_validate(p, path, None, stem, seed)
            return 0
        os.makedirs(out_dir, exist_ok=True)
        _MODE_TABLE[mode][0](p, path, out_dir, stem, seed)
        return 0
    except (ConfigError, ValueError, KeyError, OSError, MemoryError) as exc:
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
    parser.add_argument("--dry-run", action="store_true", help="parse and check as a run does, without solving or writing")
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
