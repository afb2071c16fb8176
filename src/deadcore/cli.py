"""Command-line front end.

Every run takes one or more line-oriented config files (``key = value``,
``#`` comments) and writes CSV outputs plus a key=value metadata sidecar
into the output directory.  This is the only module that opens a file; the
library only computes.  Each mode's runner builds every row and item of its
files from what the library returns and hands them to write(name, rows),
which _run_one builds: the one place that names a file <out>/<stem>_<name>,
with the config's stem, and writes it, every field through format_field.

Each value is parsed once, by its key's parser in _KEYS, and a mode's
runner gets the parsed values.  Every key a mode accepts is parsed and
checked, with every rule that needs only the grid, before anything is
assembled or written; --dry-run stops there.

Exit codes: 0 success, 2 for validation failures, malformed config lines
(reported with their line number) or a grid too large to allocate, 3 when a
solve fails to converge.
Outputs are byte-deterministic for a fixed config and seed, numpy build
and BLAS thread count; --jobs only parallelizes across independent configs.
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
from .fraclap import assemble, check_order, check_tail
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
    row = "exponent-local" if mode == "exponent" and cfg.get("operator") == "local" else mode
    _, required, optional = _MODE_TABLE[row]
    accepted, required = f"{required} {optional}".split(), required.split()
    for key in cfg:
        if key not in accepted:
            where = "" if row == mode else " with operator = local"
            raise ConfigError(f"{path}: unknown key {key!r} for mode {mode}{where}")
    values = {}
    for key, (parse, default) in _KEYS.items():
        try:
            values[key] = parse(cfg[key]) if key in cfg else default
        except ValueError as exc:
            raise ConfigError(f"{path}: {key} = {cfg[key]}: {exc}") from None
    p = SimpleNamespace(**values, text=cfg, spec=None)
    p.local = row.endswith("local")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
    if p.h is not None and p.a is not None:
        p.spec = GridSpec(h=p.h, a=p.a, R=2 * p.a if p.R is None else p.R)
    p.config = SolverConfig(residual_tol=p.residual_tol, max_iter=p.max_iter)
    if mode in ("exponent", "validate"):
        # without a grid, validate has no node count to bound fit_k by
        analysis.check_fit(p.fit_k, p.deriv_order, p.spec.n_nodes if p.spec else p.fit_k)
    if p.s is not None:  # every mode that takes s and tail; a zero tail passes
        check_tail(p.tail, p.s)
    if mode == "validate":
        return p
    p.reaction = ReactionSpec(gamma=p.gamma, mode=p.mode)
    for s in [p.s] if "s" in required else p.s_list or []:
        check_order(s, p.h)
    p.grid = make_grid(p.spec)
    if p.local or mode == "slimit":  # slimit's reference solve is local
        local_operator(p.grid)  # its scale rule
    if mode in ("exponent", "slimit"):  # slimit takes no fit keys: fit_radii(spec, None, None, 8)
        analysis.fit_radii(p.spec, p.fit_rmin, p.fit_rmax, p.fit_k)
    if mode == "liouville":
        analysis.liouville_radii(p.spec)
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


def format_field(value) -> str:
    """One field of an output file: a float as .17g, which round-trips; a
    bool or None in lower case; anything else as str."""
    if value is None or isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _meta(report, **extra) -> list:
    """A run's .meta items: the report's fields, a one-phase report's
    free_boundary when analysis.free_boundary finds one, then the extras
    sorted by key."""
    items = [
        ("s", report.s),
        ("gamma", report.gamma),
        ("mode", report.mode),
        ("residual", report.residual_inf),
        ("iterations", report.iterations),
        ("energy", report.energy),
        ("converged", report.converged),
    ]
    if report.mode == "one_phase":
        fb = analysis.free_boundary(report.solution, report.s, report.gamma)
        if fb is not None:
            items.append(("free_boundary", fb))
    return items + sorted(extra.items())


def _nodes(u: GridFunction) -> list:
    """A grid function's rows: ``# tail=...``, the header ``x,u``, one row per node."""
    return [(f"# tail={u.tail.encode()}",), ("x", "u"), *zip(u.grid.x, u.values)]


def _run_solve(p, path, seed, write):
    report = _solved(p, path)
    name = "solve-local" if p.local else "solve"
    write(f"{name}.csv", _nodes(report.solution))
    write(f"{name}.meta", _meta(report, seed=seed))


def _run_exponent(p, path, seed, write):
    report = _solved(p, path)
    s, gamma = report.s, report.gamma  # s is 1 for the local operator
    u = report.solution
    points = analysis.detect_branching(u, s, gamma)
    x0 = float(points[np.argmin(np.abs(points - p.x0))]) if points.size else p.x0
    fit = analysis.fit_growth_exponent(
        u, x0, r_min=p.fit_rmin, r_max=p.fit_rmax, k=p.fit_k, deriv_order=p.deriv_order
    )
    target = profiles.growth_exponent(s, gamma) - fit.deriv_order
    write(
        "exponent.csv",
        [
            ("s", "gamma", "x0", "slope", "target", "relative_gap", "r2"),
            (s, gamma, x0, fit.slope, target, abs(fit.slope - target) / target, fit.r2),
        ],
    )
    write("branching.csv", [("x0", "u", "du", "d2u"), *zip(points, *analysis.vanishing(u, points))])
    write("exponent.meta", _meta(report, seed=seed, slope=fit.slope, r2=fit.r2))


def _run_blowup(p, path, seed, write):
    report = _solved(p, path)
    write("blowup.csv", _nodes(analysis.blow_up(report.solution, p.x0, p.r, report.s, report.gamma)))
    write("blowup.meta", _meta(report, seed=seed, r=p.text["r"]))


def _run_compare(p, path, seed, write):
    trials = analysis.comparison_campaign(
        p.grid, p.s, p.reaction, n_pairs=p.pairs, seed=seed, config=p.config
    )
    if not all(t.converged for t in trials):
        raise SolveFailure(f"{path}: a campaign solve did not converge")
    write("compare.csv", [("pair", "violation", "passed"), *((t.pair, t.violation, t.passed) for t in trials)])
    failures = sum(not t.passed for t in trials)
    write("compare.meta", [("pairs", len(trials)), ("failures", failures), ("seed", seed)])


def _run_liouville(p, path, seed, write):
    report = _solved(p, path)
    probe = analysis.liouville_probe(report.solution, report.s, report.gamma)
    write("liouville.csv", [("r", "q"), *zip(probe.radii, probe.q)])
    write("liouville.meta", _meta(report, seed=seed, classification=probe.classification))


def _run_slimit(p, path, seed, write):
    rows, local_rep = analysis.s_limit_study(
        p.grid, p.s_list, p.reaction, _data(p, p.grid), p.config
    )
    if not local_rep.converged:
        raise SolveFailure(f"{path}: local reference solve did not converge")
    write("slimit.csv", [("s", "distance", "slope"), *((row.s, row.distance, row.slope) for row in rows)])
    write("slimit.meta", _meta(local_rep, seed=seed, s_list=p.text["s_list"]))


def _run_validate(p, path, seed, write):
    rep = profiles.validate_params(p.s, p.gamma)
    lines = [f"status=error message={err}" for err in rep.errors]
    lines += [f"status=warning message={warn}" for warn in rep.warnings]
    for row in rep.rows:
        nu = "indeterminate" if row.nu is None else row.nu
        fields = dict(status="ok", s=row.s, gamma=row.gamma, growth=row.growth, schauder=row.schauder, nu=nu)
        lines.append(" ".join(f"{key}={format_field(value)}" for key, value in fields.items()))
    sys.stdout.write("".join(f"{line}\n" for line in lines))
    # each status line is one field; the seed is a (key, value) item
    write("validate.meta", [*((line,) for line in lines), ("seed", seed)])
    if rep.errors:
        raise ConfigError(f"{path}: invalid parameters")


_EXPONENT_KEYS = "operator x0 fit_rmin fit_rmax fit_k deriv_order"
# mode: (runner, required keys, optional keys); validate accepts every key.
# exponent takes solve's keys, or with operator = local solve-local's (the
# row exponent-local, which is no mode of its own), and _EXPONENT_KEYS
_MODE_TABLE = {
    "solve": (_run_solve, "h a s gamma", "R residual_tol max_iter mode data amplitude tail"),
    "solve-local": (_run_solve, "h a gamma left right", "R residual_tol max_iter mode"),
    "exponent": (_run_exponent, "h a s gamma", f"R residual_tol max_iter mode data amplitude tail {_EXPONENT_KEYS}"),
    "exponent-local": (_run_exponent, "h a gamma left right", f"R residual_tol max_iter mode {_EXPONENT_KEYS}"),
    "blowup": (_run_blowup, "h a s gamma r", "R residual_tol max_iter mode data amplitude tail x0"),
    "compare": (_run_compare, "h a s gamma", "R residual_tol max_iter mode pairs"),
    "liouville": (_run_liouville, "h a s gamma", "R residual_tol max_iter mode data amplitude tail"),
    "slimit": (_run_slimit, "h a gamma s_list", "R residual_tol max_iter mode data amplitude"),
    "validate": (_run_validate, "s gamma", " ".join(_KEYS)),
}
MODES = tuple(mode for mode in _MODE_TABLE if mode != "exponent-local")


def _run_one(task) -> int:
    mode, path, out_dir, seed, dry_run = task
    try:
        p = _parse(read_config(path), mode, path)
        stem = os.path.splitext(os.path.basename(path))[0]
        if dry_run:
            print(f"dry-run: {path} -> {mode} outputs {stem}_{mode}.* in {out_dir}")
            if mode == "validate":
                # validate's checks need no outputs; run it without writing
                _run_validate(p, path, seed, lambda name, rows: None)
            return 0
        os.makedirs(out_dir, exist_ok=True)

        def write(name, rows):
            """Write <out>/<stem>_<name>, one line per row: a .meta's items
            joined by "=", a CSV's fields by ","."""
            sep = "=" if name.endswith(".meta") else ","
            with open(os.path.join(out_dir, f"{stem}_{name}"), "w") as fh:
                fh.writelines(sep.join(map(format_field, row)) + "\n" for row in rows)

        _MODE_TABLE[mode][0](p, path, seed, write)
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
