"""deadcore benchmark: one workload for a fixed time, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/deadcore``).
Each round starts a fresh process (workload.py) with ``src`` on PYTHONPATH
and one BLAS/OpenMP thread, lets it set up and runs one operation set in it.
Round k gets the seed 1000 N + k, so each campaign round draws its own pairs.
Rounds repeat while the elapsed time is below S seconds, so every run
attempts whole rounds.  The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics, end-to-end ones with
--trace 0 and per-layer ones with --trace 1.

With --trace 1 the rounds alternate untraced and traced; the per-layer
figures are medians over the traced rounds, and trace.overhead_s is the
traced minus the untraced median run_s.  A copy of the result is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("local-branching", "nonlocal-ramp", "comparison-campaign")
SETUP_SAMPLES = 5  # set-up is timed in at least this many processes per run
ROUND_SEEDS = 1000  # round k of a run with --seed n gets seed 1000 n + k
HARD_LIMIT_S = 170.0  # a process still running then is killed; a run must end within 180 s


class BenchError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one BLAS thread: on these workloads' dense systems a second one only
    # spin-waits, doubling CPU time without shortening wall time
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str, env, t_end: float) -> tuple[float, dict]:
    """Start one workload process; return (set-up seconds, its result)."""
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), workload, str(seed), mode, workdir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(0.0, t_end - t0), proc.kill)
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in proc.stdout:
            if line == "ready\n" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or setup_s is None or (mode != "setup" and result is None):
        raise BenchError(f"{mode} process for {workload} failed (exit {proc.returncode})")
    return setup_s, result or {}


def median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "deadcore", "__init__.py")):
        print(f"error: no deadcore source under {root}/src; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)  # metric names and units
    env = child_env(root)
    start = time.perf_counter()
    t_end = start + HARD_LIMIT_S
    modes = ("plain", "traced") if args.trace else ("plain",)
    setups, rounds = [], {mode: [] for mode in modes}
    try:
        for k in itertools.count():
            round_seed = ROUND_SEEDS * args.seed + k
            for mode in modes:
                setup_s, result = run_child(args.workload, round_seed, mode, env, t_end)
                setups.append(setup_s)
                rounds[mode].append(result)
                print(f"round {mode}: setup {setup_s:.3f}s run {result['run_s']:.3f}s cpu {result['cpu_s']:.3f}s")
                for msg in result["failures"]:
                    print(f"check failed: {msg}", file=sys.stderr)
            if time.perf_counter() - start >= args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(args.workload, ROUND_SEEDS * args.seed, "setup", env, t_end)[0])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    done = [r for mode in modes for r in rounds[mode]]
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    plain = rounds["plain"]
    if args.trace:
        traced = rounds["traced"]
        names = traced[0]["layers"]
        metrics = {name: median(r["layers"][name] for r in traced) for name in names}
        metrics["trace.overhead_s"] = median(r["run_s"] for r in traced) - median(r["run_s"] for r in plain)
        absent = sorted({name for r in traced for name in r["absent"]})
        if absent:
            print("absent entry points: " + ", ".join(absent))
    else:
        metrics = {
            "setup_s": median(setups),
            "run_s": median(r["run_s"] for r in plain),
            "cpu_s": median(r["cpu_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    print(
        f"{args.workload} seed={args.seed} rounds={len(done)} setups={len(setups)} "
        f"threads={env['OMP_NUM_THREADS']} elapsed={time.perf_counter() - start:.1f}s"
    )
    line = json.dumps(out)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
