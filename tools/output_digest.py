"""Digest every output of the committed CLI configs, for byte-identity checks.

Each config ``<mode>/<name>.cfg`` under the configs directory (default
tools/configs) runs in process through deadcore.cli.main, as

    deadcore <mode> --config <mode>/<name>.cfg --out <tmp>/<mode> --seed 4

with the package in this checkout's src/.  Prints one ``sha256  <mode>/<file>``
line per output file, sorted by name, where a run's stdout and stderr count
as the files <name>.stdout and <name>.stderr; then one ``exit <code>  <config>``
line per run.  Two checkouts whose digests match wrote the same bytes:

    python tools/output_digest.py [configs directory]

The bits of the dense solves follow the numpy build and the BLAS thread
count, so compare digests made under the same OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 4


def digest(configs: Path) -> list[str]:
    """The digest lines of every config under ``configs``."""
    sys.path.insert(0, str(ROOT / "src"))
    import deadcore
    from deadcore.cli import main

    if Path(deadcore.__file__).resolve().parent != ROOT / "src" / "deadcore":
        raise SystemExit(f"deadcore was imported from {deadcore.__file__}, not from {ROOT / 'src'}")
    files, codes = [], []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(configs)  # relative config paths keep the checkout's location out of every message
        try:
            for cfg in sorted(Path().glob("*/*.cfg")):
                mode = cfg.parent.name
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([mode, "--config", str(cfg), "--out", os.path.join(tmp, mode), "--seed", str(SEED)])
                files += [(f"{mode}/{cfg.stem}.stdout", out.getvalue().encode()), (f"{mode}/{cfg.stem}.stderr", err.getvalue().encode())]
                codes.append(f"exit {code}  {cfg}")
        finally:
            os.chdir(cwd)
        files += [(path.relative_to(tmp).as_posix(), path.read_bytes()) for path in Path(tmp).rglob("*") if path.is_file()]
    return [f"{hashlib.sha256(data).hexdigest()}  {name}" for name, data in sorted(files)] + codes


def main(argv: list[str]) -> int:
    configs = Path(argv[0]) if argv else ROOT / "tools" / "configs"
    print("\n".join(digest(configs.resolve())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
