#!/usr/bin/env python3
"""Measure what every swigc call pays before its work: start-up.

    python3 scripts/startup.py [--runs 15] [--root DIR] [--out BENCH_startup.json]

Starts fresh Python processes one after another, never two at once.  Each
run is two children: one times ``import swigc.cli`` in process and counts
the modules it adds to ``sys.modules``; the other is a whole CLI call,
``python -m swigc.cli validate specs/itt.swg``, timed by wall clock from
here.  Both read the sources under ``DIR/src`` (default: this checkout)
with a bytecode cache in a temporary ``PYTHONPYCACHEPREFIX``, warmed by
one unrecorded run first, so every recorded run imports from a warm cache
(``PYTHONDONTWRITEBYTECODE`` is dropped from the children's environment).

Prints one JSON line: the median and quartiles of both timings in
milliseconds, and the module count; ``--out`` writes the same line to a
file.  Run it on two checkouts to compare them, alternating if the
machine's speed drifts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = "specs/itt.swg"

IMPORT_CHILD = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import swigc.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed * 1e3, len(sys.modules) - before)\n"
)


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def _run(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    wall = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return wall, done.stdout


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=15, help="recorded runs (default 15)")
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is measured")
    p.add_argument("--out", type=Path, help="also write the JSON line to this file")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    root = args.root.resolve()
    if not (root / "src" / "swigc" / "__init__.py").is_file():
        p.error(f"no swigc sources under {root / 'src'}")

    imports, walls, added = [], [], []
    with tempfile.TemporaryDirectory(prefix="swigc-pycache-") as cache:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up run must fill the cache
        importer = [sys.executable, "-c", IMPORT_CHILD]
        validate = [sys.executable, "-m", "swigc.cli", "validate", SPEC]
        for run in range(args.runs + 1):
            _, out = _run(importer, env, root)
            wall, _ = _run(validate, env, root)
            if run == 0:
                continue  # warms the bytecode cache
            ms, modules = out.split()
            imports.append(float(ms))
            walls.append(wall)
            added.append(int(modules))

    line = json.dumps(
        {
            "bench": "startup",
            "python": platform.python_version(),
            "runs": args.runs,
            "import_swigc_cli_ms": _summary(imports),
            "validate_wall_ms": _summary(walls),
            "modules_added": statistics.median_low(added),
        }
    )
    print(line)
    if args.out is not None:
        args.out.write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
