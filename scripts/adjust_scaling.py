#!/usr/bin/env python3
"""Time the adjustment search as the number of candidate covariates grows.

    python3 scripts/adjust_scaling.py [--runs 5] [--case adjust_chain:12 ...]
                                      [--root DIR] [--out BENCH_adjust_scaling.json]

Each case is a spec built here: ``adjust_chain(k)``, where all k
confounders of the held event must be adjusted for (k = 12, 100, 500 and
2000), and ``sparse_chain(n)``, where a chain of n + 1 covariates needs its
root only (n = 1000, 4000 and 40000; the last is a 40,006-node SWIG).
``--case FAMILY:SIZE`` picks cases, once per case; the default is all
seven.

Starts fresh Python processes one after another, never two at once: one
per case and run.  Each child reads the sources under ``DIR/src`` (default:
this checkout), parses the spec from its stdin and times one
``identify_estimand`` call in process; the adjustment set it reports is
checked against the one the case was built to need.

Prints one JSON line: per case, the median and quartiles of the identify
time in milliseconds; ``--out`` writes the same line to a file.  Run it on
two checkouts to compare them, alternating if the machine's speed drifts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = {"adjust_chain": (12, 100, 500, 2000), "sparse_chain": (1000, 4000, 40000)}

CHILD = (
    "import sys, time\n"
    "from swigc.dsl import parse_study\n"
    "from swigc.identify import identify_estimand\n"
    "study = parse_study(sys.stdin.read())\n"
    "start = time.perf_counter()\n"
    "report = identify_estimand(study)\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed * 1e3)\n"
    "for arm in (report.left, report.right):\n"
    "    print(*(s.justification for s in arm.steps if s.rule == 'stratification'))\n"
)


def adjust_chain(k: int) -> str:
    """A -> M -> Y with k adjust-eligible confounders C01.. of M and Y."""
    names = [f"C{i:02d}" for i in range(1, k + 1)]
    lines = ['study "Adjust chain" {', "  node A { role: treatment; }",
             "  node M { role: intercurrent; }"]
    lines += [f"  node {c} {{ adjust: true; }}" for c in names]
    lines += ["  node Y { role: outcome; }", "  edges {", "    A -> M; A -> Y; M -> Y;"]
    lines += [f"    {c} -> M; {c} -> Y;" for c in names]
    lines += ["  }", "  strategy M: hypothetical(0);",
              "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return "\n".join(lines) + "\n"


def sparse_chain(n: int) -> str:
    """A -> M -> Y with adjust-eligible covariates C0 -> C1 -> ... -> Cn,
    where C0 -> M and Cn -> Y."""
    names = [f"C{i}" for i in range(n + 1)]
    lines = ['study "Sparse chain" {', "  node A { role: treatment; }",
             "  node M { role: intercurrent; }"]
    lines += [f"  node {c} {{ adjust: true; }}" for c in names]
    lines += ["  node Y { role: outcome; }", "  edges {", "    A -> M; A -> Y; M -> Y;",
              f"    C0 -> M; C{n} -> Y;"]
    lines += [f"    {u} -> {v};" for u, v in zip(names, names[1:])]
    lines += ["  }", "  strategy M: hypothetical(0);",
              "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return "\n".join(lines) + "\n"


def case(family: str, size: int) -> tuple[str, str]:
    """A case's spec text and the stratification step each arm must show."""
    if family == "adjust_chain":
        chosen = sorted(f"C{i:02d}" for i in range(1, size + 1))
        return adjust_chain(size), f"stratification over {{{', '.join(chosen)}}}"
    return sparse_chain(size), "stratification over {C0}"


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def _time(text: str, expected: str, env: dict, cwd: Path) -> float:
    argv = [sys.executable, "-c", CHILD]
    done = subprocess.run(argv, input=text, env=env, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: the identify child exited {done.returncode}:\n{done.stderr}")
    ms, *arms = done.stdout.splitlines()
    if arms != [expected, expected]:
        sys.exit(f"error: expected {expected!r} in both arms, got {arms!r}")
    return float(ms)


def _case_name(text: str) -> tuple[str, int]:
    family, _, size = text.partition(":")
    if family not in SIZES or not size.isdigit() or int(size) < 1:
        raise argparse.ArgumentTypeError(f"expected FAMILY:SIZE with FAMILY in {sorted(SIZES)}")
    return family, int(size)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5, help="runs per case (default 5)")
    p.add_argument("--case", type=_case_name, action="append", dest="cases",
                   metavar="FAMILY:SIZE", help="a case to time (default: all seven)")
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is measured")
    p.add_argument("--out", type=Path, help="also write the JSON line to this file")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    root = args.root.resolve()
    if not (root / "src" / "swigc" / "__init__.py").is_file():
        p.error(f"no swigc sources under {root / 'src'}")
    cases = args.cases or [(family, size) for family, sizes in SIZES.items() for size in sizes]

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    timings = {}
    for family, size in cases:
        text, expected = case(family, size)
        samples = [_time(text, expected, env, root) for _ in range(args.runs)]
        timings[f"{family}({size})"] = _summary(samples)

    line = json.dumps(
        {
            "bench": "adjust_scaling",
            "python": platform.python_version(),
            "runs": args.runs,
            "identify_ms": timings,
        }
    )
    print(line)
    if args.out is not None:
        args.out.write_text(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
