#!/usr/bin/env python3
"""Time the adjustment search as the number of candidate covariates grows.

    python3 scripts/adjust_scaling.py [--runs 5] [--case adjust_chain:12 ...]
                                      [--root DIR] [--out BENCH_adjust_scaling.json]

Each case is a spec built here: ``adjust_chain(k)``, where all k
confounders of the held event must be adjusted for (k = 12, 100, 500 and
2000); ``sparse_chain(n)``, where a chain of n + 1 covariates needs its
root only (n = 1000, 4000 and 40000; the last is a 40,006-node SWIG); and
``dense_refute(k)``, where k latent confounders of the held event and the
outcome, with an edge between every two of them, leave it unidentified
(k = 125, 250 and 500; the last has 125,753 edges).  ``--case
FAMILY:SIZE`` picks cases, once per case; the default is all ten.

Runs each case in fresh Python processes through ``scaling_harness.py``.
The child times, in process, three layers: one ``parse_study`` of the
spec, one ``study_swig`` of the compiled study (the split graph that
identify starts from), and one ``identify_estimand`` of the parsed study.
Each time is the least of three warm calls after an untimed first one.
What each arm reports is checked against what the case was built to
give: the adjustment set, or the witness through the least latent label.

Prints one JSON line: per case, the median and quartiles of each layer's
time in milliseconds (``parse_ms``, ``split_ms`` and ``identify_ms``);
``--out`` writes the same line to a file.  Run it on two checkouts to
compare them, alternating if the machine's speed drifts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import scaling_harness  # noqa: E402

SIZES = {
    "adjust_chain": (12, 100, 500, 2000),
    "sparse_chain": (1000, 4000, 40000),
    "dense_refute": (125, 250, 500),
}

CHILD = (
    "import sys\n"
    "from swigc.dsl import parse_study\n"
    "from swigc.estimand import compile_study, study_swig\n"
    "from swigc.identify import identify_estimand\n"
    "text = sys.stdin.read()\n"
    "study, parse_ms = least(lambda: parse_study(text))\n"
    "compiled = compile_study(study)\n"
    "_, split_ms = least(lambda: study_swig(compiled))\n"
    "report, identify_ms = least(lambda: identify_estimand(study))\n"
    "print(parse_ms, split_ms, identify_ms, sep='\\n')\n"
    "for arm in (report.left, report.right):\n"
    "    if arm.status == 'blocked':\n"
    "        print(arm.blocked.witness_label)\n"
    "    else:\n"
    "        print(*(s.justification for s in arm.steps if s.rule == 'stratification'))\n"
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


def dense_refute(k: int) -> str:
    """A -> M -> Y with k latent confounders U001.. of M and Y, and an edge
    U_i -> U_j for every i < j."""
    names = [f"U{i:03d}" for i in range(1, k + 1)]
    lines = ['study "Dense refute" {', "  node A { role: treatment; }",
             "  node M { role: intercurrent; }"]
    lines += [f"  node {u} {{ observed: false; }}" for u in names]
    lines += ["  node Y { role: outcome; }", "  edges {", "    A -> M; A -> Y; M -> Y;"]
    lines += [f"    {u} -> M; {u} -> Y;" for u in names]
    lines += [f"    {u} -> {v};" for i, u in enumerate(names) for v in names[i + 1:]]
    lines += ["  }", "  strategy M: hypothetical(0);",
              "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return "\n".join(lines) + "\n"


def case(family: str, size: int) -> tuple[str, str]:
    """A case's name and spec text."""
    build = {"adjust_chain": adjust_chain, "sparse_chain": sparse_chain}.get(family, dense_refute)
    return f"{family}({size})", build(size)


def check(key: tuple[str, int], arms: list[str]) -> dict:
    """Nothing to report once each arm gave what the case was built to
    give: its stratification step, or its witness."""
    family, size = key
    if family == "adjust_chain":
        chosen = sorted(f"C{i:02d}" for i in range(1, size + 1))
        expected = f"stratification over {{{', '.join(chosen)}}}"
    elif family == "dense_refute":
        expected = "M(a) <- U001 -> Y(a,m)"
    else:
        expected = "stratification over {C0}"
    if arms != [expected, expected]:
        raise ValueError(f"expected {expected!r} in both arms, got {arms!r}")
    return {}


def _case_name(text: str) -> tuple[str, int]:
    family, _, size = text.partition(":")
    if family not in SIZES or not size.isdigit() or int(size) < 1:
        raise argparse.ArgumentTypeError(f"expected FAMILY:SIZE with FAMILY in {sorted(SIZES)}")
    return family, int(size)


def main(argv: list[str] | None = None) -> int:
    return scaling_harness.main(
        argv,
        __doc__,
        bench="adjust_scaling",
        timed=("parse_ms", "split_ms", "identify_ms"),
        child=CHILD,
        cases=[(family, size) for family, sizes in SIZES.items() for size in sizes],
        parse_case=_case_name,
        metavar="FAMILY:SIZE",
        case=case,
        check=check,
    )


if __name__ == "__main__":
    sys.exit(main())
