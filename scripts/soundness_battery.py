#!/usr/bin/env python3
"""Run seeded soundness batteries over the bundled studies.

For every study and every seed, a random exact data model is drawn, and
the derived formula (when one exists) is evaluated against the exact true
contrast, both read from the model's exact joint law; consistency is checked
as that law is computed.  Any mismatch is printed with its seed so it can be
replayed with `swigc simulate <spec> --seed N`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from swigc.dsl import parse_study
from swigc.oracle import soundness_battery

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

DEFAULT_STUDIES = (
    "itt.swg",
    "hypothetical_adjusted.swg",
    "composite.swg",
    "principal_stratum.swg",
    "chronic_pain.swg",
)


def run(studies: list[str], first: int, n_seeds: int, jobs: int) -> int:
    failures = 0
    t0 = time.perf_counter()
    for name in studies:
        study = parse_study((SPECS_DIR / name).read_text())
        seeds = range(first, first + n_seeds)
        reports = soundness_battery(study, seeds, jobs=jobs)
        bad = [r for r in reports if not r.sound]
        failures += len(bad)
        statuses = sorted({r.status for r in reports})
        print(
            f"{study.name:34s} seeds {seeds.start}..{seeds.stop - 1}"
            f"  sound {len(reports) - len(bad)}/{len(reports)}"
            f"  statuses {','.join(statuses)}"
        )
        for r in bad:
            print(f"  MISMATCH seed {r.seed}: gap={r.gap} consistency={r.consistency_ok}")
    dt = time.perf_counter() - t0
    print(f"total {dt:.2f}s, {failures} mismatches")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=100, help="seeds per study")
    ap.add_argument("--first", type=int, default=0, help="first seed")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers")
    ap.add_argument("--studies", nargs="*", default=list(DEFAULT_STUDIES))
    args = ap.parse_args()
    return run(args.studies, args.first, args.seeds, args.jobs)


if __name__ == "__main__":
    sys.exit(main())
