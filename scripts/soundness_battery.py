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

from swigc.cli import _at_least, _error_code
from swigc.dsl import parse_file
from swigc.errors import SwigcError
from swigc.model import StudySpec
from swigc.oracle import soundness_battery

SPECS_DIR = Path(__file__).resolve().parent.parent / "specs"

DEFAULT_STUDIES = (
    "itt.swg",
    "hypothetical_adjusted.swg",
    "composite.swg",
    "principal_stratum.swg",
    "chronic_pain.swg",
)


def run(studies: list[StudySpec], first: int, n_seeds: int, jobs: int) -> int:
    failures = 0
    t0 = time.perf_counter()
    for study in studies:
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    # A count below one would check nothing and still report success; the
    # CLI's own check refuses it, as `swigc simulate --jobs 0` is refused.
    ap.add_argument("--seeds", type=_at_least(1), default=100, help="seeds per study")
    ap.add_argument("--first", type=int, default=0, help="first seed")
    ap.add_argument("--jobs", type=_at_least(1), default=1, help="parallel workers")
    ap.add_argument("--studies", nargs="*", default=list(DEFAULT_STUDIES))
    args = ap.parse_args(argv)
    try:
        studies = [parse_file(SPECS_DIR / name) for name in args.studies]
        return run(studies, args.first, args.seeds, args.jobs)
    except (SwigcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _error_code(e)  # as `swigc simulate` exits


if __name__ == "__main__":
    sys.exit(main())
