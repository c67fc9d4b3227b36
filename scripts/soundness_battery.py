#!/usr/bin/env python3
"""Run seeded soundness batteries over the bundled studies.

For every study and every seed, a random exact data model is drawn, the
derived formula (when one exists) is evaluated against the enumerated truth,
and row-wise consistency is checked.  Any mismatch is printed with its seed
so it can be replayed with `swigc simulate <spec> --seed N`.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
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


@dataclass
class Config:
    specs: tuple[str, ...] = DEFAULT_STUDIES
    first_seed: int = 0
    n_seeds: int = 100
    jobs: int = 1


def run(cfg: Config) -> int:
    failures = 0
    t0 = time.perf_counter()
    for name in cfg.specs:
        study = parse_study((SPECS_DIR / name).read_text())
        seeds = range(cfg.first_seed, cfg.first_seed + cfg.n_seeds)
        reports = soundness_battery(study, seeds, jobs=cfg.jobs)
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
    cfg = Config(
        specs=tuple(args.studies),
        first_seed=args.first,
        n_seeds=args.seeds,
        jobs=args.jobs,
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
