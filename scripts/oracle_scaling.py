#!/usr/bin/env python3
"""Time the exact oracle's soundness check as its noise supports grow.

    python3 scripts/oracle_scaling.py [--runs 5] [--case row_scaling:56 ...]
                                      [--root DIR] [--out BENCH_oracle_scaling.json]

Each case is a spec: ``row_scaling:N``, the benchmark's study whose latent
outcome cause has N noise values (N = 56, 448, 3500 and 6944, the last just
under the cap of 10^6 noise configurations; ``perfbench/families.py``);
``roots_chain:K``, a chain of K links each caused by a ten-valued latent
root that nothing else reads (K = 4; ``scripts/cli_sweep.py``);
``chronic_pain``, the bundled spec; and ``adjust_chain:K``, the
adjustment study whose K binary confounders of the held event and the
outcome must all be adjusted for (K = 8, whose law has 2,048 states;
``scripts/adjust_scaling.py``), where reading the law, not building it,
takes a visible share of the check.  ``--case`` picks cases, once per
case; the default is all seven.

Runs each case in fresh Python processes through ``scaling_harness.py``:
the child parses the spec and times ``check_soundness(study, seed=0)`` in
process, as the least of three warm calls after an untimed first one.
It also reports the widest state count of the oracle's first forward
pass (null from a checkout whose law does not record it) and the
report's exact values, which must be the same in every run of a case and
must be sound.

Prints one JSON line: per case, the median and quartiles of the check's
time in milliseconds, the widest state count and the exact values;
``--out`` writes the same line to a file.  Run it on two checkouts to
compare them: the widest counts and the values diff directly, and the
timings are best taken alternating if the machine's speed drifts.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import adjust_scaling  # noqa: E402
import scaling_harness  # noqa: E402

ROOT = scaling_harness.ROOT
SIZES = {
    "row_scaling": (56, 448, 3500, 6944),
    "roots_chain": (4,),
    "chronic_pain": (None,),
    "adjust_chain": (8,),
}

CHILD = (
    "import json, sys\n"
    "from swigc import oracle\n"
    "from swigc.dsl import parse_study\n"
    "widest = []\n"
    "law = oracle._law\n"
    "def spy(*args):\n"
    "    found = law(*args)\n"
    "    widest.append(getattr(found, 'widest', None))\n"
    "    return found\n"
    "oracle._law = spy\n"
    "study = parse_study(sys.stdin.read())\n"
    "report, ms = least(lambda: oracle.check_soundness(study, seed=0))\n"
    "print(ms)\n"
    "print(json.dumps({\n"
    "    'widest': widest[0],\n"
    "    'sound': report.sound,\n"
    "    'true': str(report.true_value),\n"
    "    'formula': str(report.formula_value),\n"
    "    'naive': str(report.naive_value),\n"
    "}))\n"
)


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def case(family: str, size: int | None) -> tuple[str, str]:
    """A case's name and spec text."""
    if family == "row_scaling":
        families = _load(ROOT / "perfbench" / "families.py")
        return f"row_scaling({size})", families.row_scaling(size)
    if family == "roots_chain":
        sys.path.insert(0, str(ROOT / "src"))  # cli_sweep imports swigc.cli
        return f"roots_chain({size}, 10)", _load(ROOT / "scripts" / "cli_sweep.py").roots_chain(
            size, 10
        )
    if family == "adjust_chain":
        return f"adjust_chain({size})", adjust_scaling.adjust_chain(size)
    return family, (ROOT / "specs" / f"{family}.swg").read_text(encoding="utf-8")


def check(key: tuple[str, int | None], lines: list[str]) -> dict:
    """The widest state count and the exact values of a sound report."""
    (line,) = lines
    found = json.loads(line)
    if not found.pop("sound"):
        raise ValueError(f"an unsound report: {found}")
    return {"widest": found.pop("widest"), "values": found}


def _case_name(text: str) -> tuple[str, int | None]:
    family, colon, size = text.partition(":")
    if family == "chronic_pain" and not colon:
        return family, None
    if family not in SIZES or family == "chronic_pain" or not size.isdigit() or int(size) < 1:
        raise argparse.ArgumentTypeError(
            "expected row_scaling:SIZE, roots_chain:SIZE, chronic_pain or adjust_chain:SIZE"
        )
    return family, int(size)


def main(argv: list[str] | None = None) -> int:
    return scaling_harness.main(
        argv,
        __doc__,
        bench="oracle_scaling",
        timed=("check_soundness_ms",),
        child=CHILD,
        cases=[(family, size) for family, sizes in SIZES.items() for size in sizes],
        parse_case=_case_name,
        metavar="FAMILY[:SIZE]",
        case=case,
        check=check,
    )


if __name__ == "__main__":
    sys.exit(main())
