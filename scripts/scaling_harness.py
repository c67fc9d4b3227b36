"""The harness the scaling scripts share: fresh processes, checks, one JSON line.

A scaling script times calls on a series of spec texts.  It gives
``main`` its child program, which reads the spec from its stdin, prints
each call's time in milliseconds on a line of its own, in the order of
``timed``'s names, and what the calls found on the lines after them; its
cases, each a key that ``case`` turns into a name and a spec text; and
``check``, which reads what one run found and returns what the case
reports besides its times, or raises ``ValueError`` when the run found
something the case was not built to give.

The child times a call with ``least(call)``, which the harness defines
for it: it makes the call once untimed, so imports, first-use caches and
the allocator's warm-up stay out of the time, then times ``REPEATS``
calls and returns the last call's result and the least time in
milliseconds.  So a run's time is the fastest of a few warm calls, not
the cost of a first call in a fresh process.

``main`` starts fresh Python processes one after another, never two at
once: one per case and run, each reading the sources under ``DIR/src``
(``--root DIR``, default: this checkout).  Every run of a case must
report the same.  It prints one JSON line: per case, the median and
quartiles of the time and what the case reported; ``--out`` writes the
same line to a file.

``scripts/startup.py`` times other children but reads its options with
``parse_args``, summarises its samples with ``_summary`` and prints its
line with ``emit``.
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
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3

# Put before each child program; see the module docstring.
LEAST = f"""\
import time as _time


def least(call):
    call()
    best = float("inf")
    for _ in range({REPEATS}):
        start = _time.perf_counter()
        result = call()
        best = min(best, _time.perf_counter() - start)
    return result, best * 1e3

"""


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def parse_args(
    argv: list[str] | None,
    doc: str,
    runs: int,
    what: str,
    more: Callable[[argparse.ArgumentParser], object] = lambda p: None,
) -> argparse.Namespace:
    """``--runs`` (``what`` they are; default ``runs``), the options
    ``more`` adds, ``--root`` and ``--out``, read from ``argv`` and
    checked: at least two runs, and swigc sources under the root, which
    comes back resolved."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("--runs", type=int, default=runs, help=f"{what} (default {runs})")
    more(p)
    p.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ is measured")
    p.add_argument("--out", type=Path, help="also write the JSON line to this file")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    args.root = args.root.resolve()
    if not (args.root / "src" / "swigc" / "__init__.py").is_file():
        p.error(f"no swigc sources under {args.root / 'src'}")
    return args


def emit(result: dict, out: Path | None) -> None:
    """Print ``result`` as one JSON line, and write the line to ``out``."""
    line = json.dumps(result)
    print(line)
    if out is not None:
        out.write_text(line + "\n")


def _run(child: str, text: str, env: dict, cwd: Path) -> list[str]:
    argv = [sys.executable, "-c", LEAST + child]
    done = subprocess.run(argv, input=text, env=env, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise ValueError(f"the child exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()


def main(
    argv: list[str] | None,
    doc: str,
    *,
    bench: str,
    timed: Sequence[str],
    child: str,
    cases: Sequence[tuple],
    parse_case: Callable[[str], tuple],
    metavar: str,
    case: Callable[..., tuple[str, str]],
    check: Callable[[tuple, list[str]], dict],
) -> int:
    """Run a scaling script: ``bench`` names it in the JSON line and
    ``timed`` names each of its timings there; ``--case`` values are read
    with ``parse_case``, and all of ``cases`` run without one."""
    args = parse_args(
        argv, doc, 5, "runs per case",
        lambda p: p.add_argument(
            "--case", type=parse_case, action="append", dest="cases", metavar=metavar,
            help=f"a case to time (default: all {len(cases)})",
        ),
    )
    env = dict(os.environ, PYTHONPATH=str(args.root / "src"))
    result = {"bench": bench, "python": platform.python_version(), "runs": args.runs}
    result.update((field, {}) for field in timed)
    for key in args.cases or cases:
        name, text = case(*key)
        times, reports = [], []
        for _ in range(args.runs):
            try:
                lines = _run(child, text, env, args.root)
                reports.append(check(key, lines[len(timed):]))
            except ValueError as exc:
                sys.exit(f"error: {name}: {exc}")
            times.append([float(ms) for ms in lines[:len(timed)]])
        if any(report != reports[0] for report in reports):
            sys.exit(f"error: {name} reported differently across runs: {reports}")
        for field, samples in zip(timed, zip(*times)):
            result[field][name] = _summary(list(samples))
        for field, value in reports[0].items():
            result.setdefault(field, {})[name] = value

    emit(result, args.out)
    return 0
