#!/usr/bin/env python3
"""Measure what every swigc call pays before its work: start-up and the
front door.

    python3 scripts/startup.py [--runs 15] [--root DIR] [--out BENCH_startup.json]

Starts fresh Python processes one after another, never two at once.  Each
run is four children: a bare ``python -c pass``, timed by wall clock from
here, which is the interpreter and ``site`` start-up no swigc change can
remove; one times ``import swigc.cli`` in process and counts the modules
it adds to ``sys.modules``; one is a whole CLI call,
``python -m swigc.cli validate specs/itt.swg``, timed by wall clock from
here; and one times the front door in process, after one untimed round:
the argv parse of every request shape of the benchmark's ``specs``
workload, and ``dsl.parse_file`` of every bundled spec.  All three read
the sources under ``DIR/src`` (default: this checkout) with a bytecode
cache in a temporary ``PYTHONPYCACHEPREFIX``, warmed by one unrecorded
run first, so every recorded run imports from a warm cache
(``PYTHONDONTWRITEBYTECODE`` is dropped from the children's environment).

Prints one JSON line: the median and quartiles over the runs of the
bare start-up, import and CLI timings in milliseconds, of the CLI call
net of the bare start-up (swigc's part of it) and of the import's share
of that part, of the median argv parse over the request shapes in
microseconds, and of each spec's parse in microseconds, and the module
count; ``--out`` writes the same line to a file.  The options, the
summaries and the output are ``scaling_harness.py``'s.  Run it on two
checkouts to compare them, alternating if the machine's speed drifts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from scaling_harness import ROOT, _summary, emit, parse_args  # noqa: E402

SPEC = "specs/itt.swg"
# Calls of each argv shape and of each spec's parse per run.
FRONT_CALLS = 40

IMPORT_CHILD = (
    "import sys, time\n"
    "before = len(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import swigc.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed * 1e3, len(sys.modules) - before)\n"
)

# Run in ``DIR`` with ``argv[1]`` the directory of the benchmark's
# workloads.  A checkout whose cli has no ``_parse_args`` (one from before
# the subcommand's own parser read the arguments) is timed with its full
# parser, ``_build_parser()``.
FRONT_CHILD = f"""
import json, statistics, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from swigc import cli, dsl
from swigc.errors import SpecError

argvs = [argv for stem in workloads.SPEC_STEMS for argv, _ in workloads.spec_argvs(stem, 0)]
argvs += [argv for argv, _ in workloads.extra_argvs()]
parse_args = getattr(cli, "_parse_args", None) or cli._build_parser().parse_args


def parse_file(path):
    try:
        dsl.parse_file(path)
    except SpecError:
        pass


def per_call_us(call, arg):
    start = time.perf_counter()
    for _ in range({FRONT_CALLS}):
        call(arg)
    return (time.perf_counter() - start) * 1e6 / {FRONT_CALLS}


specs = sorted(str(p) for p in Path("specs").glob("*.swg"))
for _ in range(2):  # the first round is untimed; the second is printed
    argv_us = statistics.median(per_call_us(parse_args, argv) for argv in argvs)
    spec_us = {{Path(p).stem: per_call_us(parse_file, p) for p in specs}}
print(json.dumps({{"argv_parse_us": argv_us, "parse_file_us": spec_us}}))
"""


def _by_key(rows: list[dict]) -> dict:
    return {key: _summary([row[key] for row in rows]) for key in sorted(rows[0])}


def _run(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    wall = (time.perf_counter() - start) * 1e3
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return wall, done.stdout


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv, __doc__, 15, "recorded runs")
    root = args.root

    bares, imports, walls, added, argv_us, spec_us = [], [], [], [], [], []
    with tempfile.TemporaryDirectory(prefix="swigc-pycache-") as cache:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # the warm-up run must fill the cache
        bare = [sys.executable, "-c", "pass"]
        importer = [sys.executable, "-c", IMPORT_CHILD]
        validate = [sys.executable, "-m", "swigc.cli", "validate", SPEC]
        front = [sys.executable, "-c", FRONT_CHILD, str(ROOT / "perfbench")]
        for run in range(args.runs + 1):
            bare_wall, _ = _run(bare, env, root)
            _, out = _run(importer, env, root)
            wall, _ = _run(validate, env, root)
            _, front_out = _run(front, env, root)
            if run == 0:
                continue  # warms the bytecode cache
            ms, modules = out.split()
            bares.append(bare_wall)
            imports.append(float(ms))
            walls.append(wall)
            added.append(int(modules))
            timings = json.loads(front_out)
            argv_us.append(timings["argv_parse_us"])
            spec_us.append(timings["parse_file_us"])

    # swigc's part of each CLI call: its wall time less the bare start-up.
    nets = [wall - bare for wall, bare in zip(walls, bares)]
    emit(
        {
            "bench": "startup",
            "python": platform.python_version(),
            "runs": args.runs,
            "bare_python_wall_ms": _summary(bares),
            "import_swigc_cli_ms": _summary(imports),
            "validate_wall_ms": _summary(walls),
            "validate_net_ms": _summary(nets),
            "import_share_of_net": _summary([i / n for i, n in zip(imports, nets)]),
            "argv_parse_us": _summary(argv_us),
            "parse_file_us": _by_key(spec_us),
            "modules_added": statistics.median_low(added),
        },
        args.out,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
