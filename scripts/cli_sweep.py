#!/usr/bin/env python3
"""Run a fixed corpus of CLI calls in process and fingerprint each outcome.

Each line is the exit code, then the sha256 of stdout, of stderr and of the
file the call wrote ("-" when it wrote none), then the argv.  Two checkouts
that behave the same print the same lines, so a diff of two runs shows
every call whose output changed:

    PYTHONPATH=src python3 scripts/cli_sweep.py > sweep.txt

The corpus: every bundled spec under every subcommand, in text and with
--json; simulate with --seed 0..9; and simulate --csv to a file, with the
study's own data model and with --seed 0.  Then the option edge cases:
--world, --out and --csv given empty, malformed, duplicated and
unwritable values, and render --json --out.  Spec paths are printed
relative to the checkout, and the output file as OUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import tempfile
from pathlib import Path

from swigc.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Extra arguments per subcommand; dsep needs a query, and this one names
# nodes every parseable bundled study has.
SUBCOMMANDS = {
    "validate": [],
    "swig": [],
    "dsep": ["--x", "Y", "--y", "A"],
    "identify": [],
    "simulate": [],
    "render": [],
}


# --world values per study, valid ones first: empty, malformed, duplicated,
# unknown, undeclared and incomplete assignments.
WORLDS = {
    "specs/itt.swg": [
        "A=1", " A = 0 ", "", ",", "A", "A=", "A=x", "A=1,A=0", "B=1", "A=9", "A=1,B=0",
    ],
    "specs/chronic_pain.swg": ["A=1,M3=0,M4=0", "M4=0,A=0,M3=0", "A=1,M3=0", "A=1,M3=0,M4=0,M4=1"],
}

# Paths no call can write, named alike on every machine: a directory of
# the checkout and a file under a directory that does not exist.
UNWRITABLE = ["specs", "no-such-dir/out"]


def edge_cases(out: str) -> list[list[str]]:
    argvs = []
    for spec, worlds in WORLDS.items():
        for world in worlds:
            argvs.append(["swig", spec, "--world", world])
            argvs.append(["render", spec, "--world", world, "--json"])
        argvs.append(["swig", spec, "--world", worlds[0], "--world", worlds[1]])
        argvs.append(["render", spec, "--dag", "--world", worlds[0]])
    itt = "specs/itt.swg"
    for value in ["", out, *UNWRITABLE]:
        argvs.append(["render", itt, "--out", value])
        argvs.append(["render", itt, "--json", "--out", value])
        argvs.append(["simulate", itt, "--csv", value])
        argvs.append(["simulate", itt, "--csv", value, "--json"])
    argvs += [
        ["render", itt, "--format", "dot", "--world", "A=1", "--out", out],
        ["render", itt, "--out", "specs", "--out", out],
        ["simulate", itt, "--csv", "-"],
        ["simulate", itt, "--csv", "-", "--json"],
        ["simulate", itt, "--csv", out, "--csv", "-"],
        ["simulate", itt, "--seeds", "0:3", "--csv", out],
    ]
    return argvs


def corpus(out: str) -> list[list[str]]:
    argvs = []
    for spec in sorted(f"specs/{p.name}" for p in (ROOT / "specs").glob("*.swg")):
        for command, extra in SUBCOMMANDS.items():
            argvs.append([command, spec, *extra])
            argvs.append([command, spec, *extra, "--json"])
        argvs += [["simulate", spec, "--seed", str(seed)] for seed in range(10)]
        argvs.append(["simulate", spec, "--csv", out])
        argvs.append(["simulate", spec, "--seed", "0", "--csv", out])
    return argvs + edge_cases(out)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], out: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refusing the argv
            code = e.code
    written = "-"
    if os.path.exists(out):
        written = sha(Path(out).read_bytes())
        os.remove(out)
    shown = shlex.join("OUT" if a == out else a for a in argv)
    streams = (sha(s.getvalue().encode("utf-8")) for s in (stdout, stderr))
    return f"{code} {' '.join(streams)} {written} {shown}"


def sweep() -> None:
    """Print one line per call of the corpus; run from the checkout's root."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "table.csv")
        for argv in corpus(out):
            print(run(argv, out), flush=True)


if __name__ == "__main__":
    os.chdir(ROOT)  # the spec paths, and any error naming one, are relative
    sweep()
