#!/usr/bin/env python3
"""Run a fixed corpus of CLI calls in process and fingerprint each outcome.

Each line is the exit code, then the sha256 of stdout, of stderr and of the
file the call wrote ("-" when it wrote none), then the argv.  Two checkouts
that behave the same print the same lines, so a diff of two runs shows
every call whose output changed:

    PYTHONPATH=src python3 scripts/cli_sweep.py > sweep.txt

The corpus: every bundled spec under every subcommand, in text and with
--json; simulate with --seed 0..9; and simulate --csv to a file, with the
study's own data model and with --seed 0.  Spec paths are printed
relative to the checkout, and the output file as OUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
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


def corpus(out: str) -> list[list[str]]:
    argvs = []
    for spec in sorted(f"specs/{p.name}" for p in (ROOT / "specs").glob("*.swg")):
        for command, extra in SUBCOMMANDS.items():
            argvs.append([command, spec, *extra])
            argvs.append([command, spec, *extra, "--json"])
        argvs += [["simulate", spec, "--seed", str(seed)] for seed in range(10)]
        argvs.append(["simulate", spec, "--csv", out])
        argvs.append(["simulate", spec, "--seed", "0", "--csv", out])
    return argvs


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
    shown = " ".join("OUT" if a == out else a for a in argv)
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
