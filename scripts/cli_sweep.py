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
unwritable values, and render --json --out.  Then small members of the
benchmark's synthetic families (perfbench/families.py), each through
identify, dsep, simulate --seed 0 and simulate --seed 0 --csv; they are
written to a temporary directory and printed as families/NAME.  Then
the refused --seeds calls: with --seed, and past the cap of 10^6 seeds.
Then a chain whose every link has a latent root of its own (see
``roots_chain``), through identify, simulate --seed 0..2 and simulate
--seed 0 --csv; it is written next to the families and printed as
ROOTS.  Then texts at the edges of the lexer (see ``lexer_specs``)
through validate, printed as lexer/NAME.  Then two adjust chains with
blocker pairs (see ``pair_specs``) through identify, printed as
families/NAME.  Last, a dense-refute study with many open paths (see
``witness_specs``) through dsep --limit 20, in text and with --json, so
the order of its witnesses is fingerprinted too; it is printed as
families/NAME.  Then the calls no other part reaches (see
``more_cases``): an accepted battery, render --dag, a data model that
misses an entry an intervention needs (written next to the families and
printed as MISSING), dsep sets with commas and parentheses, empty,
overlapping and unknown sets, a witness that opens a collider, and the
argv values argparse refuses.  Spec paths are printed relative to the
checkout, and the output file as OUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import random
import shlex
import tempfile
from pathlib import Path
from unittest import mock

from swigc.cli import main

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("families", ROOT / "perfbench" / "families.py")
families = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(families)

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


def family_specs() -> dict[str, str]:
    """Spec text by file name: adjust-chain and dense-refute at k = 2 and 3,
    the smallest row-scaling study (144 units, shared copies in its arm
    worlds) and a cap-refusal study just past the cap."""
    rng = random.Random("cli-sweep")
    specs = {}
    for k in (2, 3):
        specs[f"adjust_chain_k{k}.swg"] = families.adjust_chain(rng, k)[0]
        specs[f"dense_refute_k{k}.swg"] = families.dense_refute(rng, k)[0]
    specs["row_scaling_144.swg"] = families.row_scaling(1)
    specs["cap_refusal.swg"] = families.cap_refusal((2, 3), 4)
    return specs


def pair_specs() -> dict[str, str]:
    """Spec text by file name: adjust chains with blocker pairs.  Either
    node of a pair blocks its path, so several smallest sets tie and the
    label order picks one; the second chain has two held events."""
    rng = random.Random("cli-sweep-pairs")
    return {
        "adjust_chain_k2_pairs2.swg": families.adjust_chain(rng, 2, decoys=1, pairs=2)[0],
        "adjust_chain_k3_pairs3_events2.swg": families.adjust_chain(rng, 3, pairs=3, events=2)[0],
    }


def pair_cases(out: str) -> list[list[str]]:
    home = os.path.join(os.path.dirname(out), "families")
    return [["identify", os.path.join(home, name)] for name in pair_specs()]


def witness_specs() -> dict[str, str]:
    """Spec text by file name: a dense-refute study at k = 6.  Between M
    and Y given A it has 6 open paths of three nodes and 30 of four, so
    the first 20 span two lengths and many label orders."""
    rng = random.Random("cli-sweep-witness")
    return {"dense_refute_k6.swg": families.dense_refute(rng, 6)[0]}


def witness_cases(out: str) -> list[list[str]]:
    home = os.path.join(os.path.dirname(out), "families")
    query = ["--x", "M", "--y", "Y", "--z", "A", "--limit", "20"]
    argvs = []
    for name in witness_specs():
        spec = os.path.join(home, name)
        argvs += [["dsep", spec, *query], ["dsep", spec, *query, "--json"]]
    return argvs


def family_cases(out: str) -> list[list[str]]:
    argvs = []
    for name in family_specs():
        spec = os.path.join(os.path.dirname(out), "families", name)
        argvs += [
            ["identify", spec],
            ["dsep", spec, *SUBCOMMANDS["dsep"]],
            ["simulate", spec, "--seed", "0"],
            ["simulate", spec, "--seed", "0", "--csv", out],
        ]
    return argvs


def seeds_cases(out: str) -> list[list[str]]:
    # Only ranges refused at once: a battery checks every seed it accepts.
    itt = "specs/itt.swg"
    return [
        ["simulate", itt, "--seed", "3", "--seeds", "0:2"],
        ["simulate", itt, "--seed", "3", "--seeds", "0:2", "--csv", out],
        ["simulate", itt, "--seeds", "0:10000000000000000000"],
        ["simulate", itt, "--seeds", "0:1000000000000000000"],
    ]


ROOTS = "latent_roots_3x3.swg"


def roots_chain(roots: int, values: int) -> str:
    """A -> X1 -> ... -> Y with ``roots`` binary links, each caused by a
    latent root of ``values`` values that nothing else reads."""
    links = [f"X{i}" for i in range(1, roots)] + ["Y"]
    support = ", ".join(map(str, range(values)))
    lines = [f'study "Latent roots {roots}x{values}" {{', "  node A { role: treatment; }"]
    lines += [f"  node {x} {{ }}" for x in links[:-1]]
    lines += [f"  node U{i} {{ observed: false; values: {support}; }}" for i in range(1, roots + 1)]
    lines += ["  node Y { role: outcome; }", "  edges {"]
    lines += [f"    {u} -> {v};" for u, v in zip(["A", *links], links)]
    lines += [f"    U{i} -> {x};" for i, x in enumerate(links, start=1)]
    lines += ["  }", "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return "\n".join(lines) + "\n"


def roots_cases(out: str) -> list[list[str]]:
    spec = os.path.join(os.path.dirname(out), ROOTS)
    argvs = [["identify", spec]]
    argvs += [["simulate", spec, "--seed", str(seed)] for seed in range(3)]
    return argvs + [["simulate", spec, "--seed", "0", "--csv", out]]


def lexer_specs() -> dict[str, str]:
    """Spec text by file name: a form feed and a "²" after a comment, a
    comment holding a quote before an unterminated string, an integer
    literal longer than int() converts, and a string where a keyword
    belongs."""
    itt = (ROOT / "specs" / "itt.swg").read_text(encoding="utf-8")
    return {
        "form_feed.swg": '# a colon:\n\f "Broken" {\n',
        "superscript.swg": "# a comment\n\u00b2 ?\n",
        "quote_in_comment.swg": '# say "hi\n"oops\n',
        "long_integer.swg": itt.replace("A = 1 vs", f"A = {'1' * 5000} vs", 1),
        "string_keyword.swg": itt.replace("  node M", '  "node" M', 1),
    }


def lexer_cases(out: str) -> list[list[str]]:
    home = os.path.join(os.path.dirname(out), "lexer")
    return [["validate", os.path.join(home, name)] for name in lexer_specs()]


MISSING = "missing_entry.swg"


def missing_entry_spec() -> str:
    """simplest.swg with A always 0, so Y's table covers only A = 0 and the
    arm A = 1 misses an entry."""
    text = (ROOT / "specs" / "simplest.swg").read_text(encoding="utf-8")
    text = text.replace("A := noise { 0: 1/2; 1: 1/2; };", "A := noise { 0: 1; };")
    return text.replace("(1, 0) -> 1; (1, 1) -> 1; ", "")


def more_cases(out: str) -> list[list[str]]:
    itt, adjusted = "specs/itt.swg", "specs/hypothetical_adjusted.swg"
    composite, missing = "specs/composite.swg", os.path.join(os.path.dirname(out), MISSING)
    argvs = [
        ["simulate", itt, "--seeds", "0:3"],
        ["simulate", itt, "--seeds", "0:3", "--json"],
        ["simulate", itt, "--seeds", "0:3", "--jobs", "2"],
        ["render", itt, "--dag"],
        ["simulate", missing],
        ["simulate", missing, "--csv", out],
        ["simulate", missing, "--csv", "-"],
        ["dsep", adjusted, "--x", "Y(a,m)", "--y", "M(a)", "--z", "A,C"],
        ["dsep", adjusted, "--x", " , ", "--y", "M(a)"],
        ["dsep", adjusted, "--x", "Y", "--y", "M,Y(a,m)"],
        ["dsep", adjusted, "--x", "Y", "--y", "Q(a)"],
        ["dsep", composite, "--x", "M(a)", "--y", "Y(a)", "--z", "U(a)"],
        ["dsep", composite, "--x", "M(a)", "--y", "Y(a)", "--z", "U(a)", "--json"],
    ]
    refused = [["--seeds", "5"], ["--seeds", "a:b"], ["--seeds", "3:3"], ["--jobs", "x"],
               ["--jobs", "0"], ["--bogus"]]
    argvs += [["simulate", itt, *extra] for extra in refused]
    return argvs + [["dsep", itt, *SUBCOMMANDS["dsep"], "--limit", "-1"]]


def corpus(out: str) -> list[list[str]]:
    argvs = []
    for spec in sorted(f"specs/{p.name}" for p in (ROOT / "specs").glob("*.swg")):
        for command, extra in SUBCOMMANDS.items():
            argvs.append([command, spec, *extra])
            argvs.append([command, spec, *extra, "--json"])
        argvs += [["simulate", spec, "--seed", str(seed)] for seed in range(10)]
        argvs.append(["simulate", spec, "--csv", out])
        argvs.append(["simulate", spec, "--seed", "0", "--csv", out])
    argvs += edge_cases(out) + family_cases(out) + seeds_cases(out) + roots_cases(out)
    return argvs + lexer_cases(out) + pair_cases(out) + witness_cases(out) + more_cases(out)


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
    home = os.path.join(os.path.dirname(out), "")
    shown = shlex.join("OUT" if a == out else a.removeprefix(home) for a in argv)
    streams = (sha(s.getvalue().encode("utf-8")) for s in (stdout, stderr))
    return f"{code} {' '.join(streams)} {written} {shown}"


def sweep() -> None:
    """Print one line per call of the corpus; run from the checkout's root."""
    # argparse wraps a usage message to the terminal's width; a fixed width
    # makes its refusals print the same bytes on every terminal.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        out = os.path.join(tmp, "table.csv")
        os.mkdir(os.path.join(tmp, "families"))
        for name, text in {**family_specs(), **pair_specs(), **witness_specs()}.items():
            Path(tmp, "families", name).write_text(text, encoding="utf-8")
        Path(tmp, ROOTS).write_text(roots_chain(3, 3), encoding="utf-8")
        Path(tmp, MISSING).write_text(missing_entry_spec(), encoding="utf-8")
        os.mkdir(os.path.join(tmp, "lexer"))
        for name, text in lexer_specs().items():
            Path(tmp, "lexer", name).write_text(text, encoding="utf-8")
        for argv in corpus(out):
            print(run(argv, out), flush=True)


if __name__ == "__main__":
    os.chdir(ROOT)  # the spec paths, and any error naming one, are relative
    sweep()
