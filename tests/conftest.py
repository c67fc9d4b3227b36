"""Shared fixtures: repo paths, parsed studies, an in-process CLI runner,
and two readers only the tests need: a graph payload reader and exact
conditional independence read off the forward pass's law."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import pytest

from swigc.cli import main as cli_main
from swigc.dsl import parse_study
from swigc.errors import GraphError, UnknownEndpoint
from swigc.graph import CausalGraph, CompositeRule, Context, NodeAttrs, NodeId
from swigc.oracle import PotentialOutcomeTable, _law

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMAS = ROOT / "schemas"

STUDY_FILES = (
    "simplest.swg",
    "itt.swg",
    "hypothetical_unobserved.swg",
    "hypothetical_adjusted.swg",
    "composite.swg",
    "principal_stratum.swg",
    "chronic_pain.swg",
    "enumeration_cap.swg",
)


@dataclass
class CliResult:
    code: int
    out: str
    err: str


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in process and capture exit code, stdout, stderr."""

    def run(*argv: str) -> CliResult:
        try:
            code = cli_main(list(argv))
        except SystemExit as e:  # argparse-level usage errors
            code = e.code if isinstance(e.code, int) else 2
        out, err = capsys.readouterr()
        return CliResult(code=code, out=out, err=err)

    return run


def load_script(name: str):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def spec_path(name: str) -> str:
    return str(SPECS / name)


def spec_text(name: str) -> str:
    return (SPECS / name).read_text()


def load_study(name: str):
    return parse_study(spec_text(name))


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.fixture(scope="session")
def studies():
    """All parseable bundled studies, keyed by file stem."""
    return {Path(n).stem: load_study(n) for n in STUDY_FILES}


def _context_from_payload(payload: Iterable) -> Context:
    out = []
    for var, val in payload:
        if not isinstance(val, (int, str)) or isinstance(val, bool):
            raise GraphError(f"bad context value {val!r}")
        out.append((str(var), val))
    return tuple(out)


def graph_from_payload(payload: Mapping) -> CausalGraph:
    """The graph ``graph_to_payload`` wrote, through the checking constructor."""
    nodes: list[NodeId] = []  # CausalGraph refuses a duplicate label
    attrs: dict[NodeId, NodeAttrs] = {}
    for entry in payload["nodes"]:
        a = entry["attrs"]
        d = a.get("deterministic")
        rule = CompositeRule(d["source"], d["guard"], int(d["failure"])) if d else None
        nid = NodeId(entry["name"], _context_from_payload(entry["context"]), bool(entry["fixed"]))
        nodes.append(nid)
        attrs[nid] = NodeAttrs(
            role=a["role"],
            observed=bool(a["observed"]),
            conditioned=bool(a["conditioned"]),
            deterministic=rule,
            values=tuple(int(v) for v in a["values"]),
        )
    ids = {n.label: n for n in nodes}
    edges = []
    for u, v in payload["edges"]:
        if u not in ids or v not in ids:
            raise UnknownEndpoint(f"edge endpoint {u if u not in ids else v!r} is not a node")
        edges.append((ids[u], ids[v]))
    return CausalGraph(nodes, attrs, edges)


def conditionally_independent(
    table: PotentialOutcomeTable, x: str, y: str, z: Sequence[str]
) -> bool:
    """Exact conditional independence of two observed variables, read off
    the forward pass's law over x, y and z (``reference_oracle`` scans
    the rows instead)."""
    names = list(dict.fromkeys((x, y, *z)))
    law = _law(table.graph, table.scm, table.contexts, [(v, ()) for v in names])
    marginals: dict[tuple[str, ...], dict] = {}

    def mass(assignment: Mapping[str, int]) -> int:
        key = tuple(assignment)
        if key not in marginals:
            marginals[key] = law.given([(v, ()) for v in key])
        return marginals[key].get(tuple(assignment.values()), (0, 0))[0]

    support = {v: sorted(value for value, in law.given([(v, ())])) for v in names}
    for z_combo in product(*(support[v] for v in z)):
        base = dict(zip(z, z_combo))
        pz = mass(base)
        if pz == 0:
            continue
        for xv in support[x]:
            for yv in support[y]:
                pxy = mass({**base, x: xv, y: yv})
                px = mass({**base, x: xv})
                py = mass({**base, y: yv})
                if pxy * pz != px * py:
                    return False
    return True
