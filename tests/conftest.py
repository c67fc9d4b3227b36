"""Shared fixtures: repo paths, parsed studies, and an in-process CLI runner."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import pytest

from swigc.cli import main as cli_main
from swigc.dsl import parse_study

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
