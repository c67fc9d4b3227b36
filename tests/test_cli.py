"""End-to-end CLI behaviour: exit codes, text output, golden traces."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from swigc.dsl import MAX_SPEC_BYTES
from swigc.errors import SwigcError

from conftest import ROOT, STUDY_FILES, golden_text, load_script, spec_path, spec_text
import reference_dsl


def run_cli_process(*argv, stdin=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "swigc.cli", *argv], input=stdin, env=env,
                          capture_output=True, text=True, timeout=120)


IDENTIFY_EXITS = {
    "itt": 0,
    "hypothetical_unobserved": 5,
    "hypothetical_adjusted": 0,
    "composite": 0,
    "principal_stratum": 4,
    "chronic_pain": 0,
}


class TestValidate:
    def test_ok(self, run_cli):
        res = run_cli("validate", spec_path("itt.swg"))
        assert res.code == 0
        assert res.out.splitlines()[0] == "ok: Treatment policy"
        assert "grammar: 1.0" in res.out
        assert "strategy: M treatment_policy" in res.out

    def test_parse_error(self, run_cli):
        res = run_cli("validate", spec_path("bad_syntax.swg"))
        assert res.code == 2
        assert "3:17: unexpected 'treatment'" in res.err

    def test_overlong_integer_literal(self, run_cli, tmp_path):
        spec = tmp_path / "long.swg"
        spec.write_text(spec_text("itt.swg").replace(
            "intercurrent; }", "intercurrent; values: 0, 1, " + "9" * 5000 + "; }"))
        res = run_cli("validate", str(spec))
        assert res.code == 2
        assert res.out == ""
        assert res.err == "error: 6:46: integer literal of 5000 digits is too long\n"

    def test_unobserved_treatment_is_refused(self, run_cli, tmp_path):
        spec = tmp_path / "latent_a.swg"
        spec.write_text(spec_text("itt.swg").replace(
            "node A { role: treatment; }", "node A { role: treatment; observed: false; }"))
        res = run_cli("validate", str(spec))
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: node A: role treatment must be observed\n"

    def test_missing_file(self, run_cli):
        res = run_cli("validate", "specs/no_such_study.swg")
        assert res.code == 2

    def test_missing_argument(self, run_cli):
        res = run_cli("validate")
        assert res.code == 2

    def test_directory_is_unusable_input(self, run_cli):
        res = run_cli("validate", spec_path(""))
        assert res.code == 2
        assert res.out == ""
        assert res.err.startswith("error: [Errno 21] Is a directory: ")
        assert res.err.count("\n") == 1

    def test_binary_file_is_unusable_input(self, run_cli, tmp_path):
        spec = tmp_path / "binary.swg"
        spec.write_bytes(b"study \xff\xfe\x00 {")
        res = run_cli("validate", str(spec))
        assert res.code == 2
        assert res.out == ""
        assert res.err == (
            f"error: {spec}: not UTF-8 text (invalid start byte at byte 6)\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero here")
    def test_endless_file_is_refused_at_the_cap(self):
        done = run_cli_process("validate", "/dev/zero")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: /dev/zero: longer than the cap of {MAX_SPEC_BYTES} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin here")
    def test_spec_is_read_from_a_pipe(self):
        # A pipe has no size to bound the read, so it is read to its end.
        done = run_cli_process("validate", "/dev/stdin", stdin=spec_text("itt.swg"))
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "ok: Treatment policy"

    def test_file_one_byte_over_the_cap_is_refused(self, tmp_path):
        spec = tmp_path / "long.swg"
        spec.write_bytes(b" " * (MAX_SPEC_BYTES + 1))
        done = run_cli_process("validate", str(spec))
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {spec}: longer than the cap of {MAX_SPEC_BYTES} bytes\n"

    def test_file_at_the_cap_is_read(self, run_cli, tmp_path):
        spec = tmp_path / "long.swg"
        spec.write_bytes(b" " * MAX_SPEC_BYTES)
        res = run_cli("validate", str(spec))
        assert res.code == 2
        end = MAX_SPEC_BYTES + 1
        assert res.err == f'error: 1:{end}: unexpected end of file (expected "study")\n'

    def test_bad_byte_is_named_by_its_offset_in_the_file(self, run_cli, tmp_path):
        spec = tmp_path / "late.swg"
        spec.write_bytes(spec_text("itt.swg").encode() + b"#" * 20000 + b"\xff")
        res = run_cli("validate", str(spec))
        offset = len(spec.read_bytes()) - 1
        assert res.err == f"error: {spec}: not UTF-8 text (invalid start byte at byte {offset})\n"

    def test_carriage_returns_end_lines(self, run_cli, tmp_path):
        spec = tmp_path / "crlf.swg"
        spec.write_bytes(b'study "T" {\r\n\tnode A {\r\t\t?')
        res = run_cli("validate", str(spec))
        assert res.err == "error: 3:3: unexpected character '?'\n"


class TestIdentify:
    @pytest.mark.parametrize("stem", sorted(IDENTIFY_EXITS))
    def test_trace_matches_golden(self, run_cli, stem):
        res = run_cli("identify", spec_path(f"{stem}.swg"))
        assert res.code == IDENTIFY_EXITS[stem]
        assert res.out == golden_text(f"trace_{stem}.txt")


class TestSwig:
    def test_symbolic_listing(self, run_cli):
        res = run_cli("swig", spec_path("itt.swg"))
        assert res.code == 0
        lines = res.out.splitlines()
        assert lines[0] == "study: Treatment policy"
        assert lines[1] == "interventions: A=a"
        assert "node Y(a)" in lines
        assert "node a [fixed]" in lines
        assert "edge a -> M(a)" in lines

    def test_concrete_world(self, run_cli):
        res = run_cli("swig", spec_path("itt.swg"), "--world", "A=1")
        assert res.code == 0
        assert "node Y(a=1)" in res.out.splitlines()

    def test_world_must_cover_the_interventions(self, run_cli):
        res = run_cli("swig", spec_path("principal_stratum.swg"),
                      "--world", "A=1,B=2")
        assert res.code == 2
        assert res.err == "error: a world must assign exactly: A\n"

    def test_empty_world_is_not_a_world(self, run_cli):
        res = run_cli("swig", spec_path("itt.swg"), "--world", "")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: world entry '' is not VAR=VALUE\n"


class TestDsep:
    def test_separated(self, run_cli):
        res = run_cli("dsep", spec_path("itt.swg"), "--x", "Y(a)", "--y", "A")
        assert res.code == 0
        assert "verdict: separated" in res.out

    def test_connected_prints_witness(self, run_cli):
        res = run_cli("dsep", spec_path("hypothetical_unobserved.swg"),
                      "--x", "Y(a,m)", "--y", "M(a)", "--z", "A")
        assert res.code == 3
        assert "verdict: connected" in res.out
        assert "open path: Y(a,m) <- U -> M(a)" in res.out

    def test_commas_inside_parens_stay_one_label(self, run_cli):
        res = run_cli("dsep", spec_path("hypothetical_adjusted.swg"),
                      "--x", "Y(a,m)", "--y", "M(a)", "--z", "A,C")
        assert res.code == 0
        assert "query: Y(a,m) ⊥ M(a) | A, C" in res.out

    def test_unknown_label(self, run_cli):
        res = run_cli("dsep", spec_path("itt.swg"), "--x", "Q", "--y", "A")
        assert res.code == 2
        assert "no random node for variable 'Q'" in res.err

    def test_negative_limit_is_a_usage_error(self, run_cli):
        res = run_cli("dsep", spec_path("hypothetical_unobserved.swg"),
                      "--x", "Y(a,m)", "--y", "M(a)", "--z", "A", "--limit", "-1")
        assert res.code == 2
        assert res.out == ""
        assert res.err.endswith("error: argument --limit: must be 0 or more\n")

    def test_long_chain_prints_its_one_open_path(self, run_cli, tmp_path):
        # A path of 1,101 nodes: the witness search keeps no stack per node.
        chain = ["A"] + [f"X{i}" for i in range(1100)] + ["Y"]
        lines = ['study "Long chain" {', "  node A { role: treatment; }"]
        lines += [f"  node {n} {{ }}" for n in chain[1:-1]]
        lines += ["  node Y { role: outcome; }", "  edges {"]
        lines += [f"    {u} -> {v};" for u, v in zip(chain, chain[1:])]
        lines += ["  }", "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
        spec = tmp_path / "long_chain.swg"
        spec.write_text("\n".join(lines) + "\n")
        res = run_cli("dsep", str(spec), "--x", "X0(a)", "--y", "Y(a)")
        assert res.code == 3
        assert res.err == ""
        path = " -> ".join(f"{n}(a)" for n in chain[1:])
        assert res.out.splitlines()[-2:] == ["verdict: connected", f"open path: {path}"]

    def test_internal_error_is_one_line(self, run_cli, monkeypatch):
        import swigc.cli

        def broken(graph, query):
            raise RuntimeError("ball lost")

        monkeypatch.setattr(swigc.cli, "d_separated", broken)
        res = run_cli("dsep", spec_path("itt.swg"), "--x", "Y(a)", "--y", "A")
        assert res.code == 8
        assert res.out == ""
        assert res.err == "error: internal error: RuntimeError: ball lost\n"


class TestSimulate:
    def test_declared_model_report(self, run_cli):
        res = run_cli("simulate", spec_path("itt.swg"))
        assert res.code == 0
        lines = res.out.splitlines()
        assert "seed: none" in lines
        assert "true: 1/4" in lines
        assert "gap: 0" in lines
        assert lines[-1] == "verdict: sound"

    def test_seed_battery(self, run_cli):
        res = run_cli("simulate", spec_path("itt.swg"),
                      "--seeds", "0:24", "--jobs", "2")
        assert res.code == 0
        lines = res.out.splitlines()
        assert "seeds: 0..23" in lines
        assert "runs: 24" in lines
        assert "sound: 24" in lines

    def test_battery_starts_no_more_workers_than_seeds_or_cpus(self, run_cli, monkeypatch):
        import concurrent.futures
        import os

        started = []

        class FakePool:
            # Records the pool size and runs the battery in process.
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        res = run_cli("simulate", spec_path("itt.swg"), "--seeds", "0:2", "--jobs", "6")
        assert (res.code, started) == (0, [2])
        res = run_cli("simulate", spec_path("itt.swg"), "--seeds", "0:8", "--jobs", "6")
        assert (res.code, started) == (0, [2, 4])
        res = run_cli("simulate", spec_path("itt.swg"), "--seeds", "0:1", "--jobs", "6")
        assert (res.code, started) == (0, [2, 4])
        assert "runs: 1" in res.out

    def test_no_data_model_needs_a_seed(self, run_cli):
        res = run_cli("simulate", spec_path("chronic_pain.swg"))
        assert res.code == 1
        assert res.err == (
            "error: study 'Chronic pain' declares no data model; pass a seed\n"
        )

    def test_csv_without_data_model_needs_a_seed(self, run_cli):
        res = run_cli("simulate", spec_path("chronic_pain.swg"), "--csv", "-")
        assert res.code == 1
        assert res.out == ""
        assert res.err == (
            "error: study 'Chronic pain' declares no data model; pass a seed\n"
        )

    def test_seeded_run_on_undeclared_model(self, run_cli):
        res = run_cli("simulate", spec_path("chronic_pain.swg"), "--seed", "0")
        assert res.code == 0
        assert "gap: 0" in res.out.splitlines()

    def test_enumeration_cap(self, run_cli):
        res = run_cli("simulate", spec_path("enumeration_cap.swg"),
                      "--seed", "0")
        assert res.code == 7
        assert res.err == (
            "error: 10000000 noise configurations exceed the cap of 1000000\n"
        )

    def test_csv_to_stdout(self, run_cli):
        res = run_cli("simulate", spec_path("principal_stratum.swg"),
                      "--csv", "-")
        assert res.code == 0
        lines = res.out.splitlines()
        assert lines[0] == "id,M(a=1),Y(a=1),M(a=0),Y(a=0),A,M,Y,weight"
        assert lines[1] == "1,1,1,0,0,0,0,0,1/8"
        # Eight unit rows, then the usual soundness summary.
        assert lines[9] == "study: Principal stratum"
        assert lines[-1] == "verdict: sound"

    @pytest.mark.parametrize("csv", [None, "-", "table.csv"])
    def test_missing_table_entry(self, run_cli, tmp_path, csv):
        # A is always 0 in the observed world, so Y's table covers only A=0.
        spec = tmp_path / "missing.swg"
        spec.write_text(spec_text("simplest.swg").replace(
            "A := noise { 0: 1/2; 1: 1/2; };", "A := noise { 0: 1; };"
        ).replace(
            "(0, 0) -> 0; (0, 1) -> 1; (1, 0) -> 1; (1, 1) -> 1;", "(0, 0) -> 0; (0, 1) -> 1;"
        ))
        target = tmp_path / "table.csv"
        argv = [] if csv is None else ["--csv", "-" if csv == "-" else str(target)]
        res = run_cli("simulate", str(spec), *argv)
        assert (res.code, res.out) == (1, "")
        assert res.err == (
            "error: table for Y has no entry for (1, 0); the data model"
            " does not cover this intervention\n"
        )
        assert not target.exists()

    def test_csv_to_stdout_with_json_is_rejected(self, run_cli):
        # Both would go to stdout, which carries one JSON object under --json.
        res = run_cli("simulate", spec_path("principal_stratum.swg"), "--csv", "-", "--json")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: --csv - and --json both write to stdout\n"

    def test_csv_file_with_json(self, run_cli, tmp_path):
        target = tmp_path / "table.csv"
        res = run_cli("simulate", spec_path("principal_stratum.swg"),
                      "--csv", str(target), "--json")
        assert res.code == 0
        assert json.loads(res.out)["true"] == "1/2"
        assert target.read_text().splitlines()[0] == "id,M(a=1),Y(a=1),M(a=0),Y(a=0),A,M,Y,weight"

    def test_empty_csv_path_is_unwritable(self, run_cli):
        res = run_cli("simulate", spec_path("principal_stratum.swg"), "--csv", "")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: [Errno 2] No such file or directory: ''\n"

    def test_seed_and_seeds_are_mutually_exclusive(self, run_cli, tmp_path):
        # Refused before --csv writes the table of a model no battery checks.
        target = tmp_path / "table.csv"
        res = run_cli("simulate", spec_path("itt.swg"), "--seed", "3", "--seeds", "0:2",
                      "--csv", str(target))
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: --seed and --seeds are mutually exclusive\n"
        assert not target.exists()

    @pytest.mark.parametrize(
        "spec, seeds",
        [("itt.swg", "0:10000000000000000000"), ("chronic_pain.swg", "0:2"), ("itt.swg", "0:2")],
    )
    def test_csv_and_seeds_are_mutually_exclusive(self, run_cli, tmp_path, spec, seeds):
        # Refused before any file is opened: past the cap, for a study with
        # no data model of its own, and for a battery that would run.
        target = tmp_path / "table.csv"
        res = run_cli("simulate", spec_path(spec), "--seeds", seeds, "--csv", str(target))
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: --csv and --seeds are mutually exclusive\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("last", ["10000000000000000000", "1000000000000000000"])
    def test_battery_past_the_cap_is_refused(self, run_cli, last):
        res = run_cli("simulate", spec_path("itt.swg"), "--seeds", f"0:{last}")
        assert (res.code, res.out) == (7, "")
        assert res.err == "error: a battery of more than 1000000 seeds exceeds the cap\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, run_cli, jobs):
        res = run_cli("simulate", spec_path("itt.swg"), "--seeds", "0:2", "--jobs", jobs)
        assert (res.code, res.out) == (2, "")
        assert res.err.endswith("error: argument --jobs: must be 1 or more\n")

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--seeds", "5"), "argument --seeds: use FIRST:LAST, e.g. 0:100"),
            (("--seeds", "a:b"), "argument --seeds: seed range bounds must be integers"),
            (("--seeds", "3:3"), "argument --seeds: seed range must be non-empty"),
            (("--seeds", "0:2", "--jobs", "x"), "argument --jobs: invalid int value: 'x'"),
        ],
    )
    def test_malformed_battery_option_is_a_usage_error(self, run_cli, option, message):
        res = run_cli("simulate", spec_path("itt.swg"), *option)
        assert (res.code, res.out) == (2, "")
        assert res.err.endswith(f"error: {message}\n")


class TestRender:
    def test_tikz_to_stdout(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"))
        assert res.code == 0
        assert res.out.startswith("\\begin{tikzpicture}")

    def test_dot_to_stdout(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"), "--format", "dot")
        assert res.code == 0
        assert res.out.startswith("digraph G {")

    def test_dag_matches_golden(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"), "--dag")
        assert res.out == golden_text("dag_itt.tex")

    def test_out_writes_a_file(self, run_cli, tmp_path):
        target = tmp_path / "fig.tex"
        res = run_cli("render", spec_path("itt.swg"), "--out", str(target))
        assert res.code == 0
        assert target.read_text().startswith("\\begin{tikzpicture}")

    def test_out_receives_the_json_payload(self, run_cli, tmp_path):
        target = tmp_path / "fig.json"
        res = run_cli("render", spec_path("itt.swg"), "--json", "--out", str(target))
        assert (res.code, res.out, res.err) == (0, "", "")
        shown = run_cli("render", spec_path("itt.swg"), "--json")
        assert target.read_text() == shown.out
        assert json.loads(shown.out)["markup"] == run_cli("render", spec_path("itt.swg")).out

    def test_empty_out_is_an_unwritable_path(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"), "--out", "")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: [Errno 2] No such file or directory: ''\n"

    def test_empty_world_is_not_a_world(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"), "--world", "")
        assert (res.code, res.out) == (2, "")
        assert res.err == "error: world entry '' is not VAR=VALUE\n"

    def test_rejects_unknown_format(self, run_cli):
        res = run_cli("render", spec_path("itt.swg"), "--format", "svg")
        assert res.code == 2


# Minimal edits of bundled specs, each reaching one check or naming rule:
# (spec, [(old, new), ...], command, exit code, the error or a line printed).
# Each old text occurs once in its spec.
SCM_OPENS = "  scm {\n"
SPEC_EDITS = {
    "attribute-twice": (
        "itt.swg", [("node A { role: treatment; }", "node A { role: treatment; role: treatment; }")],
        "validate", 2, "node A: attribute role given twice",
    ),
    "denominator-zero": (
        "itt.swg", [("A := noise { 0: 1/2;", "A := noise { 0: 1/0;")],
        "validate", 2, "noise probability has denominator zero",
    ),
    "latent-observed": (
        "itt.swg", [("node Y { role: outcome; }",
                     "node Y { role: outcome; }\n  node U { role: latent; observed: true; }")],
        "validate", 2, "node U: role latent contradicts observed: true",
    ),
    "adjust-intercurrent": (
        "itt.swg", [("node M { role: intercurrent; }", "node M { role: intercurrent; adjust: true; }")],
        "validate", 2, "node M: adjust is only valid on observed covariates",
    ),
    "invalid-name": (
        "itt.swg", [("node M {", "node _M {")],
        "validate", 2, "invalid variable name '_M'",
    ),
    "duplicate-edge": (
        "itt.swg", [("    A -> M;", "    A -> M;\n    A -> M;")],
        "validate", 2, "duplicate edge A -> M",
    ),
    "no-outcome": (
        "itt.swg", [("node Y { role: outcome; }", "node Y { }")],
        "validate", 2, "a study needs exactly one outcome node, found 0",
    ),
    "strategy-on-outcome": (
        "itt.swg", [("strategy M: treatment_policy;",
                     "strategy M: treatment_policy;\n  strategy Y: treatment_policy;")],
        "validate", 2, "strategy target Y must have role intercurrent",
    ),
    "hypothetical-level": (
        "itt.swg", [("strategy M: treatment_policy;", "strategy M: hypothetical(5);")],
        "validate", 2, "hypothetical level 5 is outside declared values of M",
    ),
    "stratum-arm": (
        "principal_stratum.swg", [("M(1) = 0", "M(7) = 0")],
        "validate", 2, "principal stratum arm 7 is outside declared values of A",
    ),
    "stratum-level": (
        "principal_stratum.swg", [("M(1) = 0", "M(1) = 5")],
        "validate", 2, "principal stratum level 5 is outside declared values of M",
    ),
    "duplicate-equation": (
        "itt.swg", [(SCM_OPENS, SCM_OPENS + "    A := noise { 0: 1; };\n")],
        "validate", 2, "duplicate equation for A",
    ),
    "missing-equation": (
        "itt.swg", [("    A := noise { 0: 1/2; 1: 1/2; };\n", "")],
        "validate", 2, "scm is missing an equation for A",
    ),
    "noise-value-twice": (
        "itt.swg", [("A := noise { 0: 1/2; 1: 1/2; };", "A := noise { 0: 1/2; 0: 1/2; };")],
        "validate", 2, "noise for A lists value 0 twice",
    ),
    "table-needed": (
        "itt.swg", [("M := noise { 0: 3/4; 1: 1/4; }\n      table (A) { (0, 0) -> 0;"
                     " (0, 1) -> 1; (1, 0) -> 1; (1, 1) -> 0; };", "M := noise { 0: 3/4; 1: 1/4; };")],
        "validate", 2, "equation for M needs a table; M has parents",
    ),
    "table-parent-twice": (
        "itt.swg", [("table (A) {", "table (A, A) {")],
        "validate", 2, "table for M lists a parent twice",
    ),
    "unreachable-entry": (
        "itt.swg", [("(1, 1) -> 0; };", "(1, 1) -> 0; (2, 0) -> 0; };")],
        "validate", 2, "table for M has an entry for unreachable values (2, 0)",
    ),
    "composite-non-binary": (
        "composite.swg", [("node M { role: intercurrent; }",
                           "node M { role: intercurrent; values: 0, 1, 2; }")],
        "validate", 2, "composite strategy needs a binary event, but M takes [0, 1, 2]",
    ),
    "two-principal-strata": (
        "principal_stratum.swg", [
            ("node Y { role: outcome; }", "node Y { role: outcome; }\n  node N { role: intercurrent; }"),
            ("strategy M: principal_stratum(M(1) = 0);",
             "strategy M: principal_stratum(M(1) = 0);\n  strategy N: principal_stratum(N(1) = 0);"),
            (SCM_OPENS, SCM_OPENS + "    N := noise { 0: 1; };\n"),
        ],
        "validate", 2, "at most one principal stratum strategy is allowed",
    ),
    "symbols-collide": (
        "itt.swg", [
            ("node Y { role: outcome; }", "node Y { role: outcome; }\n  node a { role: intercurrent; }"),
            ("strategy M: treatment_policy;", "strategy M: treatment_policy;\n  strategy a: hypothetical(0);"),
            (SCM_OPENS, SCM_OPENS + "    a := noise { 0: 1; };\n"),
        ],
        "validate", 2, "intervened variable names collide after lowercasing",
    ),
    # U and U2 are taken, so the composite endpoint is U3.
    "derived-name-suffix": (
        "composite.swg", [
            ("node Y { role: outcome; }", "node Y { role: outcome; }\n  node U { }\n  node U2 { }"),
            (SCM_OPENS, SCM_OPENS + "    U := noise { 0: 1; };\n    U2 := noise { 0: 1; };\n"),
        ],
        "validate", 0, "estimand: E[U3(a=1)] - E[U3(a=0)]",
    ),
    # C, C2 and c all stratify, so c's symbol is c3.
    "stratum-symbol-suffix": (
        "chronic_pain.swg", [
            ("node Y  { role: outcome; }",
             "node Y  { role: outcome; }\n  node c  { adjust: true; }\n  node C2 { adjust: true; }"),
            ("    C -> M4;", "    c -> M4;\n    c -> Y;\n    C2 -> M3;\n    C2 -> Y;"),
        ],
        "identify", 0,
        "combined: Σ_c,c2,c3 E[Y|A=1,C=c,C2=c2,c=c3,M3=0,M4=0]·P(C=c,C2=c2,c=c3)"
        " - Σ_c,c2,c3 E[Y|A=0,C=c,C2=c2,c=c3,M3=0,M4=0]·P(C=c,C2=c2,c=c3)",
    ),
    # The node M3_a and the split node M3(a) both make the TikZ id M3_a.
    "tikz-id-suffix": (
        "chronic_pain.swg", [("node Y  { role: outcome; }", "node Y  { role: outcome; }\n  node M3_a { }")],
        "render", 0,
        r"  \node (M3_a_2) at (2.75, -2.50) [semicircle, draw, shape border rotate=90,"
        r" inner sep=2pt] {$M3(a)$};",
    ),
}


# Edits whose error the study compiler raises, after the spec parses.
COMPILE_ERRORS = {"composite-non-binary", "two-principal-strata", "symbols-collide"}


@pytest.mark.parametrize("case", sorted(SPEC_EDITS))
def test_minimal_spec_edits(run_cli, tmp_path, case):
    """Each edit gives its exit code and its one error line, or prints its
    suffixed name; a parse error is the reference parser's message too."""
    name, edits, command, code, line = SPEC_EDITS[case]
    text = spec_text(name)
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    spec = tmp_path / name
    spec.write_text(text)
    res = run_cli(command, str(spec))
    assert res.code == code
    if code:
        assert (res.out, res.err) == ("", f"error: {line}\n")
    else:
        assert line in res.out.splitlines()
    if code and case not in COMPILE_ERRORS:
        with pytest.raises(SwigcError) as refused:
            reference_dsl.parse_study(text)
        assert str(refused.value) == line
    else:
        reference_dsl.parse_study(text)


# One request per subcommand; every bundled study answers each of them.
SUBCOMMANDS = {
    "validate": (),
    "swig": (),
    "dsep": ("--x", "Y", "--y", "A"),
    "identify": (),
    "simulate": (),
    "render": (),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@pytest.mark.parametrize("spec", [*STUDY_FILES, "bad_syntax.swg"])
def test_text_and_json_give_the_same_outcome(run_cli, spec, command):
    argv = [command, spec_path(spec), *SUBCOMMANDS[command]]
    text = run_cli(*argv)
    data = run_cli(*argv, "--json")
    assert (text.code, text.err) == (data.code, data.err)
    # A verdict (codes 0 and 3-6) is shown in either view; an error in neither.
    if text.code in (1, 2, 7, 8):
        assert (text.out, data.out) == ("", "")
    else:
        assert text.out and data.out
        json.loads(data.out)


def test_no_subcommand_is_a_usage_error(run_cli):
    assert run_cli().code == 2


def test_calls_share_one_parser(run_cli, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "swigc":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["validate"], ["identify"], ["render", "--format", "dot"]):
        assert run_cli(argv[0], spec_path("itt.swg"), *argv[1:]).code == 0
    assert len(built) <= 1


ITT = spec_path("itt.swg")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--version"],
        ["bogus", ITT],
        ["validate"],
        ["validate", "-h"],
        ["validate", ITT],
        ["validate", ITT, "--bogus"],
        ["validate", "--js", ITT],
        ["validate", ITT, "--version"],
        ["validate", "--", ITT],
        ["dsep", ITT, "--x", "Y(a)", "--y", "A", "--limit", "-1"],
        ["simulate", ITT, "--seeds", "5:1"],
        ["simulate", ITT, "--jobs", "0"],
        ["simulate", ITT, "--s", "1"],
        ["render", ITT, "--format", "svg"],
    ],
)
def test_argv_parse_matches_the_full_parser(capsys, argv):
    """The subcommand's own parser reads what the full one would: the same
    arguments, or the same exit code, usage and message."""
    from swigc import cli

    def outcome(parse):
        try:
            result = vars(parse(argv))
        except SystemExit as e:
            result = e.code
        return result, capsys.readouterr()

    full, _ = cli._parsers()
    assert outcome(cli._parse_args) == outcome(full.parse_args)


def test_cli_sweep_prints_the_same_fingerprints_twice(capsys, monkeypatch):
    path = ROOT / "scripts" / "cli_sweep.py"
    spec = importlib.util.spec_from_file_location("cli_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.chdir(ROOT)
    script.sweep()
    first = capsys.readouterr().out
    script.sweep()
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert len(lines) == len(script.corpus("OUT"))
    # Every parseable bundled study but the capped one writes its seeded
    # table, and so does every family study but the cap-refusal one.
    written = [line for line in lines if line.endswith("--seed 0 --csv OUT")]
    codes = {family: [line.split()[0] for line in written if f" {family}/" in line]
             for family in ("specs", "families")}
    assert codes["specs"].count("0") == len(STUDY_FILES) - 1
    assert sorted(codes["families"]) == ["0"] * (len(script.family_specs()) - 1) + ["7"]
    assert all(line.split()[3] != "-" for line in written if line.startswith("0 "))
    # The latent-roots chain is identified, sound on every seed, and its
    # table is written.
    roots = [line for line in lines if f" {script.ROOTS}" in line]
    assert [line.split()[0] for line in roots] == ["0"] * len(script.roots_cases("OUT"))
    assert roots[-1].split()[3] != "-"
    # Every text at the edges of the lexer is a syntax error.
    lexer = [line for line in lines if " lexer/" in line]
    assert [line.split()[0] for line in lexer] == ["2"] * len(script.lexer_specs())
    # Every witness-order call lists open paths (exit 3).
    names = [f" families/{name} " for name in script.witness_specs()]
    witness = [line for line in lines if any(name in line for name in names)]
    assert [line.split()[0] for line in witness] == ["3"] * len(script.witness_cases("OUT"))
    # The calls no other part reaches: three accepted batteries and a DAG
    # drawing, three missing entries, one separated and three refused dsep
    # queries, two open colliders and seven argv refusals.
    limits = len(script.limit_cases("OUT"))
    tail = len(script.cycle_cases("OUT")) + limits
    more = lines[-len(script.more_cases("OUT")) - tail:-tail]
    assert [line.split()[0] for line in more] == "0 0 0 0 1 1 1 0 2 2 2 3 3 2 2 2 2 2 2 2".split()
    # Every call on a spec whose edges close a cycle is refused (exit 2).
    assert [line.split()[0] for line in lines[-tail:-limits]] == ["2"] * 8
    # Asking for no witness still answers that the paths are open (exit 3).
    assert [line.split()[0] for line in lines[-limits:]] == ["3", "3"]


def test_a_cycle_is_refused_in_one_error_line(run_cli, tmp_path):
    """The sweep's cyclic specs: the parser refuses the self-loop as it
    reads the edge, and the graph build names the cycle it walks."""
    specs = load_script("cli_sweep").cycle_specs()
    cycles = {"self_loop.swg": "M -> M", "three_cycle.swg": "B -> Y -> M -> B"}
    assert sorted(specs) == sorted(cycles)
    for name, text in specs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        for argv in (["validate"], ["identify"]):
            for mode in ([], ["--json"]):
                result = run_cli(*argv, str(path), *mode)
                assert (result.code, result.out) == (2, "")
                assert result.err == f"error: graph has a cycle: {cycles[name]}\n"


def test_cli_sweep_does_not_depend_on_the_hash_seed():
    """The sweep prints the same lines under two string hash seeds, so no
    output of any call depends on the order of a set or dict of names."""
    runs = [
        subprocess.Popen(
            [sys.executable, str(ROOT / "scripts" / "cli_sweep.py")],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    outputs = []
    try:
        for run in runs:
            out, err = run.communicate(timeout=300)
            assert run.returncode == 0, err
            outputs.append(out)
    finally:
        for run in runs:
            run.kill()
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") > 300


def test_code_lines_script_counts_what_is_not_a_docstring_or_comment(tmp_path):
    package = tmp_path / "src" / "swigc"
    package.mkdir(parents=True)
    (package / "empty.py").write_text('"""Only a docstring,\n\nand comments."""\n\n# one\n  # two\n')
    (package / "code.py").write_text(
        '"""Module docstring."""\n'
        "import os  # a comment after code\n"
        "\n"
        "class A:\n"
        '    """Class docstring,\n    on two lines."""\n'
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        return """a string\n        on two lines"""\n'
        "\n"
        "X = (1,\n"
        "     2)\n"
    )
    (package / "listed.py").write_text('__all__ = ["A", "f"]  # two names\n')
    (package / "__init__.py").write_text(
        'from .listed import *\n\n__all__ = ["__version__", *listed.__all__]\n'
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), "--root", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert line["modules"] == {"__init__.py": 2, "code.py": 7, "empty.py": 0, "listed.py": 1}
    assert line["total"] == sum(line["modules"].values())
    # The two listed names and the package's own __version__.
    assert line["exported"] == 3


def test_startup_script_reports_the_front_door(tmp_path):
    """scripts/startup.py times start-up and, in process, the argv parse
    and each bundled spec's parse."""
    out = tmp_path / "BENCH_startup.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "startup.py"), "--runs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout)
    assert json.loads(out.read_text()) == line
    assert line["runs"] == 2
    assert line["argv_parse_us"]["median"] > 0
    stems = sorted(path.stem for path in (ROOT / "specs").glob("*.swg"))
    assert sorted(line["parse_file_us"]) == stems
    assert all(timing["median"] > 0 for timing in line["parse_file_us"].values())
