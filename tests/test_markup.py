"""TikZ and DOT rendering pinned byte-for-byte against the golden files."""

import importlib.util
import runpy
import sys

import pytest

from swigc.errors import GraphError
from swigc.estimand import compile_study, study_swig
from swigc.graph import CausalGraph, NodeAttrs, NodeId
from swigc.markup import to_dot, to_tikz
from swigc.swig import split

from conftest import ROOT, SPECS, STUDY_FILES, golden_text, load_study

TEX_GOLDENS = [
    "dag_itt",
    "swig_simplest",
    "swig_itt",
    "swig_hypothetical_unobserved",
    "swig_hypothetical_adjusted",
    "swig_composite",
    "swig_principal_stratum_treated",
    "swig_principal_stratum_control",
    "swig_chronic_pain",
]
DOT_GOLDENS = ["dag_itt", "swig_chronic_pain"]


def graph_for(stem: str):
    """Rebuild the (graph, boxed-values) pair a golden stem was drawn from."""
    if stem.startswith("dag_"):
        return load_study(stem[len("dag_"):] + ".swg").graph, {}
    name = stem[len("swig_"):]
    if name.startswith("principal_stratum_"):
        study = load_study("principal_stratum.swg")
        compiled = compile_study(study)
        arm = name.rsplit("_", 1)[1]
        level = (
            study.treatment_levels[0]
            if arm == "treated"
            else study.treatment_levels[1]
        )
        world = [(study.treatment, level)]
        for var in compiled.split_vars[1:]:
            world.append((var, compiled.split_levels[var]))
        sw = split(compiled.graph, tuple(world))
        stratum = compiled.stratum
        boxed = {}
        if dict(stratum.term.context).get(study.treatment) == level:
            boxed = {stratum.term.var: stratum.value}
        return sw.graph, boxed
    compiled = compile_study(load_study(name + ".swg"))
    return study_swig(compiled).graph, {}


@pytest.mark.parametrize("stem", TEX_GOLDENS)
def test_tikz_matches_golden(stem):
    graph, boxed = graph_for(stem)
    assert to_tikz(graph, conditioned_values=boxed) == golden_text(f"{stem}.tex")


@pytest.mark.parametrize("stem", DOT_GOLDENS)
def test_dot_matches_golden(stem):
    graph, boxed = graph_for(stem)
    assert to_dot(graph, conditioned_values=boxed) == golden_text(f"{stem}.dot")


@pytest.mark.parametrize("stem", ["swig_chronic_pain", "dag_itt"])
def test_rendering_is_deterministic(stem):
    graph, boxed = graph_for(stem)
    assert to_tikz(graph, conditioned_values=boxed) == to_tikz(
        graph, conditioned_values=boxed
    )
    assert to_dot(graph, conditioned_values=boxed) == to_dot(
        graph, conditioned_values=boxed
    )


def test_conditioning_boxes_the_event():
    treated = golden_text("swig_principal_stratum_treated.tex")
    control = golden_text("swig_principal_stratum_control.tex")
    assert "[rectangle, draw] {$M(a=1)=0$}" in treated
    assert "M(a=0)=0" not in control
    assert "rectangle" not in control


def test_latent_nodes_are_filled_circles():
    tex = golden_text("swig_hypothetical_unobserved.tex")
    (u_line,) = [l for l in tex.splitlines() if "{$U$}" in l]
    assert "circle, draw, fill=gray!40" in u_line


def test_split_nodes_are_semicircle_pairs():
    tex = golden_text("swig_itt.tex")
    (random_half,) = [l for l in tex.splitlines() if "{$A$}" in l]
    (fixed_half,) = [l for l in tex.splitlines() if "{$a$}" in l]
    assert "semicircle" in random_half and "rotate=90" in random_half
    assert "semicircle" in fixed_half and "rotate=270" in fixed_half
    assert "color=red" in fixed_half and "color=red" not in random_half


def test_dag_has_no_split_halves():
    tex = golden_text("dag_itt.tex")
    assert "semicircle" not in tex
    assert "{$a$}" not in tex


def test_dot_output_is_structurally_complete():
    graph, _ = graph_for("swig_chronic_pain")
    dot = to_dot(graph)
    assert dot.startswith("digraph G {")
    assert dot.rstrip().endswith("}")
    arrows = [l for l in dot.splitlines() if "->" in l]
    assert len(arrows) == len(graph.edges)


def test_adjustment_covariates_render_as_rectangles():
    tex = golden_text("swig_hypothetical_adjusted.tex")
    (c_line,) = [l for l in tex.splitlines() if "{$C$}" in l]
    assert "rectangle" in c_line


@pytest.mark.parametrize("render", [to_tikz, to_dot])
@pytest.mark.parametrize(
    "nodes, kind",
    [
        ([NodeId("Y"), NodeId("Y", (("A", "a"),))], "random"),
        (
            [NodeId("A"), NodeId("A", (("A", "a"),), True), NodeId("A", (("A", 1),), True)],
            "fixed",
        ),
    ],
)
def test_a_base_with_several_halves_of_one_kind_is_refused(render, nodes, kind):
    # A drawing pairs each base's random node with its fixed half.  The
    # graph refuses a base with several of either when it is built, so no
    # renderer is ever handed one.
    message = f"variable '{nodes[0].base}' has several {kind} nodes"
    with pytest.raises(GraphError, match=message):
        render(CausalGraph(nodes, {n: NodeAttrs() for n in nodes}, []))


def test_render_figures_script_matches_the_cli(tmp_path, monkeypatch, run_cli, capsys):
    script = ROOT / "scripts" / "render_figures.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out", str(tmp_path), "--document"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(script), run_name="__main__")
    assert done.value.code == 0
    capsys.readouterr()
    assert (tmp_path / "figures.tex").is_file()
    rendered = 0
    for spec in sorted(SPECS.glob("*.swg")):
        swig = run_cli("render", str(spec))
        dag = run_cli("render", str(spec), "--dag", "--format", "dot")
        if swig.code:
            assert not (tmp_path / f"swig_{spec.stem}.tex").exists()
            continue
        assert (tmp_path / f"swig_{spec.stem}.tex").read_bytes() == swig.out.encode()
        assert (tmp_path / f"dag_{spec.stem}.dot").read_bytes() == dag.out.encode()
        rendered += 1
    assert rendered == len(STUDY_FILES)


def test_render_figures_script_skips_unreadable_specs_as_the_cli_does(
    tmp_path, monkeypatch, run_cli, capsys
):
    spec = importlib.util.spec_from_file_location("render_figures", ROOT / "scripts" / "render_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    specs = tmp_path / "specs"
    specs.mkdir()
    bad = specs / "bad.swg"
    bad.write_bytes(b"study Bad {\xff}\n")
    (specs / "itt.swg").write_bytes((SPECS / "itt.swg").read_bytes())
    monkeypatch.setattr(script, "SPECS_DIR", specs)
    monkeypatch.setattr(sys, "argv", ["render_figures.py", "--out", str(tmp_path / "out")])
    assert script.main() == 0
    out = capsys.readouterr().out
    cli = run_cli("render", str(bad))
    assert cli.code == 2
    assert "not UTF-8 text (invalid start byte at byte 11)" in cli.err
    assert f"skip bad.swg: {cli.err.removeprefix('error: ')}" in out
    assert (tmp_path / "out" / "swig_itt.tex").read_text() == run_cli("render", str(SPECS / "itt.swg")).out
