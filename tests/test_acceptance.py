"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE lines
alongside the pytest verdicts.  Every test exercises the public surface the
way a user would: through parse_study, identify_estimand, the oracle, the
renderers, or the CLI.
"""

import importlib.util
import itertools
import random
import re
import time
from pathlib import Path

from swigc.dsl import parse_study, serialize
from swigc.dsep import DSepQuery, d_separated
from swigc.errors import ParseError, SemanticError
from swigc.estimand import compile_study, study_swig
from swigc.formula import render
from swigc.identify import Identified, PartiallyIdentified, identify_estimand
from swigc.markup import to_tikz
from swigc.oracle import (
    conditionally_independent,
    enumerate_table,
    random_scm,
    soundness_battery,
)
from swigc.swig import split

from conftest import STUDY_FILES, golden_text, load_study, spec_path, spec_text


def passed(slug: str) -> None:
    print(f"ACCEPTANCE {slug}: PASS")


def test_01_itt_trace_is_exact_and_fast(run_cli):
    start = time.monotonic()
    study = load_study("itt.swg")
    report = identify_estimand(study)
    elapsed = time.monotonic() - start
    assert [s.rule for s in report.left.steps] == [
        "definition", "randomization", "consistency",
    ]
    assert render(report.combined) == "E[Y|A=1] - E[Y|A=0]"
    res = run_cli("identify", spec_path("itt.swg"))
    assert res.code == 0
    assert res.out == golden_text("trace_itt.txt")
    assert elapsed < 1.0
    passed("itt-trace")


def test_02_unobserved_confounder_is_refuted_with_a_witness(run_cli):
    res = run_cli("identify", spec_path("hypothetical_unobserved.swg"))
    assert res.code == 5
    report = identify_estimand(load_study("hypothetical_unobserved.swg"))
    blocked = report.left.blocked
    assert blocked.witness_label == "M(a) <- U -> Y(a,m)"
    assert blocked.premise.label() == "Y(a,m) ⊥ M(a) | A"
    assert report.combined is None
    passed("refutation-witness")


def test_03_adjustment_formula_conditions_on_the_right_events(run_cli):
    res = run_cli("identify", spec_path("hypothetical_adjusted.swg"))
    assert res.code == 0
    assert res.out == golden_text("trace_hypothetical_adjusted.txt")
    report = identify_estimand(load_study("hypothetical_adjusted.swg"))
    for arm, level in ((report.left, 1), (report.right, 0)):
        assert isinstance(arm, Identified)
        assert arm.formula.bindings == (("C", "c"),)
        events = {e.label for e in arm.formula.body.given}
        assert events == {f"A={level}", "C=c", "M=0"}
    assert render(report.combined) == (
        "Σ_c E[Y|A=1,C=c,M=0]·P(C=c) - Σ_c E[Y|A=0,C=c,M=0]·P(C=c)"
    )
    passed("covariate-adjustment")


def test_04_composite_endpoint_folds_into_one_variable():
    study = load_study("composite.swg")
    compiled = compile_study(study)
    report = identify_estimand(study, compiled)
    assert render(report.combined) == "E[U|A=1] - E[U|A=0]"
    contexts = [compiled.arm_context(1), compiled.arm_context(0)]
    for seed in range(100):
        scm = random_scm(study.graph, seed)
        table = enumerate_table(compiled.graph, scm, contexts=contexts)
        for row in table.units():
            for ctx in [()] + contexts:
                y = row.values[("Y", ctx)]
                m = row.values[("M", ctx)]
                assert row.values[("U", ctx)] == (y if m == 0 else 0)
    passed("composite-endpoint")


def test_05_principal_stratum_splits_into_point_and_residual(run_cli):
    res = run_cli("identify", spec_path("principal_stratum.swg"))
    assert res.code == 4
    assert res.out == golden_text("trace_principal_stratum.txt")
    report = identify_estimand(load_study("principal_stratum.swg"))
    assert isinstance(report.left, Identified)
    assert render(report.left.formula) == "E[Y|M=0,A=1]"
    assert isinstance(report.right, PartiallyIdentified)
    assert render(report.right.formula) == "E[Y|M(a=1)=0,A=0]"
    assert [e.label for e in report.right.cross_world.events] == ["M(a=1)=0"]
    passed("principal-stratum")


def test_06_chronic_pain_steps_all_reverify(run_cli):
    res = run_cli("identify", spec_path("chronic_pain.swg"))
    assert res.code == 0
    assert res.out == golden_text("trace_chronic_pain.txt")
    study = load_study("chronic_pain.swg")
    compiled = compile_study(study)
    graph = study_swig(compiled).graph
    report = identify_estimand(study, compiled)
    for arm in (report.left, report.right):
        held = [s for s in arm.steps if s.rule == "conditioning"]
        assert len(held) == 2  # one per hypothetical event, M3 then M4
        premises = [s.premise for s in arm.steps if s.premise is not None]
        assert len(premises) == 4
        for query in premises:
            assert d_separated(graph, query)
    passed("chronic-pain-trace")


def test_07_battery_of_random_models_never_shows_a_gap():
    studies = ("itt.swg", "hypothetical_adjusted.swg",
               "composite.swg", "chronic_pain.swg")
    start = time.monotonic()
    for name in studies:
        reports = soundness_battery(load_study(name), range(100), jobs=4)
        assert len(reports) == 100
        for r in reports:
            assert r.status == "identified"
            assert r.consistency_ok
            assert r.gap == 0
    assert time.monotonic() - start < 60.0
    passed("soundness-battery")


def test_08_dsep_claims_hold_in_exact_joint_distributions():
    graphs = [
        load_study("hypothetical_unobserved.swg").graph,
        load_study("hypothetical_adjusted.swg").graph,
    ]
    confirmed = 0
    for seed in range(50):
        graph = graphs[seed % len(graphs)]
        table = enumerate_table(graph, random_scm(graph, seed))
        bases = sorted(n.base for n in graph.nodes)
        for x, y in itertools.combinations(bases, 2):
            rest = [b for b in bases if b not in (x, y)]
            subsets = itertools.chain.from_iterable(
                itertools.combinations(rest, k) for k in range(3)
            )
            for z in subsets:
                query = DSepQuery(
                    frozenset({graph.node(x)}),
                    frozenset({graph.node(y)}),
                    frozenset(graph.node(v) for v in z),
                )
                if d_separated(graph, query):
                    assert conditionally_independent(table, x, y, z), (
                        seed, x, y, z,
                    )
                    confirmed += 1
    assert confirmed > 0
    passed("dsep-oracle-agreement")


def test_09_five_unit_table_reproduces_the_worked_numbers():
    spec = importlib.util.spec_from_file_location(
        "potential_outcomes_demo",
        Path(__file__).resolve().parent.parent
        / "scripts" / "potential_outcomes_demo.py",
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)

    import io
    from fractions import Fraction

    from swigc.formula import Difference, Event, Expect, Term
    from swigc.oracle import (
        eval_formula,
        true_estimand,
        validate_consistency,
        write_csv,
    )

    graph, scm = demo.build_model()
    table = enumerate_table(graph, scm, contexts=[(("A", 0),), (("A", 1),)])
    buf = io.StringIO()
    write_csv(table, buf)
    rows = buf.getvalue().splitlines()[1:]
    cells = [row.split(",")[1:-1] for row in rows]  # drop id and weight
    assert len(cells) == 5 and all(len(c) == 4 for c in cells)

    assert validate_consistency(table) == []
    ate = true_estimand(table, Expect(Term("Y", (("A", 1),)))) - true_estimand(
        table, Expect(Term("Y", (("A", 0),)))
    )
    assert ate == Fraction(-38, 5)
    naive = eval_formula(
        table,
        Difference(
            Expect(Term("Y", ()), (Event(Term("A", ()), 1),)),
            Expect(Term("Y", ()), (Event(Term("A", ()), 0),)),
        ),
    )
    assert naive == Fraction(58, 3)
    passed("potential-outcome-table")


NODE_RE = re.compile(r"\\node \((\w+)\) at [^[]*\[[^]]*\] \{\$(.+)\$\};")
EDGE_RE = re.compile(r"\\path \((\w+)\) edge [^(]*\((\w+)\);")

TEX_VIEWS = {
    "dag_itt": ("itt.swg", None, {}),
    "swig_simplest": ("simplest.swg", "symbolic", {}),
    "swig_itt": ("itt.swg", "symbolic", {}),
    "swig_hypothetical_unobserved": ("hypothetical_unobserved.swg", "symbolic", {}),
    "swig_hypothetical_adjusted": ("hypothetical_adjusted.swg", "symbolic", {}),
    "swig_composite": ("composite.swg", "symbolic", {}),
    "swig_principal_stratum_treated": ("principal_stratum.swg", 1, {"M": 0}),
    "swig_principal_stratum_control": ("principal_stratum.swg", 0, {}),
    "swig_chronic_pain": ("chronic_pain.swg", "symbolic", {}),
}


def view_graph(name: str, world, boxed):
    study = load_study(name)
    if world is None:
        return study.graph
    compiled = compile_study(study)
    if world == "symbolic":
        return study_swig(compiled).graph
    assignments = [(study.treatment, world)] + [
        (var, compiled.split_levels[var]) for var in compiled.split_vars[1:]
    ]
    return split(compiled.graph, tuple(assignments)).graph


def test_10_markup_is_stable_and_faithful():
    for stem, (name, world, boxed) in TEX_VIEWS.items():
        graph = view_graph(name, world, boxed)
        first = to_tikz(graph, conditioned_values=boxed)
        second = to_tikz(graph, conditioned_values=boxed)
        assert first == second, stem
        assert first == golden_text(f"{stem}.tex"), stem

        ids = dict(NODE_RE.findall(first))
        want_labels = set()
        for node in graph.nodes:
            label = node.label
            if not node.fixed and node.base in boxed:
                label += f"={boxed[node.base]}"
            want_labels.add(label)
        assert set(ids.values()) == want_labels, stem

        drawn = {(ids[t], ids[h]) for t, h in EDGE_RE.findall(first)}
        want_edges = set()
        for tail, head in graph.edges:
            pair = []
            for node in (tail, head):
                label = node.label
                if not node.fixed and node.base in boxed:
                    label += f"={boxed[node.base]}"
                pair.append(label)
            want_edges.add(tuple(pair))
        assert drawn == want_edges, stem
    passed("markup-stability")


def test_11_parser_survives_ten_thousand_mutations():
    texts = [spec_text(name) for name in STUDY_FILES]
    texts.append(spec_text("bad_syntax.swg"))
    rng = random.Random(2026)
    alphabet = "abzAYZ019{}();:->=/,.\"\n "
    for i in range(10_000):
        text = texts[i % len(texts)]
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("insert", "delete", "replace"))
            pos = rng.randrange(len(chars) + (op == "insert"))
            if op == "insert":
                chars.insert(pos, rng.choice(alphabet))
            elif op == "delete" and chars:
                del chars[pos]
            else:
                chars[pos] = rng.choice(alphabet)
        try:
            parse_study("".join(chars))
        except (ParseError, SemanticError):
            pass
    for name in STUDY_FILES:
        text = serialize(parse_study(spec_text(name)))
        assert serialize(parse_study(text)) == text
    passed("parser-robustness")
