"""Exact enumeration oracle: frozen study values, error surfaces, batteries."""

import dataclasses
import io
import tracemalloc
from fractions import Fraction as F

import pytest

from swigc.errors import (
    EmptyStratum,
    OracleError,
    SupportTooLarge,
    UnknownNode,
    ZeroProbabilityCondition,
)
from swigc import oracle
from swigc.dsl import parse_study
from swigc.estimand import compile_study
from swigc.identify import identify_estimand
from swigc.formula import Difference, Event, Expect, SumOver, Term, render, terms
from swigc.graph import CausalGraph
from swigc.model import CounterfactualMean
from swigc.oracle import (
    check_soundness,
    conditionally_independent,
    enumerate_table,
    eval_formula,
    naive_formula,
    random_scm,
    soundness_battery,
    true_estimand,
    validate_consistency,
    write_csv,
)

from conftest import load_study, spec_text


# Expected values below were computed by hand from each fixture's tables
# before the suite existed; the oracle has to reproduce them exactly.
FROZEN = {
    "simplest": dict(true=F(1, 4), formula=F(1, 4), naive=F(1, 4)),
    "itt": dict(true=F(1, 4), formula=F(1, 4), naive=F(1, 4)),
    "hypothetical_unobserved": dict(true=F(1, 2), formula=None, naive=F(2, 3)),
    "hypothetical_adjusted": dict(true=F(3, 8), formula=F(3, 8), naive=F(9, 16)),
    "composite": dict(true=F(-1, 4), formula=F(-1, 4), naive=F(1, 4)),
    "principal_stratum": dict(true=F(1, 2), formula=None, naive=F(1, 2)),
}


class TestFrozenStudyValues:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_exact_values(self, name):
        report = check_soundness(load_study(f"{name}.swg"))
        want = FROZEN[name]
        assert report.true_value == want["true"]
        assert report.formula_value == want["formula"]
        assert report.naive_value == want["naive"]
        assert report.consistency_ok
        assert report.sound

    def test_identified_studies_have_zero_gap(self):
        for name in ("simplest", "itt", "hypothetical_adjusted", "composite"):
            report = check_soundness(load_study(f"{name}.swg"))
            assert report.gap == 0, name

    def test_naive_gaps_where_designed(self):
        gaps = {}
        for name in ("hypothetical_unobserved", "hypothetical_adjusted", "composite"):
            report = check_soundness(load_study(f"{name}.swg"))
            gaps[name] = report.naive_gap
        assert gaps == {
            "hypothetical_unobserved": F(1, 6),
            "hypothetical_adjusted": F(3, 16),
            "composite": F(1, 2),
        }

    def test_principal_stratum_arm_means(self):
        study = load_study("principal_stratum.swg")
        compiled = compile_study(study)
        table = enumerate_table(
            compiled.graph, study.scm,
            contexts=[compiled.arm_context(1), compiled.arm_context(0)],
        )
        left = true_estimand(table, compiled.contrast.left)
        right = true_estimand(table, compiled.contrast.right)
        assert (left, right) == (F(1, 2), F(0))


class TestTableMechanics:
    def test_composite_rows_satisfy_the_endpoint_rule(self):
        study = load_study("composite.swg")
        compiled = compile_study(study)
        table = enumerate_table(compiled.graph, study.scm)
        for row in table.rows:
            y, m = row.values[("Y", ())], row.values[("M", ())]
            assert row.values[("U", ())] == (y if m == 0 else 0)

    def test_weights_sum_to_one(self):
        study = load_study("hypothetical_adjusted.swg")
        table = enumerate_table(study.graph, study.scm)
        assert sum(row.weight for row in table.rows) == 1

    def test_consistency_holds_on_own_models(self):
        study = load_study("itt.swg")
        compiled = compile_study(study)
        table = enumerate_table(
            compiled.graph, study.scm,
            contexts=[compiled.arm_context(1), compiled.arm_context(0)],
        )
        assert validate_consistency(table) == []

    def test_csv_export_is_frozen(self):
        study = load_study("principal_stratum.swg")
        compiled = compile_study(study)
        table = enumerate_table(
            compiled.graph, study.scm,
            contexts=[compiled.arm_context(1), compiled.arm_context(0)],
        )
        buf = io.StringIO()
        write_csv(table, buf)
        assert buf.getvalue().splitlines()[:3] == [
            "id,M(a=1),Y(a=1),M(a=0),Y(a=0),A,M,Y,weight",
            "1,1,1,0,0,0,0,0,1/8",
            "2,1,1,0,0,0,0,0,1/8",
        ]


class TestEvalFormula:
    def test_rejects_counterfactual_terms(self):
        study = load_study("itt.swg")
        table = enumerate_table(study.graph, study.scm, contexts=[(("A", 1),)])
        with pytest.raises(OracleError):
            eval_formula(table, Expect(Term("Y", (("A", 1),)), ()))

    def test_zero_probability_condition(self):
        study = load_study("itt.swg")
        table = enumerate_table(study.graph, study.scm)
        impossible = Expect(Term("Y", ()), (Event(Term("A", ()), 7),))
        with pytest.raises(ZeroProbabilityCondition):
            eval_formula(table, impossible)

    def test_naive_formula_conditions_on_observed_levels(self):
        compiled = compile_study(load_study("hypothetical_adjusted.swg"))
        assert render(naive_formula(compiled)) == "E[Y|A=1,M=0] - E[Y|A=0,M=0]"
        plain = compile_study(load_study("itt.swg"))
        assert render(naive_formula(plain)) == "E[Y|A=1] - E[Y|A=0]"


class TestErrors:
    def test_no_data_model_and_no_seed(self):
        study = load_study("chronic_pain.swg")
        with pytest.raises(OracleError, match="declares no data model"):
            check_soundness(study)

    def test_support_too_large(self):
        study = load_study("enumeration_cap.swg")
        with pytest.raises(SupportTooLarge):
            check_soundness(study, seed=0)

    def test_empty_stratum(self):
        # Force M(1) = 1 with probability one so the stratum M(1) = 0 dies.
        text = spec_text("principal_stratum.swg").replace(
            "(1, 0) -> 1; (1, 1) -> 0;",
            "(1, 0) -> 1; (1, 1) -> 1;",
        )
        with pytest.raises(EmptyStratum):
            check_soundness(parse_study(text))

    def test_unknown_variable(self):
        study = load_study("itt.swg")
        table = enumerate_table(study.graph, study.scm)
        missing = "no node labeled 'Q'"
        with pytest.raises(UnknownNode, match=missing):
            true_estimand(table, CounterfactualMean("Q", ()))
        with pytest.raises(UnknownNode, match=missing):
            conditionally_independent(table, "A", "Q", ())
        with pytest.raises(UnknownNode, match=missing):
            eval_formula(table, Expect(Term("Q")))


class TestRandomModels:
    def test_same_seed_same_model(self):
        study = load_study("itt.swg")
        assert random_scm(study.graph, 11) == random_scm(study.graph, 11)

    def test_noise_sums_to_one(self):
        study = load_study("chronic_pain.swg")
        scm = random_scm(study.graph, 5)
        for eq in scm.equations.values():
            assert sum(w for _, w in eq.noise) == 1

    def test_positivity_every_value_reachable(self):
        study = load_study("itt.swg")
        scm = random_scm(study.graph, 5)
        graph = study.graph
        for var, eq in scm.equations.items():
            values = set(graph.attr(graph.node(var)).values)
            noise_levels = [n for n, _ in eq.noise]
            parent_combos = {key[:-1] for key in eq.table}
            for combo in parent_combos:
                seen = {eq.table[combo + (n,)] for n in noise_levels}
                assert seen == values, var

    def test_battery_parallel_matches_serial(self):
        study = load_study("composite.swg")
        serial = soundness_battery(study, range(6), jobs=1)
        parallel = soundness_battery(study, range(6), jobs=3)
        assert serial == parallel

    def test_battery_all_sound(self):
        study = load_study("hypothetical_adjusted.swg")
        reports = soundness_battery(study, range(20))
        assert all(r.sound for r in reports)
        assert {r.status for r in reports} == {"identified"}


class TestConditionalIndependence:
    def test_exact_ci_matches_dsep_on_the_itt_model(self):
        study = load_study("itt.swg")
        table = enumerate_table(study.graph, study.scm)
        # A and Y are dependent marginally, M and Y dependent given A, etc.
        assert not conditionally_independent(table, "A", "Y", ())
        # In M = A xor noise, M is marginally independent of A? No: check
        # against the graph instead of guessing: A -> M is an edge, so the
        # exact joint must show dependence.
        assert not conditionally_independent(table, "A", "M", ())


class _CountedRows(tuple):
    """Table rows that count the passes made over them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _counted(table):
    return dataclasses.replace(table, rows=_CountedRows(table.rows))


def chain_study(n):
    """A treatment, n - 2 binary links and the outcome in one chain: 2**n units."""
    names = ["A"] + [f"X{i}" for i in range(1, n - 1)] + ["Y"]
    lines = ['study "Chain" {', "  node A { role: treatment; }"]
    lines += [f"  node {x} {{ }}" for x in names[1:-1]]
    lines += ["  node Y { role: outcome; }", "  edges {"]
    lines += [f"    {u} -> {v};" for u, v in zip(names, names[1:])]
    lines += ["  }", "  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return parse_study("\n".join(lines))


def adjusted_study(k):
    """A hypothetical strategy for M with k binary adjusted confounders of M and Y."""
    confounders = [f"C{i}" for i in range(1, k + 1)]
    lines = ['study "Adjusted" {', "  node A { role: treatment; }"]
    lines += ["  node M { role: intercurrent; }"]
    lines += [f"  node {c} {{ adjust: true; }}" for c in confounders]
    lines += ["  node Y { role: outcome; }", "  edges {", "    A -> M; A -> Y; M -> Y;"]
    lines += [f"    {c} -> M; {c} -> Y;" for c in confounders]
    lines += ["  }", "  strategy M: hypothetical(0);"]
    lines += ["  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return parse_study("\n".join(lines))


def grouping_nodes(formula):
    """The Expect and SumOver nodes of ``formula``."""
    if isinstance(formula, Difference):
        return grouping_nodes(formula.left) + grouping_nodes(formula.right)
    if isinstance(formula, SumOver):
        return 1 + grouping_nodes(formula.body)
    return 1


class TestOnePass:
    """check_soundness builds one law in one forward pass and no row
    table; the readers that take a table never scan its rows."""

    def test_check_soundness_builds_one_law_and_no_table(self, monkeypatch):
        calls = {"enumerate_table": 0, "_law": 0}

        def counted(name):
            real = getattr(oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        report = check_soundness(load_study("chronic_pain.swg"), seed=3)
        assert report.sound and report.status == "identified"
        assert calls == {"enumerate_table": 0, "_law": 1}

    def test_readers_never_scan_the_rows(self):
        study = load_study("chronic_pain.swg")
        compiled = compile_study(study)
        table = _counted(
            enumerate_table(compiled.graph, random_scm(compiled.graph, 3), compiled.worlds())
        )
        combined = identify_estimand(study, compiled).combined
        assert render(combined).startswith("Σ_c E[Y|A=1,C=c,M3=0,M4=0]·P(C=c)")
        eval_formula(table, combined)
        true_estimand(table, compiled.contrast.left)
        conditionally_independent(table, "A", "Y", ("C",))
        assert table.rows.passes == 0

    @pytest.mark.parametrize(
        "study, combinations",
        [(load_study("chronic_pain.swg"), 2), (adjusted_study(6), 64)],
        ids=["chronic_pain", "six_adjusters"],
    )
    def test_each_formula_node_groups_the_law_once(self, monkeypatch, study, combinations):
        compiled = compile_study(study)
        table = enumerate_table(compiled.graph, random_scm(compiled.graph, 3))
        combined = identify_estimand(study, compiled).combined
        assert combined.left.bindings and 2 ** len(combined.left.bindings) == combinations
        calls = 0
        given = oracle._Law.given

        def counted(*args):
            nonlocal calls
            calls += 1
            return given(*args)

        monkeypatch.setattr(oracle._Law, "given", counted)
        eval_formula(table, combined)
        assert calls == grouping_nodes(combined)

    def test_each_formula_node_checks_its_terms_once(self, monkeypatch):
        study = adjusted_study(6)
        compiled = compile_study(study)
        g = compiled.graph
        combined = identify_estimand(study, compiled).combined
        law = oracle._law(g, random_scm(g, 3), (), oracle._formula_columns(g, combined))
        calls = 0
        attr = CausalGraph.attr

        def counted(*args):
            nonlocal calls
            calls += 1
            return attr(*args)

        monkeypatch.setattr(CausalGraph, "attr", counted)
        oracle._formula_value(g, combined, None, law)
        # 64 binding combinations per arm, yet one check per term
        assert calls == len(list(terms(combined)))

    def test_long_chain_needs_no_row_table(self):
        # 2**17 = 131,072 units; only the live columns of one link are held.
        study = chain_study(17)
        tracemalloc.start()
        try:
            report = check_soundness(study, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.sound and report.gap == 0
        assert peak < 1_000_000
