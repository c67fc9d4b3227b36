"""Exact enumeration oracle: frozen study values, error surfaces, batteries."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import product

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
from swigc.model import SCMSpec, StructuralEquation
from swigc.formula import Difference, Event, Expect, SumOver, Term, render, terms
from swigc.graph import CausalGraph, CompositeRule, NodeAttrs, build_graph
from swigc.oracle import (
    PotentialOutcomeTable,
    check_soundness,
    data_model,
    enumerate_table,
    eval_formula,
    naive_formula,
    random_scm,
    soundness_battery,
    true_estimand,
    validate_consistency,
    write_csv,
)

from conftest import ROOT, conditionally_independent, load_script, load_study, spec_text
import reference_oracle


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


# sha256 of each export, recorded when the row table was still built whole.
CSV_DIGESTS = {
    "simplest": "1b3bbf72c09a35585e1640fe2b23cffa11c4f0ec148d15b74f32d303974e32d2",
    "itt": "feaef4e66b9779b797ba1abfbff1061abf3f637f0f9860433884ba2718ad4219",
    "hypothetical_unobserved": "a3650411987debe0820ffb21fc30920e5b4661bb32c141272f0be61f6a48e9be",
    "hypothetical_adjusted": "0fc7c8849e8abe0e3d1a74c2f71e35b2bf527e2519e3a6780d0749fbe36cc329",
    "composite": "773a0fe8249f0ee885ce63560e95088941bd33843df5682360d35d18a6f2fcb3",
    "principal_stratum": "5ceb2bf8cbb4c917530813a31e93f588103d7210c9df90ff68fba4c52f79e7c1",
    "chronic_pain": "26b48470b849017b5ec0fee1e041d7460c9fdc1c144e185c809f4c22c655bb75",
    "chain_12": "5aa9b6eff501a9e3b2f01e7f08a08efa2f16017a6edc2efda8fba642085727a1",
}


class TestTableMechanics:
    def test_composite_rows_satisfy_the_endpoint_rule(self):
        study = load_study("composite.swg")
        compiled = compile_study(study)
        table = enumerate_table(compiled.graph, study.scm)
        for _, values in reference_oracle.units(table):
            y, m = values[("Y", ())], values[("M", ())]
            assert values[("U", ())] == (y if m == 0 else 0)

    def test_weights_sum_to_one(self):
        study = load_study("hypothetical_adjusted.swg")
        table = enumerate_table(study.graph, study.scm)
        assert sum(weight for weight, _ in reference_oracle.units(table)) == 1

    def test_consistency_holds_on_own_models(self):
        study = load_study("itt.swg")
        compiled = compile_study(study)
        table = enumerate_table(
            compiled.graph, study.scm,
            contexts=[compiled.arm_context(1), compiled.arm_context(0)],
        )
        assert validate_consistency(table) == []

    def test_an_inconsistent_unit_is_reported(self, monkeypatch):
        # No model swigc builds is inconsistent, so the stream is made so:
        # in the first unit whose observed A is 1 (unit 5), Y(a=1) is
        # flipped from the observed Y.  Only that cell is reported, and the
        # world A=0 never matches that unit.
        study = load_study("itt.swg")
        compiled = compile_study(study)
        treated = compiled.arm_context(1)
        table = enumerate_table(compiled.graph, study.scm, [treated, compiled.arm_context(0)])
        cells = PotentialOutcomeTable._cells

        def flipped(table, columns):
            a, y = columns.index(("A", ())), columns.index(("Y", treated))
            done = False
            for values, weight in cells(table, columns):
                if not done and values[a] == 1:
                    values = values[:y] + (1 - values[y],) + values[y + 1:]
                    done = True
                yield values, weight

        monkeypatch.setattr(PotentialOutcomeTable, "_cells", flipped)
        assert validate_consistency(table) == ["row 5: Y(a=1)=0 but observed Y=1"]

    @pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
    def test_csv_export_is_frozen(self, name):
        """The whole export, as ``simulate --csv`` writes it: every world of
        the estimand, on the study's own model or seed 0."""
        study = chain_study(12) if name == "chain_12" else load_study(f"{name}.swg")
        compiled = compile_study(study)
        model = data_model(compiled, None if study.scm else 0)
        buf = io.StringIO()
        write_csv(enumerate_table(compiled.graph, model, compiled.worlds()), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CSV_DIGESTS[name]


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
            true_estimand(table, Expect(Term("Q")))
        with pytest.raises(UnknownNode, match=missing):
            conditionally_independent(table, "A", "Q", ())
        with pytest.raises(UnknownNode, match=missing):
            eval_formula(table, Expect(Term("Q")))

    def test_world_the_table_lacks(self):
        compiled = compile_study(load_study("chronic_pain.swg"))
        table = enumerate_table(compiled.graph, data_model(compiled, 0))
        mean = Expect(Term("Y", (("A", 0), ("M3", 0), ("M4", 0))))
        with pytest.raises(OracleError, match=r"table was not enumerated for world \(A=0,M3=0,M4=0\)"):
            true_estimand(table, mean)

    def test_missing_equation(self):
        study = load_study("itt.swg")
        scm = SCMSpec({v: eq for v, eq in study.scm.equations.items() if v != "A"})
        with pytest.raises(OracleError, match="the data model has no equation for A"):
            enumerate_table(study.graph, scm)


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


class TestBatteryScript:
    def test_reports_every_seed(self, capsys):
        assert load_script("soundness_battery").main(["--seeds", "3", "--studies", "itt.swg"]) == 0
        out = capsys.readouterr().out
        assert "seeds 0..2  sound 3/3" in out
        assert out.endswith(", 0 mismatches\n")

    def test_battery_past_the_cap_is_refused(self, capsys):
        argv = ["--seeds", "10000000000000000000", "--studies", "itt.swg"]
        assert load_script("soundness_battery").main(argv) == 7
        assert capsys.readouterr().err == (
            "error: a battery of more than 1000000 seeds exceeds the cap\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seeds", "0"], "argument --seeds: must be 1 or more"),
            (["--seeds", "-5"], "argument --seeds: must be 1 or more"),
            (["--jobs", "-3"], "argument --jobs: must be 1 or more"),
        ],
    )
    def test_count_below_one_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as done:
            load_script("soundness_battery").main([*argv, "--studies", "itt.swg"])
        assert done.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: {message}\n")

    def test_empty_study_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as done:
            load_script("soundness_battery").main(["--seeds", "2", "--studies"])
        assert done.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith("error: argument --studies: expected at least one argument\n")

    def test_unreadable_study_is_one_error_line(self, capsys):
        argv = ["--seeds", "1", "--studies", "itt.swg", "nope.swg"]
        assert load_script("soundness_battery").main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert err.count("\n") == 1

    def test_refused_model_exits_as_simulate_does(self, capsys):
        argv = ["--seeds", "1", "--studies", "enumeration_cap.swg"]
        assert load_script("soundness_battery").main(argv) == 7
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 10000000 noise configurations exceed the cap of 1000000\n"


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


def groupings(formula):
    """The distinct (variables, mean variable) that the Expect and SumOver
    nodes of ``formula`` group the law by."""
    if isinstance(formula, Difference):
        return groupings(formula.left) | groupings(formula.right)
    if isinstance(formula, SumOver):
        return {(tuple(v for v, _ in formula.bindings), None)} | groupings(formula.body)
    return {(tuple(e.term.var for e in formula.given), formula.term.var)}


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

    def test_readers_never_scan_the_rows(self, monkeypatch):
        study = load_study("chronic_pain.swg")
        compiled = compile_study(study)
        scans = 0
        cells = PotentialOutcomeTable._cells

        def counted(table, columns):
            nonlocal scans
            scans += 1
            return cells(table, columns)

        monkeypatch.setattr(PotentialOutcomeTable, "_cells", counted)
        table = enumerate_table(compiled.graph, random_scm(compiled.graph, 3), compiled.worlds())
        combined = identify_estimand(study, compiled).combined
        assert render(combined).startswith("Σ_c E[Y|A=1,C=c,M3=0,M4=0]·P(C=c)")
        eval_formula(table, combined)
        true_estimand(table, compiled.contrast.left)
        conditionally_independent(table, "A", "Y", ("C",))
        assert scans == 0

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
        # The two arms' SumOver nodes group by the same variables, and so do
        # their Expect nodes: four nodes, two groupings.
        assert calls == len(groupings(combined)) == 2

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
        oracle._formula_value(g, combined, law)
        # 64 binding combinations per arm, yet one check per term
        assert calls == len(list(terms(combined)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_latent_roots_chain_matches_the_row_table(self, seed):
        # 1,024 units.  Each root joins the pass just before the link that
        # reads it, not with the treatment, yet every value is the same.
        study = parse_study(load_script("cli_sweep").roots_chain(3, 4))
        assert check_soundness(study, seed) == reference_oracle.check_soundness(study, seed)

    def test_latent_roots_join_the_pass_at_their_reader(self):
        # 320,000 units.  Were every root to join with the treatment, the
        # states would hold all four roots' values for the whole chain,
        # several megabytes; joining at its link, each root's values live
        # for one step.
        study = parse_study(load_script("cli_sweep").roots_chain(4, 10))
        tracemalloc.start()
        try:
            report = check_soundness(study, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.sound and report.true_value == F(-5, 2782208)
        assert peak < 1_000_000

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

    def test_csv_export_holds_one_row_at_a_time(self):
        # 2**11 = 2,048 units; a held row table would take about 7 MB.
        compiled = compile_study(chain_study(11))
        scm = random_scm(compiled.graph, 0)
        sink = _LineCounter()
        tracemalloc.start()
        try:
            write_csv(enumerate_table(compiled.graph, scm, compiled.worlds()), sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.lines == 1 + 2**11
        assert peak < 1_000_000

    def test_missing_last_entry_is_named_without_a_row_table(self):
        # 100,000 units, and only the last misses its table entry.  A fresh
        # interpreter reports its peak RSS growth: a held row table grows it
        # by 40 MB or more.  (Tracing every allocation would slow the scan
        # of the units tenfold.)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", MISSING_LAST_ENTRY], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        message, growth_kb = done.stdout.splitlines()
        assert message == (
            "table for Y has no entry for (1, 49999); the data model"
            " does not cover this intervention"
        )
        assert int(growth_kb) < 20_000


class TestSharedCopies:
    """A world's copy of a node that none of its interventions reaches is
    the observed column; the forward pass evaluates it once."""

    def test_chronic_pain_arms_share_the_baseline_covariate(self):
        compiled = compile_study(load_study("chronic_pain.swg"))
        g = compiled.graph
        scm = random_scm(g, 3)
        worlds = oracle._worlds(compiled.worlds())
        mechanisms, _ = oracle._mechanisms(g, scm)
        aliases, _ = oracle._plan(mechanisms, worlds)
        arms = worlds[1:]
        assert [dict(w)["A"] for w in arms] == [1, 0]
        columns = [(b, w) for w in worlds for b in ("C", "Y", "M3", "M4")]
        law = oracle._law(g, scm, worlds, columns)
        for w in arms:
            assert aliases[("C", w)] == ("C", ())
            assert law.positions[("C", w)] == law.positions[("C", ())]
            assert aliases[("Y", w)] == ("Y", w)
            assert law.positions[("Y", w)] != law.positions[("Y", ())]
            for event in ("M3", "M4"):
                assert dict(w)[event] == 0
                assert aliases[(event, w)] == (event, w)
                assert law.given([(event, w)]).keys() == {(0,)}


def _model(*equations):
    """An SCMSpec from (base, parents, their supports, noise weights over
    their sum, outcome per table key)."""
    return SCMSpec({
        base: StructuralEquation(
            parents,
            tuple((v, F(w, sum(weights))) for v, w in enumerate(weights)),
            {key: outcome(*key) for key in product(*supports, range(len(weights)))},
        )
        for base, parents, supports, weights, outcome in equations
    })


class TestSummedRoots:
    """A stochastic root that no world pins, no reader asks for and one
    node reads is summed out at that node and never becomes a column; the
    law is the row scan's all the same."""

    @pytest.fixture
    def summed(self, monkeypatch):
        """The bases summed out at each reader that sums any, in pass order."""
        seen = []
        real = oracle._summed

        def spy(roots, *rest):
            seen.append([base for base, _, _ in roots])
            return real(roots, *rest)

        monkeypatch.setattr(oracle, "_summed", spy)
        return seen

    @staticmethod
    def assert_row_law(graph, scm, worlds, columns):
        law = oracle._law(graph, scm, worlds, columns)
        table = PotentialOutcomeTable(graph, scm, ((), *worlds))
        got = {key: F(mass, law.denominator) for key, (mass, _) in law.given(columns).items()}
        assert got == dict(reference_oracle.table_law(table, columns))
        return law

    @pytest.mark.parametrize(
        "case, widest", [(("row_scaling", 56), 1412), (("chronic_pain", None), 88)]
    )
    def test_widest_state_count(self, monkeypatch, case, widest):
        # row_scaling's 56-valued N was a column for one step: 2,016 states.
        laws = []
        law = oracle._law
        monkeypatch.setattr(oracle, "_law", lambda *args: laws.append(law(*args)) or laws[-1])
        _, text = load_script("oracle_scaling").case(*case)
        assert check_soundness(parse_study(text), seed=0).sound
        assert [law.widest for law in laws] == [widest]

    def test_pinned_asked_and_shared_roots_stay_columns(self, summed):
        # P is pinned by the world, Q is asked for, T has two readers: each
        # is a column.  A (read by X only) and S (read by Y only) are summed.
        # The world pins P's one reader too, so no consistency check keeps
        # P's observed column; only its pin does.
        graph = build_graph(
            [("A", None), ("P", None), ("Q", NodeAttrs(values=(0, 1, 2))), ("T", None),
             ("S", NodeAttrs(observed=False, values=(0, 1, 2))), ("X", None), ("Y", None)],
            [("A", "X"), ("T", "X"), ("X", "Y"), ("P", "Y"), ("Q", "Y"), ("T", "Y"), ("S", "Y")],
        )
        world = (("P", 1), ("Y", 0))
        columns = [("Y", ()), ("P", world), ("Q", ())]
        law = self.assert_row_law(graph, random_scm(graph, 5), [world], columns)
        assert summed == [["A"], ["S"]]
        assert law.consistent

    def test_composite_reader_sums_its_guard(self, summed):
        rule = CompositeRule(source="S", guard="G", failure=0)
        graph = build_graph(
            [("A", NodeAttrs(role="treatment")), ("G", None), ("S", None),
             ("D", NodeAttrs(role="derived", deterministic=rule))],
            [("A", "S"), ("S", "D"), ("G", "D")],
        )
        world = (("A", 1),)
        columns = [("D", ()), ("D", world), ("S", world)]
        self.assert_row_law(graph, random_scm(graph, 2), [world], columns)
        assert summed == [["G"]]

    def test_zero_weight_root_value_keeps_its_states(self, summed):
        # R = 0 has weight zero, and only there is Y = 2: the key stays,
        # with mass zero.
        scm = _model(
            ("A", (), (), (1, 1), lambda u: u),
            ("R", (), (), (0, 1, 1), lambda u: u),
            ("Y", ("A", "R"), ((0, 1), (0, 1, 2)), (1, 3), lambda a, r, u: 2 if r == 0 else a),
        )
        graph = build_graph(
            [("A", None), ("R", NodeAttrs(values=(0, 1, 2))), ("Y", NodeAttrs(values=(0, 1, 2)))],
            [("A", "Y"), ("R", "Y")],
        )
        law = self.assert_row_law(graph, scm, [], [("Y", ())])
        assert summed == [["A", "R"]]
        assert law.given([("Y", ())]) == {(0,): (8, 0), (1,): (8, 0), (2,): (0, 0)}

    def test_entry_missing_at_one_root_value_is_named(self, summed):
        scm = _model(
            ("A", (), (), (1, 1), lambda u: u),
            ("R", (), (), (1, 1, 1), lambda u: u),
            ("Y", ("A", "R"), ((0, 1), (0, 1, 2)), (1, 1), lambda a, r, u: (a + r + u) % 2),
        )
        del scm.equations["Y"].table[(1, 2, 0)]
        graph = build_graph(
            [("A", None), ("R", NodeAttrs(values=(0, 1, 2))), ("Y", None)],
            [("A", "Y"), ("R", "Y")],
        )
        message = (
            "table for Y has no entry for (1, 2, 0); the data model"
            " does not cover this intervention"
        )
        table = PotentialOutcomeTable(graph, scm, ((),))
        with pytest.raises(OracleError) as expected:
            reference_oracle.table_law(table, [("Y", ())])
        with pytest.raises(OracleError) as raised:
            oracle._law(graph, scm, [], [("Y", ())])
        assert str(raised.value) == str(expected.value) == message
        assert summed == [["A", "R"]]

    def test_scaling_script_times_the_smallest_row_study(self, tmp_path, capsys):
        out = tmp_path / "BENCH_oracle_scaling.json"
        argv = ["--runs", "2", "--case", "row_scaling:56", "--out", str(out)]
        assert load_script("oracle_scaling").main(argv) == 0
        line = capsys.readouterr().out
        assert out.read_text() == line
        result = json.loads(line)
        assert (result["bench"], result["runs"]) == ("oracle_scaling", 2)
        timing = result["check_soundness_ms"]["row_scaling(56)"]
        assert list(result["check_soundness_ms"]) == ["row_scaling(56)"]
        assert 0 < timing["q1"] <= timing["median"] <= timing["q3"]
        assert result["widest"] == {"row_scaling(56)": 1412}
        _, text = load_script("oracle_scaling").case("row_scaling", 56)
        report = check_soundness(parse_study(text), seed=0)
        assert result["values"]["row_scaling(56)"] == {
            "true": str(report.true_value),
            "formula": str(report.formula_value),
            "naive": str(report.naive_value),
        }


class _LineCounter:
    """A text sink that keeps nothing but the number of lines written."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


# Y reads A and one of 50,000 noise values; the table misses (1, 49999).
MISSING_LAST_ENTRY = """
import resource
from fractions import Fraction
from swigc.dsl import parse_study
from swigc.errors import OracleError
from swigc.model import SCMSpec, StructuralEquation
from swigc.oracle import _law

graph = parse_study(
    'study "Wide" { node A { role: treatment; } node Y { role: outcome; }'
    ' edges { A -> Y; } estimand mean_difference(Y; A = 1 vs A = 0); }'
).graph
n, half = 50_000, Fraction(1, 2)
table = {(a, u): u % 2 for a in (0, 1) for u in range(n)}
del table[(1, n - 1)]
scm = SCMSpec({
    "A": StructuralEquation((), ((0, half), (1, half)), {(0,): 0, (1,): 1}),
    "Y": StructuralEquation(("A",), tuple((u, Fraction(1, n)) for u in range(n)), table),
})
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
try:
    _law(graph, scm, (), [("Y", ())])
except OracleError as e:
    print(e)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
