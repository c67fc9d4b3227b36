"""Derivation engine: frozen traces, premises, refutations, cross-world residuals."""

import json

import pytest

from swigc.dsep import d_separated, path_string
from swigc.dsl import parse_study
from swigc.errors import SemanticError
from swigc.estimand import compile_study, study_swig
from swigc.formula import Event, Expect, Term, render
from swigc.graph import NodeAttrs, build_graph
from swigc.identify import (
    Identified,
    NotIdentifiable,
    PartiallyIdentified,
    identify_estimand,
    identify_term,
    render_trace,
    verdict_code,
)
from swigc.model import StudySpec
from swigc.oracle import check_soundness

from conftest import STUDY_FILES, load_script, load_study, spec_path
from reference_identify import subset_identify_term


@pytest.fixture(scope="module")
def reports():
    out = {}
    for name in (
        "simplest",
        "itt",
        "hypothetical_unobserved",
        "hypothetical_adjusted",
        "composite",
        "principal_stratum",
        "chronic_pain",
    ):
        study = load_study(f"{name}.swg")
        out[name] = identify_estimand(study)
    return out


class TestVerdicts:
    def test_codes(self, reports, run_cli):
        words = {
            "identified": "identified",
            "partial": "partially identified",
            "blocked": "not identifiable",
        }
        expected = {
            "simplest": ("identified", 0),
            "itt": ("identified", 0),
            "hypothetical_unobserved": ("blocked", 5),
            "hypothetical_adjusted": ("identified", 0),
            "composite": ("identified", 0),
            "principal_stratum": ("partial", 4),
            "chronic_pain": ("identified", 0),
        }
        assert {k: (r.status, verdict_code(r)) for k, r in reports.items()} == expected
        for name, report in reports.items():
            status, code = expected[name]
            res = run_cli("identify", spec_path(f"{name}.swg"), "--json")
            payload = json.loads(res.out)
            assert (res.code, payload["exit"], payload["verdict"]) == (code, code, words[status])
            arms = [payload["left"]["status"], payload["right"]["status"]]
            assert arms == [report.left.status, report.right.status], name
            seed = None if report.study.scm is not None else 0
            assert check_soundness(report.study, seed=seed).status == status, name


class TestDefinition:
    @pytest.mark.parametrize("name", STUDY_FILES)
    def test_derivation_starts_from_the_compiled_mean(self, name):
        study = load_study(name)
        compiled = compile_study(study)
        report = identify_estimand(study, compiled)
        for arm, mean in ((report.left, compiled.contrast.left),
                          (report.right, compiled.contrast.right)):
            assert arm.mean == mean
            assert (arm.steps[0].rule, arm.steps[0].formula) == ("definition", mean)

    def test_term_given_two_events_is_refused(self):
        study = load_study("principal_stratum.swg")
        compiled = compile_study(study)
        mean = compiled.contrast.left
        two = Expect(mean.term, mean.given + (Event(Term("A"), 1),))
        with pytest.raises(SemanticError, match="at most one stratum event, not 2"):
            identify_term(study, two, compiled)
        assert identify_term(study, mean, compiled) == identify_estimand(study, compiled).left

    @pytest.mark.parametrize(
        "term, message",
        [
            (Term("M3", (("A", 1), ("M3", 0), ("M4", 0))), "term is about M3, but the study outcome is Y"),
            (Term("Y", (("A", 1),)), r"term must assign exactly the intervened variables \(A, M3, M4\)"),
            (Term("Y", (("A", 7), ("M3", 0), ("M4", 0))), "level 7 is outside declared values of A"),
        ],
    )
    def test_malformed_term_is_refused(self, term, message):
        study = load_study("chronic_pain.swg")
        with pytest.raises(SemanticError, match=message):
            identify_term(study, Expect(term), compile_study(study))


class TestIttDerivation:
    def test_three_steps_per_arm(self, reports):
        left = reports["itt"].left
        assert isinstance(left, Identified)
        assert [s.rule for s in left.steps] == [
            "definition",
            "randomization",
            "consistency",
        ]

    def test_trace_lines(self, reports):
        assert render_trace(reports["itt"].left) == [
            "E[Y(a=1)]",
            "E[Y(a=1)|A=1]  (randomization)",
            "E[Y|A=1]       (consistency)",
        ]

    def test_combined_contrast(self, reports):
        assert render(reports["itt"].combined) == "E[Y|A=1] - E[Y|A=0]"

    def test_randomization_premise_reverifies(self, reports):
        study = load_study("itt.swg")
        swig = study_swig(compile_study(study))
        step = reports["itt"].left.steps[1]
        assert step.premise is not None
        assert step.premise.label() == "Y(a) ⊥ A"
        assert d_separated(swig.graph, step.premise)


class TestRefutation:
    def test_both_arms_blocked(self, reports):
        rep = reports["hypothetical_unobserved"]
        assert isinstance(rep.left, NotIdentifiable)
        assert isinstance(rep.right, NotIdentifiable)
        assert rep.combined is None

    def test_witness_path(self, reports):
        blocked = reports["hypothetical_unobserved"].left
        assert blocked.blocked.witness_label == "M(a) <- U -> Y(a,m)"
        assert path_string(blocked.blocked.witness) == "M(a) <- U -> Y(a,m)"

    def test_failed_premise_is_the_conditioning_step(self, reports):
        blocked = reports["hypothetical_unobserved"].left
        assert blocked.blocked.premise.label() == "Y(a,m) ⊥ M(a) | A"

    def test_trace_tail(self, reports):
        lines = render_trace(reports["hypothetical_unobserved"].left)
        assert lines[-1] == "BLOCKED: open backdoor path M(a) <- U -> Y(a,m)"

    def test_witness_starts_backdoor(self, reports):
        blocked = reports["hypothetical_unobserved"].left
        assert blocked.blocked.witness.arrows[0] == "<-"

    def test_one_witness_per_estimand(self, monkeypatch):
        import swigc.identify

        calls = []
        original = swigc.identify.open_paths

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(swigc.identify, "open_paths", counted)
        report = identify_estimand(load_study("hypothetical_unobserved.swg"))
        assert report.status == "blocked"
        assert len(calls) == 1
        assert report.left.blocked is report.right.blocked


    def test_confounded_treatment_refutes_randomization(self):
        # The spec language requires a parentless treatment, so only a study
        # built through the API reaches this refutation.
        graph = build_graph(
            [
                ("A", NodeAttrs(role="treatment")),
                ("U", NodeAttrs(role="latent", observed=False)),
                ("Y", NodeAttrs(role="outcome")),
            ],
            [("U", "A"), ("U", "Y"), ("A", "Y")],
        )
        study = StudySpec("Confounded treatment", graph, "A", (1, 0), "Y")
        compiled = compile_study(study)
        report = identify_estimand(study, compiled)
        assert (report.status, verdict_code(report), report.combined) == ("blocked", 5, None)
        for arm, mean in ((report.left, compiled.contrast.left),
                          (report.right, compiled.contrast.right)):
            assert isinstance(arm, NotIdentifiable)
            assert arm.blocked.premise.label() == "Y(a) ⊥ A"
            assert arm.blocked.witness_label == "A <- U -> Y(a)"
            assert arm == subset_identify_term(study, mean, compiled)


class TestAdjustedDerivation:
    def test_trace(self, reports):
        assert render_trace(reports["hypothetical_adjusted"].left) == [
            "E[Y(a=1,m=0)]",
            "E[Y(a=1,m=0)|A=1]                          (randomization)",
            "Σ_c E[Y(a=1,m=0)|A=1,C=c]·P(C=c)           (stratification over {C})",
            "Σ_c E[Y(a=1,m=0)|A=1,C=c,M(a=1)=0]·P(C=c)  (Y(a,m) ⊥ M(a) | A, C)",
            "Σ_c E[Y|A=1,C=c,M=0]·P(C=c)                (consistency)",
        ]

    def test_combined(self, reports):
        assert render(reports["hypothetical_adjusted"].combined) == (
            "Σ_c E[Y|A=1,C=c,M=0]·P(C=c) - Σ_c E[Y|A=0,C=c,M=0]·P(C=c)"
        )

    def test_all_premises_reverify_on_the_swig(self, reports):
        study = load_study("hypothetical_adjusted.swg")
        swig = study_swig(compile_study(study))
        for arm in (reports["hypothetical_adjusted"].left,
                    reports["hypothetical_adjusted"].right):
            premises = [s.premise for s in arm.steps if s.premise is not None]
            assert len(premises) == 3  # randomization, stratification, conditioning
            for premise in premises:
                assert d_separated(swig.graph, premise), premise.label()


class TestCompositeDerivation:
    def test_contrast_is_on_the_derived_endpoint(self, reports):
        assert render(reports["composite"].combined) == "E[U|A=1] - E[U|A=0]"

    def test_trace(self, reports):
        assert render_trace(reports["composite"].left) == [
            "E[U(a=1)]",
            "E[U(a=1)|A=1]  (randomization)",
            "E[U|A=1]       (consistency)",
        ]


class TestPrincipalStratum:
    def test_treated_arm_identifies(self, reports):
        left = reports["principal_stratum"].left
        assert isinstance(left, Identified)
        assert render(left.formula) == "E[Y|M=0,A=1]"

    def test_control_arm_keeps_cross_world_event(self, reports):
        right = reports["principal_stratum"].right
        assert isinstance(right, PartiallyIdentified)
        assert render(right.formula) == "E[Y|M(a=1)=0,A=0]"
        assert [e.label for e in right.cross_world.events] == ["M(a=1)=0"]

    def test_trace_tails(self, reports):
        left_lines = render_trace(reports["principal_stratum"].left)
        right_lines = render_trace(reports["principal_stratum"].right)
        assert left_lines[-1] == "E[Y|M=0,A=1]            (consistency)"
        assert right_lines[-1] == "REMAINING CROSS-WORLD TERM: E[Y|M(a=1)=0,A=0]"

    def test_randomization_premise_includes_stratum_variable(self, reports):
        step = reports["principal_stratum"].left.steps[1]
        assert step.premise.label() == "M(a), Y(a) ⊥ A"


class TestChronicPain:
    def test_stepwise_conditioning_order(self, reports):
        left = reports["chronic_pain"].left
        rules = [s.rule for s in left.steps]
        assert rules == [
            "definition",
            "randomization",
            "stratification",
            "conditioning",
            "conditioning",
            "consistency",
        ]

    def test_final_formula(self, reports):
        left = reports["chronic_pain"].left
        assert render(left.formula) == "Σ_c E[Y|A=1,C=c,M3=0,M4=0]·P(C=c)"

    def test_conditioning_premises(self, reports):
        left = reports["chronic_pain"].left
        premises = [s.premise.label() for s in left.steps if s.rule == "conditioning"]
        assert premises == [
            "Y(a,m3,m4) ⊥ M3(a) | A, C",
            "Y(a,m3,m4) ⊥ M4 | A, C, M3(a)",
        ]

    def test_premises_reverify_on_the_swig(self, reports):
        study = load_study("chronic_pain.swg")
        swig = study_swig(compile_study(study))
        for arm in (reports["chronic_pain"].left, reports["chronic_pain"].right):
            for step in arm.steps:
                if step.premise is not None:
                    assert d_separated(swig.graph, step.premise), step.premise.label()

    def test_policy_events_never_enter_the_formula(self, reports):
        left = reports["chronic_pain"].left
        text = render(left.formula)
        assert "M1" not in text and "M2" not in text


class TestTraceLayout:
    def test_justifications_align(self, reports):
        lines = render_trace(reports["hypothetical_adjusted"].left)
        cols = {line.index("(") for line in lines if "(justification" not in line and " (" in line}
        # every justification opens at the same column
        starts = {line.rindex("  (") for line in lines[1:]}
        assert len(starts) == 1


_scaling = load_script("adjust_scaling")
adjust_chain, sparse_chain = _scaling.adjust_chain, _scaling.sparse_chain


def stratified_over(result) -> list[str]:
    return [s.justification for s in result.steps if s.rule == "stratification"]


class TestAdjustmentSearch:
    @staticmethod
    def count_passes(monkeypatch) -> dict[str, int]:
        """Count compile splits and d-separation passes made by identify."""
        import swigc.estimand
        import swigc.identify

        calls = {"split": 0, "d_separated": 0, "d_connected": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(swigc.estimand, "split")
        counted(swigc.identify, "d_separated")
        counted(swigc.identify, "d_connected")
        return calls

    def test_one_derivation_per_estimand(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        for k in (12, 100):
            calls.update(dict.fromkeys(calls, 0))
            report = identify_estimand(parse_study(adjust_chain(k)))
            assert report.status == "identified"
            assert calls["split"] == 1
            # randomization, the chain on {A} alone, one pass that finds
            # every candidate d-connected to {A}, and the chain once more
            # on the chosen set: 2·(held events) + 2, whatever k is
            assert calls["d_separated"] + calls["d_connected"] == 2 * 1 + 2

    def test_sparse_chain_of_four_thousand_needs_the_root_only(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        report = identify_estimand(parse_study(sparse_chain(4000)))
        for arm in (report.left, report.right):
            assert stratified_over(arm) == ["stratification over {C0}"]
        assert calls["d_separated"] + calls["d_connected"] <= 2 * 1 + 2

    def test_moral_graph_grows_linearly_with_the_confounders(self, monkeypatch):
        import swigc.identify

        entries = []
        init = swigc.identify._Residual.__init__

        def recorded(self, adj, *args):
            entries.append(sum(len(near) for near in adj))
            init(self, adj, *args)

        monkeypatch.setattr(swigc.identify._Residual, "__init__", recorded)
        k = 100
        report = identify_estimand(parse_study(adjust_chain(k)))
        assert report.status == "identified"
        # one hub per child instead of a clique of its k parents
        assert entries and max(entries) <= 10 * k

    @pytest.mark.parametrize("k", [100, 400])
    def test_flow_and_sweep_scan_each_arc_a_few_times(self, monkeypatch, k):
        import swigc.identify

        reads = 0

        class Counted(dict):
            """One state's residual arcs, counting every arc read."""

            def __getitem__(self, head):
                nonlocal reads
                reads += 1
                return super().__getitem__(head)

            def __iter__(self):
                nonlocal reads
                for head in super().__iter__():
                    reads += 1
                    yield head

            def items(self):
                nonlocal reads
                for pair in super().items():
                    reads += 1
                    yield pair

        sizes = []
        init = swigc.identify._Residual.__init__

        def counted(self, adj, *args):
            init(self, adj, *args)
            sizes.append(len(adj) + sum(len(near) for near in adj))
            self.arcs = [Counted(out) for out in self.arcs]

        monkeypatch.setattr(swigc.identify._Residual, "__init__", counted)
        report = identify_estimand(parse_study(adjust_chain(k)))
        assert report.status == "identified"
        # Two blocking-flow phases and one closure sweep read each arc a
        # bounded number of times, whatever k is; one search per unit and
        # three per candidate read about 1.5·k arcs per moral-graph entry.
        assert len(sizes) == 1
        assert reads <= 10 * sizes[0]

    def test_fifty_confounders_take_the_polynomial_path(self):
        report = identify_estimand(parse_study(adjust_chain(50)))
        names = ", ".join(f"C{i:02d}" for i in range(1, 51))
        for arm in (report.left, report.right):
            assert stratified_over(arm) == [f"stratification over {{{names}}}"]

    @pytest.mark.parametrize("k", [300, 500])
    def test_hundreds_of_confounders_are_all_taken(self, k):
        report = identify_estimand(parse_study(adjust_chain(k)))
        names = ", ".join(sorted(f"C{i:02d}" for i in range(1, k + 1)))
        for arm in (report.left, report.right):
            assert stratified_over(arm) == [f"stratification over {{{names}}}"]

    def test_scaling_script_times_the_smallest_chain(self, tmp_path, capsys):
        out = tmp_path / "BENCH_adjust_scaling.json"
        argv = ["--runs", "2", "--case", "adjust_chain:12", "--out", str(out)]
        assert _scaling.main(argv) == 0
        line = capsys.readouterr().out
        assert out.read_text() == line
        result = json.loads(line)
        assert (result["bench"], result["runs"]) == ("adjust_scaling", 2)
        timing = result["identify_ms"]["adjust_chain(12)"]
        assert list(result["identify_ms"]) == ["adjust_chain(12)"]
        assert 0 < timing["q1"] <= timing["median"] <= timing["q3"]

    def test_scaling_script_checks_the_dense_witness(self, capsys):
        # The child prints each blocked arm's witness, which the script
        # checks against the one through the least latent label.
        assert _scaling.main(["--runs", "2", "--case", "dense_refute:3"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert list(result["identify_ms"]) == ["dense_refute(3)"]
        report = identify_estimand(parse_study(_scaling.dense_refute(3)))
        for arm in (report.left, report.right):
            assert arm.blocked.witness_label == "M(a) <- U001 -> Y(a,m)"
