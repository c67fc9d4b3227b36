"""Strategy compilation: split sets, arm contexts, derived endpoints, strata."""

import pytest

from swigc.errors import CompositeNonBinary, SemanticError
from swigc.estimand import compile_study, study_swig
from swigc.formula import Event, Term, render
from swigc.graph import CompositeRule

from conftest import load_study, spec_text
from swigc.dsl import parse_study


class TestSplitSets:
    def test_treatment_policy_is_not_split(self):
        compiled = compile_study(load_study("itt.swg"))
        assert compiled.split_vars == ("A",)
        assert compiled.split_levels == {}

    def test_hypothetical_events_split_in_name_order(self):
        compiled = compile_study(load_study("chronic_pain.swg"))
        assert compiled.split_vars == ("A", "M3", "M4")
        assert compiled.split_levels == {"M3": 0, "M4": 0}

    def test_symbolic_context_lowercases(self):
        compiled = compile_study(load_study("chronic_pain.swg"))
        assert compiled.symbolic_context() == (("A", "a"), ("M3", "m3"), ("M4", "m4"))

    def test_arm_context_holds_events_at_their_levels(self):
        compiled = compile_study(load_study("chronic_pain.swg"))
        assert compiled.arm_context(1) == (("A", 1), ("M3", 0), ("M4", 0))
        assert compiled.arm_context(0) == (("A", 0), ("M3", 0), ("M4", 0))


class TestContrast:
    def test_contrast_labels(self):
        compiled = compile_study(load_study("hypothetical_adjusted.swg"))
        assert render(compiled.contrast.left) == "E[Y(a=1,m=0)]"
        assert render(compiled.contrast.right) == "E[Y(a=0,m=0)]"
        assert render(compiled.contrast) == "E[Y(a=1,m=0)] - E[Y(a=0,m=0)]"

    def test_principal_stratum_contrast_carries_the_event(self):
        compiled = compile_study(load_study("principal_stratum.swg"))
        assert render(compiled.contrast.left) == "E[Y(a=1)|M(a=1)=0]"
        assert render(compiled.contrast.right) == "E[Y(a=0)|M(a=1)=0]"
        stratum = compiled.stratum
        assert stratum == Event(Term("M", (("A", 1),)), 0)
        assert stratum.label == "M(a=1)=0"
        assert compiled.contrast.left.given == compiled.contrast.right.given == (stratum,)


class TestCompositeFolding:
    def test_derived_node_and_edges(self):
        compiled = compile_study(load_study("composite.swg"))
        assert compiled.outcome == "U"
        g = compiled.graph
        u = g.node("U")
        assert g.attr(u).role == "derived"
        assert {n.label for n in g.parents(u)} == {"M", "Y"}
        rule = g.attr(u).deterministic
        assert rule == CompositeRule(source="Y", guard="M", failure=0)

    def test_outcome_moves_to_derived_node(self):
        compiled = compile_study(load_study("composite.swg"))
        assert compiled.outcome == "U"
        assert render(compiled.contrast.left) == "E[U(a=1)]"

    def test_derived_name_avoids_collision(self):
        text = """
study "Busy namespace" {
  node A { role: treatment; }
  node M { role: intercurrent; }
  node U { }
  node Y { role: outcome; }
  edges { A -> M; A -> Y; U -> Y; }
  strategy M: composite(failure = 0);
  estimand mean_difference(Y; A = 1 vs A = 0);
}
"""
        compiled = compile_study(parse_study(text))
        assert compiled.outcome == "U2"
        g = compiled.graph
        assert g.attr(g.node("U2")).deterministic == CompositeRule("Y", "M", 0)
        assert g.attr(g.node("U")).deterministic is None

    def test_failure_outside_outcome_values_rejected(self):
        text = spec_text("composite.swg").replace("failure = 0", "failure = 9")
        with pytest.raises(CompositeNonBinary):
            compile_study(parse_study(text))

    def test_swig_splits_only_treatment(self):
        compiled = compile_study(load_study("composite.swg"))
        sw = study_swig(compiled)
        assert sw.interventions == (("A", "a"),)
        labels = {n.label for n in sw.graph.nodes}
        assert labels == {"A", "a", "M(a)", "Y(a)", "U(a)"}


class TestSymbolCollisions:
    def test_lowercase_shadow_is_rejected(self):
        # A second variable whose lowercase form equals the treatment's
        # symbolic assignment would make labels ambiguous.
        text = """
study "Shadow" {
  node A { role: treatment; }
  node a { }
  node Y { role: outcome; }
  edges { A -> Y; a -> Y; }
  estimand mean_difference(Y; A = 1 vs A = 0);
}
"""
        with pytest.raises(SemanticError):
            compile_study(parse_study(text))
