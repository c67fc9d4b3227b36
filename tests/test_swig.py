"""Node splitting: labels, edge routing, contexts, error cases."""

import pytest

from swigc.errors import (
    AlreadySplit,
    DuplicateName,
    GraphError,
    LatentIntervention,
    UnknownVariable,
)
from swigc.estimand import compile_study, study_swig
from swigc.graph import CausalGraph, NodeAttrs, NodeId, build_graph
from swigc.swig import split, swig_to_payload

from conftest import load_study


def confounded():
    return build_graph(
        [
            ("A", NodeAttrs(role="treatment")),
            ("M", NodeAttrs(role="intercurrent")),
            ("U", NodeAttrs(role="latent", observed=False)),
            ("Y", NodeAttrs(role="outcome")),
        ],
        [("A", "M"), ("A", "Y"), ("M", "Y"), ("U", "M"), ("U", "Y")],
    )


class TestSplitShape:
    def test_single_split_adds_one_node(self):
        g = build_graph(
            [("A", NodeAttrs(role="treatment")), ("Y", NodeAttrs(role="outcome"))],
            [("A", "Y")],
        )
        sw = split(g, (("A", "a"),))
        assert sorted(n.label for n in sw.graph.nodes) == ["A", "Y(a)", "a"]
        assert sorted((u.label, v.label) for u, v in sw.graph.edges) == [("a", "Y(a)")]

    def test_fixed_half_keeps_only_outgoing_edges(self):
        sw = split(confounded(), (("A", "a"), ("M", "m")))
        g = sw.graph
        for node in g.nodes:
            if node.fixed:
                assert not g.parents(node)

    def test_random_half_keeps_only_incoming_edges(self):
        sw = split(confounded(), (("A", "a"), ("M", "m")))
        g = sw.graph
        m_random = g.node("M(a)")
        assert {n.label for n in g.parents(m_random)} == {"a", "U"}
        assert not g.children(m_random)

    def test_edge_count_is_preserved(self):
        g = confounded()
        sw = split(g, (("A", "a"), ("M", "m")))
        assert len(sw.graph.edges) == len(g.edges)

    def test_descendants_inherit_ancestral_fixed_context_only(self):
        sw = split(confounded(), (("A", "a"), ("M", "m")))
        labels = {n.label for n in sw.graph.nodes}
        # U is not downstream of any fixed node, so it keeps an empty context.
        assert "U" in labels
        assert "M(a)" in labels and "Y(a,m)" in labels

    def test_intervention_order_is_context_order(self):
        study = load_study("chronic_pain.swg")
        sw = study_swig(compile_study(study))
        assert sw.interventions == (("A", "a"), ("M3", "m3"), ("M4", "m4"))
        assert sw.graph.random_node("Y").label == "Y(a,m3,m4)"

    def test_event_without_treatment_parent_keeps_bare_label(self):
        # M4 has no path from the treatment, so its random half is plain M4.
        study = load_study("chronic_pain.swg")
        sw = study_swig(compile_study(study))
        labels = {n.label for n in sw.graph.nodes}
        assert "M4" in labels and "m4" in labels
        assert "M4(a)" not in labels

    def test_chronic_pain_swig_is_ten_nodes_eleven_edges(self):
        study = load_study("chronic_pain.swg")
        sw = study_swig(compile_study(study))
        assert len(sw.graph.nodes) == 10
        assert len(sw.graph.edges) == 11

    def test_concrete_world_labels(self):
        sw = split(confounded(), (("A", 1), ("M", 0)))
        labels = sorted(n.label for n in sw.graph.nodes)
        assert labels == ["A", "M(a=1)", "U", "Y(a=1,m=0)", "a=1", "m=0"]


class TestSplitAttrs:
    def test_fixed_halves_are_never_conditioned(self):
        g = confounded()
        g = build_graph(
            [
                ("A", NodeAttrs(role="treatment", conditioned=True)),
                ("Y", NodeAttrs(role="outcome")),
            ],
            [("A", "Y")],
        )
        sw = split(g, (("A", "a"),))
        fixed = next(n for n in sw.graph.nodes if n.fixed)
        assert sw.graph.attr(fixed).conditioned is False

    def test_payload_records_interventions_and_nodes(self):
        sw = split(confounded(), (("A", "a"), ("M", "m")))
        payload = swig_to_payload(sw)
        assert payload["interventions"] == [["A", "a"], ["M", "m"]]
        labels = {n["label"] for n in payload["nodes"]}
        assert labels == {"A", "a", "M(a)", "m", "U", "Y(a,m)"}
        fixed = {n["label"] for n in payload["nodes"] if n["fixed"]}
        assert fixed == {"a", "m"}


class TestSharedBases:
    """A DAG where two nodes share a base is refused when it is built, so
    split only ever meets one random node per variable."""

    A, Y, YA = NodeId("A"), NodeId("Y"), NodeId("Y", (("A", "a"),))

    def test_a_dag_with_two_nodes_of_a_base_is_refused(self):
        attrs = {self.A: NodeAttrs(role="treatment"), self.Y: NodeAttrs(), self.YA: NodeAttrs()}
        with pytest.raises(GraphError, match="variable 'Y' has several random nodes"):
            CausalGraph([self.A, self.Y, self.YA], attrs, [(self.A, self.YA)])

    def test_an_edge_between_them_is_refused_as_a_shared_base(self):
        # The refusal comes before the cycle check: split would have made
        # the edge a self-loop Y -> Y.
        with pytest.raises(GraphError, match="variable 'Y' has several random nodes"):
            CausalGraph([self.Y, self.YA], {self.Y: NodeAttrs(), self.YA: NodeAttrs()},
                        [(self.Y, self.YA)])


class TestSplitErrors:
    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            split(confounded(), (("Z", "z"),))

    def test_latent_intervention_rejected(self):
        with pytest.raises(LatentIntervention):
            split(confounded(), (("U", "u"),))

    def test_duplicate_intervention_rejected(self):
        with pytest.raises(DuplicateName):
            split(confounded(), (("A", "a"), ("A", 1)))

    def test_resplitting_a_swig_rejected(self):
        sw = split(confounded(), (("A", "a"),))
        with pytest.raises(AlreadySplit):
            split(sw.graph, (("M", "m"),))
