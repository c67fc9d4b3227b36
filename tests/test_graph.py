"""Core graph type: construction, validation, ordering, serialization."""

import copy
import os
import pickle
import subprocess
import sys
import threading
import uuid

import pytest
from hypothesis import given, settings, strategies as st

from swigc.errors import CycleError, DuplicateName, GraphError, UnknownEndpoint, UnknownNode
from swigc.estimand import compile_study, study_swig
from swigc.graph import (
    _ordered,
    CausalGraph,
    CompositeRule,
    NodeAttrs,
    NodeId,
    build_graph,
    canonical_json,
    format_assignment,
    format_term,
    graph_to_payload,
    replace,
    valid_name,
)

from conftest import ROOT, graph_from_payload, load_study


def diamond():
    return build_graph(
        [("A", None), ("B", None), ("C", None), ("D", None)],
        [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )


# Small alphabets, so two drawn triples are often equal.
_NAMES = st.sampled_from(["A", "M3", "Y", "Y_obs"])
_ENTRIES = st.tuples(_NAMES, st.one_of(st.integers(-2, 2), st.sampled_from(["a", "m3"])))
_TRIPLES = st.one_of(
    st.tuples(_NAMES, st.lists(_ENTRIES, max_size=3).map(tuple), st.just(False)),
    st.tuples(_NAMES, _ENTRIES.map(lambda e: (e,)), st.just(True)),
)


class TestNaming:
    def test_valid_names(self):
        assert valid_name("A")
        assert valid_name("M3")
        assert valid_name("Y_obs")
        assert not valid_name("3M")
        assert not valid_name("")
        assert not valid_name("a b")

    def test_symbolic_assignment_renders_bare(self):
        assert format_assignment("A", "a") == "a"

    def test_concrete_assignment_lowercases_the_variable(self):
        assert format_assignment("M3", 0) == "m3=0"
        assert format_assignment("A", 1) == "a=1"

    def test_term_label_mixes_both(self):
        assert format_term("Y", (("A", "a"), ("M3", 0))) == "Y(a,m3=0)"
        assert format_term("Y", ()) == "Y"


class TestNodeId:
    def test_random_node_label(self):
        assert NodeId("Y", (("A", "a"), ("M3", "m3"))).label == "Y(a,m3)"
        assert NodeId("A").label == "A"

    def test_fixed_node_label_is_its_assignment(self):
        assert NodeId("A", (("A", "a"),), fixed=True).label == "a"
        assert NodeId("A", (("A", 1),), fixed=True).label == "a=1"

    def test_hashable_and_equal_by_value(self):
        a = NodeId("Y", (("A", "a"),))
        b = NodeId("Y", (("A", "a"),))
        assert a == b and hash(a) == hash(b)
        assert a != NodeId("Y")

    @pytest.mark.parametrize(
        "clone",
        [
            lambda n: pickle.loads(pickle.dumps(n)),
            copy.deepcopy,
            lambda n: replace(n, fixed=n.fixed),
        ],
        ids=["pickle", "deepcopy", "replace"],
    )
    def test_copies_hash_and_label_like_a_fresh_node(self, clone):
        for node in (NodeId("Y", (("A", "a"), ("M", 0))), NodeId("A", (("A", 1),), fixed=True)):
            copied = clone(node)
            fresh = NodeId(node.base, node.context, node.fixed)
            assert copied == fresh
            assert hash(copied) == hash(fresh)
            assert copied.label == fresh.label

    def test_replace_recomputes_hash_and_label(self):
        moved = replace(NodeId("Y", (("A", "a"),)), base="M")
        assert hash(moved) == hash(NodeId("M", (("A", "a"),)))
        assert moved.label == "M(a)"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_TRIPLES, _TRIPLES)
    def test_a_node_is_the_one_object_of_its_fields(self, t, u):
        n = NodeId(*t)
        assert NodeId(*t) is n
        assert (n == NodeId(*u)) == (t == u)
        clones = (
            pickle.loads(pickle.dumps(n)),
            copy.copy(n),
            copy.deepcopy(n),
            replace(n),
        )
        assert all(c is n for c in clones)
        base, context, fixed = t
        assert n.label == (format_assignment(*context[0]) if fixed else format_term(base, context))

    @pytest.mark.parametrize("context", [(), (("A", "a"), ("M", 0))])
    def test_a_fixed_node_carries_exactly_one_assignment(self, context):
        message = "a fixed node of 'A' must carry exactly one assignment"
        with pytest.raises(GraphError, match=message):
            NodeId("A", context, fixed=True)
        # The refusal interns nothing, and the random node of the same
        # fields is still made.
        assert NodeId("A", context).label == format_term("A", context)

    def test_nodes_compare_and_hash_by_identity(self):
        assert NodeId.__hash__ is object.__hash__
        assert NodeId.__eq__ is object.__eq__

    def test_parsing_a_spec_twice_gives_the_same_nodes(self):
        first, second = load_study("chronic_pain.swg"), load_study("chronic_pain.swg")
        assert first.graph is not second.graph
        assert all(a is b for a, b in zip(first.graph.nodes, second.graph.nodes, strict=True))
        swigs = [study_swig(compile_study(s)).graph for s in (first, second)]
        assert all(a is b for a, b in zip(swigs[0].nodes, swigs[1].nodes, strict=True))

    def test_threads_making_one_new_node_get_one_object(self):
        # Many rounds, each on a node no one has made yet, with the
        # interpreter switching threads as often as it can.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                base = f"T{uuid.uuid4().hex}"
                start = threading.Barrier(4)
                made = []

                def make():
                    start.wait(timeout=10)
                    made.append(NodeId(base, (("A", 1),)))

                threads = [threading.Thread(target=make) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert len(made) == 4 and all(n is made[0] for n in made)
        finally:
            sys.setswitchinterval(interval)

    def test_pickled_swig_works_under_another_hash_seed(self, tmp_path):
        graph = study_swig(compile_study(load_study("chronic_pain.swg"))).graph
        dump = tmp_path / "swig.pickle"
        dump.write_bytes(pickle.dumps(graph))
        # Under another seed every string hashes differently, so the loaded
        # nodes must hash like nodes built in that process.
        fields = [(n.base, n.context, n.fixed, n.label) for n in graph.nodes]
        script = (
            "import pickle, sys\n"
            "from swigc.graph import NodeId\n"
            "graph = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"for base, context, fixed, label in {fields!r}:\n"
            "    n = NodeId(base, context, fixed)\n"
            "    assert graph.node(label) == n and n in graph, label\n"
            "    assert graph.parents(n) == graph.parents(graph.node(label)), label\n"
            "    assert hash(graph.node(label)) == hash(n), label\n"
            "print(len(graph))\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", script, str(dump)], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(len(graph))


class TestCompositeRule:
    def test_guard_zero_passes_source_through(self):
        rule = CompositeRule(source="Y", guard="M", failure=0)
        assert rule.apply(5, 0) == 5

    def test_guard_nonzero_forces_failure(self):
        rule = CompositeRule(source="Y", guard="M", failure=0)
        assert rule.apply(5, 1) == 0


class TestConstruction:
    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateName):
            build_graph([("A", None), ("A", None)], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpoint, match="edge endpoint 'B' is not a node"):
            build_graph([("A", None)], [("A", "B")])

    def test_unknown_source_endpoint_rejected(self):
        with pytest.raises(UnknownEndpoint, match="edge endpoint 'C' is not a node"):
            build_graph([("A", None)], [("C", "A")])

    def test_cycle_rejected_with_witness(self):
        with pytest.raises(CycleError) as exc:
            build_graph(
                [("A", None), ("M", None)],
                [("A", "M"), ("M", "A")],
            )
        assert "A -> M -> A" in str(exc.value)

    def test_unknown_node_lookup(self):
        g = diamond()
        with pytest.raises(UnknownNode):
            g.node("Z")

    def test_graphs_are_unhashable(self):
        assert CausalGraph.__hash__ is None


class TestOneNodePerVariable:
    """A graph holds one random node per variable and at most one fixed
    node, as a SWIG does; every way of building one refuses a second (the
    constructor's refusals are in TestRandomNode and test_markup)."""

    def test_parts_that_skip_the_checks_are_still_refused(self):
        fixed = [NodeId("A", (("A", "a"),), True), NodeId("A", (("A", 1),), True)]
        nodes, position, by_label = _ordered([NodeId("A"), *fixed])
        attrs = {n: NodeAttrs() for n in nodes}
        with pytest.raises(GraphError, match="variable 'A' has several fixed nodes"):
            CausalGraph._checked(attrs, [set(), set(), set()], nodes, position, by_label)

    def test_a_payload_with_a_second_node_is_refused(self):
        payload = graph_to_payload(build_graph([("A", None), ("Y", None)], [("A", "Y")]))
        twin = dict(payload["nodes"][1], label="Y(a)", context=[["A", "a"]])
        payload["nodes"].append(twin)
        with pytest.raises(GraphError, match="variable 'Y' has several random nodes"):
            graph_from_payload(payload)


class TestOrdering:
    def test_topological_order_is_layered_lexicographic(self):
        g = diamond()
        assert [n.label for n in g.topological_order()] == ["A", "B", "C", "D"]

    def test_each_layer_is_in_label_order_whichever_parent_freed_it(self):
        # A frees D before B frees C, yet C comes first in their layer.
        g = build_graph([(s, None) for s in "ABCD"], [("A", "D"), ("B", "C")])
        assert [n.label for n in g.topological_order()] == ["A", "B", "C", "D"]

    def test_every_edge_respects_the_order(self):
        g = diamond()
        pos = {n: i for i, n in enumerate(g.topological_order())}
        for u, v in g.edges:
            assert pos[u] < pos[v]

    def test_ancestors_and_descendants(self):
        g = diamond()
        d = g.node("D")
        a = g.node("A")
        assert {n.label for n in g.ancestors(d)} == {"A", "B", "C"}
        assert {n.label for n in g.descendants(a)} == {"B", "C", "D"}
        assert {n.label for n in g.parents(d)} == {"B", "C"}
        assert {n.label for n in g.children(a)} == {"B", "C"}


class TestRandomNode:
    def test_a_variable_without_a_random_node(self):
        g = diamond()
        with pytest.raises(UnknownNode, match="no random node for variable 'Q'"):
            g.random_node("Q")

    def test_a_variable_with_several_random_nodes(self):
        # The graph refuses the second random node of Y when it is built,
        # so random_node never meets a base with several.
        nodes = [NodeId("Y"), NodeId("Y", (("A", "a"),))]
        with pytest.raises(GraphError, match="variable 'Y' has several random nodes"):
            CausalGraph(nodes, {n: NodeAttrs() for n in nodes}, [])

    def test_the_fixed_half_is_not_the_random_node(self, studies):
        g = study_swig(compile_study(studies["hypothetical_adjusted"])).graph
        assert g.random_node("A").label == "A"
        assert g.random_node("Y").label == "Y(a,m)"


class TestIndex:
    def test_positions_are_label_order_and_lists_follow_the_edges(self, studies):
        for study in studies.values():
            g = study_swig(compile_study(study)).graph
            index = g._index
            assert [n.label for n in g.nodes] == sorted(n.label for n in g.nodes)
            assert index.position == {n: i for i, n in enumerate(g.nodes)}
            for n, i in index.position.items():
                assert list(index.parents[i]) == [index.position[p] for p in g.parents(n)]
                assert list(index.children[i]) == [index.position[c] for c in g.children(n)]
                assert index.fixed[i] == n.fixed

    def test_the_index_is_built_once(self):
        # The graph builds its index with itself; queries read it and
        # never replace it.
        g = diamond()
        index = g._index
        g.ancestors(g.node("D"))
        g.descendants(g.node("A"))
        assert g._index is index

    def test_copies_and_equality_ignore_the_index(self):
        # Every graph carries its index from construction on, so a copy
        # carries an equal one: equal copies answer the same, through
        # their own index.
        g = diamond()
        ancestors = g.ancestors(g.node("D"))
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert copied == g
            assert copied._index is not g._index
            assert copied._index.position == g._index.position
            assert copied._index.parents == g._index.parents
            assert copied.ancestors(copied.node("D")) == ancestors
            assert copied.topological_order() == g.topological_order()


class TestSerialization:
    def test_payload_round_trip(self):
        g = build_graph(
            [
                ("A", NodeAttrs(role="treatment")),
                ("U", NodeAttrs(role="latent", observed=False)),
                ("Y", NodeAttrs(role="outcome", values=(0, 1, 2))),
            ],
            [("A", "Y"), ("U", "Y")],
        )
        assert graph_from_payload(graph_to_payload(g)) == g

    def test_duplicate_payload_label_rejected(self):
        payload = graph_to_payload(build_graph([("A", None), ("B", None)], []))
        twin = dict(payload["nodes"][0], attrs=dict(payload["nodes"][0]["attrs"], role="treatment"))
        payload["nodes"].append(twin)
        with pytest.raises(DuplicateName, match="duplicate node label 'A'"):
            graph_from_payload(payload)

    @pytest.mark.parametrize("edge, missing", [(["A", "C"], "C"), (["C", "B"], "C")])
    def test_unknown_payload_endpoint_rejected(self, edge, missing):
        payload = graph_to_payload(build_graph([("A", None), ("B", None)], []))
        payload["edges"].append(edge)
        with pytest.raises(UnknownEndpoint, match=f"edge endpoint '{missing}' is not a node"):
            graph_from_payload(payload)

    def test_round_trip_keeps_deterministic_rule(self):
        attrs = NodeAttrs(role="derived", deterministic=CompositeRule("Y", "M", 0))
        g = build_graph(
            [("M", None), ("Y", None), ("U", attrs)],
            [("M", "U"), ("Y", "U")],
        )
        g2 = graph_from_payload(graph_to_payload(g))
        rule = g2.attr(g2.node("U")).deterministic
        assert rule == CompositeRule("Y", "M", 0)

    def test_round_trip_keeps_the_fixed_halves_of_a_swig(self):
        g = study_swig(compile_study(load_study("chronic_pain.swg"))).graph
        g2 = graph_from_payload(graph_to_payload(g))
        assert g2 == g
        assert sorted(n.label for n in g2.nodes if n.fixed) == ["a", "m3", "m4"]

    def test_boolean_context_value_is_refused(self):
        payload = graph_to_payload(study_swig(compile_study(load_study("chronic_pain.swg"))).graph)
        entry = next(e for e in payload["nodes"] if e["context"])
        entry["context"][0][1] = True
        with pytest.raises(GraphError, match="bad context value True"):
            graph_from_payload(payload)

    def test_a_fixed_entry_without_an_assignment_is_refused(self):
        payload = graph_to_payload(study_swig(compile_study(load_study("itt.swg"))).graph)
        entry = next(e for e in payload["nodes"] if e["fixed"])
        entry["context"] = []
        with pytest.raises(GraphError, match="must carry exactly one assignment"):
            graph_from_payload(payload)

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": [2, 3]})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
