"""d-separation on DAGs and SWIGs: hand-worked cases with known answers."""

import heapq
import sys

import pytest

from swigc.dsep import DSepQuery, _ball, d_separated, open_paths, path_string
from swigc.errors import OverlappingSets
from swigc.estimand import compile_study, study_swig
from swigc.graph import NodeAttrs, build_graph
from swigc.swig import split

from conftest import load_study


def q(g, x, y, z=()):
    node = lambda s: g.node(s)  # noqa: E731
    return DSepQuery(
        x=frozenset({node(s) for s in x}),
        y=frozenset({node(s) for s in y}),
        z=frozenset({node(s) for s in z}),
    )


def chain():
    return build_graph([("A", None), ("B", None), ("C", None)], [("A", "B"), ("B", "C")])


def collider():
    return build_graph(
        [("A", None), ("B", None), ("C", None), ("D", None)],
        [("A", "C"), ("B", "C"), ("C", "D")],
    )


class TestClassicPatterns:
    def test_chain_is_open(self):
        g = chain()
        assert not d_separated(g, q(g, ["A"], ["C"]))

    def test_chain_blocks_on_middle(self):
        g = chain()
        assert d_separated(g, q(g, ["A"], ["C"], ["B"]))

    def test_fork_blocks_on_root(self):
        g = build_graph(
            [("A", None), ("B", None), ("C", None)], [("B", "A"), ("B", "C")]
        )
        assert not d_separated(g, q(g, ["A"], ["C"]))
        assert d_separated(g, q(g, ["A"], ["C"], ["B"]))

    def test_collider_blocks_until_conditioned(self):
        g = collider()
        assert d_separated(g, q(g, ["A"], ["B"]))
        assert not d_separated(g, q(g, ["A"], ["B"], ["C"]))

    def test_conditioning_on_collider_descendant_opens(self):
        g = collider()
        assert not d_separated(g, q(g, ["A"], ["B"], ["D"]))

    def test_witness_records_opened_collider(self):
        g = collider()
        paths = open_paths(g, q(g, ["A"], ["B"], ["C"]))
        assert len(paths) == 1
        assert path_string(paths[0]) == "A -> C <- B"
        assert [n.label for n in paths[0].colliders_opened] == ["C"]


class _CountedLookups(list):
    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


class TestLongChain:
    def test_closure_of_many_conditioning_nodes_is_one_walk(self):
        names = [f"V{i}" for i in range(4000)]
        g = build_graph([(s, None) for s in names], list(zip(names, names[1:])))
        z = names[1:-1:2]
        assert len(z) == 1999
        assert d_separated(g, q(g, ["V0"], ["V3999"], z))
        # Each node's parent list in the index is read at most once while
        # z's closure is built.
        index = g._index
        index.parents = parents = _CountedLookups(index.parents)
        _ball(g, frozenset(g.node(s) for s in z))
        assert parents.lookups == 3998


class TestQueryValidation:
    def test_overlapping_endpoints_rejected(self):
        g = chain()
        with pytest.raises(OverlappingSets):
            d_separated(g, q(g, ["A"], ["A", "C"]))

    def test_empty_side_rejected(self):
        g = chain()
        query = DSepQuery(x=frozenset(), y=frozenset({g.node("A")}), z=frozenset())
        with pytest.raises(OverlappingSets):
            d_separated(g, query)

    def test_label_sorts_members(self):
        g = collider()
        query = q(g, ["B"], ["A"], ["D", "C"])
        assert query.label() == "B ⊥ A | C, D"


class TestOnSwigs:
    def test_fixed_nodes_absorb_paths(self):
        g = build_graph(
            [
                ("A", NodeAttrs(role="treatment")),
                ("M", NodeAttrs(role="intercurrent")),
                ("Y", NodeAttrs(role="outcome")),
            ],
            [("A", "M"), ("A", "Y"), ("M", "Y")],
        )
        sw = split(g, (("A", "a"), ("M", "m")))
        sg = sw.graph
        # The only connection from M(a) to Y(a,m) in the base DAG runs through
        # intervened variables, so the split graph leaves them separated.
        query = DSepQuery(
            x=frozenset({sg.node("M(a)")}),
            y=frozenset({sg.node("Y(a,m)")}),
            z=frozenset(),
        )
        assert d_separated(sg, query)

    def test_confounded_premise_fails_with_backdoor_witness(self):
        study = load_study("hypothetical_unobserved.swg")
        sg = study_swig(compile_study(study)).graph
        query = DSepQuery(
            x=frozenset({sg.node("M(a)")}),
            y=frozenset({sg.node("Y(a,m)")}),
            z=frozenset({sg.node("A")}),
        )
        assert not d_separated(sg, query)
        witnesses = open_paths(sg, query, limit=5)
        assert [path_string(w) for w in witnesses] == ["M(a) <- U -> Y(a,m)"]

    def test_adjusted_premise_holds(self):
        study = load_study("hypothetical_adjusted.swg")
        sg = study_swig(compile_study(study)).graph
        query = DSepQuery(
            x=frozenset({sg.node("M(a)")}),
            y=frozenset({sg.node("Y(a,m)")}),
            z=frozenset({sg.node("A"), sg.node("C")}),
        )
        assert d_separated(sg, query)

    def test_randomization_holds_in_every_bundled_study(self, studies):
        for study in studies.values():
            sg = study_swig(compile_study(study)).graph
            outcome = sg.random_node(study.outcome)
            query = DSepQuery(
                x=frozenset({outcome}),
                y=frozenset({sg.node(study.treatment)}),
                z=frozenset(),
            )
            assert d_separated(sg, query), study.name


class TestOpenPathOrdering:
    def test_paths_sorted_by_length_then_labels(self):
        g = build_graph(
            [("A", None), ("B", None), ("C", None), ("Y", None)],
            [("A", "Y"), ("A", "B"), ("B", "Y"), ("A", "C"), ("C", "Y")],
        )
        query = q(g, ["A"], ["Y"])
        paths = [path_string(w) for w in open_paths(g, query)]
        assert paths == ["A -> Y", "A -> B -> Y", "A -> C -> Y"]

    def test_limit_truncates(self):
        g = build_graph(
            [("A", None), ("B", None), ("C", None), ("Y", None)],
            [("A", "Y"), ("A", "B"), ("B", "Y"), ("A", "C"), ("C", "Y")],
        )
        query = q(g, ["A"], ["Y"])
        assert len(open_paths(g, query, limit=2)) == 2


class TestWitnessSearchCost:
    """The sweep of moves left steers the search at y: on a latent clique
    of 60 confounders it pops only the prefixes of the paths it returns."""

    @staticmethod
    def clique():
        us = [f"U{i:02d}" for i in range(1, 61)]
        edges = [(u, v) for i, u in enumerate(us) for v in us[i + 1:]]
        edges += [(u, end) for u in us for end in ("M", "Y")]
        return build_graph([(v, None) for v in ["M", "Y", *us]], edges)

    @staticmethod
    def counted_pops(monkeypatch):
        pops = []
        pop = heapq.heappop
        monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or pop(heap))
        return pops

    def test_the_first_witness_pops_one_entry_per_node(self, monkeypatch):
        g = self.clique()
        pops = self.counted_pops(monkeypatch)
        (witness,) = open_paths(g, q(g, ["M"], ["Y"]), limit=1)
        assert path_string(witness) == "M <- U01 -> Y"
        assert len(pops) == 3

    def test_five_witnesses_pop_at_most_eleven_entries(self, monkeypatch):
        g = self.clique()
        pops = self.counted_pops(monkeypatch)
        paths = [path_string(w) for w in open_paths(g, q(g, ["M"], ["Y"]), limit=5)]
        assert paths == [f"M <- U0{i} -> Y" for i in range(1, 6)]
        assert len(pops) <= 11

    def test_one_witness_stops_the_sweep_at_its_start(self):
        """For one witness the sweep of moves left reads Y's two lists and
        U01's two, then stops: its start M has a distance.  A full sweep
        reads a list for each of the 122 states it sets."""
        g = self.clique()
        reads = []

        class Counted(list):
            def __getitem__(self, p):
                if sys._getframe(1).f_code.co_name == "_moves_left":
                    reads.append(p)
                return list.__getitem__(self, p)

        index = g._index
        index.parents, index.children = Counted(index.parents), Counted(index.children)
        (witness,) = open_paths(g, q(g, ["M"], ["Y"]), limit=1)
        assert path_string(witness) == "M <- U01 -> Y"
        assert len(reads) <= 4

    def test_no_witness_reads_no_neighbour_list(self):
        """At a limit of 0 the search returns before the sweep and before
        the start heap: no neighbour list is read anywhere."""
        g = self.clique()
        reads = []

        class Counted(list):
            def __getitem__(self, p):
                reads.append(p)
                return list.__getitem__(self, p)

        index = g._index
        index.parents, index.children = Counted(index.parents), Counted(index.children)
        assert open_paths(g, q(g, ["M"], ["Y"]), limit=0) == []
        assert reads == []

    def test_no_witness_still_refuses_overlapping_sets(self):
        g = self.clique()
        with pytest.raises(OverlappingSets, match="x and y share nodes: M"):
            open_paths(g, q(g, ["M"], ["M", "Y"]), limit=0)
