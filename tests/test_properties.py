"""Property-based invariants over random graphs, models, and specs."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from swigc.dsl import parse_study, serialize
from swigc.dsep import DSepQuery, d_separated, open_paths
from swigc.estimand import compile_study
from swigc.graph import NodeAttrs, build_graph, graph_from_payload, graph_to_payload
from swigc.identify import identify_estimand, identify_term
from swigc.model import Hypothetical, PrincipalStratum, StudySpec
from swigc.oracle import enumerate_table, random_scm
from swigc.swig import split

from conftest import STUDY_FILES, spec_text
from reference_dsep import open_paths as enumerated_open_paths
from reference_identify import subset_identify_term

settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True
)
settings.load_profile("suite")

NAMES = "ABDEFG"


@st.composite
def dags(draw, max_nodes=6):
    """A random DAG: nodes A.. with edges only from earlier to later names."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = list(NAMES[:n])
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    nodes = [(name, NodeAttrs()) for name in names]
    return build_graph(nodes, sorted(edges))


@st.composite
def dsep_queries(draw, graph):
    nodes = sorted(graph.nodes, key=lambda n: n.base)
    x = draw(st.sampled_from(nodes))
    y = draw(st.sampled_from([n for n in nodes if n != x]))
    rest = [n for n in nodes if n not in (x, y)]
    z = draw(st.sets(st.sampled_from(rest))) if rest else set()
    return DSepQuery(frozenset({x}), frozenset({y}), frozenset(z))


@given(st.data())
def test_topological_order_respects_every_edge(data):
    graph = data.draw(dags())
    order = {node: i for i, node in enumerate(graph.topological_order())}
    for tail, head in graph.edges:
        assert order[tail] < order[head]


@given(st.data())
def test_payload_round_trip(data):
    graph = data.draw(dags())
    clone = graph_from_payload(graph_to_payload(graph))
    assert clone.nodes == graph.nodes
    assert clone.edges == graph.edges
    assert graph_to_payload(clone) == graph_to_payload(graph)


@given(st.data())
def test_separation_agrees_with_path_search(data):
    graph = data.draw(dags())
    query = data.draw(dsep_queries(graph))
    separated = d_separated(graph, query)
    witnesses = open_paths(graph, query)
    assert separated == (witnesses == [])


@settings(max_examples=200)
@given(st.data())
def test_separation_matches_networkx(data):
    """d_separated on a split graph is d-separation with the fixed nodes deleted."""
    nx = pytest.importorskip("networkx")
    names = [f"V{i}" for i in range(data.draw(st.integers(min_value=3, max_value=8)))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dag = build_graph([(v, NodeAttrs()) for v in names], [p for p, k in zip(pairs, keep) if k])
    held = data.draw(st.sets(st.sampled_from(names), max_size=2))
    graph = split(dag, tuple((v, v.lower()) for v in sorted(held))).graph
    order = data.draw(st.permutations(graph.nodes))
    cut = data.draw(st.integers(min_value=1, max_value=2))
    end = data.draw(st.integers(min_value=cut + 1, max_value=cut + 2))
    x, y = order[:cut], order[cut:end]
    z = [n for n in order[end:] if data.draw(st.booleans())]
    query = DSepQuery(frozenset(x), frozenset(y), frozenset(z))

    def random_part(nodes):
        return {n for n in nodes if not n.fixed}

    reference = nx.DiGraph()
    reference.add_nodes_from(random_part(graph.nodes))
    reference.add_edges_from((u, v) for u, v in graph.edges if not u.fixed)
    rx, ry, rz = random_part(x), random_part(y), random_part(z)
    expected = not rx or not ry or nx.is_d_separator(reference, rx, ry, rz)
    assert d_separated(graph, query) == expected


@settings(max_examples=300)
@given(st.data())
def test_open_paths_match_the_enumerator(data):
    """The best-first witnesses equal the recursive enumerator's, field for
    field and in order, at every limit, on DAGs and split graphs with
    multi-node x and y and a random z."""
    names = [f"V{i}" for i in range(data.draw(st.integers(min_value=2, max_value=8)))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph([(v, NodeAttrs()) for v in names], [p for p, k in zip(pairs, keep) if k])
    held = data.draw(st.sets(st.sampled_from(names), max_size=2))
    if held:
        graph = split(graph, tuple((v, v.lower()) for v in sorted(held))).graph
    order = data.draw(st.permutations(graph.nodes))
    cut = data.draw(st.integers(min_value=1, max_value=min(3, len(order) - 1)))
    end = data.draw(st.integers(min_value=cut + 1, max_value=min(cut + 3, len(order))))
    z = [n for n in order[end:] if data.draw(st.booleans())]
    query = DSepQuery(frozenset(order[:cut]), frozenset(order[cut:end]), frozenset(z))
    for limit in (0, 1, 2, 5, 10**6):
        assert open_paths(graph, query, limit) == enumerated_open_paths(graph, query, limit)


@given(st.data())
def test_separation_is_symmetric(data):
    graph = data.draw(dags())
    query = data.draw(dsep_queries(graph))
    flipped = DSepQuery(query.y, query.x, query.z)
    assert d_separated(graph, query) == d_separated(graph, flipped)


@given(st.data())
def test_split_counts_nodes_and_edges(data):
    graph = data.draw(dags())
    bases = sorted(n.base for n in graph.nodes)
    k = data.draw(st.integers(min_value=1, max_value=len(bases)))
    targets = bases[:k]
    interventions = tuple((b, b.lower()) for b in targets)
    sw = split(graph, interventions)
    assert len(sw.graph.nodes) == len(graph.nodes) + k
    assert len(sw.graph.edges) == len(graph.edges)
    for node in sw.graph.nodes:
        if node.fixed:
            assert not sw.graph.parents(node)
        elif node.base in targets:
            assert not sw.graph.children(node)


@given(st.data())
def test_random_models_are_deterministic_and_total(data):
    graph = data.draw(dags(max_nodes=4))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    scm = random_scm(graph, seed)
    assert scm == random_scm(graph, seed)
    for node in graph.nodes:
        eq = scm.equations[node.base]
        assert sum(w for _, w in eq.noise) == 1
        assert all(isinstance(w, Fraction) and w > 0 for _, w in eq.noise)
        noise_levels = [v for v, _ in eq.noise]
        combos = {key[:-1] for key in eq.table}
        values = set(graph.attr(node).values)
        for combo in combos:
            assert {eq.table[combo + (n,)] for n in noise_levels} == values


@given(st.data())
def test_random_model_tables_sum_to_one(data):
    graph = data.draw(dags(max_nodes=3))
    seed = data.draw(st.integers(min_value=0, max_value=1000))
    table = enumerate_table(graph, random_scm(graph, seed))
    assert sum(row.weight for row in table.rows) == 1


@given(st.sampled_from(STUDY_FILES))
def test_serialization_is_a_fixpoint(name):
    text = serialize(parse_study(spec_text(name)))
    assert serialize(parse_study(text)) == text


COVARIATE_NAMES = "BCDEFGHJ"


@st.composite
def held_event_studies(draw):
    """A random study with 1-3 held events and up to 8 covariates, each
    adjust-eligible, latent or plain, sometimes with a principal stratum.

    Most covariates are baseline ones: they come first and nothing causes
    them, so that many studies need an adjustment set.  The outcome comes
    last.
    """
    held = [f"M{i}" for i in range(1, draw(st.integers(min_value=1, max_value=3)) + 1)]
    count = draw(st.integers(min_value=0, max_value=8))
    covariates = draw(st.permutations(COVARIATE_NAMES))[:count]
    kinds = st.sampled_from(("adjust", "adjust", "adjust", "latent", "plain"))
    attrs = {"A": NodeAttrs(role="treatment"), "Y": NodeAttrs(role="outcome")}
    attrs.update((m, NodeAttrs(role="intercurrent")) for m in held)
    for name in covariates:
        kind = draw(kinds)
        attrs[name] = NodeAttrs(observed=kind != "latent", conditioned=kind == "adjust")
    strategies = {m: Hypothetical(0) for m in held}
    stratum = draw(st.sampled_from((None, None, "plain", "adjust")))
    if stratum is not None:
        # Only the Python API can mark an event adjust-eligible; such a
        # stratum event is an adjustment candidate and in the baseline.
        attrs["S"] = NodeAttrs(role="intercurrent", conditioned=stratum == "adjust")
        strategies["S"] = PrincipalStratum("S", 1, 0)
    early = [c for c in covariates if draw(st.booleans()) or draw(st.booleans())]
    middle = draw(st.permutations(sorted(set(attrs) - {"A", "Y"} - set(early))))
    order = ["A", *early, *middle, "Y"]
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if v not in early]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph(list(attrs.items()), [p for p, k in zip(pairs, keep) if k])
    return StudySpec("random", graph, "A", (1, 0), "Y", strategies)


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared by type with the reference
        return type(e)


@settings(max_examples=400)
@given(held_event_studies())
def test_adjustment_search_matches_the_subset_walk(study):
    """Same verdict, adjustment set, premises, witness or exception type
    as the exhaustive walk, per term and through the shared derivation."""
    compiled = compile_study(study)
    report = _result_or_error(identify_estimand, study, compiled)
    for side in ("left", "right"):
        mean = getattr(compiled.contrast, side)
        expected = _result_or_error(subset_identify_term, study, mean, compiled)
        assert _result_or_error(identify_term, study, mean, compiled) == expected
        assert (report if isinstance(report, type) else getattr(report, side)) == expected
