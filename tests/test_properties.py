"""Property-based invariants over random graphs, models, and specs."""

import contextlib
import io
import os
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from swigc import dsl
from swigc.cli import main as cli_main
from swigc.dsl import parse_study, serialize
from swigc.dsep import DSepQuery, d_connected, d_separated, open_paths
from swigc.errors import SwigcError
from swigc.estimand import compile_study
from swigc.formula import Difference, Event, Expect, SumOver, Term
from swigc.graph import (
    CausalGraph,
    NodeAttrs,
    NodeId,
    _Index,
    build_graph,
    graph_to_payload,
    replace,
)
from swigc.identify import _greedy_cut, _Residual, identify_estimand, identify_term
from swigc.model import (
    Composite,
    Hypothetical,
    PrincipalStratum,
    SCMSpec,
    StructuralEquation,
    StudySpec,
    TreatmentPolicy,
)
from swigc.oracle import (
    PotentialOutcomeTable,
    SoundnessReport,
    _law,
    _mechanisms,
    _roots_late,
    check_soundness,
    data_model,
    enumerate_table,
    eval_formula,
    naive_formula,
    random_scm,
    true_estimand,
    validate_consistency,
    write_csv,
)
from swigc.swig import split

from conftest import (
    SPECS,
    STUDY_FILES,
    conditionally_independent,
    graph_from_payload,
    load_study,
    spec_text,
)
from reference_dsep import best_first_open_paths, open_paths as enumerated_open_paths
from reference_identify import subset_identify_term
import reference_dsl
import reference_identify
import reference_oracle
import reference_swig

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


# Names in declaration order, which edges follow (earlier to later), but
# not in label order: V10 sorts before V9, and lower case after upper case.
# A held variable V is fixed at the level xV, which no name starts with.
_SHUFFLED = ["V9", "V10", "b", "A", "V2", "a", "Z", "c"]


@settings(max_examples=300)
@given(st.data())
def test_connected_set_matches_separation_node_by_node(data):
    """d_connected(x, z) is every random node n outside x with x ⊥ {n} | z failing."""
    names = _SHUFFLED[: data.draw(st.integers(min_value=2, max_value=8))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dag = build_graph([(v, NodeAttrs()) for v in names], [p for p, k in zip(pairs, keep) if k])
    held = data.draw(st.sets(st.sampled_from(names), max_size=2))
    graph = split(dag, tuple((v, f"x{v}") for v in sorted(held))).graph
    x = data.draw(st.sets(st.sampled_from(graph.nodes), min_size=1, max_size=2))
    z = data.draw(st.sets(st.sampled_from(graph.nodes)))
    expected = {
        n
        for n in graph.nodes
        if not n.fixed
        and n not in x
        and not d_separated(graph, DSepQuery(frozenset(x), frozenset({n}), frozenset(z)))
    }
    assert d_connected(graph, x, z) == expected


@settings(max_examples=300)
@given(st.data())
def test_open_paths_match_the_enumerator(data):
    """The best-first witnesses equal the recursive enumerator's, field for
    field and in order, at every limit, on DAGs and split graphs with
    multi-node x and y and a random z."""
    names = _SHUFFLED[: data.draw(st.integers(min_value=2, max_value=8))]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph([(v, NodeAttrs()) for v in names], [p for p, k in zip(pairs, keep) if k])
    held = data.draw(st.sets(st.sampled_from(names), max_size=2))
    if held:
        graph = split(graph, tuple((v, f"x{v}") for v in sorted(held))).graph
    order = data.draw(st.permutations(graph.nodes))
    cut = data.draw(st.integers(min_value=1, max_value=min(3, len(order) - 1)))
    end = data.draw(st.integers(min_value=cut + 1, max_value=min(cut + 3, len(order))))
    z = [n for n in order[end:] if data.draw(st.booleans())]
    query = DSepQuery(frozenset(order[:cut]), frozenset(order[cut:end]), frozenset(z))
    for limit in (0, 1, 2, 5, 10**6):
        assert open_paths(graph, query, limit) == enumerated_open_paths(graph, query, limit)


# Declaration order again, but longer: V10, V11 and V14 sort before V2,
# V3 and V9, and lower case after upper case.
_WIDE = ["V9", "V10", "b", "A", "V2", "a", "Z", "c", "V14", "B", "V3", "d", "V11", "C"]


def _latent_clique(k: int) -> CausalGraph:
    """M and Y with k confounders U01.., each U_i -> U_j for i < j."""
    us = [f"U{i:02d}" for i in range(1, k + 1)]
    edges = [(u, v) for i, u in enumerate(us) for v in us[i + 1:]]
    edges += [(u, end) for u in us for end in ("M", "Y")]
    return build_graph([(v, NodeAttrs()) for v in ["M", "Y", *us]], edges)


@settings(max_examples=150)
@given(st.data())
def test_open_paths_match_the_best_first_search(data):
    """The A* witnesses equal the best-first search's, field for field and
    in order, at limits 0, 1, 2, 5 and 50, on graphs too large for the
    enumerator: split DAGs of 9-14 nodes with multi-node x and y, and
    latent cliques of up to 12 confounders between M and Y with a random
    z among them."""
    if data.draw(st.booleans()):
        names = _WIDE[: data.draw(st.integers(min_value=9, max_value=len(_WIDE)))]
        pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
        graph = build_graph([(v, NodeAttrs()) for v in names], edges)
        held = data.draw(st.sets(st.sampled_from(names), max_size=3))
        if held:
            graph = split(graph, tuple((v, f"x{v}") for v in sorted(held))).graph
        order = data.draw(st.permutations(graph.nodes))
        cut = data.draw(st.integers(min_value=1, max_value=3))
        end = data.draw(st.integers(min_value=cut + 1, max_value=cut + 3))
        z = [n for n in order[end:] if data.draw(st.booleans())]
        query = DSepQuery(frozenset(order[:cut]), frozenset(order[cut:end]), frozenset(z))
    else:
        graph = _latent_clique(data.draw(st.integers(min_value=1, max_value=12)))
        confounders = [n for n in graph.nodes if n.base.startswith("U")]
        z = data.draw(st.sets(st.sampled_from(confounders)))
        query = DSepQuery(frozenset({graph.node("M")}), frozenset({graph.node("Y")}), frozenset(z))
    for limit in (0, 1, 2, 5, 50):
        assert open_paths(graph, query, limit) == best_first_open_paths(graph, query, limit)


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


SPLIT_NAMES = "ABDEFGHJK"
SPLIT_ROLES = ("covariate", "covariate", "treatment", "intercurrent", "outcome", "latent")


@st.composite
def split_inputs(draw):
    """A DAG of 1-9 nodes, some latent or adjusted, and an intervention
    list in random order with symbolic and concrete levels.  One case in
    two adds a mistake: a repeated, unknown or latent variable, two fixed
    halves with one label, or a graph that is already split."""
    n = draw(st.integers(min_value=1, max_value=len(SPLIT_NAMES)))
    names = list(SPLIT_NAMES[:n])
    roles = {name: draw(st.sampled_from(SPLIT_ROLES)) for name in names}
    attrs = [
        (name, NodeAttrs(role=role, conditioned=role == "covariate" and draw(st.booleans())))
        for name, role in roles.items()
    ]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    dag = build_graph(attrs, [p for p, k in zip(pairs, keep) if k])
    observed = [name for name in names if roles[name] != "latent"]
    k = draw(st.integers(min_value=0, max_value=min(4, len(observed))))
    chosen = draw(st.permutations(observed))[:k]
    interventions = [(v, draw(st.just(v.lower()) | st.integers(0, 2))) for v in chosen]
    mistake = draw(st.integers(min_value=0, max_value=9))
    latent = [name for name in names if roles[name] == "latent"]
    if mistake == 0 and interventions:
        interventions.insert(draw(st.integers(0, k)), interventions[0])
    elif mistake == 1:
        interventions.append(("Z", "z"))
    elif mistake == 2 and latent:
        interventions.insert(draw(st.integers(0, k)), (latent[0], latent[0].lower()))
    elif mistake == 3 and k >= 2:
        interventions[-1] = (interventions[-1][0], chosen[0].lower())
    elif mistake == 4 and observed:
        dag = split(dag, ((observed[0], "s"),)).graph
    return dag, tuple(interventions)


def _swig_or_error(fn, dag, interventions):
    try:
        sw = fn(dag, interventions)
    except Exception as e:  # compared by type and message with the reference
        return type(e), str(e)
    return sw.graph, sw.interventions


@settings(max_examples=300)
@given(split_inputs())
def test_split_matches_the_routed_reference(case):
    dag, interventions = case
    expected = _swig_or_error(reference_swig.split, dag, interventions)
    assert _swig_or_error(split, dag, interventions) == expected


@pytest.mark.parametrize("name", STUDY_FILES)
def test_split_matches_the_routed_reference_on_bundled_studies(name):
    compiled = compile_study(load_study(name))
    levels = compiled.study.treatment_levels
    worlds = [compiled.symbolic_context(), *compiled.worlds()]
    worlds += [compiled.arm_context(level) for level in levels]
    for world in worlds:
        expected = _swig_or_error(reference_swig.split, compiled.graph, world)
        assert not isinstance(expected[0], type)
        assert _swig_or_error(split, compiled.graph, world) == expected


def _assert_same_build(graph, checked):
    """``graph`` agrees with ``checked``, which the checking constructor
    built from the same parts, on everything a graph keeps and answers."""
    assert graph == checked
    assert graph.topological_order() == checked.topological_order()
    for n in checked.nodes:
        assert graph.parents(n) == checked.parents(n)
        assert graph.children(n) == checked.children(n)
    for name in _Index.__slots__:
        assert getattr(graph._index, name) == getattr(checked._index, name)
    # The renderers read the base maps in order.
    assert list(graph._random.items()) == list(checked._random.items())
    assert list(graph._fixed.items()) == list(checked._fixed.items())
    assert graph._by_label == checked._by_label


@settings(max_examples=300)
@given(split_inputs())
def test_split_graphs_equal_the_checked_builds(case):
    # The reference splits through the checking constructor; the refusals
    # are compared in test_split_matches_the_routed_reference.
    dag, interventions = case
    try:
        expected = reference_swig.split(dag, interventions).graph
    except SwigcError:
        return
    _assert_same_build(split(dag, interventions).graph, expected)


@st.composite
def derived_studies(draw):
    """Spec text of a random study, with the edges it declares: treatment
    A, events M1.., covariates C1.. (some latent) and outcome Y, edges only
    from earlier to later names in a drawn order with A first, and a
    hypothetical or composite strategy per event."""
    events = [f"M{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    covariates = [f"C{i}" for i in range(1, draw(st.integers(0, 3)) + 1)]
    order = ["A", *draw(st.permutations([*events, *covariates, "Y"]))]
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    lines = ['study "derived" {', "  node A { role: treatment; }", "  node Y { role: outcome; }"]
    lines += [f"  node {m} {{ role: intercurrent; }}" for m in events]
    for c in covariates:
        kind = draw(st.sampled_from(["adjust: true;", "observed: false;"]))
        lines.append(f"  node {c} {{ {kind} }}")
    lines += ["  edges {", *(f"    {u} -> {v};" for u, v in edges), "  }"]
    for m in events:
        strategy = draw(st.sampled_from(["hypothetical(0)", "composite(failure = 0)"]))
        lines.append(f"  strategy {m}: {strategy};")
    lines += ["  estimand mean_difference(Y; A = 1 vs A = 0);", "}"]
    return "\n".join(lines) + "\n", edges


@settings(max_examples=150)
@given(derived_studies())
def test_derived_graphs_equal_the_checked_builds(case):
    """The parsed DAG, the study graph with each composite outcome folded
    in, and its SWIGs equal what the checking constructor builds from the
    declared edges, each derived sink's two edges, and the reference split."""
    text, edges = case
    study = parse_study(text)
    dag = study.graph
    declared = [(NodeId(u), NodeId(v)) for u, v in edges]
    _assert_same_build(dag, CausalGraph(dag.nodes, dag.attrs, declared))

    compiled = compile_study(study)
    graph = compiled.graph
    folded = [*edges]
    for n in graph.nodes:
        rule = graph.attrs[n].deterministic
        if rule is not None:
            folded += [(rule.guard, n.base), (rule.source, n.base)]
    checked = CausalGraph(graph.nodes, graph.attrs, [(NodeId(u), NodeId(v)) for u, v in folded])
    _assert_same_build(graph, checked)

    for world in [compiled.symbolic_context(), *(compiled.arm_context(a) for a in (0, 1))]:
        _assert_same_build(split(graph, world).graph, reference_swig.split(checked, world).graph)


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


@st.composite
def wide_dags(draw):
    """A random DAG on 1-3 nodes of 1 to 25 values each: a node of one
    value makes only sample's last draw, and one of more than 5 values
    takes sample's larger-set branch."""
    names = list(NAMES[: draw(st.integers(min_value=1, max_value=3))])
    sizes = st.integers(min_value=1, max_value=25)
    nodes = [(v, NodeAttrs(values=tuple(range(draw(sizes))))) for v in names]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(nodes, [p for p, k in zip(pairs, keep) if k])


@given(wide_dags(), st.integers(min_value=0, max_value=10**6))
def test_random_models_are_the_sampled_models(graph, seed):
    """random_scm's inline draws give random.sample's tables, entry for
    entry and in the same order, and the same noise weights."""
    expected = reference_oracle.random_scm(graph, seed)
    scm = random_scm(graph, seed)
    assert scm == expected
    for base, eq in scm.equations.items():
        assert list(eq.table.items()) == list(expected.equations[base].table.items())


@given(dags(), st.integers(min_value=0, max_value=10**6))
def test_roots_join_the_forward_pass_at_their_first_reader(graph, seed):
    """The forward pass's order is topological; the nodes with parents
    keep the layered order; each root sits just before its first reader,
    with only other roots of that reader between them, and roots no node
    reads come last."""
    mechanisms, _ = _mechanisms(graph, random_scm(graph, seed))
    order = _roots_late(mechanisms)
    assert sorted(order) == sorted(mechanisms)
    bases = [base for base, _, _ in order]
    parents = {base: eq.parents for base, _, eq in order}
    position = {base: i for i, base in enumerate(bases)}
    assert all(position[p] < position[b] for b in bases for p in parents[b])
    readers = [b for b, _, _ in mechanisms if parents[b]]
    assert [b for b in bases if parents[b]] == readers
    first = {}
    for reader in readers:
        for p in parents[reader]:
            if not parents[p]:
                first.setdefault(p, reader)
    for root in (b for b in bases if not parents[b]):
        if root in first:
            between = bases[position[root] + 1 : position[first[root]]]
            assert all(first.get(b) == first[root] for b in between)
        else:
            assert all(not parents[b] and b not in first for b in bases[position[root]:])


@given(st.data())
def test_random_model_tables_sum_to_one(data):
    graph = data.draw(dags(max_nodes=3))
    seed = data.draw(st.integers(min_value=0, max_value=1000))
    table = enumerate_table(graph, random_scm(graph, seed))
    assert sum(weight for weight, _ in reference_oracle.units(table)) == 1


@given(st.sampled_from(STUDY_FILES))
def test_serialization_is_a_fixpoint(name):
    text = serialize(parse_study(spec_text(name)))
    assert serialize(parse_study(text)) == text


@st.composite
def declared_studies(draw):
    """A random declared study whose every variable declares 2-4 values,
    with random_scm's model: a treatment, up to two covariates (plain,
    latent or adjust-eligible), one or two events and an outcome on
    random forward edges.  The first event may be handled by any
    strategy, the second by treatment policy or a hypothetical."""
    support = st.lists(st.integers(-3, 5), min_size=2, max_size=4, unique=True).map(tuple)
    attrs = {"A": NodeAttrs(role="treatment", values=draw(support))}
    for name in "BC"[: draw(st.integers(0, 2))]:
        kind = draw(st.sampled_from(("plain", "latent", "adjust")))
        attrs[name] = NodeAttrs(observed=kind != "latent", conditioned=kind == "adjust",
                                values=draw(support))
    events = ["M1", "M2"][: draw(st.integers(1, 2))]
    attrs.update((m, NodeAttrs(role="intercurrent", values=draw(support))) for m in events)
    attrs["Y"] = NodeAttrs(role="outcome", values=draw(support))
    order = list(attrs)
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if v != "A"]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph(list(attrs.items()), [p for p, k in zip(pairs, keep) if k])
    level = {v: st.sampled_from(a.values) for v, a in attrs.items()}

    def plain(m):
        return st.just(TreatmentPolicy()) | st.builds(Hypothetical, level[m])

    first = (plain("M1") | st.builds(Composite, level["Y"])
             | st.builds(PrincipalStratum, st.just("M1"), level["A"], level["M1"]))
    strategies = {"M1": draw(first), **{m: draw(plain(m)) for m in events[1:]}}
    levels = tuple(draw(st.permutations(attrs["A"].values))[:2])
    scm = random_scm(graph, draw(st.integers(0, 2**16)))
    return StudySpec("random", graph, "A", levels, "Y", strategies, scm)


@settings(max_examples=100)
@given(declared_studies())
def test_serialized_studies_parse_back_to_themselves(study):
    """serialize writes a declared study with a random_scm model as text
    that parses to an equal study, its 2-4-valued supports and tables
    included."""
    assert parse_study(serialize(study)) == study


def _checked(study):
    """The study's soundness report and identification report, or the
    type and text of the error that refuses it."""
    try:
        report = identify_estimand(study)
        return check_soundness(study, report=report), report
    except SwigcError as exc:
        return type(exc), str(exc)


@settings(max_examples=100)
@given(declared_studies())
def test_swapping_the_treatment_levels_swaps_the_arms(study):
    """Swapping treatment_levels swaps the contrast's arms: the true,
    formula and naive values and both gaps are negated, the status,
    consistency and soundness are kept, identify_estimand's arms trade
    places with the same derivation steps and premises, and a refused
    study is refused with the same error either way."""
    hi, lo = study.treatment_levels
    found = _checked(study)
    swapped = _checked(replace(study, treatment_levels=(lo, hi)))
    if isinstance(found[0], type) or isinstance(swapped[0], type):
        assert swapped == found
        return
    (report, identified), (back, swapped_identified) = found, swapped
    assert (swapped_identified.left, swapped_identified.right) == (
        identified.right, identified.left
    )
    assert (back.status, back.consistency_ok, back.sound) == (
        report.status, report.consistency_ok, report.sound
    )
    for name in ("true_value", "formula_value", "gap", "naive_value", "naive_gap"):
        value = getattr(report, name)
        assert getattr(back, name) == (None if value is None else -value)


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


@st.composite
def flow_networks(draw, min_nodes=2, max_nodes=8, sparse=False):
    """A random graph on ``min_nodes`` to ``max_nodes`` nodes: source 0,
    1-3 sinks, and every other node removed, cuttable or uncut.  A sparse
    graph has n to 2n edges and none from the source to a sink; otherwise
    each pair is an edge or not."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    sinks = set(draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if sparse:
        inner = [(u, v) for u, v in pairs if u or v not in sinks]
        edges = draw(st.lists(st.sampled_from(inner), min_size=n, max_size=2 * n))
    else:
        edges = [pair for pair in pairs if draw(st.booleans())]
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    kinds = {v: draw(st.sampled_from(("removed", "cuttable", "uncut")))
             for v in range(1, n) if v not in sinks}
    removed = {v for v, kind in kinds.items() if kind == "removed"}
    cuttable = {v for v, kind in kinds.items() if kind == "cuttable"}
    return adj, sinks, removed, cuttable, draw(st.integers(min_value=1, max_value=8))


def _reaches(adj, source, sinks, gone):
    seen, todo = {source}, [source]
    while todo:
        for w in adj[todo.pop()] - gone - seen:
            seen.add(w)
            todo.append(w)
    return bool(seen & sinks)


def _without(adj, gone):
    """``adj`` with every edge at a node in ``gone`` deleted."""
    return [set() if v in gone else near - gone for v, near in enumerate(adj)]


@settings(max_examples=300)
@given(flow_networks())
# The first shortest path 0-1-2-5 must be partly undone for 0-1-4-5 and 0-3-2-5.
@example(([{1, 3}, {0, 2, 4}, {1, 3, 5}, {0, 2}, {1, 5}, {2, 4}], {5}, set(), {1, 2, 3, 4}, 8))
def test_max_flow_is_the_smallest_cut_up_to_the_cap(network):
    """Menger: the flow is the size of the smallest cuttable set that
    separates the source from every sink, or ``cap`` if that is smaller."""
    adj, sinks, removed, cuttable, cap = network
    smallest = next(
        (
            size
            for size in range(len(cuttable) + 1)
            for cut in combinations(sorted(cuttable), size)
            if not _reaches(adj, 0, sinks, removed | set(cut))
        ),
        cap,
    )
    residual = _Residual(_without(adj, removed), 0, sinks, cuttable, cap)
    assert residual.augment() == min(cap, smallest)


@settings(max_examples=300)
@given(flow_networks())
# The unit through 2 goes on through 1 to sink 5; passing over 1 needs it
# rerouted through 3 and 4 to sink 6, so 2, not 1, is taken.
@example(([{2}, {2, 5}, {0, 1, 3}, {2, 4}, {3, 6}, {1}, {4}], {5, 6}, set(), {1, 2}, 1))
def test_greedy_cut_is_the_first_smallest_cut_in_label_order(network):
    """The greedy pass returns the first cut of a walk over the cuttable
    subsets, smallest first and in label order, or None when none cuts."""
    adj, sinks, removed, cuttable, _ = network
    order = sorted(cuttable)
    first = next(
        (
            cut
            for size in range(len(order) + 1)
            for cut in combinations(order, size)
            if not _reaches(adj, 0, sinks, removed | set(cut))
        ),
        None,
    )
    picked = _greedy_cut(_without(adj, removed), 0, sinks, order)
    assert (picked if picked is None else tuple(picked)) == first


@st.composite
def ordered_flow_networks(draw):
    """A flow network on 6 to 14 nodes, dense or sparse, and its
    cuttable nodes in label order or shuffled."""
    network = draw(flow_networks(min_nodes=6, max_nodes=14, sparse=draw(st.booleans())))
    order = sorted(network[3])
    if draw(st.booleans()):
        order = draw(st.permutations(order))
    return network, order


@settings(max_examples=600)
@given(ordered_flow_networks())
# Node 2 carries the unit of 0-1-2-5 and lies on the smallest cut {2, 3},
# but none holds it with 1, picked first; 3 is taken instead.
@example((([{1, 3}, {0, 2}, {1, 5}, {0, 4}, {3, 5}, {2, 4}], {5}, set(), {1, 2, 3, 4}, 8),
          [1, 2, 3, 4]))
# The uncut hub 4 carries all three units, from 1, 2 and 3 on to 5, 6 and 7.
@example((([{1, 2, 3}, {0, 4}, {0, 4}, {0, 4}, {1, 2, 3, 5, 6, 7}, {4, 8}, {4, 8}, {4, 8},
           {5, 6, 7}], {8}, set(), {1, 2, 3, 5, 6, 7}, 8), [5, 6, 7, 1, 2, 3]))
# The source touches sink 1, so the flow reaches its cap and no set cuts.
@example((([{1, 2}, {0}, {0, 3}, {2}], {1, 3}, set(), {2}, 3), [2]))
def test_blocking_flow_and_sweep_match_the_augmenting_paths(case):
    """On networks beyond the exhaustive walk's reach, the blocking flow
    has the value and the closure sweep the picks of one augmenting path
    per unit and three residual searches per candidate."""
    (adj, sinks, removed, cuttable, cap), order = case
    adj = _without(adj, removed)
    reference = reference_identify._Residual(adj, 0, sinks, cuttable, cap).augment()
    assert _Residual(adj, 0, sinks, cuttable, cap).augment() == reference
    assert _greedy_cut(adj, 0, sinks, order) == reference_identify._greedy_cut(adj, 0, sinks, order)


def _value_or_message(fn, *args):
    """A reader's exact value, or the type and text of the error it raised."""
    try:
        value = fn(*args)
    except SwigcError as e:
        return type(e), str(e)
    assert isinstance(value, (Fraction, bool, dict, SoundnessReport))
    return value


@settings(max_examples=60)
@given(
    st.sampled_from([f for f in STUDY_FILES if f != "enumeration_cap.swg"]),
    st.none() | st.integers(min_value=0, max_value=10**6),
)
def test_oracle_readers_match_the_row_scans_on_bundled_specs(name, seed):
    """Each arm mean (stratum included), the combined formula and the
    naive formula have the row-scanning reference's exact values."""
    study = parse_study(spec_text(name))
    if seed is None and study.scm is None:
        seed = 0
    compiled = compile_study(study)
    table = enumerate_table(compiled.graph, data_model(compiled, seed), compiled.worlds())
    for mean in (compiled.contrast.left, compiled.contrast.right):
        expected = _value_or_message(reference_oracle.true_estimand, table, mean)
        assert _value_or_message(true_estimand, table, mean) == expected
    formulas = [naive_formula(compiled)]
    report = identify_estimand(study, compiled)
    if report.status == "identified":
        formulas.append(report.combined)
    for formula in formulas:
        expected = _value_or_message(reference_oracle.eval_formula, table, formula)
        assert _value_or_message(eval_formula, table, formula) == expected


MODEL_NAMES = "ABCDE"
SYMBOLS = ("s", "t", "u")


@st.composite
def oracle_graphs(draw):
    """A random DAG on 2-5 nodes, some unobserved or three-valued."""
    names = list(MODEL_NAMES[: draw(st.integers(min_value=2, max_value=5))])
    attrs = [
        (v, NodeAttrs(observed=v == names[0] or draw(st.sampled_from((True, True, False))),
                      values=draw(st.sampled_from([(0, 1), (0, 1), (0, 1, 2)]))))
        for v in names
    ]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(attrs, [p for p, k in zip(pairs, keep) if k])


@st.composite
def oracle_models(draw):
    """An oracle graph with a random exact model, enumerated in the observed
    world and in one world that sets the first node."""
    graph = draw(oracle_graphs())
    scm = random_scm(graph, draw(st.integers(min_value=0, max_value=10**6)))
    return enumerate_table(graph, scm, [((min(n.base for n in graph.nodes), 1),)])


@st.composite
def oracle_formulas(draw, graph, depth=2):
    """Random formulas on ``graph``: mostly observational, sometimes with a
    counterfactual, unobserved or unknown term, an out-of-support value
    (zero mass) or an unbound symbol; sums bind one to three variables."""
    names = sorted(n.base for n in graph.nodes)
    observed = [v for v in names if graph.attr(graph.node(v)).observed]
    var = st.sampled_from(names + ["Q"] if draw(st.integers(0, 19)) == 0 else observed)
    kind = draw(st.sampled_from(("expect", "sum", "sum", "difference") if depth else ("expect",)))
    if kind == "sum":
        bindings = draw(st.lists(st.tuples(var, st.sampled_from(SYMBOLS)), min_size=1, max_size=3))
        return SumOver(tuple(bindings), draw(oracle_formulas(graph, depth - 1)))
    if kind == "difference":
        return Difference(draw(oracle_formulas(graph, depth - 1)),
                          draw(oracle_formulas(graph, depth - 1)))
    context = ((names[0], 1),) if draw(st.integers(0, 19)) == 0 else ()
    value = st.sampled_from(SYMBOLS) | st.integers(min_value=0, max_value=2)
    given = draw(st.lists(st.builds(Event, st.builds(Term, var), value), max_size=3))
    return Expect(Term(draw(var), context), tuple(given))


def _substitute(formula, bindings):
    """``formula`` with each free symbol set to its level in ``bindings``;
    a sum's own symbols shadow the outer ones, as they do in evaluation."""
    if isinstance(formula, Expect):
        given = tuple(Event(e.term, bindings.get(e.value, e.value)) for e in formula.given)
        return Expect(formula.term, given)
    if isinstance(formula, SumOver):
        bound = {sym for _, sym in formula.bindings}
        inner = {sym: v for sym, v in bindings.items() if sym not in bound}
        return SumOver(formula.bindings, _substitute(formula.body, inner))
    return Difference(_substitute(formula.left, bindings), _substitute(formula.right, bindings))


@settings(max_examples=300)
@given(st.data())
def test_formula_values_match_the_row_scans(data):
    """eval_formula, given a random formula with its free symbols set to
    drawn levels, equals the reference evaluating that formula under the
    same bindings, including sums over two or more bindings, and raises the same error with the same
    message where a conditioning event has mass zero or a term is not
    observational."""
    table = data.draw(oracle_models())
    formula = data.draw(oracle_formulas(table.graph))
    bindings = data.draw(st.dictionaries(st.sampled_from(SYMBOLS), st.integers(0, 2)))
    expected = _value_or_message(reference_oracle.eval_formula, table, formula, bindings)
    assert _value_or_message(eval_formula, table, _substitute(formula, bindings)) == expected


@settings(max_examples=100)
@given(st.data())
def test_sums_over_several_bindings_match_the_row_scans(data):
    """A standardization over two or three bound variables, its body
    conditioning on every bound symbol, has the reference's value."""
    table = data.draw(oracle_models())
    graph = table.graph
    observed = sorted(n.base for n in graph.nodes if graph.attr(n).observed)
    bound = data.draw(st.lists(st.sampled_from(observed), min_size=2, max_size=3))
    bindings = tuple(zip(bound, SYMBOLS))
    body = Expect(Term(data.draw(st.sampled_from(observed))),
                  tuple(Event(Term(v), sym) for v, sym in bindings))
    formula = SumOver(bindings, body)
    expected = _value_or_message(reference_oracle.eval_formula, table, formula)
    assert _value_or_message(eval_formula, table, formula) == expected


@settings(max_examples=100)
@given(st.data())
def test_arm_means_match_the_row_scans(data):
    """true_estimand equals the reference with and without a stratum,
    and both raise the same EmptyStratum where the stratum has mass zero."""
    table = data.draw(oracle_models())
    names = sorted(n.base for n in table.graph.nodes)
    world = st.sampled_from(table.contexts)
    event = st.builds(Event, st.builds(Term, st.sampled_from(names), world),
                      st.integers(min_value=0, max_value=3))
    mean = Expect(Term(data.draw(st.sampled_from(names)), data.draw(world)),
                  data.draw(st.just(()) | st.tuples(event)))
    expected = _value_or_message(reference_oracle.true_estimand, table, mean)
    assert _value_or_message(true_estimand, table, mean) == expected


@settings(max_examples=100)
@given(st.data())
def test_conditional_independence_matches_the_row_scans(data):
    """conditionally_independent gives the reference's answer on random
    queries, repeated and overlapping variables included."""
    table = data.draw(oracle_models())
    var = st.sampled_from(sorted(n.base for n in table.graph.nodes))
    x, y = data.draw(var), data.draw(var)
    z = data.draw(st.lists(var, max_size=3))
    expected = reference_oracle.conditionally_independent(table, x, y, z)
    assert conditionally_independent(table, x, y, z) == expected


@st.composite
def exact_models(draw, graph):
    """An exact model on ``graph`` beyond what random_scm draws: noise
    weights over mixed denominators, now and then zero, sometimes one
    noise value more than the node has values, sometimes a constant
    table, and in one model of ten a table that misses an entry."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    equations = {}
    for node in graph.topological_order():
        attrs = graph.attr(node)
        if attrs.deterministic is not None:
            continue
        extra = rng.choice((0, 0, 1))
        weights = [rng.choice((0, 1, 2, 3, 4, 5, 6)) for _ in range(len(attrs.values) + extra)]
        weights[rng.randrange(len(weights))] += 1
        noise = tuple((v, Fraction(w, sum(weights))) for v, w in enumerate(weights))
        parents = sorted(graph.parents(node), key=lambda p: p.base)
        constant = rng.random() < 0.1
        table = {}
        for combo in product(*(graph.attr(p).values for p in parents)):
            outcomes = rng.sample(attrs.values, len(attrs.values))
            outcomes += [rng.choice(attrs.values)] * extra
            for v, _ in noise:
                table[combo + (v,)] = outcomes[0] if constant else outcomes[v]
        equations[node.base] = StructuralEquation(tuple(p.base for p in parents), noise, table)
    if rng.random() < 0.1:
        table = equations[rng.choice(sorted(equations))].table
        del table[rng.choice(sorted(table))]
    return SCMSpec(equations)


@st.composite
def interventions(draw, names):
    """Zero to two interventions, each setting one or two variables."""
    setting = st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)
    return [tuple((v, draw(st.integers(0, 1))) for v in sorted(draw(setting)))
            for _ in range(draw(st.integers(0, 2)))]


@settings(max_examples=200)
@given(st.data())
def test_forward_law_matches_the_row_scan(data):
    """The forward pass's law, grouped by random (variable, world) columns,
    has the row scan's keys, zero-mass keys included, its masses and its
    value sums at one more random column, and it raises the row
    enumerator's error for a missing table entry."""
    graph = data.draw(oracle_graphs())
    scm = data.draw(exact_models(graph))
    names = sorted(n.base for n in graph.nodes)
    contexts = data.draw(interventions(names))
    column = st.tuples(st.sampled_from(names), st.sampled_from([(), *contexts]))
    columns = data.draw(st.lists(column, max_size=4))
    at = data.draw(column)

    def rows(columns):
        # built without enumerate_table, so a missing entry is named by the
        # reference enumerator itself
        table = PotentialOutcomeTable(graph, scm, ((), *contexts))
        sums = Counter()
        for (*key, value), mass in reference_oracle.table_law(table, [*columns, at]).items():
            sums[tuple(key)] += mass * value
        law = reference_oracle.table_law(table, columns)
        return {key: (mass, sums[key]) for key, mass in law.items()}

    def forward(columns):
        law = _law(graph, scm, contexts, [*columns, at])
        assert law.consistent
        cells = law.given(columns, at)
        assert law.given(columns) == {key: (mass, 0) for key, (mass, _) in cells.items()}
        return {
            key: (Fraction(mass, law.denominator), Fraction(total, law.denominator))
            for key, (mass, total) in cells.items()
        }

    assert _value_or_message(forward, columns) == _value_or_message(rows, columns)


@st.composite
def rooted_graphs(draw):
    """An oracle graph with one to three extra latent roots R0.. of 2-5
    values, each read by one or two of its nodes."""
    graph = draw(oracle_graphs())
    names = sorted(n.base for n in graph.nodes)
    nodes = [(n.base, graph.attr(n)) for n in graph.nodes]
    edges = [(p.base, n.base) for n in graph.nodes for p in graph.parents(n)]
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        values = tuple(range(draw(st.integers(min_value=2, max_value=5))))
        nodes.append((f"R{i}", NodeAttrs(observed=False, values=values)))
        readers = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        edges += [(f"R{i}", reader) for reader in readers]
    return build_graph(nodes, edges)


@settings(max_examples=60)
@given(st.data())
def test_summed_roots_keep_the_row_scan_law(data):
    """With extra latent roots, those that one node reads and no world pins
    or column asks for summed out at that node, the forward law grouped by
    random columns has the row scan's keys, zero-mass keys included, and
    masses, and it raises the row enumerator's error for a missing entry."""
    graph = data.draw(rooted_graphs())
    scm = data.draw(exact_models(graph))
    names = sorted(n.base for n in graph.nodes)
    contexts = data.draw(interventions(names))
    column = st.tuples(st.sampled_from(names), st.sampled_from([(), *contexts]))
    columns = data.draw(st.lists(column, max_size=4))

    def rows():
        table = PotentialOutcomeTable(graph, scm, ((), *contexts))
        return dict(reference_oracle.table_law(table, columns))

    def forward():
        law = _law(graph, scm, contexts, columns)
        assert law.consistent
        cells = law.given(columns)
        return {key: Fraction(mass, law.denominator) for key, (mass, _) in cells.items()}

    assert _value_or_message(forward) == _value_or_message(rows)


@settings(max_examples=200)
@given(st.data())
def test_unreached_copies_share_the_observed_column(data):
    """A world's copy of a node that the world neither sets nor reaches
    through a set ancestor holds the observed column's position in the
    forward law, and the row scan gives it the observed value on every
    unit; the law stays consistent.  Besides random interventions, every
    model is enumerated in a world that sets a sink, in that world again,
    and in a world that sets a variable the graph lacks, which the row
    readers accept too: no row is inconsistent, and the CSV has a line
    per unit."""
    graph = data.draw(oracle_graphs())
    scm = random_scm(graph, data.draw(st.integers(min_value=0, max_value=10**6)))
    names = sorted(n.base for n in graph.nodes)
    sink = data.draw(st.sampled_from([n.base for n in graph.nodes if not graph.children(n)]))
    contexts = data.draw(interventions(names)) + [((sink, 1),), ((sink, 1),), (("Z", 0),)]
    columns = [(b, w) for w in [(), *contexts] for b in names]
    law = _law(graph, scm, contexts, columns)
    assert law.consistent
    table = enumerate_table(graph, scm, contexts)
    rows = [values for _, values in reference_oracle.units(table)]
    assert validate_consistency(table) == []
    out = io.StringIO()
    write_csv(table, out)
    assert len(out.getvalue().splitlines()) == 1 + len(rows)
    for b, w in columns:
        node, pinned = graph.node(b), {graph.node(v) for v, _ in w if graph.has_label(v)}
        reached = node in pinned or bool(pinned & graph.ancestors(node))
        shared = law.positions[(b, w)] == law.positions[(b, ())]
        assert shared == (not reached)
        if shared:
            assert law.given([(b, w)]) == law.given([(b, ())])
            assert all(values[(b, w)] == values[(b, ())] for values in rows)


@settings(max_examples=100)
@given(st.data())
def test_row_enumerator_is_consistent(data):
    """Where the observed run already satisfies a world's assignments, the
    row enumerator gives that world the observed values."""
    graph = data.draw(dags(max_nodes=5))
    names = sorted(n.base for n in graph.nodes)
    contexts = data.draw(interventions(names)) or [((names[0], 1),)]
    scm = random_scm(graph, data.draw(st.integers(min_value=0, max_value=10**6)))
    assert validate_consistency(enumerate_table(graph, scm, contexts)) == []


@settings(max_examples=200)
@given(st.sampled_from(STUDY_FILES), st.none() | st.integers(min_value=0, max_value=10**6))
def test_soundness_matches_the_row_table_on_bundled_specs(name, seed):
    """check_soundness gives the row table's report, or raises its error,
    on each bundled study's own model or a seeded one; enumeration_cap's
    refusal included."""
    study = load_study(name)
    expected = _value_or_message(reference_oracle.check_soundness, study, seed)
    assert _value_or_message(check_soundness, study, seed) == expected


@st.composite
def soundness_studies(draw):
    """A random study with its own exact model: a treatment, up to two
    covariates (plain, latent or adjust-eligible), one or two binary events
    and an outcome on random forward edges.  The first event may be
    handled by any strategy, a principal stratum or a composite included;
    the second by treatment policy or a hypothetical."""
    support = st.sampled_from([(0, 1), (0, 1, 2)])
    covariates = list("BC"[: draw(st.integers(0, 2))])
    events = ["M1", "M2"][: draw(st.integers(1, 2))]
    attrs = {"A": NodeAttrs(role="treatment")}
    for name in covariates:
        kind = draw(st.sampled_from(("plain", "latent", "adjust")))
        attrs[name] = NodeAttrs(observed=kind != "latent", conditioned=kind == "adjust",
                                values=draw(support))
    attrs.update((m, NodeAttrs(role="intercurrent")) for m in events)
    attrs["Y"] = NodeAttrs(role="outcome", values=draw(support))
    order = list(attrs)
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1:] if v != "A"]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = build_graph(list(attrs.items()), [p for p, k in zip(pairs, keep) if k])
    level = st.integers(0, 1)
    plain = st.just(TreatmentPolicy()) | st.builds(Hypothetical, level)
    first = plain | st.builds(Composite, st.sampled_from(attrs["Y"].values)) | st.builds(
        PrincipalStratum, st.just("M1"), level, level)
    strategies = {"M1": draw(first), **{m: draw(plain) for m in events[1:]}}
    return StudySpec("random", graph, "A", (1, 0), "Y", strategies, draw(exact_models(graph)))


@settings(max_examples=200)
@given(soundness_studies())
def test_soundness_matches_the_row_table_on_random_models(study):
    """check_soundness gives the row table's report, or the same error with
    the same text: an empty principal stratum, a missing table entry."""
    expected = _value_or_message(reference_oracle.check_soundness, study)
    assert _value_or_message(check_soundness, study) == expected


EMPTY_KEY_SPEC = """study "Empty key" {
  node A { role: treatment; }
  node Y { role: outcome; }
  edges {}
  estimand mean_difference(Y; A = 1 vs A = 0);
  scm {
    A := noise { 0: 1/2; 1: 1/2; };
    Y := table () { () -> 0; };
  }
}
"""
BUNDLED_TEXTS = [path.read_text() for path in sorted(SPECS.glob("*.swg"))]
SPEC_SEEDS = BUNDLED_TEXTS + [serialize(load_study(n)) for n in STUDY_FILES] + [EMPTY_KEY_SPEC]
# Tokens beyond the seeds' own: strings, integers, names and characters
# at the edges of the token rules, and comments and line breaks.
EXTRA_TOKENS = ('"', '""', '"x', "-", "-1", "²", "½", "Ⅻ", "١", "é", "_x", "x²", "?",
                "\f", " ", "#", "# c", "\n", "()", "true", ",", "table", "noise")
# The edges of the lexer: a form feed and a "²" after a comment, a comment
# holding a quote before an unterminated string, an integer literal longer
# than int() converts, and a string where a keyword belongs.
ITT = spec_text("itt.swg")  # its first comment line ends in a colon
LEXER_EDGE_SPECS = [
    ITT.replace("study ", "\f ", 1),
    ITT.replace("study", "²study", 1),
    ITT.replace("# Randomized", '# "Randomized', 1).replace('"Treatment policy"', '"Treatment', 1),
    ITT.replace("A = 1 vs", f"A = {'1' * 5000} vs", 1),
    ITT.replace("  node M", '  "node" M', 1),
]
LEXER_EDGE_TEXTS = ['# a colon:\n\f "Broken" {', "# c\n² ?", '# say "hi\n"oops',
                    "x = " + "9" * 5000, '"node" A {}']


def _token_spans(text):
    """(start, end) of each token of ``text``, by the reference tokenizer."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    spans = []
    for t in reference_dsl._tokenize(text)[:-1]:
        start = starts[t.line - 1] + t.col - 1
        spans.append((start, start + len(t.text) + 2 * (t.kind == "string")))
    return spans


SEED_SPANS = [_token_spans(text) for text in SPEC_SEEDS]
TOKEN_POOL = sorted({text[s:e] for text, spans in zip(SPEC_SEEDS, SEED_SPANS) for s, e in spans}
                    | set(EXTRA_TOKENS))


@st.composite
def mutated_specs(draw):
    """A seed spec with one to three of its tokens deleted, replaced, put
    in quotes or preceded by an inserted token, or with the text truncated
    inside one."""
    seed = draw(st.integers(0, len(SPEC_SEEDS) - 1))
    text, spans = SPEC_SEEDS[seed], SEED_SPANS[seed]
    picks = draw(st.lists(st.integers(0, len(spans) - 1), min_size=1, max_size=3, unique=True))
    for i in sorted(picks, reverse=True):
        start, end = spans[i]
        op = draw(st.sampled_from(("delete", "replace", "quote", "insert", "truncate")))
        token = draw(st.sampled_from(TOKEN_POOL))
        if op == "delete":
            text = text[:start] + text[end:]
        elif op == "replace":
            text = text[:start] + token + text[end:]
        elif op == "quote":
            text = text[:start] + '"' + text[start:end] + '"' + text[end:]
        elif op == "insert":
            text = text[:start] + token + draw(st.sampled_from(("", " ", "\n"))) + text[start:]
        else:
            text = text[: draw(st.integers(start, end))]
    return text


def _spec_or_error(parse, text):
    """The study, or the error's type and message.  Where the last line has
    a comment, the reference reports end of file at the comment's column,
    not past it, so there the column of that error is masked."""
    try:
        return parse(text)
    except Exception as e:  # compared by type and message with the reference
        message = str(e)
        if "unexpected end of file" in message and "#" in text.rsplit("\n", 1)[-1]:
            message = re.sub(r"^(\d+):\d+:", r"\1:?:", message)
        return type(e), message


@settings(max_examples=1000)
@given(mutated_specs())
@example(LEXER_EDGE_SPECS[0])
@example(LEXER_EDGE_SPECS[1])
@example(LEXER_EDGE_SPECS[2])
@example(LEXER_EDGE_SPECS[3])
@example(LEXER_EDGE_SPECS[4])
def test_parser_matches_the_character_walk_on_mutated_specs(text):
    expected = _spec_or_error(reference_dsl.parse_study, text)
    assert _spec_or_error(parse_study, text) == expected


@pytest.mark.parametrize("seed", [i for i, spans in enumerate(SEED_SPANS) if len(spans) <= 150])
def test_parser_matches_the_character_walk_on_every_prefix(seed):
    """Cut before each of its tokens, a short seed fails where and as the
    reference does, so every point of the grammar lists the same
    expected tokens."""
    text = SPEC_SEEDS[seed]
    for start, _ in SEED_SPANS[seed]:
        expected = _spec_or_error(reference_dsl.parse_study, text[:start])
        assert _spec_or_error(parse_study, text[:start]) == expected


TABLE_ROW = re.compile(r"\(([^()]*)\) -> (-?\d+);")
TABLE_SEEDS = [text for text in SPEC_SEEDS if TABLE_ROW.search(text)]


@st.composite
def table_edits(draw):
    """A seed spec with one to three table rows dropped, duplicated, or
    given a changed, removed or added key component or a changed value."""
    text = draw(st.sampled_from(TABLE_SEEDS))
    rows = list(TABLE_ROW.finditer(text))
    picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3, unique_by=id))
    for row in sorted(picks, key=lambda m: m.start(), reverse=True):
        key = [int(c) for c in row.group(1).split(",") if c.strip()]
        value = int(row.group(2))
        op = draw(st.sampled_from(("drop", "duplicate", "component", "remove", "add", "value")))
        level = st.integers(-1, 3)
        if op == "component" and key:
            key[draw(st.integers(0, len(key) - 1))] = draw(level)
        elif op == "remove" and key:
            del key[draw(st.integers(0, len(key) - 1))]
        elif op == "add":
            key.insert(draw(st.integers(0, len(key))), draw(level))
        elif op == "value":
            value = draw(level)
        new = "(" + ", ".join(map(str, key)) + f") -> {value};"
        if op == "drop":
            new = ""
        elif op == "duplicate":
            new = row.group() + " " + new
        text = text[: row.start()] + new + text[row.end():]
    return text


@settings(max_examples=300)
@given(table_edits())
def test_table_checks_match_the_character_walk(text):
    expected = _spec_or_error(reference_dsl.parse_study, text)
    assert _spec_or_error(parse_study, text) == expected


# The blocks the parser reads off the token list: a pattern whose group 1
# holds a block's items, the pattern of one item, and what joins two.
ITEM_BLOCKS = {
    "nodes": (
        re.compile(r"((?:node \w+ *\{[^{}]*\}\s*)+)edges"), re.compile(r"node \w+ *\{[^{}]*\}"), " "
    ),
    "edges": (re.compile(r"edges \{([^{}]*)\}"), re.compile(r"\w+ -> \w+;"), " "),
    "noise": (re.compile(r"noise \{([^{}]*)\}"), re.compile(r"-?\d+: -?\d+(?:/-?\d+)?;"), " "),
    "parents": (re.compile(r"table \(([^()]*)\)"), re.compile(r"\w+"), ", "),
    "table": (re.compile(r"table \([^()]*\) \{([^{}]*)\}"), re.compile(r"\([^()]*\) -> -?\d+;"), " "),
}
# Each seed's blocks of each kind, as (seed text, block match).
BLOCK_SITES = {
    kind: [(text, m) for text in SPEC_SEEDS for m in block.finditer(text) if item.search(m[1])]
    for kind, (block, item, _) in ITEM_BLOCKS.items()
}


def _corrupt(item, op, at, new):
    """``item`` with one fault: ``op`` names it, ``at`` picks where."""
    if op == "semicolon":
        cut = item.rfind(";")
        return item if cut < 0 else item[:cut] + item[cut + 1:]
    if op == "arrow":
        return item.replace("->", "- >", 1)
    if op == "add comma":
        return item[:at % (len(item) + 1)] + "," + item[at % (len(item) + 1):]
    if op == "drop comma":
        return item.replace(",", "", 1)
    if op == "repeat":
        return f"{item} {item}"
    if op == "cut":  # the item's first tokens only
        return " ".join(re.findall(r"->|-?\d+|\w+|\S", item)[: at % 4 + 1])
    # "mark" swaps a punctuation mark, "swap" a value or name, for ``new``.
    pattern = r"->|[{}():;,=/]" if op == "mark" else r"-?\d+|[A-Za-z_]\w*"
    found = list(re.finditer(pattern, item))
    if not found:  # a parent name holds no mark
        return item
    value = found[at % len(found)]
    return item[: value.start()] + new + item[value.end():]


@st.composite
def shuffled_blocks(draw):
    """A seed spec with the items of one block (node declarations, edges,
    a noise block, a table's parents or its entries) shuffled, then one
    item of it, or every item alike, corrupted: its last ";" dropped, its
    "->" split, a comma added or dropped, the item repeated or cut short, a
    punctuation mark swapped for another, or a value or name swapped for a
    name or an integer too long to convert.  A fault shared by every item
    is the one a slice read, which checks an offset of every item at once,
    could miss."""
    kind = draw(st.sampled_from(sorted(BLOCK_SITES)))
    text, site = draw(st.sampled_from(BLOCK_SITES[kind]))
    _, item_re, sep = ITEM_BLOCKS[kind]
    items = draw(st.permutations(item_re.findall(site[1])))
    ops = ("semicolon", "arrow", "add comma", "drop comma", "repeat", "cut", "mark", "swap")
    op = draw(st.sampled_from(ops))
    news = (",", ";", ":", "->", "=", ")") if op == "mark" else ("Q", "9" * 5000)
    at, new = draw(st.integers(0, 40)), draw(st.sampled_from(news))
    if draw(st.booleans()):
        items = [_corrupt(item, op, at, new) for item in items]
    else:
        i = draw(st.integers(0, len(items) - 1))
        items[i] = _corrupt(items[i], op, at, new)
    return text[: site.start(1)] + sep.join(items) + " " + text[site.end(1):]


@settings(max_examples=800)
@given(shuffled_blocks())
def test_block_reads_match_the_character_walk_on_shuffled_blocks(text):
    """Where a block or item read off the token list meets a faulty item,
    the parser fails where and as the reference does; a shuffled block
    with a harmless edit parses to the same study."""
    expected = _spec_or_error(reference_dsl.parse_study, text)
    assert _spec_or_error(parse_study, text) == expected


# One edit that makes a valid spec invalid, as a pattern and the text
# that replaces its first group: drop a table entry; a strategy, estimand
# or table level outside the declared values; an edge, strategy or table
# parent naming an undeclared variable; an attribute given twice.
INVALID_EDITS = {
    "drop entry": (TABLE_ROW, ""),
    "strategy level": (re.compile(r"strategy \w+: \w+\([^;]*?(-?\d+)\);"), "9"),
    "estimand level": (re.compile(r"estimand mean_difference\(\w+; \w+ = (-?\d+)"), "9"),
    "table level": (re.compile(r"\) -> (-?\d+);"), "9"),
    "edge name": (re.compile(r"(\w+) -> \w+;"), "Q"),
    "strategy name": (re.compile(r"strategy (\w+):"), "Q"),
    "table parent": (re.compile(r"table \((\w+)"), "Q"),
    "attribute twice": (re.compile(r"node \w+ \{ ?((?:role|observed|adjust|values): [^;]*;)"), None),
}
CLI_CALLS = [["validate"], ["swig"], ["dsep", "--x", "Y", "--y", "A"], ["identify"], ["simulate"],
             ["render"]]


@st.composite
def invalid_specs(draw):
    """A valid random study, written as spec text, with one invalid edit.
    Its model is random_scm's: the gaps and zero weights of exact_models
    are refused by the spec language already."""
    study = draw(soundness_studies())
    text = serialize(replace(study, scm=random_scm(study.graph, draw(st.integers(0, 2**16)))))
    sites = {kind: list(pattern.finditer(text)) for kind, (pattern, _) in INVALID_EDITS.items()}
    kind = draw(st.sampled_from([k for k, found in sites.items() if found]))
    site = draw(st.sampled_from(sites[kind]))
    group = 0 if kind == "drop entry" else 1
    new = INVALID_EDITS[kind][1]
    new = f"{site.group(1)} {site.group(1)}" if new is None else new
    return text[: site.start(group)] + new + text[site.end(group):]


@settings(max_examples=100)
@given(invalid_specs())
def test_every_subcommand_reports_an_invalid_spec_in_one_line(text):
    """Every subcommand, run in process on the spec, exits with a
    documented code other than 8; a nonzero code comes with exactly one
    error line and nothing on stdout, or with a verdict and nothing on
    stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edited.swg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        for command, *extra in CLI_CALLS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([command, path, *extra])
            out, err = out.getvalue(), err.getvalue()
            assert 0 <= code <= 7, (command, err)
            if code == 0:
                assert err == ""
            elif err:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            else:
                assert re.search(r"^verdict: ", out, re.M), out


def _reference_tokens(text):
    return [(t.kind, t.text, t.line, t.col) for t in reference_dsl._tokenize(text)]


def _dsl_tokens(text):
    """The lexical error dsl reports first, or else the texts of its one
    token pass as the reference's (kind, text, line, col) tuples, up to
    the end of the text: each kind as the parser reads it, and each start
    offset from the match that an error finds again."""
    error = dsl._lexical_error(text)
    if error is not None:
        raise error
    tokens = []
    for token, m in zip(dsl._TOKEN.findall(text), dsl._TOKEN.finditer(text)):
        kind, start = dsl._kind(token), m.start(1)
        shown = token[1:-1] if kind == "string" else token
        line, col = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
        tokens.append((kind, shown, line, col))
        if kind == "eof":
            return tokens


def _tokens_or_error(tokenize, text):
    try:
        tokens = tokenize(text)
    except Exception as e:  # compared by type and message with the reference
        return type(e), str(e)
    if "#" in text.rsplit("\n", 1)[-1]:  # see _spec_or_error
        tokens[-1] = tokens[-1][:3]
    return tokens


TOKEN_ALPHABET = st.sampled_from(list('ab_Z09-->:=;{}()",/# \t\r\n²½Ⅻ١é\f\u00a0?')) | st.characters()


@settings(max_examples=500)
@given(st.text(TOKEN_ALPHABET, max_size=30))
@example(LEXER_EDGE_TEXTS[0])
@example(LEXER_EDGE_TEXTS[1])
@example(LEXER_EDGE_TEXTS[2])
@example(LEXER_EDGE_TEXTS[3])
@example(LEXER_EDGE_TEXTS[4])
def test_tokenizer_matches_the_character_walk(text):
    expected = _tokens_or_error(_reference_tokens, text)
    assert _tokens_or_error(_dsl_tokens, text) == expected
