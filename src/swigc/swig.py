"""Node splitting: turn a causal DAG into a single-world intervention graph.

Each intervened variable X with assigned level x becomes two nodes.
The random half X keeps every incoming edge of the original node; the
degenerate fixed half x keeps every outgoing edge.  Random nodes are
then relabeled with the interventions whose fixed halves are their
ancestors, in the order the interventions were given, so downstream
variables read as potential outcomes such as Y(a,m=0).

One pass over the DAG in topological order finds those ancestors: the
fixed halves that reach a node are its intervened parents plus whatever
reaches its other parents.  An intervened parent passes on only its own
fixed half, because its random half keeps no outgoing edge.  Each node's
reach is a bit set, an ``int`` whose bit i stands for the i-th
intervention, so a node's context lists the interventions of its set
bits from the lowest up.  Each distinct set makes its context once, and a
node that no fixed half reaches keeps the DAG's own node.

The DAG was checked when it was built, and so are the split graph's
parts: a graph holds one random node per base, so each DAG node becomes
one random node that keeps its attributes and parent list, with an
intervened parent's position renamed to its fixed half's.  So the split
graph skips the constructor's checks; only the labels of the new nodes
are checked, since a fixed half's label may repeat another.
"""

from __future__ import annotations

from .errors import AlreadySplit, DuplicateName, LatentIntervention, UnknownVariable
from .graph import (
    CausalGraph,
    Context,
    NodeAttrs,
    NodeId,
    Value,
    _ordered,
    graph_to_payload,
    record,
)

__all__ = ["SWIG", "split", "swig_to_payload"]


@record
class SWIG:
    """A split graph plus the intervention list that produced it."""

    graph: CausalGraph
    interventions: tuple[tuple[str, Value], ...]


def split(dag: CausalGraph, interventions: Context) -> SWIG:
    """Split ``dag`` at the given (variable, level) assignments."""
    if dag._fixed:
        raise AlreadySplit("graph already contains fixed nodes")
    order: dict[str, int] = {}  # each intervened variable's position
    for var, _ in interventions:
        if var in order:
            raise DuplicateName(f"variable {var!r} intervened on twice")
        order[var] = len(order)
        if not dag.has_label(var):
            raise UnknownVariable(f"cannot intervene on unknown variable {var!r}")
        if dag.attr(dag.node(var)).role == "latent":
            raise LatentIntervention(f"cannot intervene on unobserved variable {var!r}")
    pairs = [(var, value) for var, value in interventions]

    # The interventions whose fixed halves reach each position, as bits.
    nodes, index = dag.nodes, dag._index
    bases = [n.base for n in nodes]
    bit = [1 << order[b] if b in order else 0 for b in bases]
    reach = [0] * len(nodes)
    for n in dag.topological_order():
        p, bits = index.position[n], 0
        for q in index.parents[p]:
            bits |= bit[q] or reach[q]
        reach[p] = bits

    contexts: dict[int, Context] = {0: ()}
    randoms = []
    for n, bits in zip(nodes, reach):
        if bits or n.context:
            context = contexts.get(bits)
            if context is None:
                context = contexts[bits] = tuple([x for i, x in enumerate(pairs) if bits >> i & 1])
            n = NodeId(n.base, context)
        randoms.append(n)
    fixed = {var: NodeId(var, ((var, value),), fixed=True) for var, value in pairs}
    attrs = {r: dag.attrs[n] for r, n in zip(randoms, nodes)}
    for var, fid in fixed.items():
        a = dag.attrs[dag.node(var)]
        role = "covariate" if a.role == "derived" else a.role
        attrs[fid] = NodeAttrs(role=role, observed=a.observed, values=a.values)
    # One random node per DAG node, in the DAG's order: each keeps its
    # parents, with an intervened parent's fixed half in its place.
    new, position, by_label = _ordered([*randoms, *fixed.values()])
    source = [position[fixed.get(b) or r] for b, r in zip(bases, randoms)]
    parents: list = [()] * len(new)
    for n, ps in zip(randoms, index.parents):
        parents[position[n]] = [source[p] for p in ps]
    graph = CausalGraph._checked(attrs, parents, new, position, by_label)
    return SWIG(graph=graph, interventions=tuple(interventions))


def swig_to_payload(s: SWIG) -> dict:
    payload = graph_to_payload(s.graph)
    payload["interventions"] = [[var, value] for var, value in s.interventions]
    return payload
