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
fixed half, because its random half keeps no outgoing edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AlreadySplit, DuplicateName, LatentIntervention, UnknownVariable
from .graph import CausalGraph, Context, NodeId, Value, graph_to_payload

__all__ = ["SWIG", "split", "swig_to_payload"]


@dataclass(frozen=True)
class SWIG:
    """A split graph plus the intervention list that produced it."""

    graph: CausalGraph
    interventions: tuple[tuple[str, Value], ...]


def split(dag: CausalGraph, interventions: Context) -> SWIG:
    """Split ``dag`` at the given (variable, level) assignments."""
    if any(n.fixed for n in dag.nodes):
        raise AlreadySplit("graph already contains fixed nodes")
    intervened: set[str] = set()
    for var, _ in interventions:
        if var in intervened:
            raise DuplicateName(f"variable {var!r} intervened on twice")
        intervened.add(var)
        if not dag.has_label(var):
            raise UnknownVariable(f"cannot intervene on unknown variable {var!r}")
        if dag.attr(dag.node(var)).role == "latent":
            raise LatentIntervention(f"cannot intervene on unobserved variable {var!r}")

    reach: dict[str, set[str]] = {}
    for n in dag.topological_order():
        hit = reach.setdefault(n.base, set())
        for p in dag.parents(n):
            hit |= {p.base} if p.base in intervened else reach[p.base]

    randoms = {
        n.base: NodeId(n.base, tuple((v, x) for v, x in interventions if v in reach[n.base]))
        for n in dag.nodes
    }
    fixed = {var: NodeId(var, ((var, value),), fixed=True) for var, value in interventions}
    attrs = {randoms[n.base]: dag.attrs[n] for n in dag.nodes}
    for var, fid in fixed.items():
        a = dag.attrs[dag.node(var)]
        role = "covariate" if a.role == "derived" else a.role
        attrs[fid] = replace(a, role=role, conditioned=False, deterministic=None)
    edges = [(fixed.get(u.base) or randoms[u.base], randoms[v.base]) for u, v in dag.edges]
    graph = CausalGraph([*randoms.values(), *fixed.values()], attrs, edges)
    return SWIG(graph=graph, interventions=tuple(interventions))


def swig_to_payload(s: SWIG) -> dict:
    payload = graph_to_payload(s.graph)
    payload["interventions"] = [[var, value] for var, value in s.interventions]
    return payload
