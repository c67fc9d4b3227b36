"""Node splitting: turn a causal DAG into a single-world intervention graph.

Each intervened variable X with assigned level x becomes two nodes.
The random half X keeps every incoming edge of the original node; the
degenerate fixed half x keeps every outgoing edge.  Random nodes are
then relabeled with the interventions whose fixed halves are their
ancestors, in the order the interventions were given, so downstream
variables read as potential outcomes such as Y(a,m=0).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AlreadySplit, DuplicateName, LatentIntervention, UnknownVariable
from .graph import CausalGraph, Context, NodeAttrs, NodeId, Value

__all__ = ["SWIG", "split"]


@dataclass(frozen=True)
class SWIG:
    """A split graph plus the intervention list that produced it."""

    graph: CausalGraph
    interventions: tuple[tuple[str, Value], ...]
    source: CausalGraph


def split(dag: CausalGraph, interventions: Context) -> SWIG:
    """Split ``dag`` at the given (variable, level) assignments."""
    if any(n.fixed for n in dag.nodes):
        raise AlreadySplit("graph already contains fixed nodes")
    seen: set[str] = set()
    for var, _ in interventions:
        if var in seen:
            raise DuplicateName(f"variable {var!r} intervened on twice")
        seen.add(var)
        if not dag.has_label(var):
            raise UnknownVariable(f"cannot intervene on unknown variable {var!r}")
        if dag.attr(dag.node(var)).role == "latent":
            raise LatentIntervention(f"cannot intervene on unobserved variable {var!r}")

    intervened = {var: value for var, value in interventions}

    # Route edges through (kind, base) keys before identities are final:
    # into the random half, out of the fixed half.
    routed: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for u, v in dag.edges:
        src = ("fixed", u.base) if u.base in intervened else ("random", u.base)
        routed.append((src, ("random", v.base)))

    child_keys: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for src, dst in routed:
        child_keys.setdefault(src, []).append(dst)

    # A random node's context lists the interventions whose fixed half
    # is its ancestor, always in the order interventions were given.
    reach: dict[str, set[str]] = {}
    for var, _ in interventions:
        hit: set[str] = set()
        stack = [("fixed", var)]
        while stack:
            key = stack.pop()
            for kind, base in child_keys.get(key, ()):
                if base not in hit:
                    hit.add(base)
                    stack.append((kind, base))
        reach[var] = hit

    def context_for(base: str) -> Context:
        return tuple((var, value) for var, value in interventions if base in reach[var])

    random_ids: dict[str, NodeId] = {}
    attrs: dict[NodeId, NodeAttrs] = {}
    for n in dag.nodes:
        nid = NodeId(n.base, context_for(n.base))
        random_ids[n.base] = nid
        attrs[nid] = dag.attrs[n]
    fixed_ids: dict[str, NodeId] = {}
    for var, value in interventions:
        fid = NodeId(var, ((var, value),), fixed=True)
        fixed_ids[var] = fid
        base_attrs = dag.attrs[dag.node(var)]
        role = "covariate" if base_attrs.role == "derived" else base_attrs.role
        attrs[fid] = replace(base_attrs, role=role, conditioned=False, deterministic=None)

    def node_for(key: tuple[str, str]) -> NodeId:
        kind, base = key
        return fixed_ids[base] if kind == "fixed" else random_ids[base]

    edges = [(node_for(src), node_for(dst)) for src, dst in routed]
    graph = CausalGraph(list(random_ids.values()) + list(fixed_ids.values()), attrs, edges)
    return SWIG(graph=graph, interventions=tuple(interventions), source=dag)


def swig_to_payload(s: SWIG) -> dict:
    from .graph import graph_to_payload

    payload = graph_to_payload(s.graph)
    payload["interventions"] = [[var, value] for var, value in s.interventions]
    return payload
