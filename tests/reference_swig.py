"""The routed-edge splitter, kept as the reference for the one-pass one.

``split`` here is the splitter ``swigc.swig`` used to ship: it routes
every edge through (kind, base) keys, then runs one graph search per
intervention from its fixed half to find the random nodes it reaches.
The only change is the returned ``SWIG``, which no longer carries the
source DAG.  The property tests require the one-pass splitter to return
an equal graph and intervention list, or to raise the same exception
type with the same message.
"""

from __future__ import annotations

from swigc.errors import AlreadySplit, DuplicateName, LatentIntervention, UnknownVariable
from swigc.graph import CausalGraph, Context, NodeAttrs, NodeId
from swigc.swig import SWIG


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
        attrs[fid] = NodeAttrs(
            role=role,
            observed=base_attrs.observed,
            conditioned=False,
            deterministic=None,
            values=base_attrs.values,
        )

    def node_for(key: tuple[str, str]) -> NodeId:
        kind, base = key
        return fixed_ids[base] if kind == "fixed" else random_ids[base]

    edges = [(node_for(src), node_for(dst)) for src, dst in routed]
    graph = CausalGraph(list(random_ids.values()) + list(fixed_ids.values()), attrs, edges)
    return SWIG(graph=graph, interventions=tuple(interventions))
