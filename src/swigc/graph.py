"""Immutable labeled DAGs shared by every other module.

A node is identified by its base variable name plus the intervention
context it carries.  The fixed (intervened-upon) half of a split
variable is a separate degenerate node that stores its own assignment.
Plain DAGs use empty contexts everywhere, so the same type serves both
ordinary causal graphs and single-world intervention graphs.

Nodes are interned: there is one NodeId object per (base, context,
fixed) in a process, so nodes compare and hash by identity, in C, and
every set and dict keyed by nodes still means what its fields say.

Every query with a choice to make breaks ties on the rendered node
label, so results are stable across runs and platforms.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping

from .errors import (
    CycleError,
    DuplicateName,
    GraphError,
    SemanticError,
    UnknownEndpoint,
    UnknownNode,
)

__all__ = [
    "Value",
    "Context",
    "format_assignment",
    "format_term",
    "CompositeRule",
    "NodeAttrs",
    "NodeId",
    "CausalGraph",
    "build_graph",
    "graph_to_payload",
    "graph_from_payload",
    "canonical_json",
]

# A level is either a concrete integer or a symbolic placeholder such as "a".
Value = int | str

# Ordered (variable, level) assignments, e.g. (("A", "a"), ("M3", 0)).
Context = tuple[tuple[str, Value], ...]

ROLES = frozenset({"treatment", "intercurrent", "outcome", "covariate", "latent", "derived"})

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def valid_name(name: str) -> bool:
    return bool(_NAME_RE.match(name))


def format_assignment(var: str, value: Value) -> str:
    """Render one context entry: symbolic levels bare, concrete ones as ``m3=0``."""
    if isinstance(value, str):
        return value
    return f"{var.lower()}={value}"


def format_term(var: str, context: Context) -> str:
    """Potential-outcome notation such as ``Y(a,m3=0)``; bare name for an empty context."""
    if not context:
        return var
    inner = ",".join(format_assignment(v, x) for v, x in context)
    return f"{var}({inner})"


@dataclass(frozen=True)
class CompositeRule:
    """Derived-outcome rule: copy ``source`` while ``guard`` stays 0, else ``failure``."""

    source: str
    guard: str
    failure: int

    def apply(self, source_value: int, guard_value: int) -> int:
        return source_value if guard_value == 0 else self.failure


@dataclass(frozen=True)
class NodeAttrs:
    """Role and bookkeeping flags attached to a node.

    ``conditioned`` marks adjustment-eligible baseline covariates (the
    boxed nodes of a drawn graph).  ``values`` is the declared finite
    support used by strategy- and estimand-level checks.
    """

    role: str = "covariate"
    observed: bool = True
    conditioned: bool = False
    deterministic: CompositeRule | None = None
    values: tuple[int, ...] = (0, 1)


def _check_attrs(name: str, attrs: NodeAttrs) -> NodeAttrs:
    if attrs.role not in ROLES:
        raise SemanticError(f"node {name}: unknown role {attrs.role!r}")
    if attrs.role == "latent":
        if attrs.observed:
            attrs = replace(attrs, observed=False)
    elif not attrs.observed:
        if attrs.role != "covariate":
            raise SemanticError(f"node {name}: role {attrs.role} must be observed")
        attrs = replace(attrs, role="latent")
    if attrs.role == "latent" and attrs.conditioned:
        raise SemanticError(f"node {name}: cannot adjust on an unobserved variable")
    if attrs.deterministic is not None and attrs.role != "derived":
        raise SemanticError(f"node {name}: a deterministic rule requires role derived")
    if attrs.role == "derived" and attrs.deterministic is None:
        raise SemanticError(f"node {name}: role derived requires a deterministic rule")
    if not attrs.values or len(set(attrs.values)) != len(attrs.values):
        raise SemanticError(f"node {name}: declared values must be non-empty and distinct")
    return attrs


# The one node of each (base, context, fixed) made in this process.
_NODES: dict[tuple[str, Context, bool], NodeId] = {}


@dataclass(frozen=True, eq=False, init=False)
class NodeId:
    """Node identity: base variable, carried context, fixed marker.

    The fixed half of a split variable stores its own assignment as a
    one-entry context; that single entry is also what its label renders
    (``a`` for a symbolic level, ``a=1`` for a concrete one).

    Nodes are interned: ``NodeId(base, context, fixed)`` returns the one
    node with those fields, so nodes with equal fields are the same
    object, ``==`` and ``hash`` are ``object``'s identity versions, and a
    new node renders its label once.
    """

    base: str
    context: Context = ()
    fixed: bool = False
    label: str = field(init=False, repr=False)

    def __new__(cls, base: str, context: Context = (), fixed: bool = False) -> NodeId:
        key = (base, context, fixed)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "base", base)
            object.__setattr__(node, "context", context)
            object.__setattr__(node, "fixed", fixed)
            label = format_assignment(*context[0]) if fixed else format_term(base, context)
            object.__setattr__(node, "label", label)
            # setdefault is one atomic step, so two threads making the same
            # new node both get the one that was stored first.
            node = _NODES.setdefault(key, node)
        return node

    def __reduce__(self) -> tuple:
        # pickle, copy, deepcopy and dataclasses.replace all make the node
        # again from its fields, which returns the interned one.
        return NodeId, (self.base, self.context, self.fixed)


class CausalGraph:
    """A validated immutable DAG over :class:`NodeId` nodes.

    Construction checks label uniqueness, edge endpoints, acyclicity
    (reporting a cycle witness), and that fixed nodes have no incoming
    edges.  Treat instances as frozen; all fields are plain data.
    """

    __slots__ = ("nodes", "attrs", "edges", "_parents", "_children", "_by_label", "_topo")

    def __init__(
        self,
        nodes: Iterable[NodeId],
        attrs: Mapping[NodeId, NodeAttrs],
        edges: Iterable[tuple[NodeId, NodeId]],
    ):
        node_list = sorted(nodes, key=lambda n: n.label)
        by_label: dict[str, NodeId] = {}
        for n in node_list:
            if n.label in by_label:
                raise DuplicateName(f"duplicate node label {n.label!r}")
            by_label[n.label] = n
        node_set = set(node_list)

        checked: dict[NodeId, NodeAttrs] = {}
        for n in node_list:
            if n not in attrs:
                raise GraphError(f"missing attributes for node {n.label!r}")
            checked[n] = _check_attrs(n.label, attrs[n])

        edge_set = set()
        for u, v in edges:
            if u not in node_set or v not in node_set:
                missing = u if u not in node_set else v
                raise UnknownEndpoint(f"edge endpoint {missing.label!r} is not a node")
            if u == v:
                raise CycleError([u.label, v.label])
            edge_set.add((u, v))

        parents: dict[NodeId, list[NodeId]] = {n: [] for n in node_list}
        children: dict[NodeId, list[NodeId]] = {n: [] for n in node_list}
        for u, v in sorted(edge_set, key=lambda e: (e[0].label, e[1].label)):
            parents[v].append(u)
            children[u].append(v)

        random_bases = {n.base for n in node_list if not n.fixed}
        for n in node_list:
            if n.fixed and parents[n]:
                raise GraphError(f"fixed node {n.label!r} cannot have incoming edges")
            if n.fixed and n.base not in random_bases:
                raise GraphError(f"fixed node {n.label!r} has no random half in the graph")

        self.nodes: tuple[NodeId, ...] = tuple(node_list)
        self.attrs: dict[NodeId, NodeAttrs] = checked
        self.edges: frozenset[tuple[NodeId, NodeId]] = frozenset(edge_set)
        self._parents = {n: tuple(ps) for n, ps in parents.items()}
        self._children = {n: tuple(cs) for n, cs in children.items()}
        self._by_label = by_label
        self._topo = self._layered_order()

    def _layered_order(self) -> tuple[NodeId, ...]:
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        layer = sorted((n for n in self.nodes if indeg[n] == 0), key=lambda n: n.label)
        order: list[NodeId] = []
        while layer:
            order.extend(layer)
            ready: list[NodeId] = []
            for n in layer:
                for c in self._children[n]:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        ready.append(c)
            layer = sorted(ready, key=lambda n: n.label)
        if len(order) != len(self.nodes):
            raise CycleError(self._cycle_witness({n for n in self.nodes if indeg[n] > 0}))
        return tuple(order)

    def _cycle_witness(self, leftover: set[NodeId]) -> list[str]:
        # Every leftover node keeps at least one leftover parent, so a
        # parent walk must revisit; the reversed slice is a forward cycle.
        start = min(leftover, key=lambda n: n.label)
        path = [start]
        seen = {start: 0}
        while True:
            nxt = min(
                (p for p in self._parents[path[-1]] if p in leftover),
                key=lambda n: n.label,
            )
            if nxt in seen:
                cyc = path[seen[nxt]:]
                return [cyc[0].label] + [n.label for n in reversed(cyc[1:])] + [cyc[0].label]
            seen[nxt] = len(path)
            path.append(nxt)

    # queries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.attrs == other.attrs
            and self.edges == other.edges
        )

    __hash__ = None  # type: ignore[assignment]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.attrs

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def attr(self, node: NodeId) -> NodeAttrs:
        try:
            return self.attrs[node]
        except KeyError:
            raise _unknown(node) from None

    def node(self, label: str) -> NodeId:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownNode(f"no node labeled {label!r}") from None

    def has_label(self, label: str) -> bool:
        return label in self._by_label

    def random_node(self, base: str) -> NodeId:
        """The unique random (non-fixed) node for a base variable."""
        found = [n for n in self.nodes if not n.fixed and n.base == base]
        if not found:
            raise UnknownNode(f"no random node for variable {base!r}")
        if len(found) > 1:
            raise GraphError(f"variable {base!r} has several random nodes")
        return found[0]

    def parents(self, node: NodeId) -> tuple[NodeId, ...]:
        try:
            return self._parents[node]
        except KeyError:
            raise _unknown(node) from None

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        try:
            return self._children[node]
        except KeyError:
            raise _unknown(node) from None

    def ancestors(self, node: NodeId) -> frozenset[NodeId]:
        """Strict ancestors of ``node`` (the node itself is excluded)."""
        return self._reach((node,), self._parents) - {node}

    def descendants(self, node: NodeId) -> frozenset[NodeId]:
        """Strict descendants of ``node`` (the node itself is excluded)."""
        return self._reach((node,), self._children) - {node}

    def ancestral_set(self, nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """``nodes`` and all their ancestors, found in one walk over parents
        that reads each node's parents at most once."""
        return self._reach(nodes, self._parents)

    def _reach(
        self, nodes: Iterable[NodeId], step: Mapping[NodeId, tuple[NodeId, ...]]
    ) -> frozenset[NodeId]:
        seen = set(nodes)
        for n in seen:
            if n not in self.attrs:
                raise _unknown(n)
        stack = list(seen)
        while stack:
            for m in step[stack.pop()]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return frozenset(seen)

    def topological_order(self) -> tuple[NodeId, ...]:
        """Kahn layering; each layer is emitted in lexicographic label order."""
        return self._topo


def _unknown(node: NodeId) -> UnknownNode:
    return UnknownNode(f"no node labeled {node.label!r}")


def build_graph(
    nodes: Iterable[tuple[str, NodeAttrs | None]],
    edges: Iterable[tuple[str, str]],
) -> CausalGraph:
    """Build a plain DAG (empty contexts) from names and name pairs."""
    ids: list[NodeId] = []
    attrs: dict[NodeId, NodeAttrs] = {}
    for name, a in nodes:
        if not valid_name(name):
            raise SemanticError(f"invalid variable name {name!r}")
        nid = NodeId(name)
        ids.append(nid)
        attrs[nid] = a if a is not None else NodeAttrs()
    # CausalGraph refuses a duplicate name and an edge endpoint that is not a node.
    return CausalGraph(ids, attrs, [(NodeId(u), NodeId(v)) for u, v in edges])


# JSON import and export


def _context_payload(context: Context) -> list[list]:
    return [[var, val] for var, val in context]


def _context_from_payload(payload: Iterable) -> Context:
    out = []
    for var, val in payload:
        if not isinstance(val, (int, str)) or isinstance(val, bool):
            raise GraphError(f"bad context value {val!r}")
        out.append((str(var), val))
    return tuple(out)


def graph_to_payload(g: CausalGraph) -> dict:
    nodes = []
    for n in g.nodes:
        a = g.attrs[n]
        rule = None
        if a.deterministic is not None:
            rule = {
                "source": a.deterministic.source,
                "guard": a.deterministic.guard,
                "failure": a.deterministic.failure,
            }
        nodes.append(
            {
                "name": n.base,
                "label": n.label,
                "context": _context_payload(n.context),
                "fixed": n.fixed,
                "attrs": {
                    "role": a.role,
                    "observed": a.observed,
                    "conditioned": a.conditioned,
                    "deterministic": rule,
                    "values": list(a.values),
                },
            }
        )
    edges = sorted([u.label, v.label] for u, v in g.edges)
    return {"nodes": nodes, "edges": edges}


def graph_from_payload(payload: Mapping) -> CausalGraph:
    nodes: list[NodeId] = []  # CausalGraph refuses a duplicate label
    attrs: dict[NodeId, NodeAttrs] = {}
    for entry in payload["nodes"]:
        a = entry["attrs"]
        rule = None
        if a.get("deterministic"):
            d = a["deterministic"]
            rule = CompositeRule(d["source"], d["guard"], int(d["failure"]))
        nid = NodeId(entry["name"], _context_from_payload(entry["context"]), bool(entry["fixed"]))
        nodes.append(nid)
        attrs[nid] = NodeAttrs(
            role=a["role"],
            observed=bool(a["observed"]),
            conditioned=bool(a["conditioned"]),
            deterministic=rule,
            values=tuple(int(v) for v in a["values"]),
        )
    ids = {n.label: n for n in nodes}
    edges = []
    for u, v in payload["edges"]:
        if u not in ids or v not in ids:
            raise UnknownEndpoint(f"edge endpoint {u if u not in ids else v!r} is not a node")
        edges.append((ids[u], ids[v]))
    return CausalGraph(nodes, attrs, edges)


def canonical_json(payload: Mapping) -> str:
    """Stable JSON rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
