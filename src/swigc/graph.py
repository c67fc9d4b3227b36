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

A graph keeps ``nodes`` in label order, so a node's position in
``nodes`` orders nodes as their labels do.  It keeps one adjacency, its
index, built with the graph and never rebuilt: each node's position, and
per position the positions of its parents and of its children (every
edge, in label order) and whether it is fixed.  ``parents``,
``children``, ``edges`` and ``ordered_edges`` map positions back to
nodes; the last walks the child lists, which gives every edge in label
order of parent, then child, with no sort.  The walks of
``ancestors``, ``descendants``, ``ancestral_set``, d-separation and the
adjustment search all run on positions, and make nodes only for what
they return.  With the index it builds the base maps: each base's random
node and its fixed node.  A SWIG splits an intervened variable into one
random and one fixed node and leaves any other variable one random node,
so the build refuses a second random or a second fixed node of a base,
and every map entry is a node.

The constructor checks its parts, then builds.  A graph made from parts
that already passed some of those checks skips them and calls the same
build, which still refuses a shared base and a cycle: the split graph of
a DAG, a study graph with a composite outcome folded in, and the DAG of
a parsed spec, whose parser checks its names and edges itself.

Value classes across swigc are records: ``@record`` reads a class's
annotated fields, in order, with the class attribute of the same name as
a field's default (``default_factory(make)`` calls ``make`` for each new
record).  It writes ``__init__``, ``__eq__`` and ``__hash__`` from the
code text ``dataclass(frozen=True)`` generates, so a record builds,
compares and hashes as a frozen dataclass does, with the same hash
values.  All three come from one ``exec`` per class, not one per method,
and ``__repr__``, ``__setattr__`` and ``__delattr__`` are shared
functions, so defining a class costs a small fraction of a dataclass and
importing swigc needs neither ``dataclasses`` nor ``inspect``.
``replace(obj, **changes)`` makes a record again with some fields
changed.  Class attributes without an annotation, such as ``kind``, stay
class attributes.
"""

from __future__ import annotations

import json
import re
import sys
from operator import attrgetter
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


class FrozenInstanceError(AttributeError):
    """Raised on assigning or deleting a field of a record."""


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


class default_factory:
    """A field default that calls ``make()`` for each new record."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


# The __init__ default of a field with a default_factory.
_HAS_DEFAULT_FACTORY = object()


def record(cls: type) -> type:
    """Make ``cls`` a frozen value class; see the module docstring."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    closure: dict[str, object] = {"_object": object, "_HAS_DEFAULT_FACTORY": _HAS_DEFAULT_FACTORY}
    params, sets = ["self"], []
    for name in names:
        value = name
        default = cls.__dict__.get(name)
        if isinstance(default, default_factory):
            closure[f"_dflt_{name}"] = default.make
            params.append(f"{name}=_HAS_DEFAULT_FACTORY")
            value = f"_dflt_{name}() if {name} is _HAS_DEFAULT_FACTORY else {name}"
            delattr(cls, name)
        elif name in cls.__dict__:
            closure[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        sets.append(f"  _object.__setattr__(self,{name!r},{value})")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    text = "\n".join([
        f"def make({', '.join(closure)}):",
        f" def __init__({','.join(params)}):",
        *(sets or ["  pass"]),
        " def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"   return ({mine})==({theirs})",
        "  return NotImplemented",
        " def __hash__(self):",
        f"  return hash(({mine}))",
        " return __init__, __eq__, __hash__",
    ])
    scope: dict[str, object] = {}
    exec(text, sys.modules[cls.__module__].__dict__, scope)
    for fn in scope["make"](**closure):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    cls.__repr__ = _record_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def replace(obj, /, **changes):
    """A record like ``obj`` with the given fields changed."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj.__match_args__}, **changes})


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


@record
class CompositeRule:
    """Derived-outcome rule: copy ``source`` while ``guard`` stays 0, else ``failure``."""

    source: str
    guard: str
    failure: int

    def apply(self, source_value: int, guard_value: int) -> int:
        return source_value if guard_value == 0 else self.failure


@record
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


class NodeId:
    """Node identity: base variable, carried context, fixed marker.

    The fixed half of a split variable stores its own assignment as a
    one-entry context; that single entry is also what its label renders
    (``a`` for a symbolic level, ``a=1`` for a concrete one), and a fixed
    node with any other number of entries is refused.

    Nodes are interned: ``NodeId(base, context, fixed)`` returns the one
    node with those fields, so nodes with equal fields are the same
    object, ``==`` and ``hash`` are ``object``'s identity versions, and a
    new node renders its label once.  Like a record, a node is frozen
    and its repr shows its three fields.
    """

    base: str
    context: Context
    fixed: bool
    label: str

    __match_args__ = ("base", "context", "fixed")
    __repr__ = _record_repr
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __new__(cls, base: str, context: Context = (), fixed: bool = False) -> NodeId:
        key = (base, context, fixed)
        node = _NODES.get(key)
        if node is None:
            if fixed and len(context) != 1:
                raise GraphError(f"a fixed node of {base!r} must carry exactly one assignment")
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
        # pickle, copy and deepcopy make the node again from its fields, as
        # replace does, which returns the interned one.
        return NodeId, (self.base, self.context, self.fixed)


class CausalGraph:
    """A validated immutable DAG over :class:`NodeId` nodes.

    Construction checks label uniqueness, edge endpoints, acyclicity
    (reporting a cycle witness), that each base has one random node and
    at most one fixed node, and that fixed nodes have no incoming edges.
    Treat instances as frozen; all fields are plain data.
    """

    __slots__ = ("nodes", "attrs", "_by_label", "_random", "_fixed", "_index", "_topo")

    def __init__(
        self,
        nodes: Iterable[NodeId],
        attrs: Mapping[NodeId, NodeAttrs],
        edges: Iterable[tuple[NodeId, NodeId]],
    ):
        node_list, position, by_label = _ordered(nodes)
        checked: dict[NodeId, NodeAttrs] = {}
        for n in node_list:
            if n not in attrs:
                raise GraphError(f"missing attributes for node {n.label!r}")
            checked[n] = _check_attrs(n.label, attrs[n])

        parents: list[set[int]] = [set() for _ in node_list]
        for u, v in edges:
            if u not in position or v not in position:
                missing = u if u not in position else v
                raise UnknownEndpoint(f"edge endpoint {missing.label!r} is not a node")
            if u == v:
                raise CycleError([u.label, v.label])
            parents[position[v]].add(position[u])
        self._build(checked, parents, node_list, position, by_label)

    @classmethod
    def _checked(cls, attrs, parents, nodes, position, by_label) -> CausalGraph:
        """The graph of parts that passed the constructor's checks: checked
        ``attrs``; per position, the positions of its parents, distinct and
        not itself; and what ``_ordered`` returns for the nodes.  It still
        refuses a base with several random or several fixed nodes, a fixed
        node with parents or without a random half, and a cycle."""
        graph = cls.__new__(cls)
        graph._build(attrs, parents, nodes, position, by_label)
        return graph

    def _build(self, attrs, parents, nodes, position, by_label) -> None:
        up = [tuple(sorted(ps)) for ps in parents]
        down: list[list[int]] = [[] for _ in nodes]
        for v, ps in enumerate(up):
            for p in ps:
                down[p].append(v)

        # Each base's one random node and at most one fixed node.
        random, fixed = {}, {}
        for n in nodes:
            same = fixed if n.fixed else random
            if n.base in same:
                kind = "fixed" if n.fixed else "random"
                raise GraphError(f"variable {n.base!r} has several {kind} nodes")
            same[n.base] = n
        for n in nodes:
            if n.fixed and up[position[n]]:
                raise GraphError(f"fixed node {n.label!r} cannot have incoming edges")
            if n.fixed and n.base not in random:
                raise GraphError(f"fixed node {n.label!r} has no random half in the graph")

        self.nodes: tuple[NodeId, ...] = tuple(nodes)
        self.attrs: dict[NodeId, NodeAttrs] = attrs
        self._by_label, self._random, self._fixed = by_label, random, fixed
        self._index = _Index(position, up, down, bytes([n.fixed for n in nodes]))
        self._topo = self._layered_order()

    def _layered_order(self) -> tuple[NodeId, ...]:
        index = self._index
        indeg = list(map(len, index.parents))
        layer = [p for p, d in enumerate(indeg) if not d]
        order: list[int] = []
        while layer:
            order += layer
            ready: list[int] = []
            for p in layer:
                for c in index.children[p]:
                    indeg[c] -= 1
                    if not indeg[c]:
                        ready.append(c)
            layer = sorted(ready)
        if len(order) != len(indeg):
            raise CycleError(self._cycle_witness({p for p, d in enumerate(indeg) if d}))
        # A tuple made from a list gets its final size at once; one made
        # from an iterator of unknown length is resized, and CPython then
        # keeps its block on a free list that only tuples of that exact
        # size reuse.
        return tuple([self.nodes[p] for p in order])

    def _cycle_witness(self, leftover: set[int]) -> list[str]:
        # Every leftover node keeps at least one leftover parent, so a
        # parent walk must revisit; the reversed slice is a forward cycle.
        path = [min(leftover)]
        seen = {path[0]: 0}
        while True:
            # Parents are listed in label order, so the first is the least.
            nxt = next(p for p in self._index.parents[path[-1]] if p in leftover)
            if nxt in seen:
                cyc = [self.nodes[p].label for p in path[seen[nxt]:]]
                return [cyc[0], *reversed(cyc[1:]), cyc[0]]
            seen[nxt] = len(path)
            path.append(nxt)

    # queries

    @property
    def edges(self) -> frozenset[tuple[NodeId, NodeId]]:
        """Every edge, as a (parent, child) pair."""
        return frozenset(self.ordered_edges())

    def ordered_edges(self) -> list[tuple[NodeId, NodeId]]:
        """Every edge, as a (parent, child) pair, in label order of the
        parent, then of the child: the index's child lists in position
        order, so no sort."""
        nodes = self.nodes
        return [(nodes[p], nodes[c]) for p, cs in enumerate(self._index.children) for c in cs]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return (self.nodes, self.attrs, self._index.parents) == (
            other.nodes, other.attrs, other._index.parents)

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
        if base not in self._random:
            raise UnknownNode(f"no random node for variable {base!r}")
        return self._random[base]

    def parents(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._near(node, self._index.parents)

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._near(node, self._index.children)

    def _near(self, node: NodeId, step: list[tuple[int, ...]]) -> tuple[NodeId, ...]:
        try:
            return tuple([self.nodes[p] for p in step[self._index.position[node]]])
        except KeyError:
            raise _unknown(node) from None

    def ancestors(self, node: NodeId) -> frozenset[NodeId]:
        """Strict ancestors of ``node`` (the node itself is excluded)."""
        return self._reach((node,), up=True) - {node}

    def descendants(self, node: NodeId) -> frozenset[NodeId]:
        """Strict descendants of ``node`` (the node itself is excluded)."""
        return self._reach((node,), up=False) - {node}

    def ancestral_set(self, nodes: Iterable[NodeId]) -> frozenset[NodeId]:
        """``nodes`` and all their ancestors, found in one walk over parents
        that reads each node's parents at most once."""
        return self._reach(nodes, up=True)

    def _reach(self, nodes: Iterable[NodeId], up: bool) -> frozenset[NodeId]:
        index = self._index
        try:
            starts = [index.position[n] for n in nodes]
        except KeyError as e:
            raise _unknown(e.args[0]) from None
        found = index.reach(starts, index.parents if up else index.children)
        return frozenset(map(self.nodes.__getitem__, found))

    def topological_order(self) -> tuple[NodeId, ...]:
        """Kahn layering; each layer is emitted in lexicographic label order."""
        return self._topo


class _Index:
    """A graph's nodes as positions in ``nodes``; see the module docstring."""

    __slots__ = ("position", "parents", "children", "fixed")

    def __init__(self, position: dict[NodeId, int], parents: list, children: list, fixed: bytes):
        self.position, self.parents, self.children, self.fixed = position, parents, children, fixed

    def reach(self, starts: Iterable[int], step: list) -> list[int]:
        """``starts`` and every position that ``step``'s lists lead to from
        them, each once; each position's list is read at most once."""
        seen = set(starts)
        found = list(seen)
        for p in found:
            for q in step[p]:
                if q not in seen:
                    seen.add(q)
                    found.append(q)
        return found


def _ordered(nodes: Iterable[NodeId]) -> tuple[list[NodeId], dict, dict]:
    """``nodes`` in label order, each one's position in that order, and the
    nodes by label; refuses the least repeated label."""
    ordered = sorted(nodes, key=attrgetter("label"))
    by_label = {n.label: n for n in ordered}
    if len(by_label) < len(ordered):
        twin = next(a for a, b in zip(ordered, ordered[1:]) if a.label == b.label)
        raise DuplicateName(f"duplicate node label {twin.label!r}")
    return ordered, {n: i for i, n in enumerate(ordered)}, by_label


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
        a, d = g.attrs[n], g.attrs[n].deterministic
        rule = None if d is None else {"source": d.source, "guard": d.guard, "failure": d.failure}
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
    return {"nodes": nodes, "edges": [[u.label, v.label] for u, v in g.ordered_edges()]}


def graph_from_payload(payload: Mapping) -> CausalGraph:
    nodes: list[NodeId] = []  # CausalGraph refuses a duplicate label
    attrs: dict[NodeId, NodeAttrs] = {}
    for entry in payload["nodes"]:
        a = entry["attrs"]
        d = a.get("deterministic")
        rule = CompositeRule(d["source"], d["guard"], int(d["failure"])) if d else None
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
