"""d-separation over graphs that may contain fixed (degenerate) nodes.

One Bayes-ball step (Shachter 1998) holds the d-connection rule: from a
node, reached by a given arrow, it lists the open moves to neighbours.
One reachability pass over those (node, arrow) states yields each node
the ball reaches from x given z, in time linear in the graph (Geiger,
Verma and Pearl 1990).  ``d_connected`` collects every node it yields;
``d_separated`` stops at the first y node.  ``open_paths`` explains a
refusal with the same moves: a best-first search over simple paths
yields the open ones shortest first, then in label order, and stops at
its limit.  Fixed nodes are constants: every path through one is
blocked, they open nothing, and they are inert as conditioning
variables.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from .errors import OverlappingSets, UnknownNode
from .graph import CausalGraph, NodeId, record

__all__ = [
    "DSepQuery",
    "PathWitness",
    "d_connected",
    "d_separated",
    "open_paths",
    "path_string",
]


@record
class DSepQuery:
    """One conditional-independence question: x independent of y given z?"""

    x: frozenset[NodeId]
    y: frozenset[NodeId]
    z: frozenset[NodeId] = frozenset()

    def label(self) -> str:
        def names(ns: frozenset[NodeId]) -> str:
            return ", ".join(sorted(n.label for n in ns))

        base = f"{names(self.x)} ⊥ {names(self.y)}"
        if self.z:
            base += f" | {names(self.z)}"
        return base


@record
class PathWitness:
    """One open path, endpoint to endpoint, with the colliders it needed."""

    nodes: tuple[NodeId, ...]
    arrows: tuple[str, ...]
    colliders_opened: tuple[NodeId, ...] = ()


def _check_nodes(graph: CausalGraph, nodes: Iterable[NodeId]) -> None:
    for n in nodes:
        if n not in graph:
            raise UnknownNode(f"no node labeled {n.label!r}")


def _check_sets(graph: CausalGraph, query: DSepQuery) -> None:
    _check_nodes(graph, query.x | query.y | query.z)
    if query.x & query.y:
        overlap = sorted(n.label for n in query.x & query.y)
        raise OverlappingSets(f"x and y share nodes: {', '.join(overlap)}")
    if not query.x or not query.y:
        raise OverlappingSets("x and y must both be non-empty")


def _conditioning(z: frozenset[NodeId]) -> frozenset[NodeId]:
    # Fixed nodes carry no information; drop them from z silently.
    return frozenset(n for n in z if not n.fixed)


def _ball_moves(
    graph: CausalGraph, z: frozenset[NodeId]
) -> Callable[[NodeId, str | None], list[tuple[NodeId, str]]]:
    """The d-connection rule given ``z``, as one Bayes-ball step.

    ``moves(node, came)`` lists the open steps (neighbour, arrow) out of
    ``node``, where ``came`` is the arrow of the step that reached it:
    ``None`` at a path's start, ``"->"`` from a parent, ``"<-"`` from a
    child.  A chain or fork node passes the ball unless it is in z; a
    collider passes it only when it or a descendant is in z.  No step
    enters a fixed node.
    """
    closure = graph.ancestral_set(z)

    def moves(node: NodeId, came: str | None) -> list[tuple[NodeId, str]]:
        out = []
        if came is None or node not in z:
            out.extend((c, "->") for c in graph.children(node) if not c.fixed)
        if came is None or (node in closure if came == "->" else node not in z):
            out.extend((p, "<-") for p in graph.parents(node) if not p.fixed)
        return out

    return moves


def _reached(
    graph: CausalGraph, x: frozenset[NodeId], z: frozenset[NodeId]
) -> Iterator[NodeId]:
    """Each node outside x that the ball reaches from x given ``z``, the
    first time it reaches it.  Every (node, arrow) state is visited at
    most once, so a full run is linear in the graph."""
    moves = _ball_moves(graph, _conditioning(z))
    frontier = [(n, None) for n in x if not n.fixed]
    visited = set(frontier)
    reached = set(x)
    while frontier:
        for state in moves(*frontier.pop()):
            if state not in visited:
                visited.add(state)
                frontier.append(state)
                if state[0] not in reached:
                    reached.add(state[0])
                    yield state[0]


def d_connected(
    graph: CausalGraph, x: Iterable[NodeId], z: Iterable[NodeId] = frozenset()
) -> frozenset[NodeId]:
    """Every node outside x that some open path joins to x given z: the
    nodes n for which x ⊥ {n} | z fails."""
    x, z = frozenset(x), frozenset(z)
    _check_nodes(graph, x | z)
    return frozenset(_reached(graph, x, z))


def d_separated(graph: CausalGraph, query: DSepQuery) -> bool:
    """True when every path between x and y is blocked given z."""
    _check_sets(graph, query)
    return not any(n in query.y for n in _reached(graph, query.x, query.z))


def open_paths(
    graph: CausalGraph,
    query: DSepQuery,
    limit: int = 5,
) -> list[PathWitness]:
    """The open paths between x and y given z, shortest first, then in
    label order, up to ``limit``.

    Partial simple paths wait on a heap keyed by (length, labels); node
    labels are unique, so no two entries tie on the key.  An extension is
    longer than its prefix, so complete paths leave the heap in output
    order and the search stops at the ``limit``-th.  A path ends at its
    first y node and passes through no x node.
    """
    _check_sets(graph, query)
    z = _conditioning(query.z)
    moves = _ball_moves(graph, z)
    ends = {n for n in query.y if not n.fixed}
    heap = [(1, (n.label,), (n,), ()) for n in query.x if not n.fixed]
    heapq.heapify(heap)
    found: list[PathWitness] = []
    while heap and len(found) < limit:
        length, labels, nodes, arrows = heapq.heappop(heap)
        if nodes[-1] in ends:
            found.append(PathWitness(nodes, arrows, _opened(graph, z, nodes, arrows)))
            continue
        for nxt, arrow in moves(nodes[-1], arrows[-1] if arrows else None):
            if nxt not in nodes and nxt not in query.x:
                step = (length + 1, labels + (nxt.label,), nodes + (nxt,), arrows + (arrow,))
                heapq.heappush(heap, step)
    return found


def _opened(
    graph: CausalGraph, z: frozenset[NodeId], nodes: tuple[NodeId, ...], arrows: tuple[str, ...]
) -> tuple[NodeId, ...]:
    """The members of z that open the path's colliders, collider by collider."""
    out: list[NodeId] = []
    for i in range(1, len(nodes) - 1):
        if arrows[i - 1] == "->" and arrows[i] == "<-":
            # A set intersection iterates the smaller of its two sets.
            opened = z.intersection(graph.descendants(nodes[i]))
            if nodes[i] in z:
                opened |= {nodes[i]}
            out.extend(sorted(opened, key=lambda n: n.label))
    return tuple(dict.fromkeys(out))


def path_string(witness: PathWitness) -> str:
    parts = [witness.nodes[0].label]
    for arrow, node in zip(witness.arrows, witness.nodes[1:]):
        parts.append(f" {arrow} {node.label}")
    return "".join(parts)
