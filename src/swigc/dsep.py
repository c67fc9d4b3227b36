"""d-separation over graphs that may contain fixed (degenerate) nodes.

The decision procedure is ball-passing reachability over directed
states (node, direction of arrival).  Fixed nodes are constants: every
path through one is blocked, they open nothing, and they are inert as
conditioning variables.  A separate witness enumerator lists the open
paths so refusals can be explained, sorted shortest first and then by
label sequence so output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OverlappingSets, UnknownNode
from .graph import CausalGraph, NodeId

__all__ = ["DSepQuery", "PathWitness", "d_separated", "open_paths", "path_string"]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PathWitness:
    """One open path, endpoint to endpoint, with the colliders it needed."""

    nodes: tuple[NodeId, ...]
    arrows: tuple[str, ...]
    colliders_opened: tuple[NodeId, ...] = ()


def _check_sets(graph: CausalGraph, query: DSepQuery) -> None:
    for n in query.x | query.y | query.z:
        if n not in graph:
            raise UnknownNode(f"no node labeled {n.label!r}")
    if query.x & query.y:
        overlap = sorted(n.label for n in query.x & query.y)
        raise OverlappingSets(f"x and y share nodes: {', '.join(overlap)}")
    if not query.x or not query.y:
        raise OverlappingSets("x and y must both be non-empty")


def _conditioning(z: frozenset[NodeId]) -> frozenset[NodeId]:
    # Fixed nodes carry no information; drop them from z silently.
    return frozenset(n for n in z if not n.fixed)


def _z_closure(graph: CausalGraph, z: frozenset[NodeId]) -> frozenset[NodeId]:
    closure = set(z)
    for n in z:
        closure |= graph.ancestors(n)
    return frozenset(closure)


def d_separated(graph: CausalGraph, query: DSepQuery) -> bool:
    """True when every path between x and y is blocked given z."""
    _check_sets(graph, query)
    z = _conditioning(query.z)
    closure = _z_closure(graph, z)
    targets = {n for n in query.y if not n.fixed}
    if not targets:
        return True

    # State (node, "child") means the ball arrived from a child,
    # (node, "parent") that it arrived from a parent.  Blocking is
    # decided by intermediate nodes only, so sources expand freely.
    frontier: list[tuple[NodeId, str]] = [(n, "source") for n in query.x if not n.fixed]
    visited = set(frontier)
    while frontier:
        node, came = frontier.pop()
        moves: list[tuple[NodeId, str]] = []
        if came == "source":
            moves.extend((p, "child") for p in graph.parents(node))
            moves.extend((c, "parent") for c in graph.children(node))
        elif came == "child":
            if node not in z:
                moves.extend((p, "child") for p in graph.parents(node))
                moves.extend((c, "parent") for c in graph.children(node))
        else:
            if node not in z:
                moves.extend((c, "parent") for c in graph.children(node))
            if node in closure:
                moves.extend((p, "child") for p in graph.parents(node))
        for nxt, direction in moves:
            if nxt.fixed:
                continue
            if nxt in targets:
                return False
            state = (nxt, direction)
            if state not in visited:
                visited.add(state)
                frontier.append(state)
    return True


def open_paths(
    graph: CausalGraph,
    query: DSepQuery,
    limit: int = 5,
) -> list[PathWitness]:
    """Every open path between x and y given z, shortest first, up to ``limit``."""
    _check_sets(graph, query)
    z = _conditioning(query.z)
    closure = _z_closure(graph, z)
    endpoints_x = sorted((n for n in query.x if not n.fixed), key=lambda n: n.label)
    endpoints_y = {n for n in query.y if not n.fixed}
    blocked_mid = (query.x | query.y) - endpoints_y

    found: list[tuple[tuple[NodeId, ...], tuple[str, ...], tuple[NodeId, ...]]] = []

    def neighbors(n: NodeId) -> list[tuple[NodeId, str]]:
        out = [(c, "->") for c in graph.children(n)]
        out.extend((p, "<-") for p in graph.parents(n))
        return sorted(out, key=lambda t: (t[0].label, t[1]))

    def extend(path: list[NodeId], arrows: list[str]) -> None:
        here = path[-1]
        for nxt, arrow in neighbors(here):
            if nxt.fixed or nxt in path:
                continue
            if nxt in endpoints_y:
                if len(path) >= 2 and not _mid_ok(path[-2], here, nxt, arrows[-1], arrow):
                    continue
                full = tuple(path) + (nxt,)
                colliders = tuple(
                    full[i]
                    for i in range(1, len(full) - 1)
                    if arrows_of(arrows + [arrow], i) == ("->", "<-")
                )
                found.append((full, tuple(arrows) + (arrow,), colliders))
                continue
            if nxt in blocked_mid:
                continue
            if len(path) >= 2 and not _mid_ok(path[-2], here, nxt, arrows[-1], arrow):
                continue
            path.append(nxt)
            arrows.append(arrow)
            extend(path, arrows)
            path.pop()
            arrows.pop()

    def arrows_of(arrows: list[str], i: int) -> tuple[str, str]:
        return (arrows[i - 1], arrows[i])

    def _mid_ok(prev: NodeId, mid: NodeId, nxt: NodeId, a_in: str, a_out: str) -> bool:
        is_collider = a_in == "->" and a_out == "<-"
        if is_collider:
            return mid in closure
        return mid not in z

    for start in endpoints_x:
        extend([start], [])

    def opened(colliders: tuple[NodeId, ...]) -> tuple[NodeId, ...]:
        out = []
        for c in colliders:
            by = sorted(
                (m for m in z if m == c or m in graph.descendants(c)),
                key=lambda n: n.label,
            )
            out.extend(by)
        return tuple(dict.fromkeys(out))

    witnesses = [
        PathWitness(nodes=nodes, arrows=arrows, colliders_opened=opened(colliders))
        for nodes, arrows, colliders in found
    ]
    witnesses.sort(key=lambda w: (len(w.nodes), tuple(n.label for n in w.nodes)))
    return witnesses[:limit]


def path_string(witness: PathWitness) -> str:
    parts = [witness.nodes[0].label]
    for arrow, node in zip(witness.arrows, witness.nodes[1:]):
        parts.append(f" {arrow} {node.label}")
    return "".join(parts)
