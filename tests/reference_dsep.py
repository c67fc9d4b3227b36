"""The witness searches ``swigc.dsep`` used to ship, kept as references.

``open_paths`` here is the recursive enumerator: it lists every simple
open path by recursion, one call per path node, then sorts the lot
shortest first and by label sequence and cuts it to ``limit``.
``best_first_open_paths`` is the best-first search that replaced it: a
heap of partial paths keyed by (length, positions, arrows), which pops
every shorter or lower-labelled partial path first, even one that cannot
reach y.  The property tests require the A* search to return exactly the
enumerator's list, witness for witness, at every limit, and exactly the
best-first list on graphs too large for the enumerator.
"""

from __future__ import annotations

import heapq

from swigc.dsep import (
    _START,
    DSepQuery,
    PathWitness,
    _ball,
    _check_sets,
    _conditioning,
    _witness,
)
from swigc.graph import CausalGraph, NodeId


def _z_closure(graph: CausalGraph, z: frozenset[NodeId]) -> frozenset[NodeId]:
    closure = set(z)
    for n in z:
        closure |= graph.ancestors(n)
    return frozenset(closure)


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


def best_first_open_paths(
    graph: CausalGraph,
    query: DSepQuery,
    limit: int = 5,
) -> list[PathWitness]:
    """The open paths between x and y given z, shortest first, then in
    label order, up to ``limit``, by a best-first search keyed by length."""
    _check_sets(graph, query)
    index, moves = _ball(graph, query.z)
    starts = {index.position[n] for n in query.x}
    ends = {index.position[n] for n in query.y}
    heap = sorted((1, (p,), ()) for p in starts if not index.fixed[p])
    found: list[PathWitness] = []
    while heap and len(found) < limit:
        length, path, arrived = heapq.heappop(heap)
        p = path[-1]
        if p in ends:
            found.append(_witness(graph, query.z, path, arrived))
            continue
        came = arrived[-1] if arrived else _START
        for near, arrives, gate in moves:
            if gate[came][p]:
                for q in near[p]:
                    if not index.fixed[q] and q not in starts and q not in path:
                        heapq.heappush(heap, (length + 1, path + (q,), arrived + (arrives,)))
    return found
