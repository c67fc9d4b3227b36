"""The recursive witness enumerator, kept as the reference for the best-first one.

``open_paths`` here is the enumerator ``swigc.dsep`` used to ship: it
lists every simple open path by recursion, one call per path node, then
sorts the lot shortest first and by label sequence and cuts it to
``limit``.  The property tests require the best-first search to return
exactly its list, witness for witness, at every limit.
"""

from __future__ import annotations

from swigc.dsep import DSepQuery, PathWitness, _check_sets, _conditioning
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
