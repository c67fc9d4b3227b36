"""d-separation over graphs that may contain fixed (degenerate) nodes.

One Bayes-ball step (Shachter 1998) holds the d-connection rule: from a
node, reached by a given arrow, it opens the moves to the node's
children, its parents, both or neither.  One reachability pass over
those (node, arrow) states yields each node the ball reaches from x
given z, in time linear in the graph (Geiger, Verma and Pearl 1990).
``d_connected`` collects every node outside x it yields; ``d_separated``
stops at the first y node.  ``open_paths`` explains a refusal with the same
moves.  One breadth-first sweep back from y's nodes over those states
gives each state the fewest moves left to a y node, ignoring simplicity;
for one witness it stops once it has reached as far as that witness needs.
An A* search over simple paths, keyed by length plus moves left, then
yields the open paths shortest first, then in label order, and stops at
its limit; it never pushes a path whose last state cannot reach y.  Fixed
nodes are constants: every path through one is blocked, they open
nothing, and they are inert as conditioning variables.

The searches run on the graph's index (see ``graph``), built with the
graph: a node is its position in ``graph.nodes``, which is label order,
its neighbours are position lists, and a state is one int.  The
collider rule's An(z) is the index's own ancestor walk.  Nodes are made
only at the edges: the nodes ``d_connected`` returns and the witnesses
``open_paths`` emits.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

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


# How the ball came to a node: from a parent, from a child, or neither, at
# a path's start.  A state is 3 * position + came.
_DOWN, _UP, _START = 0, 1, 2
_ARROWS = ("->", "<-")


def _ball(graph: CausalGraph, z: frozenset[NodeId]) -> tuple:
    """The d-connection rule given ``z``, as one Bayes-ball step on the
    graph's index: the index and its two moves.

    A move is (neighbour lists, how it arrives, gate): to a child, which
    it reaches from a parent (``_DOWN``, "->"), or to a parent, which it
    reaches from a child (``_UP``, "<-").  From position p, reached as
    ``came``, the move is open when ``gate[came][p]`` is set.  A chain or
    fork node passes the ball unless it is in z; a collider passes it
    only when it or a descendant is in z; a path's start passes it.  No
    step enters a fixed node.
    """
    index = graph._index
    conditioned = [index.position[v] for v in _conditioning(z)]
    through = bytearray(b"\x01") * len(index.fixed)
    for p in conditioned:
        through[p] = 0
    collider = bytearray(len(index.fixed))
    for p in index.reach(conditioned, index.parents):
        collider[p] = 1
    start = b"\x01" * len(index.fixed)
    down, up = (through, through, start), (collider, through, start)
    return index, ((index.children, _DOWN, down), (index.parents, _UP, up))


def _reached(graph: CausalGraph, x: frozenset[NodeId], z: frozenset[NodeId]) -> Iterator[int]:
    """The position of each node the ball reaches from x given ``z``, once
    per arrow it reaches it by (so at most twice), x's nodes included when
    a path returns to them.  Every state is visited at most once, so a
    full run is linear in the graph."""
    index, moves = _ball(graph, z)
    seen: set[int] = set()
    stack = [3 * index.position[n] + _START for n in x if not n.fixed]
    while stack:
        p, came = divmod(stack.pop(), 3)
        for near, arrives, gate in moves:
            if gate[came][p]:
                for q in near[p]:
                    state = 3 * q + arrives
                    if state not in seen and not index.fixed[q]:
                        seen.add(state)
                        stack.append(state)
                        yield q


def d_connected(
    graph: CausalGraph, x: Iterable[NodeId], z: Iterable[NodeId] = frozenset()
) -> frozenset[NodeId]:
    """Every node outside x that some open path joins to x given z: the
    nodes n for which x ⊥ {n} | z fails."""
    x, z = frozenset(x), frozenset(z)
    _check_nodes(graph, x | z)
    return frozenset(map(graph.nodes.__getitem__, _reached(graph, x, z))) - x


def d_separated(graph: CausalGraph, query: DSepQuery) -> bool:
    """True when every path between x and y is blocked given z.  The walk
    stops at the first y node it reaches; x and y share no node, so its
    returns to x do not count."""
    _check_sets(graph, query)
    ends = {graph._index.position[n] for n in query.y}
    return ends.isdisjoint(_reached(graph, query.x, query.z))


def open_paths(
    graph: CausalGraph,
    query: DSepQuery,
    limit: int = 5,
) -> list[PathWitness]:
    """The open paths between x and y given z, shortest first, then in
    label order, up to ``limit``.

    An A* search (Hart, Nilsson and Raphael 1968) over simple paths.  A
    path ends at its first y node and passes through no x node.  Partial
    paths wait on a heap keyed by (length + moves left, positions, how
    each step arrived), where ``_moves_left`` gives the fewest moves from
    the path's last state to a y node; a path whose last state reaches
    none is never pushed.  Positions are in label order and unique, so
    the key orders paths as their labels do and no two entries tie on
    it.

    The output is in exact order for two reasons.  Moves left never
    overstate what a path still needs, so every prefix of a complete
    path keys at most that path's length; where it keys exactly that,
    its positions sort before those of any later path of that length.
    And the search never closes a state, so every prefix is pushed.
    Thus each prefix of an earlier path stays below any later complete
    path on the heap, complete paths leave it in output order, and the
    search stops at the ``limit``-th, and at a ``limit`` of 0 before the
    sweep, once the query is checked.
    """
    _check_sets(graph, query)
    if limit < 1:
        return []
    index, moves = _ball(graph, query.z)
    starts = {index.position[n] for n in query.x}
    ends = {index.position[n] for n in query.y}
    left = _moves_left(index, moves, starts, ends, first=limit == 1)
    heap = sorted(  # a sorted list is a heap
        (1 + left[3 * p + _START], (p,), ()) for p in starts if left[3 * p + _START] >= 0
    )
    found: list[PathWitness] = []
    while heap and len(found) < limit:
        _, path, arrived = heapq.heappop(heap)
        p = path[-1]
        if p in ends:
            found.append(_witness(graph, query.z, path, arrived))
            continue
        came = arrived[-1] if arrived else _START
        length = len(path) + 1
        for near, arrives, gate in moves:
            if gate[came][p]:
                for q in near[p]:
                    more = left[3 * q + arrives]
                    if more >= 0 and q not in path:
                        heapq.heappush(heap, (length + more, path + (q,), arrived + (arrives,)))
    return found


def _moves_left(index, moves: tuple, starts: set[int], ends: set[int], first: bool) -> list[int]:
    """Per state, the fewest Bayes-ball moves from it to a y node, -1 when
    none leads there: one breadth-first sweep back from y's nodes, which
    ignores simplicity.  It never passes through a y node or enters an x
    or fixed node, so an x node has only its start state, as in the
    search.

    With ``first`` (one witness wanted) the sweep stops once every start
    has a distance, or once the level that gave the first start its
    distance d is finished; the states it leaves unset read -1, and the
    search pops what it would pop after a full sweep.  A breadth-first
    sweep sets each state's exact distance, so every state closer to y
    than d, and every start at d, is set when it stops.  A shortest walk
    from a start to y repeats no node: at a node met twice, the first
    visit already opens the move the walk leaves by at the second, so the
    walk would shorten.  So the first witness has d moves, and the state
    after its i-th move is d - i moves from y, and set.  A state left
    unset is at least d moves from y, so every path through one is longer
    than d and would pop after that witness.
    """
    left = [-1] * (3 * len(index.fixed))
    sweep = [3 * q + a for q in ends if not index.fixed[q] for a in (_DOWN, _UP)]
    for state in sweep:
        left[state] = 0
    unset = {p for p in starts if not index.fixed[p]}
    stop = len(left)  # the level at which the sweep stops; only ``first`` lowers it
    # A state reached from a parent is one move from that parent's
    # states, and one reached from a child one move from the child's.
    back = (index.parents, index.children)
    for state in sweep:
        if left[state] >= stop or first and not unset:
            break
        q, arrived = divmod(state, 3)
        gate = moves[arrived][2]
        more = left[state] + 1
        for p in back[arrived][q]:
            down, up = 3 * p + _DOWN, 3 * p + _UP
            if left[down] >= 0 and left[up] >= 0 or index.fixed[p]:
                continue
            if p in starts:
                # A start opens every move, and no move leads into it.
                if left[3 * p + _START] < 0:
                    left[3 * p + _START] = more
                    unset.discard(p)
                    if first:
                        stop = min(stop, more)
                continue
            if left[down] < 0 and gate[_DOWN][p]:
                left[down] = more
                sweep.append(down)
            if left[up] < 0 and gate[_UP][p]:
                left[up] = more
                sweep.append(up)
    return left


def _witness(graph: CausalGraph, z: frozenset[NodeId], path: tuple, arrived: tuple) -> PathWitness:
    """An open path of positions as a witness, with the members of z that
    open its colliders, collider by collider, each in label order."""
    index = graph._index
    conditioned = {index.position[n] for n in z}
    opened: list[int] = []
    for i in range(1, len(path) - 1):
        if arrived[i - 1] == _DOWN and arrived[i] == _UP:
            # z's members among the collider and its descendants.
            opened.extend(sorted(conditioned.intersection(index.reach((path[i],), index.children))))
    node = graph.nodes.__getitem__
    arrows = tuple(_ARROWS[a] for a in arrived)
    return PathWitness(tuple(map(node, path)), arrows, tuple(map(node, dict.fromkeys(opened))))


def path_string(witness: PathWitness) -> str:
    parts = [witness.nodes[0].label]
    for arrow, node in zip(witness.arrows, witness.nodes[1:]):
        parts.append(f" {arrow} {node.label}")
    return "".join(parts)
