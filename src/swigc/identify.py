"""Mechanical identification of counterfactual means.

The derivation schema is sequential conditioning, not do-calculus.
Starting from the defining expectation, the engine (1) conditions on
the randomized treatment, (2) when held events need deconfounding,
finds a smallest set of adjustment-eligible baseline covariates to
stratify over, (3) conditions on each held event in turn, each move
licensed by a d-separation premise checked in the symbolic split graph,
and (4) closes with a consistency rewrite that strips contexts whose
assignments are all established by conditioning events.

The premises do not depend on the levels an arm assigns, so they are
found once per estimand and both arms reuse them.  With B the treatment
plus any stratum event, the chain of held-event premises holds iff the
outcome is d-separated from all held events given B and the adjustment
set Z (contraction, decomposition and weak union).  A smallest such Z is
a smallest vertex cut between the outcome and the held events in the
moral graph of their ancestors and B's, with B deleted (Tian, Paz and
Pearl 1998; van der Zander, Liśkiewicz and Textor 2019).  The moral
graph marries a child's parents through one uncuttable hub node rather
than a clique, so it stays linear in the edges.  A covariate may be cut
only when it is independent of B.  d-connection is symmetric, so one
reachability pass from B (``d_connected``) marks every covariate that is
not, in O(n + E) for n nodes and E edges.  One max-flow, by blocking
flows on BFS levels (Dinic 1970), gives its size s.  Each phase costs
O(E) and lengthens the shortest augmenting path, so there are at most
s + 1 phases, and O(√n) when no hub or uncuttable covariate is left
(Even and Tarjan 1975); adjust chains need two.  The residual graph of
that flow holds every smallest cut (Picard and Queyranne 1980), and one
closure sweep over it in label order takes each candidate that a
smallest cut holds together with the ones taken before.  Each state
joins a side of the cut at most once, so the sweep costs O(E) plus the
sweeps of the candidates it passes over; it yields the first such set in
label order, the set an exhaustive search over subsets (smallest first)
would return.

Every step records its premise, so a derivation can be re-verified
independently.  When no covariate set licenses a move, the result
carries an open backdoor path as the refutation witness; when the
consistency rewrite leaves a counterfactual conditioning event behind,
the result is only partially identified and says which event survives.
"""

from __future__ import annotations

from typing import Union

from .dsep import DSepQuery, PathWitness, d_connected, d_separated, open_paths, path_string
from .errors import OverlappingSets, SemanticError
from .estimand import CompiledEstimand, compile_study, study_swig
from .formula import (
    Difference,
    Event,
    Expect,
    Formula,
    SumOver,
    Term,
    fresh_symbol,
    render,
)
from .graph import CausalGraph, NodeId, record
from .model import StudySpec

__all__ = [
    "DerivationStep",
    "OpenBackdoor",
    "CrossWorld",
    "Identified",
    "PartiallyIdentified",
    "NotIdentifiable",
    "IdentifyResult",
    "EstimandReport",
    "identify_term",
    "identify_estimand",
    "verdict_code",
]


@record
class DerivationStep:
    """One line of a derivation; the premise, when present, is re-checkable."""

    rule: str  # definition | randomization | stratification | conditioning | consistency
    formula: Formula
    justification: str | None
    premise: DSepQuery | None = None


@record
class OpenBackdoor:
    """Refutation witness: the premise that failed and one open path."""

    premise: DSepQuery
    witness: PathWitness
    witness_label: str


@record
class CrossWorld:
    """Counterfactual leftovers that consistency could not rewrite."""

    events: tuple[Event, ...]
    term: Term | None = None


# Arm statuses from best to worst, with the exit code each one gives.
_EXIT_CODES = {"identified": 0, "partial": 4, "blocked": 5}


@record
class Identified:
    mean: Expect
    formula: Formula
    steps: tuple[DerivationStep, ...]
    status = "identified"


@record
class PartiallyIdentified:
    mean: Expect
    formula: Formula
    steps: tuple[DerivationStep, ...]
    cross_world: CrossWorld
    status = "partial"


@record
class NotIdentifiable:
    mean: Expect
    steps: tuple[DerivationStep, ...]
    blocked: OpenBackdoor
    status = "blocked"


IdentifyResult = Union[Identified, PartiallyIdentified, NotIdentifiable]


@record
class EstimandReport:
    """Identification of both arms of a study's contrast."""

    study: StudySpec
    compiled: CompiledEstimand
    left: IdentifyResult
    right: IdentifyResult

    @property
    def status(self) -> str:
        """The worse of the two arms' statuses."""
        return max(self.left.status, self.right.status, key=_EXIT_CODES.__getitem__)

    @property
    def combined(self) -> Formula | None:
        if self.status == "identified":
            return Difference(self.left.formula, self.right.formula)
        return None


def _check_term(mean: Expect, compiled: CompiledEstimand) -> None:
    if len(mean.given) > 1:
        raise SemanticError(f"term may be given at most one stratum event, not {len(mean.given)}")
    outcome, context = mean.term.var, mean.term.context
    if outcome != compiled.outcome:
        raise SemanticError(
            f"term is about {outcome}, but the study outcome is {compiled.outcome}"
        )
    if tuple(v for v, _ in context) != compiled.split_vars:
        expected = ", ".join(compiled.split_vars)
        raise SemanticError(f"term must assign exactly the intervened variables ({expected})")
    for var, val in context:
        if isinstance(val, int):
            compiled.check_level(var, val)


@record
class _Search:
    """The premises every arm of an estimand shares, found once.

    They are checked on the symbolic SWIG, so they do not depend on the
    levels an arm assigns.  ``blocked`` is the refutation every arm
    reports, built once; its premise is ``rand_q`` itself when
    randomization fails.  Otherwise ``chosen`` is the adjustment set,
    ``strat_q`` its premise, and ``conditioning`` pairs each held event
    with its premise, in order.
    """

    rand_q: DSepQuery
    blocked: OpenBackdoor | None = None
    chosen: tuple[NodeId, ...] = ()
    strat_q: DSepQuery | None = None
    conditioning: tuple[tuple[NodeId, DSepQuery], ...] = ()


def _search(compiled: CompiledEstimand, strata: tuple[Event, ...]) -> _Search:
    """Check the shared premises and find the adjustment set, if one is needed."""
    g = study_swig(compiled).graph
    outcome_node = g.random_node(compiled.outcome)
    treat_node = g.random_node(compiled.study.treatment)
    stratum_nodes = {g.random_node(e.term.var) for e in strata}
    premise_targets = {outcome_node, *stratum_nodes}
    given: set[NodeId] = {treat_node, *stratum_nodes}

    # Randomization: the defining counterfactuals are jointly independent
    # of the assigned arm, so the arm can enter the conditioning set.
    rand_q = DSepQuery(frozenset(premise_targets), frozenset({treat_node}))
    if not d_separated(g, rand_q):
        return _Search(rand_q, blocked=_refute(g, rand_q))

    held = [g.random_node(v) for v in compiled.split_vars[1:]]
    chosen: tuple[NodeId, ...] = ()
    strat_q = None
    failed = _first_failure(g, outcome_node, frozenset(given), held)
    if failed is not None:
        candidates = [  # in label order, as g.nodes is
            n
            for n in g.nodes
            if not n.fixed
            and not n.context
            and g.attrs[n].conditioned
            and n.base not in compiled.split_vars
            and n != outcome_node
        ]
        found = _smallest_adjustment(g, outcome_node, frozenset(given), held, candidates)
        if found is None:
            return _Search(rand_q, blocked=_refute(g, failed))
        chosen = found
        strat_q = DSepQuery(frozenset(chosen), frozenset(given))

    conditioning = tuple(zip(held, _chain(outcome_node, frozenset(given.union(chosen)), held)))
    return _Search(rand_q, chosen=chosen, strat_q=strat_q, conditioning=conditioning)


def _smallest_adjustment(
    graph: CausalGraph,
    outcome: NodeId,
    baseline: frozenset[NodeId],
    held: list[NodeId],
    candidates: list[NodeId],
) -> tuple[NodeId, ...] | None:
    """The smallest Z ⊆ ``candidates``, first in label order among equals,
    with Z ⊥ ``baseline`` and the held-event chain holding given
    ``baseline`` ∪ Z; None when there is none.  ``baseline`` alone fails.

    The chain holds iff outcome ⊥ held | baseline ∪ Z, and a smallest
    such Z lies in A = An({outcome} ∪ held ∪ baseline), where it is a
    smallest cut between the outcome and the held events in the moral
    graph of A without ``baseline`` (Lauritzen's criterion).
    """
    area = graph.ancestral_set({outcome, *held, *baseline})
    eligible = [c for c in candidates if c in area and c not in baseline]
    # d-connection is symmetric, so one pass from ``baseline`` finds every
    # eligible c for which {c} ⊥ ``baseline`` fails.
    connected = d_connected(graph, baseline) if eligible else frozenset()
    usable = [c for c in eligible if c not in connected]
    chosen = _first_smallest_cut(graph, area, outcome, baseline, held, usable) if usable else None

    # The answer is that of a walk over subsets in (size, labels) order
    # that tests each set against ``baseline`` first.  A candidate inside
    # ``baseline`` fails that test with OverlappingSets, first as the set
    # {clash}, so the walk raises unless its answer comes before {clash}.
    clash = next((c for c in candidates if c in baseline), None)
    if clash is not None and (
        chosen is None or (len(chosen), [c.label for c in chosen]) > (1, [clash.label])
    ):
        raise OverlappingSets(f"x and y share nodes: {clash.label}")
    if chosen is not None:
        failed = _first_failure(graph, outcome, baseline | set(chosen), held)
        if failed is not None:
            names = ", ".join(n.label for n in chosen)
            raise RuntimeError(f"adjustment set {{{names}}} fails {failed.label()}")
    return chosen


def _first_smallest_cut(
    graph: CausalGraph,
    area: frozenset[NodeId],
    outcome: NodeId,
    baseline: frozenset[NodeId],
    held: list[NodeId],
    usable: list[NodeId],
) -> tuple[NodeId, ...] | None:
    """The first smallest set of ``usable`` nodes, in label order, that cuts
    the outcome from the held events in the moral graph of ``area``
    (fixed and ``baseline`` nodes deleted); None when no such cut exists.

    The moral graph's nodes are the graph's positions, so its label order
    is its number order; the positions it deletes stay, without edges.
    """
    index = graph._index
    at = index.position
    kept = {at[v] for v in area if not v.fixed and v not in baseline}
    adj: list[set[int]] = [set() for _ in graph.nodes]
    # Moralize with one uncuttable hub per child of two or more parents
    # instead of a clique: a path through the hub is a path through a
    # married edge, so every cut that avoids hubs stays a cut.
    for v in map(at.__getitem__, area):
        parents = [p for p in index.parents[v] if p in kept]
        if v in kept:
            for p in parents:
                adj[p].add(v)
                adj[v].add(p)
        if len(parents) > 1:
            adj.append(set(parents))
            for p in parents:
                adj[p].add(len(adj) - 1)

    # Forcing a candidate into the cut only deletes it: it is in ``area``,
    # so the ancestral set, and with it the moral graph, stays the same.
    order = _greedy_cut(adj, at[outcome], {at[h] for h in held}, [at[c] for c in usable])
    return None if order is None else tuple(map(graph.nodes.__getitem__, order))


def _greedy_cut(
    adj: list[set[int]], source: int, sinks: set[int], order: list[int]
) -> list[int] | None:
    """The first smallest set of ``order``'s nodes, in that order, whose
    removal cuts ``source`` from every sink; None when no such set exists.

    One maximum flow gives the size s.  Its residual graph holds every
    smallest cut: they are the residual-closed state sets that hold the
    source and not the sink (Picard and Queyranne 1980).  ``side`` marks
    the states every smallest cut with the picks so far puts on the
    source side (1): what the source and the picked entries reach; and on
    the sink side (-1): what reaches the sink or a picked exit.  A
    candidate is taken when the states its entry reaches meet neither the
    sink side nor its own exit, so that a smallest cut holds it with the
    earlier picks; those states then join the source side, and the states
    that reach its exit join the sink side.  So one closure sweep in
    ``order`` moves each state to a side at most once; only a candidate
    that is passed over pays for a sweep that is then discarded.
    """
    residual = _Residual(adj, source, sinks, set(order), len(order) + 1)
    size = residual.augment()
    if size > len(order):
        return None
    side = [0] * len(residual.arcs)
    for state in residual.reached_from(residual.source, side, residual.sink):
        side[state] = 1
    for state in residual.reaching(residual.sink, side):
        side[state] = -1
    picked: list[int] = []
    for c in order:
        if len(picked) == size:
            break
        entry, exit_ = 2 * c, 2 * c + 1
        if side[exit_] == 1 or side[entry] == -1:
            continue
        grown = residual.reached_from(entry, side, exit_)
        if grown is None:
            continue
        for state in grown:
            side[state] = 1
        for state in residual.reaching(exit_, side):
            side[state] = -1
        picked.append(c)
    return picked


class _Residual:
    """A node-capacitated flow from ``source`` to ``sinks``, kept as one
    residual map that is updated in place.

    Node v is split into an entry state 2v and an exit state 2v + 1,
    joined by an arc of one unit when v is cuttable and ``cap`` units
    otherwise; each edge v-w gives arcs of ``cap`` units from either
    node's exit to the other's entry.  Every sink's entry feeds one
    collecting state, through which a rerouted unit may trade one sink
    for another.  ``arcs[a][b]`` is what a -> b can still take: the
    spare units of an arc a -> b, or the units that an arc b -> a
    carries and may give back.  No two states have arcs both ways, so
    each entry means one thing.
    """

    def __init__(
        self, adj: list[set[int]], source: int, sinks: set[int], cuttable: set[int], cap: int
    ) -> None:
        self.cap = cap
        self.value = 0
        self.source = 2 * source + 1
        self.sink = 2 * len(adj)
        self.arcs: list[dict[int, int]] = [{} for _ in range(self.sink + 1)]
        for v, near in enumerate(adj):
            if v in sinks:
                self._arc(2 * v, self.sink, cap)
                continue
            self._arc(2 * v, 2 * v + 1, 1 if v in cuttable else cap)
            for w in near:
                self._arc(2 * v + 1, 2 * w, cap)
        self.heads = [list(out) for out in self.arcs]

    def _arc(self, a: int, b: int, units: int) -> None:
        self.arcs[a][b] = units
        self.arcs[b][a] = 0

    def augment(self) -> int:
        """Push blocking flows on BFS levels (Dinic 1970) until no unit is
        left or ``cap`` have gone through; the value.  A phase is one BFS
        that stops at the sink's level and one DFS that moves a cursor per
        state past each arc once; a dead end leaves the levels, and a path
        found keeps its prefix up to its first arc that filled up."""
        arcs, heads, source, sink = self.arcs, self.heads, self.source, self.sink
        while self.value < self.cap:
            level = self._levels()
            if level[sink] < 0:
                break
            cursor = [0] * len(arcs)
            path = [source]
            while path:
                a = path[-1]
                if a == sink:
                    cut = len(path)
                    for i in range(len(path) - 2, -1, -1):
                        x, y = path[i], path[i + 1]
                        arcs[x][y] -= 1
                        arcs[y][x] += 1
                        if not arcs[x][y]:
                            cut = i + 1
                    self.value += 1
                    if self.value == self.cap:
                        break
                    del path[cut:]
                    continue
                out, ahead, deeper = arcs[a], heads[a], level[a] + 1
                i = cursor[a]
                while i < len(ahead) and not (out[ahead[i]] and level[ahead[i]] == deeper):
                    i += 1
                cursor[a] = i
                if i < len(ahead):
                    path.append(ahead[i])
                else:
                    level[a] = -1  # a dead end for the rest of the phase
                    path.pop()
        return self.value

    def _levels(self) -> list[int]:
        """Each state's residual distance from the source, found breadth
        first up to the sink's; -1 where it is not reached by then."""
        arcs, sink = self.arcs, self.sink
        level = [-1] * len(arcs)
        level[self.source] = 0
        frontier = [self.source]
        while frontier and level[sink] < 0:
            reached = []
            for a in frontier:
                deeper = level[a] + 1
                for b, units in arcs[a].items():
                    if units and level[b] < 0:
                        level[b] = deeper
                        reached.append(b)
            frontier = reached
        return level

    def reached_from(self, start: int, side: list[int], goal: int) -> list[int] | None:
        """The states ``start`` reaches along residual arcs without entering
        the source side (``side`` 1), ``start`` first; None when they
        include ``goal`` or a state on the sink side (``side`` -1)."""
        if side[start] == 1:
            return []
        arcs = self.arcs
        seen = [start]
        found = {start}
        for a in seen:
            for b, units in arcs[a].items():
                if units and b not in found and side[b] != 1:
                    if b == goal or side[b] == -1:
                        return None
                    found.add(b)
                    seen.append(b)
        return seen

    def reaching(self, goal: int, side: list[int]) -> list[int]:
        """The states that reach ``goal`` along residual arcs without
        entering the sink side (``side`` -1)."""
        if side[goal] == -1:
            return []
        arcs = self.arcs
        seen = [goal]
        found = {goal}
        for b in seen:
            for a in arcs[b]:
                if a not in found and side[a] != -1 and arcs[a][b]:
                    found.add(a)
                    seen.append(a)
        return seen


def identify_term(
    study: StudySpec,
    mean: Expect,
    compiled: CompiledEstimand | None = None,
) -> IdentifyResult:
    """Derive an observational formula for one counterfactual mean,
    such as E[Y(a=1)|M(a=1)=0]: the outcome under every intervened
    variable, given at most one stratum event."""
    if compiled is None:
        compiled = compile_study(study)
    _check_term(mean, compiled)
    return _derive(study, mean, _search(compiled, mean.given))


def _derive(study: StudySpec, mean: Expect, search: _Search) -> IdentifyResult:
    """One arm's derivation from the premises its estimand shares."""
    value_of = dict(mean.term.context)
    taken = {str(v) for v in value_of.values() if isinstance(v, str)}

    term, events = mean.term, list(mean.given)
    bindings: tuple[tuple[str, str], ...] = ()

    def formula_now() -> Formula:
        inner = Expect(term, tuple(events))
        return SumOver(bindings, inner) if bindings else inner

    steps: list[DerivationStep] = [DerivationStep("definition", mean, None)]
    if search.blocked is not None and search.blocked.premise == search.rand_q:
        return NotIdentifiable(mean, tuple(steps), search.blocked)
    events.append(Event(Term(study.treatment), value_of[study.treatment]))
    steps.append(DerivationStep("randomization", formula_now(), "randomization", search.rand_q))
    if search.blocked is not None:
        return NotIdentifiable(mean, tuple(steps), search.blocked)

    if search.chosen:
        pairs = []
        for n in search.chosen:
            sym = fresh_symbol(n.base.lower(), taken)
            taken.add(sym)
            pairs.append((n.base, sym))
            events.append(Event(Term(n.base), sym))
        bindings = tuple(pairs)
        names = ", ".join(n.base for n in search.chosen)
        steps.append(
            DerivationStep(
                "stratification", formula_now(), f"stratification over {{{names}}}", search.strat_q
            )
        )

    for node, q in search.conditioning:
        instantiated = tuple((var, value_of[var]) for var, _ in node.context)
        events.append(Event(Term(node.base, instantiated), value_of[node.base]))
        steps.append(DerivationStep("conditioning", formula_now(), q.label(), q))

    # Consistency: a context assignment already present as a plain
    # conditioning event lets the counterfactual drop its context.
    established = {(e.term.var, e.value) for e in events if not e.term.context}
    while True:
        grown = False
        for e in events:
            if e.term.context and set(e.term.context) <= established:
                pair = (e.term.var, e.value)
                if pair not in established:
                    established.add(pair)
                    grown = True
        if not grown:
            break

    def settle(t: Term) -> Term:
        if t.context and set(t.context) <= established:
            return Term(t.var)
        return t

    new_events = [Event(settle(e.term), e.value) for e in events]
    new_term = settle(term)
    if new_events != events or new_term != term:
        events = new_events
        term = new_term
        steps.append(DerivationStep("consistency", formula_now(), "consistency"))

    final = formula_now()
    leftovers = tuple(e for e in events if e.term.context)
    if not term.context and not leftovers:  # the formula's terms are all observed
        return Identified(mean, final, tuple(steps))
    cross = CrossWorld(events=leftovers, term=term if term.context else None)
    return PartiallyIdentified(mean, final, tuple(steps), cross)


def _chain(outcome: NodeId, base: frozenset[NodeId], held: list[NodeId]) -> list[DSepQuery]:
    """The held-event premises in order: the outcome is independent of each
    held event given ``base`` and the held events before it."""
    return [
        DSepQuery(frozenset({outcome}), frozenset({node}), base.union(held[:i]))
        for i, node in enumerate(held)
    ]


def _first_failure(
    graph: CausalGraph, outcome: NodeId, base: frozenset[NodeId], held: list[NodeId]
) -> DSepQuery | None:
    """The first premise of the held-event conditioning chain that fails, if any."""
    return next((q for q in _chain(outcome, base, held) if not d_separated(graph, q)), None)


def _refute(graph: CausalGraph, premise: DSepQuery) -> OpenBackdoor:
    witness_q = DSepQuery(premise.y, premise.x, premise.z)
    witness = open_paths(graph, witness_q, limit=1)[0]
    return OpenBackdoor(premise=premise, witness=witness, witness_label=path_string(witness))


def identify_estimand(
    study: StudySpec, compiled: CompiledEstimand | None = None
) -> EstimandReport:
    if compiled is None:
        compiled = compile_study(study)
    left, right = compiled.contrast.left, compiled.contrast.right
    _check_term(left, compiled)
    _check_term(right, compiled)
    search = _search(compiled, left.given)
    left = _derive(study, left, search)
    right = _derive(study, right, search)
    return EstimandReport(study=study, compiled=compiled, left=left, right=right)


def arm_payload(result: IdentifyResult) -> dict:
    """One arm's ``identify --json`` object: its term, status and steps,
    then its formula, or the blocked premise and witness path when it is
    refuted, and the surviving events when it is only partially identified."""
    payload: dict = {
        "term": render(result.mean),
        "status": result.status,
        "steps": [
            {
                "rule": s.rule,
                "formula": render(s.formula),
                "justification": s.justification,
                "premise": s.premise.label() if s.premise is not None else None,
            }
            for s in result.steps
        ],
    }
    if isinstance(result, NotIdentifiable):
        payload["blocked"] = {
            "premise": result.blocked.premise.label(),
            "path": result.blocked.witness_label,
        }
    else:
        payload["formula"] = render(result.formula)
    if isinstance(result, PartiallyIdentified):
        payload["cross_world"] = [e.label for e in result.cross_world.events]
    return payload


def trace_lines(arm: dict) -> list[str]:
    """An arm's payload (see ``arm_payload``) as fixed-width text lines, one
    step per line, then the refutation or the surviving cross-world term."""
    width = max((len(s["formula"]) for s in arm["steps"] if s["justification"]), default=0)
    lines = []
    for s in arm["steps"]:
        if s["justification"]:
            lines.append(s["formula"].ljust(width) + f"  ({s['justification']})")
        else:
            lines.append(s["formula"])
    if "blocked" in arm:
        lines.append(f"BLOCKED: open backdoor path {arm['blocked']['path']}")
    elif "cross_world" in arm:
        lines.append(f"REMAINING CROSS-WORLD TERM: {arm['formula']}")
    return lines


def verdict_code(report: EstimandReport) -> int:
    """0 both arms identified, 4 a cross-world term survives, 5 refuted."""
    return _EXIT_CODES[report.status]
