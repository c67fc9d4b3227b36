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
not, in O(n + E) for n nodes and E edges.  One max-flow, by shortest
augmenting paths over one residual map (Edmonds and Karp 1972), gives
its size s.  A greedy pass in label order then updates that map in
place: a candidate is taken when no residual path leads around it, so
that it lies on a smallest cut (Picard and Queyranne 1980), and its unit
is cancelled.  That is one flow, then at most three residual searches
per candidate, O((s + k)·E) for k candidates after the O(n + E) filter;
it yields the first such set in label order, the set an
exhaustive search over subsets (smallest first) would return.

Every step records its premise, so a derivation can be re-verified
independently.  When no covariate set licenses a move, the result
carries an open backdoor path as the refutation witness; when the
consistency rewrite leaves a counterfactual conditioning event behind,
the result is only partially identified and says which event survives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    is_identified,
    render,
)
from .graph import CausalGraph, NodeId
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
    "render_trace",
    "verdict_code",
]


@dataclass(frozen=True)
class DerivationStep:
    """One line of a derivation; the premise, when present, is re-checkable."""

    rule: str  # definition | randomization | stratification | conditioning | consistency
    formula: Formula
    justification: str | None
    premise: DSepQuery | None = None


@dataclass(frozen=True)
class OpenBackdoor:
    """Refutation witness: the premise that failed and one open path."""

    premise: DSepQuery
    witness: PathWitness
    witness_label: str


@dataclass(frozen=True)
class CrossWorld:
    """Counterfactual leftovers that consistency could not rewrite."""

    events: tuple[Event, ...]
    term: Term | None = None


# Arm statuses from best to worst, with the exit code each one gives.
_EXIT_CODES = {"identified": 0, "partial": 4, "blocked": 5}


@dataclass(frozen=True)
class Identified:
    mean: Expect
    formula: Formula
    steps: tuple[DerivationStep, ...]
    status = "identified"


@dataclass(frozen=True)
class PartiallyIdentified:
    mean: Expect
    formula: Formula
    steps: tuple[DerivationStep, ...]
    cross_world: CrossWorld
    status = "partial"


@dataclass(frozen=True)
class NotIdentifiable:
    mean: Expect
    steps: tuple[DerivationStep, ...]
    blocked: OpenBackdoor
    status = "blocked"


IdentifyResult = Union[Identified, PartiallyIdentified, NotIdentifiable]


@dataclass(frozen=True)
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
        declared = compiled.graph.attr(compiled.graph.node(var)).values
        if isinstance(val, int) and val not in declared:
            raise SemanticError(f"level {val} is outside declared values of {var}")


@dataclass(frozen=True)
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
        candidates = sorted(
            (
                n
                for n in g.nodes
                if not n.fixed
                and not n.context
                and g.attrs[n].conditioned
                and n.base not in compiled.split_vars
                and n != outcome_node
            ),
            key=lambda n: n.label,
        )
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
    """
    nodes = sorted((n for n in area if not n.fixed and n not in baseline), key=lambda n: n.label)
    index = {n: i for i, n in enumerate(nodes)}
    adj: list[set[int]] = [set() for _ in nodes]
    # Moralize with one uncuttable hub per child of two or more parents
    # instead of a clique: a path through the hub is a path through a
    # married edge, so every cut that avoids hubs stays a cut.
    for v in area:
        parents = [index[p] for p in graph.parents(v) if p in index]
        if v in index:
            for p in parents:
                adj[p].add(index[v])
                adj[index[v]].add(p)
        if len(parents) > 1:
            adj.append(set(parents))
            for p in parents:
                adj[p].add(len(adj) - 1)

    # Forcing a candidate into the cut only deletes it: it is in ``area``,
    # so the ancestral set, and with it the moral graph, stays the same.
    order = _greedy_cut(adj, index[outcome], {index[h] for h in held}, [index[c] for c in usable])
    return None if order is None else tuple(nodes[i] for i in order)


def _greedy_cut(
    adj: list[set[int]], source: int, sinks: set[int], order: list[int]
) -> list[int] | None:
    """The first smallest set of ``order``'s nodes, in that order, whose
    removal cuts ``source`` from every sink; None when no such set exists.

    One maximum flow gives the size.  Then each candidate in turn is
    taken when it lies on a smallest cut of the network without the nodes
    picked so far, in which the flow stays maximum.  A candidate passed
    over lies on no smallest cut then, and so on none later: every later
    smallest cut is one of the earlier ones less the nodes picked since.
    """
    residual = _Residual(adj, source, sinks, set(order), len(order) + 1)
    if residual.augment() > len(order):
        return None
    picked: list[int] = []
    for c in order:
        if not residual.value:
            break
        if not residual.bypass(c):
            residual.remove(c)
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
    for another.  ``spare[a][b]`` is what the arc a -> b can still take
    and ``flow[b][a]`` what it carries.
    """

    def __init__(
        self, adj: list[set[int]], source: int, sinks: set[int], cuttable: set[int], cap: int
    ) -> None:
        self.cap = cap
        self.value = 0
        self.source = 2 * source + 1
        self.sink = 2 * len(adj)
        self.spare: list[dict[int, int]] = [{} for _ in range(self.sink + 1)]
        self.flow: list[dict[int, int]] = [{} for _ in range(self.sink + 1)]
        for v, near in enumerate(adj):
            if v in sinks:
                self._arc(2 * v, self.sink, cap)
                continue
            self._arc(2 * v, 2 * v + 1, 1 if v in cuttable else cap)
            for w in near:
                self._arc(2 * v + 1, 2 * w, cap)

    def _arc(self, a: int, b: int, units: int) -> None:
        self.spare[a][b] = units
        self.flow[b][a] = 0

    def augment(self) -> int:
        """Push units along shortest augmenting paths (Edmonds and Karp
        1972) until none is left or ``cap`` have gone through; the value."""
        while self.value < self.cap:
            path = self._search(self.source, self.sink, (self.spare, self.flow))
            if path is None:
                break
            self._push(path)
            self.value += 1
        return self.value

    def bypass(self, v: int) -> bool:
        """Move v's unit, if it carries one, onto a residual path from v's
        entry to its exit; False when there is none, that is, when v lies
        on a smallest cut (Picard and Queyranne 1980)."""
        entry, exit_ = 2 * v, 2 * v + 1
        if not self.flow[exit_][entry]:
            return True
        around = self._search(entry, exit_, (self.spare, self.flow))
        if around is None:
            return False
        self._push([*around, entry])
        return True

    def remove(self, v: int) -> None:
        """Cancel the unit of a node that ``bypass`` could not move, back
        to the source and on to the sinks, and close the node."""
        entry, exit_ = 2 * v, 2 * v + 1
        # Both walks follow carrying arcs backwards: from the entry to the
        # source, and from the collecting state to the exit.
        back = self._search(entry, self.source, (self.flow,))
        ahead = self._search(self.sink, exit_, (self.flow,))
        assert back is not None and ahead is not None
        self._push(ahead + back)
        self.spare[entry][exit_] = 0
        self.value -= 1

    def _search(
        self, start: int, goal: int, arcs: tuple[list[dict[int, int]], ...]
    ) -> list[int] | None:
        """The states of a shortest path from ``start`` to ``goal`` along
        positive entries of ``arcs``, found breadth first; None when there
        is none."""
        back = {start: start}
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for units_to in arcs:
                for nxt, units in units_to[state].items():
                    if units and nxt not in back:
                        back[nxt] = state
                        if nxt == goal:
                            path = [goal]
                            while path[-1] != start:
                                path.append(back[path[-1]])
                            return path[::-1]
                        queue.append(nxt)
        return None

    def _push(self, path: list[int]) -> None:
        """Send one unit along a residual path: a forward arc takes it, the
        reverse of a carrying arc gives one back."""
        for a, b in zip(path, path[1:]):
            if self.spare[a].get(b):
                self.spare[a][b] -= 1
                self.flow[b][a] += 1
            else:
                self.flow[a][b] -= 1
                self.spare[b][a] += 1


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
    if is_identified(final):
        return Identified(mean, final, tuple(steps))
    leftovers = tuple(e for e in events if e.term.context)
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


def render_trace(result: IdentifyResult) -> list[str]:
    """The derivation as fixed-width text lines, one step per line; the
    CLI formats the same payload with the same ``trace_lines``."""
    return trace_lines(arm_payload(result))


def verdict_code(report: EstimandReport) -> int:
    """0 both arms identified, 4 a cross-world term survives, 5 refuted."""
    return _EXIT_CODES[report.status]
