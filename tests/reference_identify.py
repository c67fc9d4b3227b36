"""The exhaustive adjustment search, kept as the reference for the min-cut one.

``subset_identify_term`` derives one arm by brute force: it rebuilds the
SWIG for every arm and walks every subset of the adjust-eligible
candidates, smallest first and in label order within a size, making
2^(k+2) d-separation queries for k candidates.  The property tests
require the engine to return exactly what it returns, or raise the same
exception type.

``_greedy_cut`` and ``_Residual`` are the min-cut search as it first
stood: one shortest augmenting path per unit of flow (Edmonds and Karp
1972), then for each candidate that carries a unit a search for a
residual path around it and, when there is none, two walks that cancel
its unit.  The property tests require the engine's blocking flow and
closure sweep to return the same flow values and picks.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from swigc.dsep import DSepQuery, d_separated
from swigc.errors import SemanticError
from swigc.estimand import CompiledEstimand, compile_study, study_swig
from swigc.formula import Event, Expect, Formula, SumOver, Term, fresh_symbol, terms
from swigc.graph import NodeId
from swigc.identify import (
    CrossWorld,
    DerivationStep,
    Identified,
    IdentifyResult,
    NotIdentifiable,
    PartiallyIdentified,
    _first_failure,
    _refute,
)
from swigc.model import StudySpec


def subset_identify_term(
    study: StudySpec,
    mean: Expect,
    compiled: CompiledEstimand | None = None,
) -> IdentifyResult:
    """Reference for :func:`swigc.identify.identify_term`."""
    if compiled is None:
        compiled = compile_study(study)
    context = mean.term.context
    stratum = mean.given[0] if mean.given else None
    if mean.term.var != compiled.outcome:
        raise SemanticError(
            f"term is about {mean.term.var}, but the study outcome is {compiled.outcome}"
        )
    if tuple(v for v, _ in context) != compiled.split_vars:
        expected = ", ".join(compiled.split_vars)
        raise SemanticError(f"term must assign exactly the intervened variables ({expected})")
    for var, val in context:
        declared = compiled.graph.attr(compiled.graph.node(var)).values
        if isinstance(val, int) and val not in declared:
            raise SemanticError(f"level {val} is outside declared values of {var}")

    sw = study_swig(compiled)
    g = sw.graph
    value_of = dict(context)
    outcome_node = g.random_node(compiled.outcome)
    treat_node = g.random_node(study.treatment)
    taken = {str(v) for v in value_of.values() if isinstance(v, str)}

    term = Term(compiled.outcome, context)
    events: list[Event] = []
    premise_targets = {outcome_node}
    if stratum is not None:
        events.append(stratum)
        premise_targets.add(g.random_node(stratum.term.var))
    bindings: tuple[tuple[str, str], ...] = ()

    def formula_now() -> Formula:
        inner = Expect(term, tuple(events))
        return SumOver(bindings, inner) if bindings else inner

    steps: list[DerivationStep] = [DerivationStep("definition", formula_now(), None)]

    # Randomization: the defining counterfactuals are jointly independent
    # of the assigned arm, so the arm can enter the conditioning set.
    rand_q = DSepQuery(frozenset(premise_targets), frozenset({treat_node}))
    if not d_separated(g, rand_q):
        return NotIdentifiable(mean, tuple(steps), _refute(g, rand_q))
    events.append(Event(Term(study.treatment), value_of[study.treatment]))
    steps.append(DerivationStep("randomization", formula_now(), "randomization", rand_q))

    given: set[NodeId] = {treat_node}
    if stratum is not None:
        given.add(g.random_node(stratum.term.var))

    held = [g.random_node(v) for v in compiled.split_vars[1:]]
    if held:
        baseline = frozenset(given)
        candidates = sorted(
            (
                n
                for n in g.nodes
                if not n.fixed
                and not n.context
                and g.attrs[n].conditioned
                and n.base not in compiled.split_vars
            ),
            key=lambda n: n.label,
        )
        chosen: tuple[NodeId, ...] | None = None
        strat_q: DSepQuery | None = None
        for size in range(len(candidates) + 1):
            for combo in combinations(candidates, size):
                if combo:
                    q = DSepQuery(frozenset(combo), frozenset(given))
                    if not d_separated(g, q):
                        continue
                else:
                    q = None
                if _first_failure(g, outcome_node, baseline | frozenset(combo), held) is None:
                    chosen, strat_q = combo, q
                    break
            if chosen is not None:
                break
        if chosen is None:
            failed = _first_failure(g, outcome_node, baseline, held)
            return NotIdentifiable(mean, tuple(steps), _refute(g, failed))

        if chosen:
            pairs = []
            for n in chosen:
                sym = fresh_symbol(n.base.lower(), taken)
                taken.add(sym)
                pairs.append((n.base, sym))
                events.append(Event(Term(n.base), sym))
            bindings = tuple(pairs)
            names = ", ".join(n.base for n in chosen)
            steps.append(
                DerivationStep(
                    "stratification", formula_now(), f"stratification over {{{names}}}", strat_q
                )
            )
            given |= set(chosen)

        for node in held:
            q = DSepQuery(frozenset({outcome_node}), frozenset({node}), frozenset(given))
            instantiated = tuple((var, value_of[var]) for var, _ in node.context)
            events.append(Event(Term(node.base, instantiated), value_of[node.base]))
            steps.append(DerivationStep("conditioning", formula_now(), q.label(), q))
            given.add(node)

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
    if not any(t.context for t in terms(final)):
        return Identified(mean, final, tuple(steps))
    leftovers = tuple(e for e in events if e.term.context)
    cross = CrossWorld(events=leftovers, term=term if term.context else None)
    return PartiallyIdentified(mean, final, tuple(steps), cross)


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
