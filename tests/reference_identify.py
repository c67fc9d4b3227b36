"""The exhaustive adjustment search, kept as the reference for the min-cut one.

``subset_identify_term`` derives one arm by brute force: it rebuilds the
SWIG for every arm and walks every subset of the adjust-eligible
candidates, smallest first and in label order within a size, making
2^(k+2) d-separation queries for k candidates.  The property tests
require the engine to return exactly what it returns, or raise the same
exception type.
"""

from __future__ import annotations

from itertools import combinations

from swigc.dsep import DSepQuery, d_separated
from swigc.errors import SemanticError
from swigc.estimand import CompiledEstimand, compile_study, study_swig
from swigc.formula import Event, Expect, Formula, SumOver, Term, fresh_symbol, is_identified
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
from swigc.model import CounterfactualMean, StudySpec


def subset_identify_term(
    study: StudySpec,
    mean: CounterfactualMean,
    compiled: CompiledEstimand | None = None,
) -> IdentifyResult:
    """Reference for :func:`swigc.identify.identify_term`."""
    if compiled is None:
        compiled = compile_study(study)
    if mean.outcome != compiled.outcome:
        raise SemanticError(
            f"term is about {mean.outcome}, but the study outcome is {compiled.outcome}"
        )
    if tuple(v for v, _ in mean.context) != compiled.split_vars:
        expected = ", ".join(compiled.split_vars)
        raise SemanticError(f"term must assign exactly the intervened variables ({expected})")
    for var, val in mean.context:
        declared = compiled.graph.attr(compiled.graph.node(var)).values
        if isinstance(val, int) and val not in declared:
            raise SemanticError(f"level {val} is outside declared values of {var}")

    sw = study_swig(compiled)
    g = sw.graph
    value_of = dict(mean.context)
    outcome_node = g.random_node(compiled.outcome)
    treat_node = g.random_node(study.treatment)
    taken = {str(v) for v in value_of.values() if isinstance(v, str)}

    term = Term(compiled.outcome, mean.context)
    events: list[Event] = []
    premise_targets = {outcome_node}
    if mean.stratum is not None:
        events.append(Event(Term(mean.stratum.var, mean.stratum.context), mean.stratum.value))
        premise_targets.add(g.random_node(mean.stratum.var))
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
    if mean.stratum is not None:
        given.add(g.random_node(mean.stratum.var))

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
    if is_identified(final):
        return Identified(mean, final, tuple(steps))
    leftovers = tuple(e for e in events if e.term.context)
    cross = CrossWorld(events=leftovers, term=term if term.context else None)
    return PartiallyIdentified(mean, final, tuple(steps), cross)
