"""Mechanical identification of counterfactual means.

The derivation schema is sequential conditioning, not do-calculus.
Starting from the defining expectation, the engine (1) conditions on
the randomized treatment, (2) when held events need deconfounding,
searches for a smallest set of adjustment-eligible baseline covariates
to stratify over, (3) conditions on each held event in turn, each move
licensed by a d-separation premise checked in the symbolic split graph,
and (4) closes with a consistency rewrite that strips contexts whose
assignments are all established by conditioning events.

Every step records its premise, so a derivation can be re-verified
independently.  When no covariate set licenses a move, the result
carries an open backdoor path as the refutation witness; when the
consistency rewrite leaves a counterfactual conditioning event behind,
the result is only partially identified and says which event survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Union

from .dsep import DSepQuery, PathWitness, d_separated, open_paths, path_string
from .errors import SemanticError
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
from .graph import NodeId
from .model import CounterfactualMean, StudySpec

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
    mean: CounterfactualMean
    formula: Formula
    steps: tuple[DerivationStep, ...]
    status = "identified"


@dataclass(frozen=True)
class PartiallyIdentified:
    mean: CounterfactualMean
    formula: Formula
    steps: tuple[DerivationStep, ...]
    cross_world: CrossWorld
    status = "partial"


@dataclass(frozen=True)
class NotIdentifiable:
    mean: CounterfactualMean
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


def identify_term(
    study: StudySpec,
    mean: CounterfactualMean,
    compiled: CompiledEstimand | None = None,
) -> IdentifyResult:
    """Derive an observational formula for one counterfactual mean."""
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


def _first_failure(
    graph, outcome: NodeId, base: frozenset[NodeId], held: list[NodeId]
) -> DSepQuery | None:
    """The first premise of the held-event conditioning chain that fails, if any."""
    z = set(base)
    for node in held:
        q = DSepQuery(frozenset({outcome}), frozenset({node}), frozenset(z))
        if not d_separated(graph, q):
            return q
        z.add(node)
    return None


def _refute(graph, premise: DSepQuery) -> OpenBackdoor:
    witness_q = DSepQuery(premise.y, premise.x, premise.z)
    witness = open_paths(graph, witness_q, limit=1)[0]
    return OpenBackdoor(premise=premise, witness=witness, witness_label=path_string(witness))


def identify_estimand(
    study: StudySpec, compiled: CompiledEstimand | None = None
) -> EstimandReport:
    if compiled is None:
        compiled = compile_study(study)
    left = identify_term(study, compiled.contrast.left, compiled)
    right = identify_term(study, compiled.contrast.right, compiled)
    return EstimandReport(study=study, compiled=compiled, left=left, right=right)


def render_trace(result: IdentifyResult) -> list[str]:
    """The derivation as fixed-width text lines, one step per line."""
    justified = [s for s in result.steps if s.justification]
    width = max((len(render(s.formula)) for s in justified), default=0)
    lines = []
    for s in result.steps:
        text = render(s.formula)
        if s.justification:
            lines.append(text.ljust(width) + f"  ({s.justification})")
        else:
            lines.append(text)
    if isinstance(result, NotIdentifiable):
        lines.append(f"BLOCKED: open backdoor path {result.blocked.witness_label}")
    elif isinstance(result, PartiallyIdentified):
        lines.append(f"REMAINING CROSS-WORLD TERM: {render(result.formula)}")
    return lines


def verdict_code(report: EstimandReport) -> int:
    """0 both arms identified, 4 a cross-world term survives, 5 refuted."""
    return _EXIT_CODES[report.status]
