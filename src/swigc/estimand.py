"""Compile a study's strategies into a formal estimand.

The output of compilation is (1) a possibly extended graph, when a
composite strategy introduces a derived endpoint, (2) the ordered set
of variables the study graph must be split at, treatment first, and
(3) the estimand as a formula: a ``formula.Difference`` of the two
arms' ``formula.Expect`` means, each given the principal-stratum
membership event when there is one.  Identification starts from that
same formula, so the estimand and its derivation share one vocabulary.
"""

from __future__ import annotations

from .errors import CompositeNonBinary, SemanticError
from .graph import CausalGraph, CompositeRule, Context, NodeAttrs, NodeId, _ordered, record
from .formula import Difference, Event, Expect, Term, fresh_symbol
from .model import Composite, Hypothetical, PrincipalStratum, StudySpec, TreatmentPolicy
from .swig import SWIG, split

__all__ = ["CompiledEstimand", "compile_study", "study_swig"]


@record
class CompiledEstimand:
    """A study after strategy compilation.

    ``split_vars`` holds the treatment first, then every hypothetically
    held event in name order; ``split_levels`` carries the level each
    held event is set to in the estimand.  ``stratum`` is the
    principal-stratum event, such as M(a=1)=0, that both means of
    ``contrast`` are given.
    """

    study: StudySpec
    graph: CausalGraph
    outcome: str
    split_vars: tuple[str, ...]
    split_levels: dict[str, int]
    stratum: Event | None
    contrast: Difference

    def arm_context(self, arm: int) -> Context:
        """Intervention assignments defining one arm's potential outcome."""
        entries: list[tuple[str, int]] = [(self.study.treatment, arm)]
        entries.extend((v, self.split_levels[v]) for v in self.split_vars[1:])
        return tuple(entries)

    def worlds(self) -> tuple[Context, ...]:
        """The worlds the oracle enumerates: each arm's, then the stratum's."""
        arms = (self.contrast.left.term.context, self.contrast.right.term.context)
        return arms if self.stratum is None else arms + (self.stratum.term.context,)

    def stratum_box(self, arm: int) -> dict[str, int]:
        """The stratum event to box in a drawing of the world where the
        treatment is ``arm``: ``{event: level}`` when the principal stratum
        is defined in that world, else ``{}``."""
        s = self.stratum
        if s is None or s.term.context != ((self.study.treatment, arm),):
            return {}
        return {s.term.var: s.value}

    def check_level(self, var: str, level: int) -> None:
        """Refuse a level that ``var`` does not declare."""
        if level not in self.graph.attr(self.graph.node(var)).values:
            raise SemanticError(f"level {level} is outside declared values of {var}")

    def symbolic_context(self) -> Context:
        """The same variables held at symbolic levels, for generic derivations."""
        return tuple((v, v.lower()) for v in self.split_vars)


def _fold_composite(
    graph: CausalGraph, outcome: str, event: str, strat: Composite
) -> tuple[CausalGraph, str]:
    event_values = graph.attr(graph.node(event)).values
    if set(event_values) != {0, 1}:
        raise CompositeNonBinary(
            f"composite strategy needs a binary event, but {event} takes {sorted(event_values)}"
        )
    outcome_values = graph.attr(graph.node(outcome)).values
    if strat.failure not in outcome_values:
        raise CompositeNonBinary(
            f"composite failure value {strat.failure} is outside the declared"
            f" values of {outcome}: {sorted(outcome_values)}"
        )
    name = fresh_symbol("U", {n.label for n in graph.nodes})
    rule = CompositeRule(source=outcome, guard=event, failure=strat.failure)
    attrs = NodeAttrs(
        role="derived",
        observed=True,
        deterministic=rule,
        values=tuple(sorted(set(outcome_values) | {strat.failure})),
    )
    # The new node is a sink with a fresh name and valid attributes, so the
    # graph is built from checked parts, and a sink closes no cycle.
    new = NodeId(name)
    nodes, position, labels = _ordered([*graph.nodes, new])
    ends = {position[graph.node(event)], position[graph.node(outcome)]}
    parents = [[position[p] for p in graph.parents(n)] if n is not new else ends for n in nodes]
    return CausalGraph._checked({**graph.attrs, new: attrs}, parents, nodes, position, labels), name


def compile_study(study: StudySpec) -> CompiledEstimand:
    graph = study.graph
    outcome = study.outcome
    stratum: Event | None = None
    held: list[tuple[str, int]] = []

    for event in sorted(study.strategies):
        strat = study.strategies[event]
        if isinstance(strat, TreatmentPolicy):
            continue
        if isinstance(strat, Hypothetical):
            held.append((event, strat.level))
        elif isinstance(strat, Composite):
            graph, outcome = _fold_composite(graph, outcome, event, strat)
        elif isinstance(strat, PrincipalStratum):
            if stratum is not None:
                raise SemanticError("at most one principal stratum strategy is allowed")
            stratum = Event(Term(event, ((study.treatment, strat.under),)), strat.equals)
        else:
            raise SemanticError(f"unsupported strategy for {event}: {strat!r}")

    split_vars = (study.treatment,) + tuple(v for v, _ in held)
    symbols = [v.lower() for v in split_vars]
    if len(set(symbols)) != len(symbols):
        raise SemanticError("intervened variable names collide after lowercasing")
    clash = set(symbols) & {n.base for n in graph.nodes}
    if clash:
        name = sorted(clash)[0]
        raise SemanticError(
            f"symbolic assignment {name!r} collides with a declared variable"
        )

    given = () if stratum is None else (stratum,)

    def mean(arm: int) -> Expect:
        return Expect(Term(outcome, ((study.treatment, arm), *held)), given)

    hi, lo = study.treatment_levels
    return CompiledEstimand(
        study=study,
        graph=graph,
        outcome=outcome,
        split_vars=split_vars,
        split_levels=dict(held),
        stratum=stratum,
        contrast=Difference(mean(hi), mean(lo)),
    )


def study_swig(compiled: CompiledEstimand) -> SWIG:
    """The study graph split at symbolic levels of every intervened variable."""
    return split(compiled.graph, compiled.symbolic_context())
