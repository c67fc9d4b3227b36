"""Compile a study's strategies into a formal estimand.

The output of compilation is (1) a possibly extended graph, when a
composite strategy introduces a derived endpoint, (2) the ordered set
of variables the study graph must be split at, treatment first, and
(3) the contrast of counterfactual means the study targets, with any
principal-stratum membership condition attached.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositeNonBinary, SemanticError
from .graph import CausalGraph, CompositeRule, Context, NodeAttrs, NodeId
from .model import (
    Composite,
    CounterfactualMean,
    EstimandContrast,
    Hypothetical,
    PrincipalStratum,
    StratumEvent,
    StudySpec,
    TreatmentPolicy,
)
from .swig import SWIG, split

__all__ = ["CompiledEstimand", "compile_study", "study_swig"]


@dataclass(frozen=True)
class CompiledEstimand:
    """A study after strategy compilation.

    ``split_vars`` holds the treatment first, then every hypothetically
    held event in name order; ``split_levels`` carries the level each
    held event is set to in the estimand.
    """

    study: StudySpec
    graph: CausalGraph
    outcome: str
    split_vars: tuple[str, ...]
    split_levels: dict[str, int]
    stratum: StratumEvent | None
    derived: str | None
    contrast: EstimandContrast

    def arm_context(self, arm: int) -> Context:
        """Intervention assignments defining one arm's potential outcome."""
        entries: list[tuple[str, int]] = [(self.study.treatment, arm)]
        entries.extend((v, self.split_levels[v]) for v in self.split_vars[1:])
        return tuple(entries)

    def worlds(self) -> tuple[Context, ...]:
        """The worlds the oracle enumerates: each arm's, then the stratum's."""
        arms = (self.contrast.left.context, self.contrast.right.context)
        return arms if self.stratum is None else arms + (self.stratum.context,)

    def stratum_box(self, arm: int) -> dict[str, int]:
        """The stratum event to box in a drawing of the world where the
        treatment is ``arm``: ``{event: level}`` when the principal stratum
        is defined in that world, else ``{}``."""
        s = self.stratum
        if s is None or s.context != ((self.study.treatment, arm),):
            return {}
        return {s.var: s.value}

    def symbolic_context(self) -> Context:
        """The same variables held at symbolic levels, for generic derivations."""
        return tuple((v, v.lower()) for v in self.split_vars)


def _derived_name(graph: CausalGraph) -> str:
    if not graph.has_label("U"):
        return "U"
    k = 2
    while graph.has_label(f"U{k}"):
        k += 1
    return f"U{k}"


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
    name = _derived_name(graph)
    rule = CompositeRule(source=outcome, guard=event, failure=strat.failure)
    attrs = NodeAttrs(
        role="derived",
        observed=True,
        deterministic=rule,
        values=tuple(sorted(set(outcome_values) | {strat.failure})),
    )
    new = NodeId(name)
    nodes = list(graph.nodes) + [new]
    all_attrs = dict(graph.attrs)
    all_attrs[new] = attrs
    edges = list(graph.edges) + [
        (graph.node(event), new),
        (graph.node(outcome), new),
    ]
    return CausalGraph(nodes, all_attrs, edges), name


def compile_study(study: StudySpec) -> CompiledEstimand:
    graph = study.graph
    outcome = study.outcome
    derived: str | None = None
    stratum: StratumEvent | None = None
    held: list[tuple[str, int]] = []

    for event in sorted(study.strategies):
        strat = study.strategies[event]
        if isinstance(strat, TreatmentPolicy):
            continue
        if isinstance(strat, Hypothetical):
            held.append((event, strat.level))
        elif isinstance(strat, Composite):
            graph, outcome = _fold_composite(graph, outcome, event, strat)
            derived = outcome
        elif isinstance(strat, PrincipalStratum):
            if stratum is not None:
                raise SemanticError("at most one principal stratum strategy is allowed")
            stratum = StratumEvent(
                event, ((study.treatment, strat.under),), strat.equals
            )
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

    def mean(arm: int) -> CounterfactualMean:
        context: Context = ((study.treatment, arm),) + tuple(held)
        return CounterfactualMean(outcome=outcome, context=context, stratum=stratum)

    hi, lo = study.treatment_levels
    contrast = EstimandContrast(left=mean(hi), right=mean(lo))
    return CompiledEstimand(
        study=study,
        graph=graph,
        outcome=outcome,
        split_vars=split_vars,
        split_levels=dict(held),
        stratum=stratum,
        derived=derived,
        contrast=contrast,
    )


def study_swig(compiled: CompiledEstimand) -> SWIG:
    """The study graph split at symbolic levels of every intervened variable."""
    return split(compiled.graph, compiled.symbolic_context())
