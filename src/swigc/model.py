"""Study specifications: graph, strategies, estimand, optional data model.

A strategy says what to do about one intercurrent event when defining
the estimand.  The four supported kinds mirror common trial practice:
keep the event as part of treatment (treatment policy), imagine it
removed or held at a level (hypothetical), fold it into the endpoint
(composite), or restrict to the subpopulation defined by its
counterfactual level (principal stratum).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from .graph import CausalGraph, Context, format_term

__all__ = [
    "TreatmentPolicy",
    "Hypothetical",
    "Composite",
    "PrincipalStratum",
    "Strategy",
    "StratumEvent",
    "CounterfactualMean",
    "EstimandContrast",
    "StructuralEquation",
    "SCMSpec",
    "StudySpec",
]


@dataclass(frozen=True)
class TreatmentPolicy:
    """Leave the event alone; it is part of what the treatment does."""

    kind = "treatment_policy"


@dataclass(frozen=True)
class Hypothetical:
    """Intervene to hold the event at ``level`` in both arms."""

    level: int
    kind = "hypothetical"


@dataclass(frozen=True)
class Composite:
    """Replace the outcome: on the event, score the fixed ``failure`` value."""

    failure: int
    kind = "composite"


@dataclass(frozen=True)
class PrincipalStratum:
    """Restrict to units whose event under arm ``under`` equals ``equals``."""

    var: str
    under: int
    equals: int
    kind = "principal_stratum"


Strategy = Union[TreatmentPolicy, Hypothetical, Composite, PrincipalStratum]


@dataclass(frozen=True)
class StratumEvent:
    """A membership condition such as M(a=1)=0, possibly counterfactual."""

    var: str
    context: Context
    value: int

    @property
    def label(self) -> str:
        return f"{format_term(self.var, self.context)}={self.value}"


@dataclass(frozen=True)
class CounterfactualMean:
    """E[Y(context) | stratum], the building block of every estimand here."""

    outcome: str
    context: Context
    stratum: StratumEvent | None = None

    @property
    def label(self) -> str:
        term = format_term(self.outcome, self.context)
        if self.stratum is None:
            return f"E[{term}]"
        return f"E[{term}|{self.stratum.label}]"


@dataclass(frozen=True)
class EstimandContrast:
    """Difference of two counterfactual means (left minus right)."""

    left: CounterfactualMean
    right: CounterfactualMean

    @property
    def label(self) -> str:
        return f"{self.left.label} - {self.right.label}"


@dataclass(frozen=True)
class StructuralEquation:
    """One variable's mechanism: exogenous noise plus a response table.

    ``noise`` lists (value, probability) pairs; probabilities are exact
    rationals summing to one.  ``table`` maps a tuple of parent values,
    with the noise value appended last, to the variable's value.
    Variables with no parents still carry a degenerate table keyed by
    the noise value alone.
    """

    parents: tuple[str, ...]
    noise: tuple[tuple[int, Fraction], ...]
    table: Mapping[tuple[int, ...], int]


@dataclass(frozen=True)
class SCMSpec:
    """Structural equations for every non-derived variable in a graph."""

    equations: Mapping[str, StructuralEquation]


@dataclass(frozen=True)
class StudySpec:
    """Everything a parsed study file declares."""

    name: str
    graph: CausalGraph
    treatment: str
    treatment_levels: tuple[int, int]
    outcome: str
    strategies: Mapping[str, Strategy] = field(default_factory=dict)
    scm: SCMSpec | None = None
