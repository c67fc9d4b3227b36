"""Study specifications: graph, strategies, estimand, optional data model.

A strategy says what to do about one intercurrent event when defining
the estimand.  The four supported kinds mirror common trial practice:
keep the event as part of treatment (treatment policy), imagine it
removed or held at a level (hypothetical), fold it into the endpoint
(composite), or restrict to the subpopulation defined by its
counterfactual level (principal stratum).

The estimand itself has no type here: ``estimand.compile_study`` writes
it as a ``formula.Difference`` of two ``formula.Expect`` means, in the
vocabulary the derivations that identify it use.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence, Union

from .graph import CausalGraph, default_factory, record

__all__ = [
    "TreatmentPolicy",
    "Hypothetical",
    "Composite",
    "PrincipalStratum",
    "Strategy",
    "StructuralEquation",
    "SCMSpec",
    "StudySpec",
]


@record
class TreatmentPolicy:
    """Leave the event alone; it is part of what the treatment does."""

    kind = "treatment_policy"


@record
class Hypothetical:
    """Intervene to hold the event at ``level`` in both arms."""

    level: int
    kind = "hypothetical"


@record
class Composite:
    """Replace the outcome: on the event, score the fixed ``failure`` value."""

    failure: int
    kind = "composite"


@record
class PrincipalStratum:
    """Restrict to units whose event under arm ``under`` equals ``equals``."""

    var: str
    under: int
    equals: int
    kind = "principal_stratum"


Strategy = Union[TreatmentPolicy, Hypothetical, Composite, PrincipalStratum]


@record
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


def _noise_weights(noise: Sequence[tuple[int, Fraction]]) -> tuple[int, list[int]]:
    """The lcm of the noise denominators, and each noise weight over it:
    the integer weights the oracle multiplies and the parser sums."""
    scale = lcm(*(p.denominator for _, p in noise))
    return scale, [p.numerator * (scale // p.denominator) for _, p in noise]


@record
class SCMSpec:
    """Structural equations for every non-derived variable in a graph."""

    equations: Mapping[str, StructuralEquation]


@record
class StudySpec:
    """Everything a parsed study file declares."""

    name: str
    graph: CausalGraph
    treatment: str
    treatment_levels: tuple[int, int]
    outcome: str
    strategies: Mapping[str, Strategy] = default_factory(dict)
    scm: SCMSpec | None = None
