"""The row-scanning oracle readers, kept as the reference for the one-pass ones.

``true_estimand``, ``eval_formula``, ``joint_probability`` and
``conditionally_independent`` here are the readers ``swigc.oracle`` used
to ship: each rescans every row of the table for every mean, formula
cell or probability it needs.  The property tests require the one-pass
readers to return exactly their values (``==`` on ``Fraction``s), or to
raise the same exception type with the same message.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from swigc.errors import EmptyStratum, OracleError, ZeroProbabilityCondition
from swigc.formula import Difference, Event, Expect, Formula, SumOver, Term
from swigc.model import CounterfactualMean
from swigc.oracle import PotentialOutcomeTable


def true_estimand(table: PotentialOutcomeTable, mean: CounterfactualMean) -> Fraction:
    """Exact value of one counterfactual mean, straight from the table."""
    ctx = mean.context
    if ctx not in table.contexts:
        shown = ",".join(f"{v}={x}" for v, x in ctx)
        raise OracleError(f"table was not enumerated for world ({shown})")
    stratum = mean.stratum
    if stratum is not None and stratum.context not in table.contexts:
        raise OracleError("table was not enumerated for the stratum's world")
    num = Fraction(0)
    den = Fraction(0)
    for row in table.rows:
        if stratum is not None:
            if row.values[(stratum.var, stratum.context)] != stratum.value:
                continue
        den += row.weight
        num += row.weight * row.values[(mean.outcome, ctx)]
    if den == 0:
        raise EmptyStratum(f"stratum {stratum.label} has probability zero")
    return num / den


def _event_value(event: Event, bindings: Mapping[str, int]) -> int:
    if isinstance(event.value, int):
        return event.value
    try:
        return bindings[event.value]
    except KeyError:
        raise OracleError(f"unbound symbol {event.value!r} in formula") from None


def eval_formula(
    table: PotentialOutcomeTable,
    formula: Formula,
    bindings: Mapping[str, int] | None = None,
) -> Fraction:
    """Evaluate an observational formula against the observed joint law."""

    def check_observational(term: Term) -> None:
        if term.context:
            raise OracleError(f"formula is not observational: {term.label}")
        if not table.graph.attr(table.graph.node(term.var)).observed:
            raise OracleError(f"formula refers to unobserved {term.var}")

    def ev(f: Formula, binds: dict[str, int]) -> Fraction:
        if isinstance(f, Expect):
            check_observational(f.term)
            wanted = []
            for e in f.given:
                check_observational(e.term)
                wanted.append((e.term.var, _event_value(e, binds)))
            num = Fraction(0)
            den = Fraction(0)
            for row in table.rows:
                if all(row.values[(v, ())] == x for v, x in wanted):
                    den += row.weight
                    num += row.weight * row.values[(f.term.var, ())]
            if den == 0:
                shown = ",".join(f"{v}={x}" for v, x in wanted)
                raise ZeroProbabilityCondition(f"conditioning event {shown} has mass zero")
            return num / den
        if isinstance(f, SumOver):
            out = Fraction(0)
            supports = []
            for var, _ in f.bindings:
                check_observational(Term(var))
                supports.append(sorted({row.values[(var, ())] for row in table.rows}))
            for combo in product(*supports):
                weight = Fraction(0)
                for row in table.rows:
                    if all(
                        row.values[(var, ())] == val
                        for (var, _), val in zip(f.bindings, combo)
                    ):
                        weight += row.weight
                if weight == 0:
                    continue
                inner = dict(binds)
                for (_, sym), val in zip(f.bindings, combo):
                    inner[sym] = val
                out += weight * ev(f.body, inner)
            return out
        if isinstance(f, Difference):
            return ev(f.left, binds) - ev(f.right, binds)
        raise OracleError(f"cannot evaluate {f!r}")

    return ev(formula, dict(bindings or {}))


def joint_probability(
    table: PotentialOutcomeTable, assignment: Mapping[str, int]
) -> Fraction:
    mass = Fraction(0)
    for row in table.rows:
        if all(row.values[(v, ())] == x for v, x in assignment.items()):
            mass += row.weight
    return mass


def conditionally_independent(
    table: PotentialOutcomeTable, x: str, y: str, z: Sequence[str]
) -> bool:
    """Exact conditional independence of two variables in the full joint law."""
    def support(var: str) -> list[int]:
        return sorted({row.values[(var, ())] for row in table.rows})

    for z_combo in product(*(support(v) for v in z)):
        base = dict(zip(z, z_combo))
        pz = joint_probability(table, base)
        if pz == 0:
            continue
        for xv in support(x):
            for yv in support(y):
                pxy = joint_probability(table, {**base, x: xv, y: yv})
                px = joint_probability(table, {**base, x: xv})
                py = joint_probability(table, {**base, y: yv})
                if pxy * pz != px * py:
                    return False
    return True
