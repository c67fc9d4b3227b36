"""Formula fragments: the estimand and every step that identifies it.

A compiled study's estimand is already a formula, a Difference of two
Expect means such as E[Y(a=1)|M(a=1)=0] - E[Y(a=0)|M(a=1)=0]; each
arm's derivation starts from its mean and rewrites it step by step.

Terms are possibly counterfactual variables; events attach a value to a
term; expectations condition on a tuple of events kept in the order the
derivation introduced them.  SumOver standardizes its body over the
joint distribution of the bound variables, each bound to a symbol that
also appears in the body's conditioning events.  A formula is
observational (identified) exactly when no term carries a context.
"""

from __future__ import annotations

from typing import Iterator, Union

from .graph import Context, Value, format_term, record

__all__ = [
    "Term",
    "Event",
    "Expect",
    "SumOver",
    "Difference",
    "Formula",
    "render",
]


@record
class Term:
    var: str
    context: Context = ()

    @property
    def label(self) -> str:
        return format_term(self.var, self.context)


@record
class Event:
    term: Term
    value: Value

    @property
    def label(self) -> str:
        return f"{self.term.label}={self.value}"


@record
class Expect:
    term: Term
    given: tuple[Event, ...] = ()


@record
class SumOver:
    """Sum of the body over the bound variables, weighted by their joint mass."""

    bindings: tuple[tuple[str, str], ...]  # (variable, symbol) pairs
    body: "Formula"


@record
class Difference:
    left: "Formula"
    right: "Formula"


Formula = Union[Expect, SumOver, Difference]


def render(formula: Formula) -> str:
    if isinstance(formula, Expect):
        inside = formula.term.label
        if formula.given:
            inside += "|" + ",".join(e.label for e in formula.given)
        return f"E[{inside}]"
    if isinstance(formula, SumOver):
        syms = ",".join(sym for _, sym in formula.bindings)
        weight = ",".join(f"{var}={sym}" for var, sym in formula.bindings)
        return f"Σ_{syms} {render(formula.body)}·P({weight})"
    if isinstance(formula, Difference):
        return f"{render(formula.left)} - {render(formula.right)}"
    raise TypeError(f"not a formula: {formula!r}")


def terms(formula: Formula) -> Iterator[Term]:
    """Every term the formula mentions, bound variables too, in rendering order."""
    if isinstance(formula, Expect):
        yield formula.term
        yield from (e.term for e in formula.given)
    elif isinstance(formula, SumOver):
        yield from terms(formula.body)
        yield from (Term(var) for var, _ in formula.bindings)
    elif isinstance(formula, Difference):
        yield from terms(formula.left)
        yield from terms(formula.right)


def fresh_symbol(base: str, taken: set[str]) -> str:
    """``base`` if unused, else the first of base2, base3, ..."""
    if base not in taken:
        return base
    k = 2
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"
