"""The row view of the oracle, and the row-table readers kept as the
reference for the forward pass.

``swigc.oracle`` has no row view: ``PotentialOutcomeTable._cells``
streams the units' cells for its own readers.  ``units`` here is the
row view, and it enumerates the units itself, without ``_cells`` or
``_plan``: every noise configuration, and in every world every node's
copy evaluated afresh, so the shared copies of the forward pass are
checked against an enumerator that shares nothing.  No row table is
held either: a reader that scans the rows more than once builds
``tuple(units(table))`` once.

``true_estimand``, ``eval_formula``, ``joint_probability`` and
``conditionally_independent`` here are the readers ``swigc.oracle`` used
to ship: each rescans every row of the table for every mean, formula
cell or probability it needs.  ``table_law`` is the one-pass row scan
that replaced them, and ``check_soundness`` the soundness check built on
the row table: it enumerates the table with ``enumerate_table``, checks
``validate_consistency`` and reads the rows with the readers here.  The
property tests require ``swigc.oracle`` to return exactly their values
(``==`` on ``Fraction``s and reports), or to raise the same exception
type with the same message.  No program path asks for conditional
independence, so its forward-pass reader is a test helper,
``conftest.conditionally_independent``, which reads ``swigc.oracle``'s
law; the row scan here is its reference.

``random_scm`` is the random model drawn with one ``random.sample`` call
per parent configuration; ``swigc.oracle.random_scm`` makes the same
draws inline and must return the same model for every graph and seed.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from swigc.errors import EmptyStratum, OracleError, ZeroProbabilityCondition
from swigc.estimand import CompiledEstimand, compile_study
from swigc.formula import Difference, Event, Expect, Formula, SumOver, Term
from swigc.graph import CausalGraph, Context
from swigc.identify import EstimandReport, identify_estimand
from swigc.model import SCMSpec, StructuralEquation, StudySpec
from swigc.oracle import (
    PotentialOutcomeTable,
    SoundnessReport,
    data_model,
    enumerate_table,
    naive_formula,
    validate_consistency,
)


Row = tuple[Fraction, dict[tuple[str, Context], int]]


def units(table: PotentialOutcomeTable) -> Iterator[Row]:
    """One (weight, values) row per unit, in row order: the noise values of
    the stochastic variables by name, the last varying fastest, and
    ``values`` holding every (variable, world) cell.  In each world of the
    table, each node in topological order is pinned, follows its composite
    rule or looks its table up; the weight is the product of the noise
    values' probabilities.  A missing table entry raises at the first
    unit, then world, then node that reads it."""
    graph, equations = table.graph, table.scm.equations
    order = graph.topological_order()
    stochastic = sorted(n.base for n in order if graph.attr(n).deterministic is None)
    for picks in product(*(equations[base].noise for base in stochastic)):
        noise = {base: value for base, (value, _) in zip(stochastic, picks)}
        weight = Fraction(1)
        for _, prob in picks:
            weight *= prob
        values: dict[tuple[str, Context], int] = {}
        for ctx in table.contexts:
            pinned = dict(ctx)
            for node in order:
                base, rule = node.base, graph.attr(node).deterministic
                if base in pinned:
                    value = pinned[base]
                elif rule is not None:
                    guard = values[(rule.guard, ctx)]
                    value = values[(rule.source, ctx)] if guard == 0 else rule.failure
                else:
                    eq = equations[base]
                    key = tuple(values[(p, ctx)] for p in eq.parents) + (noise[base],)
                    if key not in eq.table:
                        raise OracleError(
                            f"table for {base} has no entry for {key}; the data model"
                            " does not cover this intervention"
                        )
                    value = eq.table[key]
                values[(base, ctx)] = value
        yield weight, values


def table_law(table: PotentialOutcomeTable, columns: Sequence[tuple[str, Context]]) -> Counter:
    """Exact mass of each joint value of the (variable, world) ``columns``, in one pass."""
    law = Counter()
    for weight, values in units(table):
        law[tuple([values[c] for c in columns])] += weight
    return law


def true_estimand(table: PotentialOutcomeTable, mean: Expect) -> Fraction:
    """Exact value of one counterfactual mean, straight from the table."""
    ctx = mean.term.context
    if ctx not in table.contexts:
        shown = ",".join(f"{v}={x}" for v, x in ctx)
        raise OracleError(f"table was not enumerated for world ({shown})")
    stratum = mean.given[0] if mean.given else None
    if stratum is not None and stratum.term.context not in table.contexts:
        raise OracleError("table was not enumerated for the stratum's world")
    num = Fraction(0)
    den = Fraction(0)
    for weight, values in units(table):
        if stratum is not None:
            if values[(stratum.term.var, stratum.term.context)] != stratum.value:
                continue
        den += weight
        num += weight * values[(mean.term.var, ctx)]
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
    rows = tuple(units(table))

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
            for weight, values in rows:
                if all(values[(v, ())] == x for v, x in wanted):
                    den += weight
                    num += weight * values[(f.term.var, ())]
            if den == 0:
                shown = ",".join(f"{v}={x}" for v, x in wanted)
                raise ZeroProbabilityCondition(f"conditioning event {shown} has mass zero")
            return num / den
        if isinstance(f, SumOver):
            out = Fraction(0)
            supports = []
            for var, _ in f.bindings:
                check_observational(Term(var))
                supports.append(sorted({values[(var, ())] for _, values in rows}))
            for combo in product(*supports):
                weight = Fraction(0)
                for w, values in rows:
                    if all(
                        values[(var, ())] == val
                        for (var, _), val in zip(f.bindings, combo)
                    ):
                        weight += w
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


def joint_probability(rows: Sequence[Row], assignment: Mapping[str, int]) -> Fraction:
    mass = Fraction(0)
    for weight, values in rows:
        if all(values[(v, ())] == x for v, x in assignment.items()):
            mass += weight
    return mass


def conditionally_independent(
    table: PotentialOutcomeTable, x: str, y: str, z: Sequence[str]
) -> bool:
    """Exact conditional independence of two variables in the full joint law."""
    rows = tuple(units(table))

    def support(var: str) -> list[int]:
        return sorted({values[(var, ())] for _, values in rows})

    for z_combo in product(*(support(v) for v in z)):
        base = dict(zip(z, z_combo))
        pz = joint_probability(rows, base)
        if pz == 0:
            continue
        for xv in support(x):
            for yv in support(y):
                pxy = joint_probability(rows, {**base, x: xv, y: yv})
                px = joint_probability(rows, {**base, x: xv})
                py = joint_probability(rows, {**base, y: yv})
                if pxy * pz != px * py:
                    return False
    return True


def check_soundness(
    study: StudySpec,
    seed: int | None = None,
    compiled: CompiledEstimand | None = None,
    report: EstimandReport | None = None,
) -> SoundnessReport:
    """Compare identified formula, naive analysis, and the exact truth.

    With no ``seed``, the study's own data model is used.
    """
    if compiled is None:
        compiled = compile_study(study)
    if report is None:
        report = identify_estimand(study, compiled)
    table = enumerate_table(compiled.graph, data_model(compiled, seed), compiled.worlds())

    violations = validate_consistency(table)
    true_value = true_estimand(table, compiled.contrast.left) - true_estimand(
        table, compiled.contrast.right
    )
    formula_value = None
    gap = None
    if report.status == "identified":
        formula_value = eval_formula(table, report.combined)
        gap = formula_value - true_value
    naive_value = None
    naive_gap = None
    try:
        naive_value = eval_formula(table, naive_formula(compiled))
        naive_gap = naive_value - true_value
    except ZeroProbabilityCondition:
        pass
    return SoundnessReport(
        study=study.name,
        seed=seed,
        status=report.status,
        consistency_ok=not violations,
        true_value=true_value,
        formula_value=formula_value,
        gap=gap,
        naive_value=naive_value,
        naive_gap=naive_gap,
    )


def random_scm(graph: CausalGraph, seed: int) -> SCMSpec:
    """A random exact data model on ``graph``: random small rational noise
    weights, and per parent configuration a ``random.sample`` of the
    node's values, one per noise value."""
    rng = random.Random(seed)
    equations: dict[str, StructuralEquation] = {}
    for base in sorted(n.base for n in graph.nodes):
        node = graph.node(base)
        if graph.attr(node).deterministic is not None:
            continue
        support = sorted(graph.attr(node).values)
        k = len(support)
        weights = [rng.randint(1, 6) for _ in range(k)]
        total = sum(weights)
        noise = tuple((i, Fraction(w, total)) for i, w in enumerate(weights))
        parents = sorted(p.base for p in graph.parents(node))
        table: dict[tuple[int, ...], int] = {}
        parent_supports = [sorted(graph.attr(graph.node(p)).values) for p in parents]
        for combo in product(*parent_supports):
            shuffled = rng.sample(support, k)
            for i in range(k):
                table[tuple(combo) + (i,)] = shuffled[i]
        equations[base] = StructuralEquation(
            parents=tuple(parents), noise=noise, table=table
        )
    return SCMSpec(equations=equations)
