"""Exhaustive enumeration oracle for finite structural causal models.

Given exact structural equations, the oracle enumerates every joint
noise configuration with its rational probability and evaluates every
variable under every requested intervention, producing one table that
holds observed and counterfactual values side by side.  True estimand
values and identified-formula values are then both exact Fractions, so
soundness checks compare with == rather than a tolerance.

The table doubles as a teaching/debugging view: write_csv lays out one
unit (noise configuration) per row with its counterfactual columns next
to the factual ones.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import prod
from typing import IO, Iterable, Mapping, Sequence

from .errors import (
    EmptyStratum,
    OracleError,
    SupportTooLarge,
    ZeroProbabilityCondition,
)
from .estimand import CompiledEstimand, compile_study
from .formula import Difference, Event, Expect, Formula, SumOver, Term
from .graph import CausalGraph, Context, format_term
from .identify import EstimandReport, identify_estimand
from .model import CounterfactualMean, SCMSpec, StructuralEquation, StudySpec

__all__ = [
    "TableRow",
    "PotentialOutcomeTable",
    "enumerate_table",
    "true_estimand",
    "eval_formula",
    "naive_formula",
    "random_scm",
    "data_model",
    "SoundnessReport",
    "check_soundness",
    "soundness_battery",
    "validate_consistency",
    "joint_probability",
    "conditionally_independent",
    "write_csv",
]

ROW_CAP = 10**6


@dataclass(frozen=True)
class TableRow:
    """One noise configuration: its mass and every (variable, world) value."""

    weight: Fraction
    values: Mapping[tuple[str, Context], int]


@dataclass(frozen=True)
class PotentialOutcomeTable:
    graph: CausalGraph
    scm: SCMSpec
    contexts: tuple[Context, ...]
    rows: tuple[TableRow, ...]


def _rule_of(graph: CausalGraph, base: str):
    return graph.attr(graph.node(base)).deterministic


def enumerate_table(
    graph: CausalGraph,
    scm: SCMSpec,
    contexts: Sequence[Context] = (),
    row_cap: int = ROW_CAP,
) -> PotentialOutcomeTable:
    """Materialize the joint table; the observed world () is always included."""
    worlds: list[Context] = [()]
    for ctx in contexts:
        if ctx not in worlds:
            worlds.append(ctx)

    order = [n.base for n in graph.topological_order()]
    stochastic = sorted(b for b in order if _rule_of(graph, b) is None)
    for base in stochastic:
        if base not in scm.equations:
            raise OracleError(f"the data model has no equation for {base}")

    total = prod(len(scm.equations[b].noise) for b in stochastic)
    if total > row_cap:
        raise SupportTooLarge(
            f"{total} noise configurations exceed the cap of {row_cap}"
        )

    def evaluate(noise_val: Mapping[str, int], ctx: Context) -> dict[str, int]:
        pinned = dict(ctx)
        out: dict[str, int] = {}
        for base in order:
            if base in pinned:
                out[base] = pinned[base]
                continue
            rule = _rule_of(graph, base)
            if rule is not None:
                out[base] = rule.apply(out[rule.source], out[rule.guard])
                continue
            eq = scm.equations[base]
            key = tuple(out[p] for p in eq.parents) + (noise_val[base],)
            try:
                out[base] = eq.table[key]
            except KeyError:
                raise OracleError(
                    f"table for {base} has no entry for {key}; the data model"
                    " does not cover this intervention"
                ) from None
        return out

    rows: list[TableRow] = []
    choices = [scm.equations[b].noise for b in stochastic]
    for picks in product(*choices):
        weight = prod((p for _, p in picks), start=Fraction(1))
        noise_val = {b: v for b, (v, _) in zip(stochastic, picks)}
        values: dict[tuple[str, Context], int] = {}
        for ctx in worlds:
            out = evaluate(noise_val, ctx)
            for base, v in out.items():
                values[(base, ctx)] = v
        rows.append(TableRow(weight=weight, values=values))
    return PotentialOutcomeTable(
        graph=graph, scm=scm, contexts=tuple(worlds), rows=tuple(rows)
    )


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


def naive_formula(compiled: CompiledEstimand) -> Difference:
    """The analysis that ignores causal structure: condition on everything
    the estimand mentions, as observed values, and contrast the arms."""

    def arm(level: int) -> Expect:
        events = [Event(Term(compiled.study.treatment), level)]
        for var in compiled.split_vars[1:]:
            events.append(Event(Term(var), compiled.split_levels[var]))
        if compiled.stratum is not None:
            events.append(Event(Term(compiled.stratum.var), compiled.stratum.value))
        return Expect(Term(compiled.study.outcome), tuple(events))

    hi, lo = compiled.study.treatment_levels
    return Difference(arm(hi), arm(lo))


def random_scm(graph: CausalGraph, seed: int) -> SCMSpec:
    """A random exact data model on ``graph`` with positivity everywhere.

    Noise probabilities are random small rationals; each parent
    configuration maps the noise bijectively onto the declared values,
    so every value stays reachable under every intervention.
    """
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


def data_model(compiled: CompiledEstimand, seed: int | None) -> SCMSpec:
    """The random model drawn from ``seed``; with no seed, the study's own.

    A random model gives each non-deterministic node one noise entry per
    declared value, so its enumeration size is known, and checked against
    the cap, before any table is built.
    """
    if seed is not None:
        g = compiled.graph
        total = prod(len(g.attrs[n].values) for n in g.nodes if g.attrs[n].deterministic is None)
        if total > ROW_CAP:
            raise SupportTooLarge(f"{total} noise configurations exceed the cap of {ROW_CAP}")
        return random_scm(g, seed)
    study = compiled.study
    if study.scm is None:
        raise OracleError(f"study {study.name!r} declares no data model; pass a seed")
    return study.scm


@dataclass(frozen=True)
class SoundnessReport:
    """One oracle run: does the derived formula match the truth exactly?"""

    study: str
    seed: int | None
    status: str  # identified | partial | blocked
    consistency_ok: bool
    true_value: Fraction
    formula_value: Fraction | None
    gap: Fraction | None
    naive_value: Fraction | None
    naive_gap: Fraction | None

    @property
    def sound(self) -> bool:
        if not self.consistency_ok:
            return False
        return self.status != "identified" or self.gap == 0


def check_soundness(
    study: StudySpec,
    seed: int | None = None,
    scm: SCMSpec | None = None,
    compiled: CompiledEstimand | None = None,
    report: EstimandReport | None = None,
) -> SoundnessReport:
    """Compare identified formula, naive analysis, and the exact truth.

    With no ``seed`` and no ``scm``, the study's own data model is used.
    """
    if compiled is None:
        compiled = compile_study(study)
    if report is None:
        report = identify_estimand(study, compiled)
    if scm is None:
        scm = data_model(compiled, seed)
    table = enumerate_table(compiled.graph, scm, compiled.worlds())

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


def soundness_battery(
    study: StudySpec, seeds: Iterable[int], jobs: int = 1
) -> list[SoundnessReport]:
    """check_soundness across seeds; order of results follows the seeds.

    The study is compiled and identified once; only the data model varies.
    A pool starts all its workers at once, so it gets no more than there
    are seeds or processors.
    """
    compiled = compile_study(study)
    one = partial(
        check_soundness, study, compiled=compiled, report=identify_estimand(study, compiled)
    )
    seeds = list(seeds)
    workers = min(jobs, len(seeds), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, seeds))
    return list(map(one, seeds))


def validate_consistency(table: PotentialOutcomeTable) -> list[str]:
    """Row-wise consistency: when the observed run already satisfies a
    world's assignments, that world's values must equal the observed ones."""
    problems: list[str] = []
    bases = [n.base for n in table.graph.topological_order()]
    for i, row in enumerate(table.rows, start=1):
        for ctx in table.contexts:
            if not ctx:
                continue
            if any(row.values[(v, ())] != x for v, x in ctx):
                continue
            for base in bases:
                got = row.values[(base, ctx)]
                obs = row.values[(base, ())]
                if got != obs:
                    problems.append(
                        f"row {i}: {format_term(base, ctx)}={got}"
                        f" but observed {base}={obs}"
                    )
    return problems


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


def write_csv(table: PotentialOutcomeTable, out: IO[str]) -> None:
    """One unit per row: id, counterfactual columns, observed columns, weight."""
    g = table.graph
    topo = [n.base for n in g.topological_order()]
    intervened = {v for ctx in table.contexts for v, _ in ctx}
    affected = set()
    for var in intervened:
        affected |= {d.base for d in g.descendants(g.node(var))}
    cf_cols: list[tuple[str, Context]] = []
    for ctx in table.contexts:
        if not ctx:
            continue
        for base in topo:
            if base in affected and g.attr(g.node(base)).observed:
                cf_cols.append((base, ctx))
    obs_cols = [b for b in topo if g.attr(g.node(b)).observed]

    writer = csv.writer(out)
    writer.writerow(
        ["id"]
        + [format_term(b, ctx) for b, ctx in cf_cols]
        + obs_cols
        + ["weight"]
    )
    for i, row in enumerate(table.rows, start=1):
        writer.writerow(
            [i]
            + [row.values[(b, ctx)] for b, ctx in cf_cols]
            + [row.values[(b, ())] for b in obs_cols]
            + [str(row.weight)]
        )
