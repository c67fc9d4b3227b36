"""Exact oracle for finite structural causal models.

Given exact structural equations, the oracle computes the exact joint law
of the (variable, world) columns a reader needs: observed and
counterfactual values side by side, with rational masses.  True estimand
values and identified-formula values are then both exact Fractions, so
soundness checks compare with == rather than a tolerance.

The law comes from one forward pass over the nodes in topological order.
Each node's noise belongs to that node alone and is shared by its copies
in every world (the twin networks of Balke & Pearl 1994), so the noise is
summed out at its node and no unit is ever built whole:

- The state maps each joint value of the live columns to an integer mass.
  All masses share one denominator: the product, over stochastic nodes,
  of the lcm of that node's noise denominators.
- At each node, every state is expanded by each noise value (a
  deterministic rule gives one step) and the node is evaluated in every
  world: a pinned value, the composite rule, or a table lookup.
- Each column that no later node reads, no query wants and no
  consistency check needs is then dropped, which merges the states that
  differed only there.
- States of mass zero are kept: errors reached only through zero-weight
  noise still raise, and conditionally_independent reads the law's keys.
- Consistency is checked, not assumed.  Once a world's copy of a node,
  its observed copy and the observed values of the world's intervened
  variables are all known, the two copies must agree wherever those
  observed values match the world's assignments.

Readers group the integer masses with ``_Law.given``, once per expectation,
SumOver weight or marginal; a Fraction is built only where a reader divides.
The guards come in the order the row enumerator applies them: a missing
equation, the cap on the product of the declared noise supports, then a
missing table entry, reported as the first failure in row order.
check_soundness builds one law over every column its readers need.

enumerate_table still materializes one row per unit (noise
configuration); write_csv lays those rows out with the counterfactual
columns next to the factual ones, as a teaching/debugging view.  No
reader scans the rows.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm, prod
from typing import IO, Callable, Iterable, Mapping, Sequence

from .errors import (
    EmptyStratum,
    OracleError,
    SupportTooLarge,
    ZeroProbabilityCondition,
)
from .estimand import CompiledEstimand, compile_study
from .formula import Difference, Event, Expect, Formula, SumOver, Term, terms
from .graph import CausalGraph, CompositeRule, Context, format_term
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


def _check_size(total: int) -> None:
    if total > ROW_CAP:
        raise SupportTooLarge(f"{total} noise configurations exceed the cap of {ROW_CAP}")


Column = tuple[str, Context]
Mechanism = tuple[str, CompositeRule | None, StructuralEquation | None]
Cells = dict[tuple[int, ...], tuple[int, int]]  # joint value -> (mass, weighted sum)


def _worlds(contexts: Sequence[Context]) -> list[Context]:
    """The observed world () first, then each distinct context in order."""
    worlds: list[Context] = [()]
    for ctx in contexts:
        if ctx not in worlds:
            worlds.append(ctx)
    return worlds


def _mechanisms(graph: CausalGraph, scm: SCMSpec) -> tuple[list[Mechanism], list[str]]:
    """(base, rule, equation) per node in topological order, and the
    stochastic bases by name, once every equation is there and the
    product of their noise supports is under the cap."""
    mechanisms = [
        (n.base, graph.attr(n).deterministic, scm.equations.get(n.base))
        for n in graph.topological_order()
    ]
    stochastic = sorted(base for base, rule, _ in mechanisms if rule is None)
    for base in stochastic:
        if base not in scm.equations:
            raise OracleError(f"the data model has no equation for {base}")
    _check_size(prod(len(scm.equations[b].noise) for b in stochastic))
    return mechanisms, stochastic


def enumerate_table(
    graph: CausalGraph, scm: SCMSpec, contexts: Sequence[Context] = ()
) -> PotentialOutcomeTable:
    """Materialize the joint table; the observed world () is always included."""
    worlds = _worlds(contexts)
    mechanisms, stochastic = _mechanisms(graph, scm)

    def evaluate(noise_val: Mapping[str, int], ctx: Context) -> dict[str, int]:
        pinned = dict(ctx)
        out: dict[str, int] = {}
        for base, rule, eq in mechanisms:
            if base in pinned:
                out[base] = pinned[base]
            elif rule is not None:
                out[base] = rule.apply(out[rule.source], out[rule.guard])
            else:
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


@dataclass(frozen=True)
class _Law:
    """Integer masses of the joint values of ``columns`` over one shared
    ``denominator``, and whether every consistency check held."""

    columns: tuple[Column, ...]
    masses: Mapping[tuple[int, ...], int]
    denominator: int
    consistent: bool

    def given(self, columns: Sequence[Column], at: Column | None = None) -> Cells:
        """(mass, sum of mass times the value at ``at``, 0 without it) for
        each joint value of ``columns``, zero masses included; ``columns``
        and ``at`` are among this law's."""
        index = {c: i for i, c in enumerate(self.columns)}
        picks = [index[c] for c in columns]
        j = None if at is None else index[at]
        cells: Cells = {}
        for key, mass in self.masses.items():
            cell = tuple([key[i] for i in picks])
            m, total = cells.get(cell, (0, 0))
            cells[cell] = (m + mass, total if j is None else total + mass * key[j])
        return cells


def _law(
    graph: CausalGraph, scm: SCMSpec, worlds: Sequence[Context], columns: Sequence[Column]
) -> _Law:
    """The exact joint law of the (variable, world) ``columns`` in one
    forward pass over the nodes (see the module docstring)."""
    worlds = _worlds(worlds)
    mechanisms, _ = _mechanisms(graph, scm)
    try:
        law = _forward(mechanisms, worlds, columns)
    except KeyError:
        # Some unit misses a table entry; the row enumerator names the
        # first one in row order.
        enumerate_table(graph, scm, worlds)
        raise
    for var, _ in columns:
        graph.node(var)  # raises UnknownNode for a variable the graph lacks
    return law


def _forward(
    mechanisms: list[Mechanism], worlds: list[Context], columns: Sequence[Column]
) -> _Law:
    """The pass itself; a missing table entry raises KeyError."""
    step = {base: i for i, (base, _, _) in enumerate(mechanisms)}
    last = dict.fromkeys(columns, len(mechanisms))  # the last step that needs each column

    def need(column: Column, at: int) -> None:
        last[column] = max(last.get(column, -1), at)

    # Per step: the worlds that pin the node, with the pinned value, and
    # the worlds that evaluate it, with the columns it reads there.
    pins: list[list[tuple[Context, int]]] = []
    reads: list[list[tuple[Context, list[Column]]]] = []
    for i, (base, rule, eq) in enumerate(mechanisms):
        parents = (rule.source, rule.guard) if rule is not None else eq.parents
        pins.append([])
        reads.append([])
        for ctx in worlds:
            pinned = dict(ctx)
            if base in pinned:
                pins[i].append((ctx, pinned[base]))
            else:
                inputs = [(p, ctx) for p in parents]
                reads[i].append((ctx, inputs))
                for column in inputs:
                    need(column, i)

    # Per step: the worlds whose copies of these nodes are checked against
    # the observed copies on the states that step leaves, the first where
    # the observed values of the world's intervened variables are known too.
    checks: list[dict[Context, list[str]]] = [{} for _ in mechanisms]
    for ctx in worlds[1:]:
        if any(v not in step for v, _ in ctx):
            continue
        for base, at in step.items():
            at = max(at, *(step[v] for v, _ in ctx))
            checks[at].setdefault(ctx, []).append(base)
            for column in ((base, ctx), (base, ()), *((v, ()) for v, _ in ctx)):
                need(column, at + 1)

    live: list[Column] = []
    at: dict[Column, int] = {}  # the position of each live column in a state's key
    states: dict[tuple[int, ...], int] = {(): 1}
    denominator = 1
    consistent = True
    for i, (base, rule, eq) in enumerate(mechanisms):
        if rule is None:
            scale = lcm(*(Fraction(p).denominator for _, p in eq.noise))
            weights = [int(Fraction(p) * scale) for _, p in eq.noise]
            denominator *= scale
        else:
            weights = [1]
        outcomes = _outcomes(rule, eq)
        picks = [[at[c] for c in inputs] for _, inputs in reads[i]]
        grown = live + [(base, ctx) for ctx, _ in reads[i]] + [(base, ctx) for ctx, _ in pins[i]]
        fixed = tuple(x for _, x in pins[i])
        keep = [j for j, c in enumerate(grown) if last.get(c, -1) > i]
        memo: dict[tuple[int, ...], tuple[int, ...]] = {}
        nxt: dict[tuple[int, ...], int] = {}
        for key, mass in states.items():
            per_world = []
            for pick in picks:
                parents = tuple([key[j] for j in pick])
                out = memo.get(parents)
                if out is None:
                    out = memo[parents] = outcomes(parents)
                per_world.append(out)
            for weight, new in zip(weights, zip(*per_world)):
                full = key + new + fixed
                cell = tuple([full[j] for j in keep])
                nxt[cell] = nxt.get(cell, 0) + mass * weight
        states = nxt
        live = [grown[j] for j in keep]
        at = {c: j for j, c in enumerate(live)}
        for ctx, bases in checks[i].items():
            held = [(at[(v, ())], x) for v, x in ctx]
            pairs = [(at[(b, ctx)], at[(b, ())]) for b in bases]
            consistent = consistent and all(
                any(key[c] != x for c, x in held) or all(key[w] == key[o] for w, o in pairs)
                for key in states
            )
    return _Law(tuple(live), states, denominator, consistent)


def _outcomes(
    rule: CompositeRule | None, eq: StructuralEquation | None
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The node's value under each noise value, from its parents' values."""
    if rule is not None:
        return lambda parents: (rule.apply(*parents),)
    table, noise = eq.table, [v for v, _ in eq.noise]
    return lambda parents: tuple([table[parents + (v,)] for v in noise])


def _mean_columns(mean: CounterfactualMean) -> list[Column]:
    columns = [(mean.outcome, mean.context)]
    if mean.stratum is not None:
        columns.append((mean.stratum.var, mean.stratum.context))
    return columns


def _mean_value(mean: CounterfactualMean, law: _Law) -> Fraction:
    """E[outcome | stratum] from a law over the mean's columns."""
    outcome, *stratum_column = _mean_columns(mean)
    stratum = mean.stratum
    event = () if stratum is None else (stratum.value,)
    mass, total = law.given(stratum_column, outcome).get(event, (0, 0))
    if mass == 0:
        raise EmptyStratum(f"stratum {stratum.label} has probability zero")
    return Fraction(total, mass)


def true_estimand(table: PotentialOutcomeTable, mean: CounterfactualMean) -> Fraction:
    """Exact value of one counterfactual mean in the table's model."""
    ctx = mean.context
    if ctx not in table.contexts:
        shown = ",".join(f"{v}={x}" for v, x in ctx)
        raise OracleError(f"table was not enumerated for world ({shown})")
    stratum = mean.stratum
    if stratum is not None and stratum.context not in table.contexts:
        raise OracleError("table was not enumerated for the stratum's world")
    return _mean_value(mean, _law(table.graph, table.scm, table.contexts, _mean_columns(mean)))


def _formula_columns(g: CausalGraph, formula: Formula) -> list[Column]:
    """The observed world's columns of the observed variables ``formula`` mentions."""
    observed = {n.base for n in g.nodes if g.attrs[n].observed}
    return [(v, ()) for v in sorted({t.var for t in terms(formula)} & observed)]


def eval_formula(
    table: PotentialOutcomeTable,
    formula: Formula,
    bindings: Mapping[str, int] | None = None,
) -> Fraction:
    """Evaluate an observational formula against the observed joint law of
    the variables it mentions; terms are checked as they are evaluated."""
    g = table.graph
    law = _law(g, table.scm, table.contexts, _formula_columns(g, formula))
    return _formula_value(g, formula, bindings, law)


def _formula_value(
    g: CausalGraph,
    formula: Formula,
    bindings: Mapping[str, int] | None,
    law: _Law,
) -> Fraction:
    """``formula``'s value; each Expect and SumOver node groups ``law`` once."""
    groups: dict[Formula, Cells] = {}

    def grouped(f: Formula, names: Iterable[str], at: Column | None = None) -> Cells:
        if f not in groups:
            groups[f] = law.given([(v, ()) for v in names], at)
        return groups[f]

    def check_observational(term: Term) -> None:
        if term.context:
            raise OracleError(f"formula is not observational: {term.label}")
        if not g.attr(g.node(term.var)).observed:
            raise OracleError(f"formula refers to unobserved {term.var}")

    def ev(f: Formula, binds: dict[str, int]) -> Fraction:
        # A node's terms are checked on its first evaluation only, before
        # it is grouped, in the order a full walk would check them.
        first = f not in groups
        if isinstance(f, Expect):
            if first:
                check_observational(f.term)
            wanted = []
            for e in f.given:
                if first:
                    check_observational(e.term)
                try:
                    value = e.value if isinstance(e.value, int) else binds[e.value]
                except KeyError:
                    raise OracleError(f"unbound symbol {e.value!r} in formula") from None
                wanted.append((e.term.var, value))
            cells = grouped(f, (v for v, _ in wanted), (f.term.var, ()))
            mass, total = cells.get(tuple(x for _, x in wanted), (0, 0))
            if mass == 0:
                shown = ",".join(f"{v}={x}" for v, x in wanted)
                raise ZeroProbabilityCondition(f"conditioning event {shown} has mass zero")
            return Fraction(total, mass)
        if isinstance(f, SumOver):
            if first:
                for var, _ in f.bindings:
                    check_observational(Term(var))
            out = Fraction(0)
            for combo, (mass, _) in sorted(grouped(f, (v for v, _ in f.bindings)).items()):
                if mass:
                    inner = {**binds, **{sym: val for (_, sym), val in zip(f.bindings, combo)}}
                    out += Fraction(mass, law.denominator) * ev(f.body, inner)
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
        _check_size(prod(len(a.values) for a in g.attrs.values() if a.deterministic is None))
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
    compiled: CompiledEstimand | None = None,
    report: EstimandReport | None = None,
) -> SoundnessReport:
    """Compare identified formula, naive analysis, and the exact truth.

    With no ``seed``, the study's own data model is used.  One law over
    both arms' outcome and stratum columns and the observed variables of
    both formulas serves every reader.
    """
    if compiled is None:
        compiled = compile_study(study)
    if report is None:
        report = identify_estimand(study, compiled)
    g = compiled.graph
    model = data_model(compiled, seed)
    left, right = compiled.contrast.left, compiled.contrast.right
    naive = naive_formula(compiled)
    identified = report.status == "identified"
    columns = _mean_columns(left) + _mean_columns(right) + _formula_columns(g, naive)
    if identified:
        columns += _formula_columns(g, report.combined)
    law = _law(g, model, compiled.worlds(), list(dict.fromkeys(columns)))

    true_value = _mean_value(left, law) - _mean_value(right, law)
    formula_value = None
    gap = None
    if identified:
        formula_value = _formula_value(g, report.combined, None, law)
        gap = formula_value - true_value
    naive_value = None
    naive_gap = None
    try:
        naive_value = _formula_value(g, naive, None, law)
        naive_gap = naive_value - true_value
    except ZeroProbabilityCondition:
        pass
    return SoundnessReport(
        study=study.name,
        seed=seed,
        status=report.status,
        consistency_ok=law.consistent,
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


def conditionally_independent(
    table: PotentialOutcomeTable, x: str, y: str, z: Sequence[str]
) -> bool:
    """Exact conditional independence of two variables in the full joint law."""
    names = list(dict.fromkeys((x, y, *z)))
    law = _law(table.graph, table.scm, table.contexts, [(v, ()) for v in names])
    marginals: dict[tuple[str, ...], Cells] = {}

    def mass(assignment: Mapping[str, int]) -> int:
        key = tuple(assignment)
        if key not in marginals:
            marginals[key] = law.given([(v, ()) for v in key])
        return marginals[key].get(tuple(assignment.values()), (0, 0))[0]

    support = {v: sorted(value for value, in law.given([(v, ())])) for v in names}
    for z_combo in product(*(support[v] for v in z)):
        base = dict(zip(z, z_combo))
        pz = mass(base)
        if pz == 0:
            continue
        for xv in support[x]:
            for yv in support[y]:
                pxy = mass({**base, x: xv, y: yv})
                px = mass({**base, x: xv})
                py = mass({**base, y: yv})
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
