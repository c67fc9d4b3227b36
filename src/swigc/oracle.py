"""Exact oracle for finite structural causal models.

Given exact structural equations, the oracle computes the exact joint law
of the (variable, world) columns a reader needs: observed and
counterfactual values side by side, with rational masses.  True estimand
values and identified-formula values are then both exact Fractions, so
soundness checks compare with == rather than a tolerance.

The law comes from one forward pass over the nodes in roots-late order:
the layered topological order, with each parentless node moved to just
before the first node that reads it, and those no node reads last (the
elimination order of bucket elimination, Dechter 1999).  So a root's
noise multiplies the states from its first reader on, not from the first
step: a latent cause of each link of a chain costs one link, not the
chain.  Each node's noise belongs to that node alone and is shared by its
copies in every world (the twin networks of Balke & Pearl 1994), so the
noise is summed out at its node and no unit is ever built whole:

- The state maps each joint value of the live columns to an integer mass.
  All masses share one denominator: the product, over stochastic nodes,
  of the lcm of that node's noise denominators.
- A world reaches the nodes it pins and, through their parents, their
  descendants.  A copy the world does not reach has the observed copy's
  noise and parent values, so it is the observed column, shared rather
  than copied.  One plan (``_plan``) decides, world by world, which copies
  are pinned, shared or evaluated; every column a step reads, keeps or is
  asked for goes through its alias map.
- At each node, every state is expanded by each noise value (a
  deterministic rule gives one step) and the node is evaluated in the
  observed world and in each world that reaches it: a pinned value, the
  composite rule, or a table lookup.  A shared copy's lookup is the
  observed one, so a missing entry is still met.
- A stochastic root that no world pins, no reader asks for and only one
  node reads is never a column: it is summed out at that node, its only
  bucket.  The node's noise runs over each combination of its summed
  roots' values (roots in plan order), then over its own noise, with the
  weights multiplied, so the states never hold the root.
- Each column that no later node reads, no query wants and no
  consistency check needs is then dropped, which merges the states that
  differed only there.
- States of mass zero are kept, so that errors reached only through
  zero-weight noise still raise.
- Consistency is checked, not assumed, on the copies that can differ: a
  world's reached, unpinned copies.  (A shared copy is the observed one,
  and a pinned copy holds the value the check's condition gives the
  observed one.)  Once such a copy, its observed copy and the observed
  values of the world's intervened variables are all known, the two
  copies must agree wherever those observed values match the world's
  assignments.

Every reader groups the integer masses with ``_Law.given``; a Fraction
is built only where a reader divides.  A mean E[outcome | stratum] groups
the law by its stratum columns, weighted by its outcome column
(``_mean_value``), and a formula groups it once per distinct (columns,
weighting column), which its two arms share.  check_soundness builds one
law over every column its readers need, reads both arms' means off it,
the left arm first, and hands the formulas its marginal over their
observed variables, itself one grouping of the law.  The guards come in
the order the units apply them: a missing equation, the cap on the
product of the declared noise supports, then a missing table entry,
reported as the first failure in row order.

No row table is built.  PotentialOutcomeTable._cells is the one unit
stream: each unit's (noise configuration's) values at the columns asked
for, and its weight.  validate_consistency checks each unit; write_csv
writes each unit's cells as they come, with the counterfactual columns
next to the factual ones, as a teaching/debugging view; and a missing
table entry is named by reading units, with no columns, up to the first
that fails.  No other reader reads the units.
"""

from __future__ import annotations

import csv
import os
import random
from fractions import Fraction
from functools import partial
from itertools import islice, product
from math import prod
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyStratum,
    OracleError,
    SupportTooLarge,
    ZeroProbabilityCondition,
)
from .estimand import CompiledEstimand, compile_study
from .formula import Difference, Event, Expect, Formula, SumOver, Term, terms
from .graph import CausalGraph, CompositeRule, Context, format_term, record
from .identify import EstimandReport, identify_estimand
from .model import SCMSpec, StructuralEquation, StudySpec, _noise_weights

__all__ = [
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
    "write_csv",
]

ROW_CAP = 10**6


@record
class PotentialOutcomeTable:
    """A model and its worlds, the observed world () first; ``_cells``
    streams the units, and none is held."""

    graph: CausalGraph
    scm: SCMSpec
    contexts: tuple[Context, ...]

    def _cells(self, columns: Sequence[Column]) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Each unit's (noise configuration's) values at ``columns``,
        (variable, world) columns of the table, and its weight, in row
        order: the last stochastic variable by name varies fastest.  A
        missing table entry raises at the first unit, world and node that
        reads it."""
        mechanisms, stochastic = _mechanisms(self.graph, self.scm)
        # A slot per (variable, world) column, world by world in topological
        # order, then one per stochastic variable's noise; ``template``
        # holds the pinned values.  A step evaluates one copy, in the
        # plan's order (``_plan``).  A shared copy is the observed column:
        # steps read it, and a unit shows it, from the observed slot.  The
        # observed world's steps run first with the same keys, so a missing
        # entry still raises at the same unit, world and node.
        every = [(base, ctx) for ctx in self.contexts for base, _, _ in mechanisms]
        slot = {c: j for j, c in enumerate(every + [(b, None) for b in stochastic])}
        alias, copies = _plan(mechanisms, self.contexts)
        shown = _getter([slot[alias[c]] for c in columns])
        template = [0] * len(slot)
        steps = []
        for i, ctx, value, inputs in copies:
            base, rule, eq = mechanisms[i]
            at = slot[(base, ctx)]
            if value is not None:
                template[at] = value
                continue
            reads = [slot[c] for c in inputs]
            if rule is None:
                reads.append(slot[(base, None)])
            steps.append((at, _getter(reads), rule, eq, base))
        noise_slots = slice(len(every), None)
        # (value, numerator, denominator) per noise value of each variable
        noise = [
            [(v, *Fraction(p).as_integer_ratio()) for v, p in self.scm.equations[b].noise]
            for b in stochastic
        ]
        for picks in product(*noise):
            values = template.copy()
            values[noise_slots] = [v for v, _, _ in picks]
            for at, read, rule, eq, base in steps:
                key = read(values)
                try:
                    values[at] = eq.table[key] if rule is None else rule.apply(*key)
                except KeyError:
                    raise OracleError(
                        f"table for {base} has no entry for {key}; the data model"
                        " does not cover this intervention"
                    ) from None
            weight = Fraction(prod([n for _, n, _ in picks]), prod([d for _, _, d in picks]))
            yield shown(values), weight


def _check_size(total: int) -> None:
    if total > ROW_CAP:
        raise SupportTooLarge(f"{total} noise configurations exceed the cap of {ROW_CAP}")


Column = tuple[str, Context]
Mechanism = tuple[str, CompositeRule | None, StructuralEquation | None]
Copy = tuple[int, Context, int | None, list[Column]]  # step, world, pinned value, reads
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
    """The table of ``contexts``' worlds, the observed world () first.  It
    refuses what its units would, in their order: a missing equation, the
    cap, then a missing table entry, which one forward pass finds.  So a
    returned table streams its units without error."""
    worlds = _worlds(contexts)
    _law(graph, scm, worlds, ())
    return PotentialOutcomeTable(graph=graph, scm=scm, contexts=tuple(worlds))


@record
class _Law:
    """Integer masses of the joint values of the law's columns over one
    shared ``denominator``.  ``positions`` gives each column's position in
    a key; copies that share a column share its position.  A law the
    forward pass built also says whether every consistency check held and
    the ``widest`` state count any step of the pass held; a marginal of
    it, which checked nothing, leaves both None."""

    positions: Mapping[Column, int]
    masses: Mapping[tuple[int, ...], int]
    denominator: int
    consistent: bool | None = None
    widest: int | None = None

    def given(self, columns: Sequence[Column], at: Column | None = None) -> Cells:
        """(mass, sum of mass times the value at ``at``, 0 without it) for
        each joint value of ``columns``, zero masses included; ``columns``
        and ``at`` are among this law's."""
        pick = _getter([self.positions[c] for c in columns])
        j = None if at is None else self.positions[at]
        cells: Cells = {}
        for key, mass in self.masses.items():
            cell = pick(key)
            m, total = cells.get(cell, (0, 0))
            cells[cell] = (m + mass, total if j is None else total + mass * key[j])
        return cells


def _getter(positions: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The tuple of a key's values at ``positions``; itemgetter gives a
    bare value for one position and needs at least one."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        j = positions[0]
        return lambda key: (key[j],)
    return lambda key: ()


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
        # Some unit misses a table entry; the units, read with no columns
        # up to the first that fails, name it.
        for _ in PotentialOutcomeTable(graph, scm, tuple(worlds))._cells(()):
            pass
        raise
    for var, _ in columns:
        graph.node(var)  # raises UnknownNode for a variable the graph lacks
    return law


def _parents(rule: CompositeRule | None, eq: StructuralEquation | None) -> Sequence[str]:
    return (rule.source, rule.guard) if rule is not None else eq.parents


def _plan(
    mechanisms: list[Mechanism], worlds: Sequence[Context]
) -> tuple[dict[Column, Column], list[Copy]]:
    """The column that holds each node's copy in each world, and, world by
    world in topological order, the copies a world reaches (see the module
    docstring), each pinned, with its value, or evaluated, with None and
    the columns its parents hold.  The observed world evaluates every node."""
    alias: dict[Column, Column] = {}
    copies: list[Copy] = []
    for ctx in worlds:
        pinned = dict(ctx)
        reached: set[str] = set()
        for i, (base, rule, eq) in enumerate(mechanisms):
            parents = _parents(rule, eq)
            if ctx and base not in pinned and reached.isdisjoint(parents):
                alias[(base, ctx)] = (base, ())
                continue
            reached.add(base)
            alias[(base, ctx)] = (base, ctx)
            if base in pinned:
                copies.append((i, ctx, pinned[base], []))
            else:
                copies.append((i, ctx, None, [alias[(p, ctx)] for p in parents]))
    return alias, copies


def _roots_late(mechanisms: list[Mechanism]) -> list[Mechanism]:
    """``mechanisms`` with each parentless node moved to just before the
    first node that reads it, and those that no node reads moved last.
    The other nodes keep their order, and the roots of one reader join in
    the order its parents are listed, so the order stays topological."""
    waiting = {base: (base, rule, eq) for base, rule, eq in mechanisms if not _parents(rule, eq)}
    order: list[Mechanism] = []
    for mechanism in mechanisms:
        base, rule, eq = mechanism
        if base not in waiting:
            order += [waiting.pop(p) for p in _parents(rule, eq) if p in waiting]
            order.append(mechanism)
    return order + list(waiting.values())


def _forward(
    mechanisms: list[Mechanism], worlds: list[Context], columns: Sequence[Column]
) -> _Law:
    """The pass itself, in roots-late order; a missing table entry raises
    KeyError."""
    mechanisms = _roots_late(mechanisms)
    step = {base: i for i, (base, _, _) in enumerate(mechanisms)}
    alias, copies = _plan(mechanisms, worlds)
    # the last step that needs each column; a copy of a world the pass
    # does not have, or of a variable the graph lacks, is its own column
    last = {alias.get(c, c): len(mechanisms) for c in columns}

    def need(column: Column, at: int) -> None:
        last[column] = max(last.get(column, -1), at)

    # Per step: the worlds that pin the node, with the pinned value, and
    # the worlds that evaluate it, with the columns it reads there.  And
    # the worlds whose copies of these nodes are checked against the
    # observed copies on the states that step leaves, the first where the
    # observed values of the world's intervened variables are known too.
    # Only an evaluated copy of an intervened world can differ: a shared
    # copy is the observed column, and a pinned one holds the world's value,
    # which the observed copy has wherever the check applies.  The observed
    # run never meets a world that sets a variable the graph lacks.
    pins: list[list[tuple[Context, int]]] = [[] for _ in mechanisms]
    reads: list[list[tuple[Context, list[Column]]]] = [[] for _ in mechanisms]
    checks: list[dict[Context, list[str]]] = [{} for _ in mechanisms]
    first: dict[Column, int] = {}  # the first step that reads each column
    for i, ctx, value, inputs in copies:
        if value is not None:
            pins[i].append((ctx, value))
            continue
        reads[i].append((ctx, inputs))
        for column in inputs:
            need(column, i)
            first.setdefault(column, i)
        if ctx and all(v in step for v, _ in ctx):
            base = mechanisms[i][0]
            at = max(i, *(step[v] for v, _ in ctx))
            checks[at].setdefault(ctx, []).append(base)
            for column in ((base, ctx), (base, ()), *((v, ()) for v, _ in ctx)):
                need(column, at + 1)

    # A stochastic root that no world pins and that only its first reader
    # needs (no other step reads it, no caller asks for it) is summed out in
    # that reader's step, its only bucket, and never becomes a column: the
    # reader's noise runs over the roots' values, then its own noise.
    roots: list[list[Mechanism]] = [[] for _ in mechanisms]
    summed: set[int] = set()
    for j, (base, rule, eq) in enumerate(mechanisms):
        reader = first.get((base, ()), -1)
        if rule is None and not eq.parents and not pins[j] and last.get((base, ())) == reader:
            roots[reader].append((base, rule, eq))
            summed.add(j)

    live: list[Column] = []
    at: dict[Column, int] = {}  # the position of each live column in a state's key
    states: dict[tuple[int, ...], int] = {(): 1}
    denominator = 1
    widest = 1
    consistent = True
    for i, (base, rule, eq) in enumerate(mechanisms):
        if i in summed:
            continue
        scale, weights = _noise_weights(eq.noise) if rule is None else (1, [1])
        outcomes = _outcomes(rule, eq)
        if roots[i]:
            outcomes, weights, scale, reads[i] = _summed(roots[i], reads[i], outcomes, weights, scale)
        denominator *= scale
        picks = [_getter([at[c] for c in inputs]) for _, inputs in reads[i]]
        grown = live + [(base, ctx) for ctx, _ in reads[i]] + [(base, ctx) for ctx, _ in pins[i]]
        fixed = tuple(x for _, x in pins[i])
        kept = [j for j, c in enumerate(grown) if last.get(c, -1) > i]
        keep = _getter(kept)
        memo: dict[tuple[int, ...], tuple[int, ...]] = {}
        nxt: dict[tuple[int, ...], int] = {}
        for key, mass in states.items():
            per_world = []
            for pick in picks:
                parents = pick(key)
                out = memo.get(parents)
                if out is None:
                    out = memo[parents] = outcomes(parents)
                per_world.append(out)
            for weight, new in zip(weights, zip(*per_world)):
                cell = keep(key + new + fixed)
                nxt[cell] = nxt.get(cell, 0) + mass * weight
        states = nxt
        widest = max(widest, len(states))
        live = [grown[j] for j in kept]
        at = {c: j for j, c in enumerate(live)}
        for ctx, bases in checks[i].items():
            held = _getter([at[(v, ())] for v, _ in ctx])
            values = tuple(x for _, x in ctx)
            evaluated = _getter([at[(b, ctx)] for b in bases])
            observed = _getter([at[(b, ())] for b in bases])
            consistent = consistent and all(
                held(key) != values or evaluated(key) == observed(key) for key in states
            )
    positions = {**at, **{c: at[alias[c]] for c in columns if c in alias}}
    return _Law(positions, states, denominator, consistent, widest)


def _summed(
    roots: list[Mechanism],
    reads: list[tuple[Context, list[Column]]],
    outcomes: Callable[[tuple[int, ...]], tuple[int, ...]],
    weights: list[int],
    scale: int,
) -> tuple[
    Callable[[tuple[int, ...]], tuple[int, ...]], list[int], int, list[tuple[Context, list[Column]]]
]:
    """A reader's outcomes, weights, scale and reads with ``roots`` summed
    out at it: the noise runs over each combination of the roots' values
    (noise order, roots in plan order), then over the reader's own noise,
    and the scale takes in the roots' lcms.  Every world's read holds the
    roots' columns in the same places; the returned reads leave them out,
    and the outcomes take the other parents' values."""
    held = [(b, ()) for b, _, _ in roots]
    inputs = reads[0][1]
    # the parents' values in ``inputs`` order, from the other parents'
    # values followed by a combination of the roots' values
    order = [k for k, c in enumerate(inputs) if c not in held] + [inputs.index(c) for c in held]
    rebuild = _getter(sorted(range(len(order)), key=order.__getitem__))
    combos = list(product(*([eq.table[(v,)] for v, _ in eq.noise] for _, _, eq in roots)))
    scaled = [_noise_weights(eq.noise) for _, _, eq in roots]

    def summed(parents: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([x for combo in combos for x in outcomes(rebuild(parents + combo))])

    combined = [prod(ws) * w for ws in product(*(ws for _, ws in scaled)) for w in weights]
    scale *= prod(s for s, _ in scaled)
    kept = [(ctx, [c for c in inputs if c not in held]) for ctx, inputs in reads]
    return summed, combined, scale, kept


def _outcomes(
    rule: CompositeRule | None, eq: StructuralEquation | None
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The node's value under each noise value, from its parents' values."""
    if rule is not None:
        return lambda parents: (rule.apply(*parents),)
    table, noise = eq.table, [v for v, _ in eq.noise]
    return lambda parents: tuple([table[parents + (v,)] for v in noise])


def _mean_columns(mean: Expect) -> list[Column]:
    return [(t.var, t.context) for t in terms(mean)]


def _mean_value(law: _Law, mean: Expect) -> Fraction:
    """E[outcome | stratum] of ``mean``, from the stratum's mass and
    outcome-weighted sum; a stratum of mass zero raises EmptyStratum."""
    outcome, *stratum = _mean_columns(mean)
    cells = law.given(stratum, outcome)
    mass, total = cells.get(tuple(e.value for e in mean.given), (0, 0))
    if mass == 0:
        shown = ",".join(e.label for e in mean.given)
        raise EmptyStratum(f"stratum {shown} has probability zero")
    return Fraction(total, mass)


def true_estimand(table: PotentialOutcomeTable, mean: Expect) -> Fraction:
    """Exact value of one counterfactual mean, such as E[Y(a=1)|M(a=1)=0],
    in the table's model."""
    ctx = mean.term.context
    if ctx not in table.contexts:
        shown = ",".join(f"{v}={x}" for v, x in ctx)
        raise OracleError(f"table was not enumerated for world ({shown})")
    if any(e.term.context not in table.contexts for e in mean.given):
        raise OracleError("table was not enumerated for the stratum's world")
    law = _law(table.graph, table.scm, table.contexts, _mean_columns(mean))
    return _mean_value(law, mean)


def _formula_columns(g: CausalGraph, formula: Formula) -> list[Column]:
    """The observed world's columns of the observed variables ``formula`` mentions."""
    observed = {n.base for n in g.nodes if g.attrs[n].observed}
    return [(v, ()) for v in sorted({t.var for t in terms(formula)} & observed)]


def eval_formula(table: PotentialOutcomeTable, formula: Formula) -> Fraction:
    """Evaluate an observational formula against the observed joint law of
    the variables it mentions; terms are checked as they are evaluated."""
    g = table.graph
    law = _law(g, table.scm, table.contexts, _formula_columns(g, formula))
    return _formula_value(g, formula, law)


def _formula_value(g: CausalGraph, formula: Formula, law: _Law) -> Fraction:
    """``formula``'s value; each distinct (columns, at) groups ``law`` once,
    so Expect and SumOver nodes that read the same cells share them."""
    groups: dict[tuple[tuple[Column, ...], Column | None], Cells] = {}
    # Keyed by identity: a formula's hash walks its whole subtree, and the
    # tree stays alive for the call, so no id is reused.
    seen: set[int] = set()

    def grouped(names: Iterable[str], at: Column | None = None) -> Cells:
        key = (tuple((v, ()) for v in names), at)
        if key not in groups:
            groups[key] = law.given(*key)
        return groups[key]

    def check_observational(term: Term) -> None:
        if term.context:
            raise OracleError(f"formula is not observational: {term.label}")
        if not g.attr(g.node(term.var)).observed:
            raise OracleError(f"formula refers to unobserved {term.var}")

    def ev(f: Formula, binds: dict[str, int]) -> Fraction:
        # A node's terms are checked on its first evaluation only, before
        # it is grouped, in the order a full walk would check them.
        first = id(f) not in seen
        seen.add(id(f))
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
            cells = grouped((v for v, _ in wanted), (f.term.var, ()))
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
            for combo, (mass, _) in sorted(grouped(v for v, _ in f.bindings).items()):
                if mass:
                    inner = {**binds, **{sym: val for (_, sym), val in zip(f.bindings, combo)}}
                    out += Fraction(mass, law.denominator) * ev(f.body, inner)
            return out
        if isinstance(f, Difference):
            return ev(f.left, binds) - ev(f.right, binds)
        raise OracleError(f"cannot evaluate {f!r}")

    return ev(formula, {})


def naive_formula(compiled: CompiledEstimand) -> Difference:
    """The analysis that ignores causal structure: condition on everything
    the estimand mentions, as observed values, and contrast the arms."""

    def arm(level: int) -> Expect:
        events = [Event(Term(compiled.study.treatment), level)]
        for var in compiled.split_vars[1:]:
            events.append(Event(Term(var), compiled.split_levels[var]))
        if compiled.stratum is not None:
            events.append(Event(Term(compiled.stratum.term.var), compiled.stratum.value))
        return Expect(Term(compiled.study.outcome), tuple(events))

    hi, lo = compiled.study.treatment_levels
    return Difference(arm(hi), arm(lo))


def random_scm(graph: CausalGraph, seed: int) -> SCMSpec:
    """A random exact data model on ``graph`` with positivity everywhere.

    Noise probabilities are random small rationals; each parent
    configuration maps the noise bijectively onto the declared values,
    so every value stays reachable under every intervention.  The map is
    ``random.sample(support, k)``'s draws, made inline: the same calls to
    the generator, so the same tables, without the per-call overhead.
    """
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
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
        draws = [(k - n, n, n.bit_length()) for n in range(k, 0, -1)]
        for combo in product(*parent_supports):
            # sample's pool draw: the i-th value is the j-th of the n left,
            # j the first getrandbits below n, and the last left moves to j
            pool = support.copy()
            for i, n, bits in draws:
                j = getrandbits(bits)
                while j >= n:
                    j = getrandbits(bits)
                table[combo + (i,)] = pool[j]
                pool[j] = pool[n - 1]
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


@record
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
    both formulas serves every reader: the arms' means are read off it,
    and the formulas read its marginal over those observed variables.
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
    observed = _formula_columns(g, naive)
    if identified:
        observed += _formula_columns(g, report.combined)
    observed = list(dict.fromkeys(observed))
    columns = _mean_columns(left) + _mean_columns(right) + observed
    law = _law(g, model, compiled.worlds(), list(dict.fromkeys(columns)))

    true_value = _mean_value(law, left) - _mean_value(law, right)
    masses = {cell: mass for cell, (mass, _) in law.given(observed).items()}
    marginal = _Law({c: i for i, c in enumerate(observed)}, masses, law.denominator)
    formula_value = None
    gap = None
    if identified:
        formula_value = _formula_value(g, report.combined, marginal)
        gap = formula_value - true_value
    naive_value = None
    naive_gap = None
    try:
        naive_value = _formula_value(g, naive, marginal)
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

    More than ``ROW_CAP`` seeds are refused before any is checked; only
    one past the cap is ever drawn from ``seeds``.  The study is compiled
    and identified once; only the data model varies.  A pool starts all
    its workers at once, so it gets no more than there are seeds or
    processors.
    """
    seeds = list(islice(seeds, ROW_CAP + 1))
    if len(seeds) > ROW_CAP:
        raise SupportTooLarge(f"a battery of more than {ROW_CAP} seeds exceeds the cap")
    compiled = compile_study(study)
    one = partial(
        check_soundness, study, compiled=compiled, report=identify_estimand(study, compiled)
    )
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
    at = {base: j for j, base in enumerate(bases)}
    # a world that sets a variable the graph lacks has no observed value to match
    worlds = [ctx for ctx in table.contexts if ctx and all(v in at for v, _ in ctx)]
    columns = [(base, ctx) for ctx in [(), *worlds] for base in bases]
    for i, (cells, _) in enumerate(table._cells(columns), start=1):
        for k, ctx in enumerate(worlds, start=1):
            if any(cells[at[v]] != x for v, x in ctx):
                continue
            for j, base in enumerate(bases):
                got, obs = cells[k * len(bases) + j], cells[j]
                if got != obs:
                    problems.append(
                        f"row {i}: {format_term(base, ctx)}={got} but observed {base}={obs}"
                    )
    return problems


def write_csv(table: PotentialOutcomeTable, out: IO[str]) -> None:
    """One unit per row, written as it streams: id, counterfactual
    columns, observed columns, weight."""
    g = table.graph
    observed = [n.base for n in g.topological_order() if g.attr(n).observed]
    intervened = {v for ctx in table.contexts for v, _ in ctx if g.has_label(v)}
    affected = {d.base for v in intervened for d in g.descendants(g.node(v))}
    cf_cols = [(b, ctx) for ctx in table.contexts if ctx for b in observed if b in affected]
    cells = cf_cols + [(b, ()) for b in observed]
    writer = csv.writer(out)
    writer.writerow(["id", *(format_term(b, ctx) for b, ctx in cf_cols), *observed, "weight"])
    for i, (values, weight) in enumerate(table._cells(cells), start=1):
        writer.writerow([i, *values, str(weight)])
