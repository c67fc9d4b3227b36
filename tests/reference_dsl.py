"""The character-walking parser, kept as the reference for the regex one.

Below is the study-file module ``swigc.dsl`` used to ship, with only its
imports changed: a tokenizer that walks the text one character at a
time, and a parser with one small method per token check.  The property
tests require ``swigc.dsl`` to return an equal ``StudySpec``, or to raise
the same exception type with the same message; its docstring follows.

The study file format: parser and canonical serializer.

A study file declares nodes with roles, edges, one strategy per
intercurrent event, the target contrast, and optionally an exact data
model.  The parser reports the first syntax error with 1-based line and
column plus the token kinds that would have been accepted; well-formed
files that break a study invariant raise SemanticError instead.

serialize() emits a canonical form: entries sorted by name, attributes
reduced to non-defaults, data-model tables normalized so every key ends
with the noise value.  Parsing canonical text and serializing again is
byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from swigc.errors import ConflictingStrategies, ParseError, GraphError, SemanticError, SpecError
from swigc.graph import CausalGraph, NodeAttrs, build_graph, valid_name
from swigc.model import (
    Composite,
    Hypothetical,
    PrincipalStratum,
    SCMSpec,
    Strategy,
    StructuralEquation,
    StudySpec,
    TreatmentPolicy,
)

__all__ = ["GRAMMAR_VERSION", "parse_study", "parse_file", "serialize"]

GRAMMAR_VERSION = "1.0"

_DECLARED_ROLES = ("covariate", "intercurrent", "latent", "outcome", "treatment")


# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | string | punct | eof
    text: str
    line: int
    col: int


_PUNCT2 = ("->", ":=")
_PUNCT1 = "{}():;,=/"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(_Token("punct", two, line, start_col))
            i += 2
            col += 2
            continue
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT1:
            tokens.append(_Token("punct", c, line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError(line, start_col, "unterminated string")
            tokens.append(_Token("string", text[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        raise ParseError(line, start_col, f"unexpected character {c!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


# parser


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, expected: Iterable[str]) -> "ParseError":
        t = self.peek()
        what = "end of file" if t.kind == "eof" else f"{t.text!r}"
        return ParseError(t.line, t.col, f"unexpected {what}", list(expected))

    def at_word(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == word

    def word(self, word: str) -> None:
        if not self.at_word(word):
            raise self.fail([f'"{word}"'])
        self.advance()

    def punct(self, p: str) -> None:
        t = self.peek()
        if t.kind != "punct" or t.text != p:
            raise self.fail([f'"{p}"'])
        self.advance()

    def name(self, what: str = "a name") -> str:
        t = self.peek()
        if t.kind != "ident":
            raise self.fail([what])
        self.advance()
        return t.text

    def integer(self) -> int:
        t = self.peek()
        if t.kind != "int":
            raise self.fail(["an integer"])
        self.advance()
        try:
            return int(t.text)
        except ValueError:  # longer than int() converts (sys.get_int_max_str_digits)
            digits = len(t.text.lstrip("-"))
            message = f"integer literal of {digits} digits is too long"
            raise ParseError(t.line, t.col, message) from None

    def string(self) -> str:
        t = self.peek()
        if t.kind != "string":
            raise self.fail(["a quoted string"])
        self.advance()
        return t.text

    # grammar

    def study(self) -> StudySpec:
        self.word("study")
        title = self.string()
        self.punct("{")
        nodes = [self.node_decl()]
        while self.at_word("node"):
            nodes.append(self.node_decl())
        if not self.at_word("edges"):
            raise self.fail(['"node"', '"edges"'])
        edges = self.edges_decl()
        strategies = []
        while self.at_word("strategy"):
            strategies.append(self.strategy_decl())
        if not self.at_word("estimand"):
            raise self.fail(['"strategy"', '"estimand"'])
        estimand = self.estimand_decl()
        scm = None
        if self.at_word("scm"):
            scm = self.scm_decl()
        t = self.peek()
        if t.kind != "punct" or t.text != "}":
            raise self.fail(['"scm"', '"}"'] if scm is None else ['"}"'])
        self.advance()
        if self.peek().kind != "eof":
            raise self.fail(["end of file"])
        return _assemble(title, nodes, edges, strategies, estimand, scm)

    def node_decl(self) -> tuple[str, dict]:
        self.word("node")
        name = self.name("a variable name")
        self.punct("{")
        attrs: dict = {}
        while not self._at_punct("}"):
            t = self.peek()
            if t.kind != "ident" or t.text not in ("role", "observed", "adjust", "values"):
                raise self.fail(['"role"', '"observed"', '"adjust"', '"values"', '"}"'])
            key = self.name()
            self.punct(":")
            if key == "role":
                value = self.name("a role name")
            elif key in ("observed", "adjust"):
                value = self._boolean()
            else:
                value = self._int_list()
            self.punct(";")
            if key in attrs:
                raise SemanticError(f"node {name}: attribute {key} given twice")
            attrs[key] = value
        self.advance()
        return name, attrs

    def edges_decl(self) -> list[tuple[str, str]]:
        self.word("edges")
        self.punct("{")
        edges: list[tuple[str, str]] = []
        while not self._at_punct("}"):
            src = self.name("a variable name")
            self.punct("->")
            dst = self.name("a variable name")
            self.punct(";")
            edges.append((src, dst))
        self.advance()
        return edges

    def strategy_decl(self) -> tuple[str, Strategy]:
        self.word("strategy")
        var = self.name("a variable name")
        self.punct(":")
        t = self.peek()
        kinds = ("treatment_policy", "hypothetical", "composite", "principal_stratum")
        if t.kind != "ident" or t.text not in kinds:
            raise self.fail([f'"{k}"' for k in kinds])
        kind = self.name()
        strat: Strategy
        if kind == "treatment_policy":
            strat = TreatmentPolicy()
        elif kind == "hypothetical":
            self.punct("(")
            level = self.integer()
            self.punct(")")
            strat = Hypothetical(level=level)
        elif kind == "composite":
            self.punct("(")
            self.word("failure")
            self.punct("=")
            failure = self.integer()
            self.punct(")")
            strat = Composite(failure=failure)
        else:
            self.punct("(")
            inner = self.name("a variable name")
            self.punct("(")
            under = self.integer()
            self.punct(")")
            self.punct("=")
            equals = self.integer()
            self.punct(")")
            strat = PrincipalStratum(var=inner, under=under, equals=equals)
        self.punct(";")
        return var, strat

    def estimand_decl(self) -> tuple[str, str, int, str, int]:
        self.word("estimand")
        self.word("mean_difference")
        self.punct("(")
        target = self.name("a variable name")
        self.punct(";")
        var1 = self.name("a variable name")
        self.punct("=")
        lvl1 = self.integer()
        self.word("vs")
        var2 = self.name("a variable name")
        self.punct("=")
        lvl2 = self.integer()
        self.punct(")")
        self.punct(";")
        return target, var1, lvl1, var2, lvl2

    def scm_decl(self) -> list[tuple]:
        self.word("scm")
        self.punct("{")
        equations: list[tuple] = []
        while not self._at_punct("}"):
            equations.append(self.equation())
        self.advance()
        return equations

    def equation(self) -> tuple:
        var = self.name("a variable name")
        self.punct(":=")
        noise = None
        table = None
        if self.at_word("noise"):
            noise = self.noise_block()
        if self.at_word("table"):
            table = self.table_block()
        if noise is None and table is None:
            raise self.fail(['"noise"', '"table"'])
        self.punct(";")
        return var, noise, table

    def noise_block(self) -> list[tuple[int, Fraction]]:
        self.word("noise")
        self.punct("{")
        entries: list[tuple[int, Fraction]] = []
        while not self._at_punct("}"):
            value = self.integer()
            self.punct(":")
            num = self.integer()
            if self._at_punct("/"):
                self.advance()
                den = self.integer()
                if den == 0:
                    raise SemanticError("noise probability has denominator zero")
                prob = Fraction(num, den)
            else:
                prob = Fraction(num)
            self.punct(";")
            entries.append((value, prob))
        self.advance()
        if not entries:
            raise SemanticError("noise block must list at least one value")
        return entries

    def table_block(self) -> tuple[list[str], list[tuple[tuple[int, ...], int]]]:
        self.word("table")
        self.punct("(")
        parents: list[str] = []
        if not self._at_punct(")"):
            parents.append(self.name("a variable name"))
            while self._at_punct(","):
                self.advance()
                parents.append(self.name("a variable name"))
        self.punct(")")
        self.punct("{")
        entries: list[tuple[tuple[int, ...], int]] = []
        while not self._at_punct("}"):
            self.punct("(")
            key: list[int] = []
            if not self._at_punct(")"):
                key.append(self.integer())
                while self._at_punct(","):
                    self.advance()
                    key.append(self.integer())
            self.punct(")")
            self.punct("->")
            value = self.integer()
            self.punct(";")
            entries.append((tuple(key), value))
        self.advance()
        if not entries:
            raise SemanticError("table block must list at least one entry")
        return parents, entries

    # small helpers

    def _at_punct(self, p: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == p

    def _boolean(self) -> bool:
        t = self.peek()
        if t.kind == "ident" and t.text in ("true", "false"):
            self.advance()
            return t.text == "true"
        raise self.fail(['"true"', '"false"'])

    def _int_list(self) -> tuple[int, ...]:
        values = [self.integer()]
        while self._at_punct(","):
            self.advance()
            values.append(self.integer())
        return tuple(values)


# semantic assembly


def _node_attrs(name: str, raw: dict) -> NodeAttrs:
    role = raw.get("role", "covariate")
    if role not in _DECLARED_ROLES:
        allowed = ", ".join(_DECLARED_ROLES)
        raise SemanticError(f"node {name}: role must be one of {allowed}")
    observed = raw.get("observed", role != "latent")
    adjust = raw.get("adjust", False)
    values = raw.get("values", (0, 1))
    if role == "latent" and observed:
        raise SemanticError(f"node {name}: role latent contradicts observed: true")
    if adjust and (role != "covariate" or not observed):
        raise SemanticError(f"node {name}: adjust is only valid on observed covariates")
    return NodeAttrs(role=role, observed=observed, conditioned=adjust, values=values)


def _assemble(
    title: str,
    nodes: list[tuple[str, dict]],
    edges: list[tuple[str, str]],
    strategies: list[tuple[str, Strategy]],
    estimand: tuple[str, str, int, str, int],
    scm: list[tuple] | None,
) -> StudySpec:
    attr_by_name: dict[str, NodeAttrs] = {}
    for name, raw in nodes:
        if not valid_name(name):
            raise SemanticError(f"invalid variable name {name!r}")
        if name in attr_by_name:
            raise SemanticError(f"duplicate node {name}")
        attr_by_name[name] = _node_attrs(name, raw)

    seen_edges: set[tuple[str, str]] = set()
    for src, dst in edges:
        for end in (src, dst):
            if end not in attr_by_name:
                raise SemanticError(f"edge endpoint {end} is not a declared node")
        if (src, dst) in seen_edges:
            raise SemanticError(f"duplicate edge {src} -> {dst}")
        seen_edges.add((src, dst))

    try:
        graph = build_graph(list(attr_by_name.items()), edges)
    except GraphError as e:
        raise SemanticError(str(e)) from e

    by_role: dict[str, list[str]] = {}
    for name, a in attr_by_name.items():
        by_role.setdefault(a.role, []).append(name)
    for role in ("treatment", "outcome"):
        found = by_role.get(role, [])
        if len(found) != 1:
            raise SemanticError(f"a study needs exactly one {role} node, found {len(found)}")
    treatment = by_role["treatment"][0]
    outcome = by_role["outcome"][0]
    if graph.parents(graph.node(treatment)):
        raise SemanticError(f"treatment {treatment} must have no parents; it is randomized")

    strategy_map: dict[str, Strategy] = {}
    for var, strat in strategies:
        if var not in attr_by_name:
            raise SemanticError(f"strategy for undeclared variable {var}")
        if attr_by_name[var].role != "intercurrent":
            raise SemanticError(f"strategy target {var} must have role intercurrent")
        if var in strategy_map:
            raise ConflictingStrategies(f"{var} is given more than one strategy")
        strategy_map[var] = strat
    for var in sorted(by_role.get("intercurrent", [])):
        if var not in strategy_map:
            raise SemanticError(f"no strategy declared for intercurrent event {var}")

    treatment_values = attr_by_name[treatment].values
    for var, strat in strategy_map.items():
        var_values = attr_by_name[var].values
        if isinstance(strat, Hypothetical) and strat.level not in var_values:
            raise SemanticError(
                f"hypothetical level {strat.level} is outside declared values of {var}"
            )
        if isinstance(strat, PrincipalStratum):
            if strat.var != var:
                raise SemanticError(
                    f"principal stratum for {var} must be stated in terms of {var}"
                )
            if strat.under not in treatment_values:
                raise SemanticError(
                    f"principal stratum arm {strat.under} is outside declared"
                    f" values of {treatment}"
                )
            if strat.equals not in var_values:
                raise SemanticError(
                    f"principal stratum level {strat.equals} is outside declared"
                    f" values of {var}"
                )

    target, var1, lvl1, var2, lvl2 = estimand
    if target != outcome:
        raise SemanticError(f"estimand target {target} must be the outcome {outcome}")
    if var1 != treatment or var2 != treatment:
        other = var1 if var1 != treatment else var2
        raise SemanticError(f"estimand contrasts {other}, but the treatment is {treatment}")
    for lvl in (lvl1, lvl2):
        if lvl not in treatment_values:
            raise SemanticError(
                f"estimand level {lvl} is outside declared values of {treatment}"
            )
    if lvl1 == lvl2:
        raise SemanticError("estimand must contrast two different treatment levels")

    scm_spec = _assemble_scm(graph, attr_by_name, scm) if scm is not None else None
    return StudySpec(
        name=title,
        graph=graph,
        treatment=treatment,
        treatment_levels=(lvl1, lvl2),
        outcome=outcome,
        strategies=strategy_map,
        scm=scm_spec,
    )


def _assemble_scm(
    graph: CausalGraph,
    attr_by_name: dict[str, NodeAttrs],
    raw: list[tuple],
) -> SCMSpec:
    decls: dict[str, tuple] = {}
    for var, noise, table in raw:
        if var not in attr_by_name:
            raise SemanticError(f"equation for undeclared variable {var}")
        if var in decls:
            raise SemanticError(f"duplicate equation for {var}")
        decls[var] = (noise, table)
    for name in attr_by_name:
        if name not in decls:
            raise SemanticError(f"scm is missing an equation for {name}")

    support: dict[str, tuple[int, ...]] = {}
    equations: dict[str, StructuralEquation] = {}
    for node in graph.topological_order():
        var = node.base
        noise, table = decls[var]
        graph_parents = sorted(p.base for p in graph.parents(node))

        if noise is not None:
            values_seen: set[int] = set()
            for value, prob in noise:
                if value in values_seen:
                    raise SemanticError(f"noise for {var} lists value {value} twice")
                values_seen.add(value)
                if prob <= 0:
                    raise SemanticError(f"noise probabilities for {var} must be positive")
            total = sum(prob for _, prob in noise)
            if total != 1:
                raise SemanticError(f"noise probabilities for {var} must sum to 1, got {total}")
            noise_entries = tuple(sorted(noise))
        else:
            noise_entries = ((0, Fraction(1)),)

        if table is None:
            if graph_parents:
                raise SemanticError(f"equation for {var} needs a table; {var} has parents")
            mapping = {(value,): value for value, _ in noise_entries}
        else:
            listed_parents, entries = table
            if len(set(listed_parents)) != len(listed_parents):
                raise SemanticError(f"table for {var} lists a parent twice")
            if sorted(listed_parents) != graph_parents:
                listed = ", ".join(listed_parents) if listed_parents else "none"
                actual = ", ".join(graph_parents) if graph_parents else "none"
                raise SemanticError(
                    f"table for {var} lists parents {listed}, but the graph gives {actual}"
                )
            arity = len(listed_parents) + (1 if noise is not None else 0)
            perm = sorted(range(len(listed_parents)), key=lambda i: listed_parents[i])
            mapping = {}
            for key, value in entries:
                if len(key) != arity:
                    raise SemanticError(
                        f"table key {key} for {var} has {len(key)} components, expected {arity}"
                    )
                parent_vals = key[: len(listed_parents)]
                noise_val = key[len(listed_parents)] if noise is not None else 0
                canon = tuple(parent_vals[i] for i in perm) + (noise_val,)
                if canon in mapping:
                    raise SemanticError(f"table for {var} lists key {key} twice")
                mapping[canon] = value

        noise_values = [value for value, _ in noise_entries]
        expected = {
            combo + (nv,)
            for combo in product(*(support[p] for p in graph_parents))
            for nv in noise_values
        }
        got = set(mapping)
        missing = sorted(expected - got)
        if missing:
            raise SemanticError(f"table for {var} is missing an entry for {missing[0]}")
        extra = sorted(got - expected)
        if extra:
            raise SemanticError(
                f"table for {var} has an entry for unreachable values {extra[0]}"
            )

        declared = set(attr_by_name[var].values)
        for value in mapping.values():
            if value not in declared:
                raise SemanticError(
                    f"table for {var} produces {value}, outside its declared values"
                )
        support[var] = tuple(sorted(set(mapping.values())))
        equations[var] = StructuralEquation(
            parents=tuple(graph_parents), noise=noise_entries, table=mapping
        )
    return SCMSpec(equations=equations)


def parse_study(text: str) -> StudySpec:
    """Parse one study file; the first problem found is raised."""
    return _Parser(text).study()


def parse_file(path: str) -> StudySpec:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_study(text)


# canonical serialization


def _attr_parts(a: NodeAttrs) -> list[str]:
    parts = []
    if a.conditioned:
        parts.append("adjust: true;")
    if not a.observed:
        parts.append("observed: false;")
    if a.role not in ("covariate", "latent"):
        parts.append(f"role: {a.role};")
    if a.values != (0, 1):
        parts.append("values: " + ", ".join(str(v) for v in a.values) + ";")
    return parts


def _strategy_text(var: str, strat: Strategy) -> str:
    if isinstance(strat, TreatmentPolicy):
        return f"strategy {var}: treatment_policy;"
    if isinstance(strat, Hypothetical):
        return f"strategy {var}: hypothetical({strat.level});"
    if isinstance(strat, Composite):
        return f"strategy {var}: composite(failure = {strat.failure});"
    if isinstance(strat, PrincipalStratum):
        return f"strategy {var}: principal_stratum({strat.var}({strat.under}) = {strat.equals});"
    raise SemanticError(f"cannot serialize strategy {strat!r}")


def _equation_text(var: str, eq: StructuralEquation) -> str:
    noise = " ".join(f"{value}: {prob};" for value, prob in eq.noise)
    keys = sorted(eq.table)
    rows = " ".join(
        "(" + ", ".join(str(v) for v in key) + f") -> {eq.table[key]};" for key in keys
    )
    parents = ", ".join(eq.parents)
    return f"{var} := noise {{ {noise} }} table ({parents}) {{ {rows} }};"


def serialize(study: StudySpec) -> str:
    """Canonical text for a declared study; see the module docstring."""
    for node in study.graph.nodes:
        if node.context or node.fixed or study.graph.attrs[node].role == "derived":
            raise SemanticError("only declared studies can be serialized")
    lines = [f'study "{study.name}" {{']
    for node in study.graph.nodes:
        parts = _attr_parts(study.graph.attrs[node])
        body = "{ " + " ".join(parts) + " }" if parts else "{}"
        lines.append(f"  node {node.base} {body}")
    edge_text = " ".join(
        f"{u} -> {v};" for u, v in sorted((u.base, v.base) for u, v in study.graph.edges)
    )
    lines.append("  edges { " + edge_text + " }" if edge_text else "  edges {}")
    for var in sorted(study.strategies):
        lines.append("  " + _strategy_text(var, study.strategies[var]))
    hi, lo = study.treatment_levels
    lines.append(
        f"  estimand mean_difference({study.outcome};"
        f" {study.treatment} = {hi} vs {study.treatment} = {lo});"
    )
    if study.scm is not None:
        lines.append("  scm {")
        for var in sorted(study.scm.equations):
            lines.append("    " + _equation_text(var, study.scm.equations[var]))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
