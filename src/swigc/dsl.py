"""The study file format: parser and canonical serializer.

A study file declares nodes with roles, edges, one strategy per
intercurrent event, the target contrast, and optionally an exact data
model.  The parser reports the first syntax error with 1-based line and
column plus the token kinds that would have been accepted; well-formed
files that break a study invariant raise SemanticError instead.

The front end lists a text's tokens in one regex pass: the whitespace
and comments before each token (a comment runs from ``#`` to the end of
its line), then the token: punctuation (``->``, ``:=`` or one of
``{}():;,=/``), an integer (an optional ``-`` and decimal digits), a
name (letters, digits and ``_``, starting with a letter or ``_``), a
string that closes on its own line, the end of the text as "", or else
the one character there, which no token can start.  That list of texts
is all the parser keeps.  A token's kind is read from its first
character when the grammar asks for one, and a token's start offset, for
a line and column, is found again only when a ParseError is raised.
No grammar rule accepts a character no token can start, so a text that
holds one fails to parse; only then is the text checked for lexical
errors, and the first in the text wins over the parser's error: a word
that starts with a character that is neither a letter nor a decimal
digit, such as "²", or a character no token can start.
The parser's grammar methods are written with four token rules:
``at``/``expect`` for keywords and punctuation (a failure lists every
alternative), ``name``/``integer``/``take`` for a name, integer, string
or the end, ``block`` for ``{ item* }`` and ``commas`` for
``item, item, ...`` lists.  The items that fill a file, an edge, a
noise entry and a table entry, are read straight off the token list
when well formed, and otherwise again with those rules.  A data-model
table is checked with set operations; its keys are walked only to name
the first fault.

serialize() emits a canonical form: entries sorted by name, attributes
reduced to non-defaults, data-model tables normalized so every key ends
with the noise value.  Parsing canonical text and serializing again is
byte-stable.
"""

from __future__ import annotations

import os
import re
from fractions import Fraction
from itertools import islice, product
from math import lcm, prod
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConflictingStrategies, CycleError, ParseError, SemanticError, SpecError
from .graph import CausalGraph, NodeAttrs, NodeId, _check_attrs, _ordered, valid_name
from .model import (
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
# The longest spec file read, in bytes; a longer one is unusable input.
MAX_SPEC_BYTES = 2**24

_DECLARED_ROLES = ("covariate", "intercurrent", "latent", "outcome", "treatment")


# tokenizer

# The token rules as two pattern strings: the whitespace and comments
# between tokens (a comment runs from "#" to the end of its line), and
# the tokens, tried in order.  In a str pattern ``\d`` is exactly
# str.isdecimal and ``\w`` exactly str.isalnum or "_".  A string keeps
# its quotes, so its text never equals a keyword or punctuation mark.
# The skip is possessive: backtracking into a comment would read a token
# inside it.
_SKIP = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"
_GOOD = r'[A-Za-z_]\w*|->|:=|[{}():;,=/]|-?\d+|\w+|"[^"\n]*"'
# One match per token, after the space before it; the end of the text
# reads as "", and where space ends the text a second "" follows the
# first.  A character no token can start, such as "@" or the quote of an
# unterminated string, is a token of its own that no grammar rule takes.
_TOKEN = re.compile(rf"{_SKIP}({_GOOD}|\Z|.)")
# Its match ends at the first character no token can start.
_LEXED = re.compile(rf"(?:{_SKIP}(?:{_GOOD}))*+{_SKIP}")


def _error(text: str, offset: int, message: str, expected: Sequence[str] = ()) -> ParseError:
    """A ParseError at the 1-based line and column of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    line = text.count("\n", 0, line_start) + 1
    return ParseError(line, offset - line_start + 1, message, expected)


def _lexical_error(text: str) -> ParseError | None:
    """The first lexical error in ``text``, if it has one: the first
    character no token can start, or before it a ``\\w+`` word that does
    not start with a letter or decimal digit, such as "²"; only a text
    that is not ASCII can hold one."""
    stop = _LEXED.match(text).end()
    if not text.isascii():
        for m in _TOKEN.finditer(text, 0, stop):
            c = m[1][:1]
            if c.isalnum() and not (c.isalpha() or c.isdecimal()):
                return _error(text, m.start(1), f"unexpected character {c!r}")
    if stop < len(text):
        c = text[stop]
        message = "unterminated string" if c == '"' else f"unexpected character {c!r}"
        return _error(text, stop, message)
    return None


def _kind(token: str) -> str:
    """A token's kind, read from its first character (and the second, for
    "-"): ident, int, string, punct, or eof for the end of the text.  The
    lone quote of an unterminated string is no string."""
    c = token[:1]
    if c.isalpha() or c == "_":
        return "ident"
    if c == '"' and len(token) > 1:
        return "string"
    if token.lstrip("-")[:1].isdecimal():
        return "int"
    return "punct" if c else "eof"


# parser

_T = TypeVar("_T")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def start(self, pos: int) -> int:
        """The offset of token ``pos``, found again for an error."""
        return next(islice(_TOKEN.finditer(self.text), pos, None)).start(1)

    def fail(self, expected: Iterable[str]) -> ParseError:
        token = self.tokens[self.pos]
        what = "end of file" if not token else repr(token.strip('"'))  # a string unquoted
        return _error(self.text, self.start(self.pos), f"unexpected {what}", list(expected))

    def at(self, *texts: str) -> bool:
        """Whether the next token is one of these keywords or punctuation marks."""
        return self.tokens[self.pos] in texts

    def expect(self, *texts: str) -> str:
        """Read one of these keywords or punctuation marks and return it."""
        token = self.tokens[self.pos]
        if token not in texts:
            raise self.fail([f'"{text}"' for text in texts])
        self.pos += 1
        return token

    def take(self, kind: str, what: str) -> str:
        """Read a token of ``kind`` and return its text; ``what`` names it in errors."""
        token = self.tokens[self.pos]
        if _kind(token) != kind:
            raise self.fail([what])
        self.pos += 1
        return token

    def name(self, what: str = "a variable name") -> str:
        token = self.tokens[self.pos]
        if not (token[:1].isalpha() or token[:1] == "_"):  # _kind's "ident"
            raise self.fail([what])
        self.pos += 1
        return token

    def integer(self) -> int:
        token = self.tokens[self.pos]
        try:
            value = int(token)  # of all tokens, int() reads exactly the integers...
        except ValueError:
            if _kind(token) != "int":
                raise self.fail(["an integer"]) from None
            # ...unless longer than it converts (sys.get_int_max_str_digits)
            digits = len(token.lstrip("-"))
            message = f"integer literal of {digits} digits is too long"
            raise _error(self.text, self.start(self.pos), message) from None
        self.pos += 1
        return value

    def block(self, item: Callable[[], _T]) -> list[_T]:
        """``{ item* }``."""
        tokens = self.tokens
        if tokens[self.pos] != "{":
            raise self.fail(['"{"'])
        self.pos += 1
        items = []
        while tokens[self.pos] != "}":
            items.append(item())
        self.pos += 1
        return items

    def commas(self, item: Callable[[], _T], closer: str) -> list[_T]:
        """``item (, item)*`` up to ``closer``, which is left unread; none if it comes first."""
        items = []
        if not self.at(closer):
            items.append(item())
            while self.at(","):
                self.pos += 1
                items.append(item())
        return items

    # grammar

    def study(self) -> StudySpec:
        self.expect("study")
        title = self.take("string", "a quoted string")[1:-1]
        self.expect("{")
        self.expect("node")
        nodes = [self.node_decl()]
        while self.expect("node", "edges") == "node":
            nodes.append(self.node_decl())
        edges = self.block(self.edge)
        strategies = []
        while self.expect("strategy", "estimand") == "strategy":
            strategies.append(self.strategy_decl())
        estimand = self.estimand_decl()
        scm = None
        if self.expect("scm", "}") == "scm":
            scm = self.block(self.equation)
            self.expect("}")
        self.take("eof", "end of file")
        return _assemble(title, nodes, edges, strategies, estimand, scm)

    def node_decl(self) -> tuple[str, dict]:
        name = self.name()
        attrs: dict = {}

        def attribute() -> None:
            # "}" is listed because it would also have ended the block.
            key = self.expect("role", "observed", "adjust", "values", "}")
            self.expect(":")
            if key == "role":
                value = self.name("a role name")
            elif key == "values":
                if self.at(";"):  # unlike a table key, a values list is never empty
                    raise self.fail(["an integer"])
                value = tuple(self.commas(self.integer, ";"))
            else:
                value = self.expect("true", "false") == "true"
            self.expect(";")
            if key in attrs:
                raise SemanticError(f"node {name}: attribute {key} given twice")
            attrs[key] = value

        self.block(attribute)
        return name, attrs

    # The item rules below read a well-formed item straight off the token
    # list; any other item is read again token by token, which fails where
    # and as the grammar says.  A short slice or a token that is no integer
    # raises ValueError, and so does an integer longer than int() converts.

    def edge(self) -> tuple[str, str]:
        pos = self.pos
        try:
            src, arrow, dst, semi = self.tokens[pos : pos + 4]
            if arrow == "->" and semi == ";" and src[:1].isalpha() and dst[:1].isalpha():
                self.pos = pos + 4
                return src, dst
        except ValueError:
            pass
        src = self.name()
        self.expect("->")
        dst = self.name()
        self.expect(";")
        return src, dst

    def strategy_decl(self) -> tuple[str, Strategy]:
        var = self.name()
        self.expect(":")
        kind = self.expect("treatment_policy", "hypothetical", "composite", "principal_stratum")
        strat: Strategy = TreatmentPolicy()
        if kind != "treatment_policy":
            self.expect("(")
            if kind == "hypothetical":
                strat = Hypothetical(level=self.integer())
            elif kind == "composite":
                self.expect("failure")
                self.expect("=")
                strat = Composite(failure=self.integer())
            else:
                inner = self.name()
                self.expect("(")
                under = self.integer()
                self.expect(")")
                self.expect("=")
                strat = PrincipalStratum(var=inner, under=under, equals=self.integer())
            self.expect(")")
        self.expect(";")
        return var, strat

    def estimand_decl(self) -> tuple[str, str, int, str, int]:
        self.expect("mean_difference")
        self.expect("(")
        target = self.name()
        self.expect(";")
        var1 = self.name()
        self.expect("=")
        lvl1 = self.integer()
        self.expect("vs")
        var2 = self.name()
        self.expect("=")
        lvl2 = self.integer()
        self.expect(")")
        self.expect(";")
        return target, var1, lvl1, var2, lvl2

    def equation(self) -> tuple:
        var = self.name()
        self.expect(":=")
        noise = self.noise_block() if self.at("noise") else None
        table = self.table_block() if self.at("table") else None
        if noise is None and table is None:
            raise self.fail(['"noise"', '"table"'])
        self.expect(";")
        return var, noise, table

    def noise_block(self) -> list[tuple[int, Fraction]]:
        self.expect("noise")
        entries = self.block(self.noise_entry)
        if not entries:
            raise SemanticError("noise block must list at least one value")
        return entries

    def noise_entry(self) -> tuple[int, Fraction]:
        pos = self.pos
        try:
            value, colon, num, end, den, semi = self.tokens[pos : pos + 6]
            if colon == ":" and end == ";":
                entry = int(value), Fraction(int(num))
                self.pos = pos + 4
                return entry
            if colon == ":" and end == "/" and semi == ";" and int(den):
                entry = int(value), Fraction(int(num), int(den))
                self.pos = pos + 6
                return entry
        except ValueError:
            pass
        value = self.integer()
        self.expect(":")
        num, den = self.integer(), 1
        if self.at("/"):
            self.expect("/")
            den = self.integer()
            if den == 0:
                raise SemanticError("noise probability has denominator zero")
        self.expect(";")
        return value, Fraction(num, den)

    def table_block(self) -> tuple[list[str], list[tuple[tuple[int, ...], int]]]:
        self.expect("table")
        self.expect("(")
        parents = self.commas(self.name, ")")
        self.expect(")")
        entries = self.block(self.table_entry)
        if not entries:
            raise SemanticError("table block must list at least one entry")
        return parents, entries

    def table_entry(self) -> tuple[tuple[int, ...], int]:
        pos = self.pos
        tokens = self.tokens
        try:
            # "(", a key of ``width`` integers with commas between, ")"
            close = tokens.index(")", pos) if tokens[pos] == "(" else pos
            arrow, value, semi = tokens[close + 1 : close + 4]
            width = (close - pos) // 2
            if (
                arrow == "->"
                and semi == ";"
                and close - pos == 2 * width
                and tokens[pos + 2 : close : 2].count(",") == width - 1
            ):
                entry = tuple(map(int, tokens[pos + 1 : close : 2])), int(value)
                self.pos = close + 4
                return entry
        except ValueError:
            pass
        self.expect("(")
        key = tuple(self.commas(self.integer, ")"))
        self.expect(")")
        self.expect("->")
        value = self.integer()
        self.expect(";")
        return key, value


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

    # The names, edge endpoints and duplicate edges are checked above, so
    # the graph skips the constructor's checks of them.  The checks left run
    # in the constructor's order: attributes in label order, self-loops in
    # declaration order, then cycles.
    graph_nodes, position, ids = _ordered(map(NodeId, attr_by_name))
    attrs = {n: _check_attrs(n.label, attr_by_name[n.label]) for n in graph_nodes}
    parents: list[list[int]] = [[] for _ in graph_nodes]
    try:
        for src, dst in edges:
            if src == dst:
                raise CycleError([src, dst])
            parents[position[ids[dst]]].append(position[ids[src]])
        graph = CausalGraph._checked(attrs, parents, graph_nodes, position, ids)
        graph.topological_order()
    except CycleError as e:
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
        # In label order, which is base order in a declared graph.
        graph_parents = [p.base for p in graph.parents(node)]

        if noise is not None:
            values_seen: set[int] = set()
            for value, prob in noise:
                if value in values_seen:
                    raise SemanticError(f"noise for {var} lists value {value} twice")
                values_seen.add(value)
                if prob.numerator <= 0:
                    raise SemanticError(f"noise probabilities for {var} must be positive")
            # Over the least common denominator, as the oracle weighs them.
            scale = lcm(*(prob.denominator for _, prob in noise))
            if sum(prob.numerator * (scale // prob.denominator) for _, prob in noise) != scale:
                total = sum(prob for _, prob in noise)
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
            # Keys that list the parents in order and end with the noise
            # value are canonical already; the walk names a key of the wrong
            # length or given twice, and puts other keys in canonical order.
            mapping = dict(entries)
            if (
                noise is None
                or listed_parents != graph_parents
                or len(mapping) != len(entries)
                or set(map(len, mapping)) != {arity}
            ):
                perm = sorted(range(len(listed_parents)), key=lambda i: listed_parents[i])
                mapping = {}
                for key, value in entries:
                    if len(key) != arity:
                        raise SemanticError(
                            f"table key {key} for {var} has {len(key)} components,"
                            f" expected {arity}"
                        )
                    parent_vals = key[: len(listed_parents)]
                    noise_val = key[len(listed_parents)] if noise is not None else 0
                    canon = tuple(parent_vals[i] for i in perm) + (noise_val,)
                    if canon in mapping:
                        raise SemanticError(f"table for {var} lists key {key} twice")
                    mapping[canon] = value

        # The keys are distinct, so they are every point of the product of
        # the axes when there are as many and each component lies in its
        # axis.  Only a table that fails this is walked, to name its fault:
        # a key is missing, or else the table is too long for its axes.
        axes = [support[p] for p in graph_parents] + [[value for value, _ in noise_entries]]
        allowed = [set(axis) for axis in axes]
        if len(mapping) != prod(map(len, axes)) or not all(
            a.issuperset(column) for a, column in zip(allowed, zip(*mapping))
        ):
            # Sorted axes give keys in sorted order, so the walk stops at the
            # smallest missing key after at most len(mapping) + 1 keys.
            for key in product(*axes):
                if key not in mapping:
                    raise SemanticError(f"table for {var} is missing an entry for {key}")
            extra = [key for key in mapping if any(c not in a for c, a in zip(key, allowed))]
            raise SemanticError(
                f"table for {var} has an entry for unreachable values {min(extra)}"
            )

        declared = set(attr_by_name[var].values)
        if not declared.issuperset(mapping.values()):
            value = next(v for v in mapping.values() if v not in declared)
            raise SemanticError(f"table for {var} produces {value}, outside its declared values")
        support[var] = tuple(sorted(set(mapping.values())))
        equations[var] = StructuralEquation(
            parents=tuple(graph_parents), noise=noise_entries, table=mapping
        )
    return SCMSpec(equations=equations)


def parse_study(text: str) -> StudySpec:
    """Parse one study file; the first problem found is raised, and a
    lexical error comes before any other."""
    try:
        return _Parser(text).study()
    except SpecError:
        error = _lexical_error(text)
        if error is None:
            raise
    raise error


def parse_file(path: str) -> StudySpec:
    """Parse the study in the file at ``path``; one longer than
    MAX_SPEC_BYTES is refused before any of it is decoded."""
    with open(path, "rb") as fh:
        # A regular file's size bounds the read, so no buffer of the cap's
        # size is made; a device or pipe, which has no size, is read to the cap.
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(min(size, MAX_SPEC_BYTES) + 1)
        if len(data) > size:
            data += fh.read(MAX_SPEC_BYTES + 1 - len(data))
    if len(data) > MAX_SPEC_BYTES:
        raise SpecError(f"{path}: longer than the cap of {MAX_SPEC_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SpecError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    # As a file read as text: "\r\n" and a lone "\r" each end a line.
    return parse_study(text.replace("\r\n", "\n").replace("\r", "\n"))


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
    """Canonical text for a declared study; see the module docstring.

    The text is written as the study holds it, not checked: a model built
    in code with a zero noise weight, a missing table entry or an entry
    for unreachable values serializes to text that parse_study refuses."""
    for node in study.graph.nodes:
        if node.context or node.fixed or study.graph.attrs[node].role == "derived":
            raise SemanticError("only declared studies can be serialized")
    lines = [f'study "{study.name}" {{']
    for node in study.graph.nodes:
        parts = _attr_parts(study.graph.attrs[node])
        body = "{ " + " ".join(parts) + " }" if parts else "{}"
        lines.append(f"  node {node.base} {body}")
    # Declared nodes have empty contexts, so a label is its base.
    edge_text = " ".join(f"{u.base} -> {v.base};" for u, v in study.graph.ordered_edges())
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
