"""Study-file grammar: round trips, error positions, semantic checks."""

import tracemalloc
from fractions import Fraction

import pytest

from swigc import dsl
from swigc.dsl import GRAMMAR_VERSION, parse_study, serialize
from swigc.errors import ParseError, SemanticError, SpecError
from swigc.model import Composite, Hypothetical, PrincipalStratum, TreatmentPolicy

from conftest import STUDY_FILES, load_script, spec_text

VALID = [n for n in STUDY_FILES]


class TestParseFixtures:
    @pytest.mark.parametrize("name", VALID)
    def test_parses(self, name):
        study = parse_study(spec_text(name))
        assert study.name
        assert study.treatment == "A"
        assert study.outcome == "Y"

    @pytest.mark.parametrize("name", VALID)
    def test_serialize_parse_is_a_fixpoint(self, name):
        text = spec_text(name)
        once = serialize(parse_study(text))
        twice = serialize(parse_study(once))
        assert once == twice

    def test_grammar_version(self):
        assert GRAMMAR_VERSION == "1.0"

    def test_strategy_kinds(self):
        study = parse_study(spec_text("chronic_pain.swg"))
        kinds = {v: type(s) for v, s in study.strategies.items()}
        assert kinds == {
            "M1": TreatmentPolicy,
            "M2": TreatmentPolicy,
            "M3": Hypothetical,
            "M4": Hypothetical,
        }
        assert study.strategies["M3"].level == 0

    def test_composite_strategy_payload(self):
        study = parse_study(spec_text("composite.swg"))
        strat = study.strategies["M"]
        assert isinstance(strat, Composite)
        assert strat.failure == 0

    def test_principal_stratum_payload(self):
        study = parse_study(spec_text("principal_stratum.swg"))
        strat = study.strategies["M"]
        assert isinstance(strat, PrincipalStratum)
        assert (strat.var, strat.under, strat.equals) == ("M", 1, 0)

    def test_scm_noise_parses_to_fractions(self):
        study = parse_study(spec_text("itt.swg"))
        noise = dict(study.scm.equations["M"].noise)
        assert noise == {0: Fraction(3, 4), 1: Fraction(1, 4)}


MINIMAL = """
study "T" {
  node A { role: treatment; }
  node Y { role: outcome; }
  edges { A -> Y; }
  estimand mean_difference(Y; A = 1 vs A = 0);
}
"""


class TestErrorReporting:
    def test_missing_colon_position(self):
        with pytest.raises(ParseError) as exc:
            parse_study(spec_text("bad_syntax.swg"))
        msg = str(exc.value)
        assert msg.startswith("3:17:")
        assert "unexpected 'treatment'" in msg
        assert 'expected ":"' in msg

    def test_end_of_file_after_a_comment_points_past_the_comment(self):
        with pytest.raises(ParseError) as exc:
            parse_study('study "T" {  # unfinished')
        assert str(exc.value) == '1:26: unexpected end of file (expected "node")'

    @pytest.mark.parametrize(
        "text, message",
        [
            # A string token starts at its opening quote, here the first
            # token of its line.
            ('study "T" {\n  "x"\n', "2:3: unexpected 'x' (expected \"node\")"),
            ('"T"', "1:1: unexpected 'T' (expected \"study\")"),
            # CRLF ends a line as LF does, and a tab is one column.
            ('study "T" {\r\n\tnode A {\r\n\t\t?', "3:3: unexpected character '?'"),
            ('study # "not a string\n  "T {', "2:3: unterminated string"),
        ],
    )
    def test_error_position_of_a_token(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_study(text)
        assert str(exc.value) == message

    def test_overlong_integer_literal_points_at_its_token(self):
        # Longer than int() converts by default (4,300 digits).
        text = MINIMAL.replace("treatment;", "treatment; values: 0, " + "9" * 5000 + ";")
        with pytest.raises(ParseError) as exc:
            parse_study(text)
        assert str(exc.value) == "3:40: integer literal of 5000 digits is too long"

    @pytest.mark.parametrize(
        "text, message",
        [
            # The missing colon on line 3 is read first, but the "@" on
            # the appended line 9 is reported.
            (spec_text("bad_syntax.swg") + "\n@", "9:1: unexpected character '@'"),
            # An attribute given twice is refused before the parse reaches
            # the trailing "²".
            (
                MINIMAL.replace("treatment;", "treatment; role: treatment;") + "²",
                "8:1: unexpected character '²'",
            ),
            # The lone quote is no title, though a string is expected there.
            ('study " {' + MINIMAL.split("{", 1)[1], "1:7: unterminated string"),
        ],
    )
    def test_a_lexical_error_wins_over_an_earlier_error(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_study(text)
        assert str(exc.value) == message

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_study('study "X" {')
        assert exc.value.line >= 1
        assert exc.value.column >= 1

    @pytest.mark.parametrize(
        "mutation",
        [
            "",  # empty input
            "study",  # truncated header
            'study "X" { }',  # no nodes
            MINIMAL.replace("A -> Y;", "A -> Z;"),  # unknown edge endpoint
            MINIMAL.replace("role: treatment;", "role: banana;"),  # bad role
            MINIMAL.replace("estimand", "estimate"),  # bad keyword
            MINIMAL.replace("A = 1 vs A = 0", "A = 1 vs B = 0"),  # mixed vars
            MINIMAL + "extra",  # trailing garbage
            MINIMAL.replace("A = 1 vs", "A = ² vs"),  # a digit int() rejects
            MINIMAL.replace("treatment;", "treatment; values: 0, ¹;"),  # likewise
        ],
    )
    def test_broken_inputs_raise_spec_errors(self, mutation):
        with pytest.raises(SpecError):
            parse_study(mutation)

    def test_duplicate_strategy_rejected(self):
        text = MINIMAL.replace(
            "node Y",
            "node M { role: intercurrent; }\n  node Y",
        ).replace(
            "edges { A -> Y; }",
            "edges { A -> Y; A -> M; }\n"
            "  strategy M: treatment_policy;\n"
            "  strategy M: hypothetical(0);",
        )
        with pytest.raises(SemanticError):
            parse_study(text)

    def test_intercurrent_without_strategy_rejected(self):
        text = MINIMAL.replace(
            "node Y",
            "node M { role: intercurrent; }\n  node Y",
        ).replace("edges { A -> Y; }", "edges { A -> Y; A -> M; }")
        with pytest.raises(SemanticError):
            parse_study(text)

    def test_treatment_with_parent_rejected(self):
        text = MINIMAL.replace(
            "node A",
            "node C { }\n  node A",
        ).replace("edges { A -> Y; }", "edges { C -> A; A -> Y; }")
        with pytest.raises(SemanticError):
            parse_study(text)

    def test_noise_must_sum_to_one(self):
        text = MINIMAL.rstrip()[:-1] + (
            "  scm {\n"
            "    A := noise { 0: 1/2; 1: 1/3; };\n"
            "    Y := noise { 0: 1; } table (A) { (0, 0) -> 0; (1, 0) -> 0; };\n"
            "  }\n}\n"
        )
        with pytest.raises(SemanticError):
            parse_study(text)

    def test_partial_table_rejected(self):
        text = MINIMAL.rstrip()[:-1] + (
            "  scm {\n"
            "    A := noise { 0: 1/2; 1: 1/2; };\n"
            "    Y := noise { 0: 1; } table (A) { (0, 0) -> 0; };\n"
            "  }\n}\n"
        )
        with pytest.raises(SemanticError):
            parse_study(text)

    def test_wide_table_is_refused_without_listing_its_keys(self):
        """20 binary parents give 2^20 expected keys; the first missing one
        is found without building them all."""
        others = [f"X{i:02}" for i in range(1, 20)]
        text = MINIMAL.rstrip()[:-1] + (
            "  scm {\n"
            + "".join(f"    {v} := noise {{ 0: 1/2; 1: 1/2; }};\n" for v in ["A", *others])
            + f"    Y := table (A, {', '.join(others)}) {{ ({', '.join(['0'] * 20)}) -> 0; }};\n"
            + "  }\n}\n"
        )
        text = text.replace("  node Y", "".join(f"  node {v} {{ }}\n" for v in others) + "  node Y")
        text = text.replace("A -> Y;", "A -> Y; " + " ".join(f"{v} -> Y;" for v in others))
        tracemalloc.start()
        try:
            with pytest.raises(SemanticError) as exc:
                parse_study(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        missing = ", ".join(["0"] * 19 + ["1", "0"])
        assert str(exc.value) == f"table for Y is missing an entry for ({missing})"
        assert peak < 5 * 2**20


BLOCK_READ = [n for n in VALID if n != "enumeration_cap.swg"]

# Each fault is named only once the one before it is mended: M and C are
# declared out of label order, and the refusal of L comes after both.
FAULTS = """
study "Faults" {
  node A { role: treatment; }
  node M { role: intercurrent; observed: false; }
  node C { values: 0, 0; }
  node L { role: latent; observed: true; }
  node Y { role: outcome; }
  edges { A -> M; M -> Y; A -> Q; L -> Y; C -> Y; }
  strategy M: hypothetical(0);
  estimand mean_difference(Y; A = 1 vs A = 0);
}
"""
FAULT_MENDS = [
    ("observed: true;", "", "node L: role latent contradicts observed: true"),
    (" A -> Q;", "", "edge endpoint Q is not a declared node"),
    ("values: 0, 0;", "", "node C: declared values must be non-empty and distinct"),
    ("observed: false;", "", "node M: role intercurrent must be observed"),
]


class TestDeclarationReaders:
    @pytest.mark.parametrize("name", BLOCK_READ)
    def test_item_read_builds_the_block_read_study(self, name, monkeypatch):
        """A first declaration with two attributes sends the whole block
        to the item rules, which build the same study."""
        walks = []
        walk = dsl._checked_decls
        monkeypatch.setattr(dsl, "_checked_decls", lambda *a: walks.append(a) or walk(*a))
        text = spec_text(name)
        first = "role: treatment;"  # node A's, declared first
        assert text.count(first) == 1
        block_read = parse_study(text)
        assert walks == []
        item_read = parse_study(text.replace(first, "role: treatment; observed: true;"))
        assert len(walks) == 1
        assert item_read == block_read

    def test_faults_are_named_refusal_endpoint_then_attributes_by_label(self):
        text = FAULTS
        for old, new, message in FAULT_MENDS:
            with pytest.raises(SemanticError) as exc:
                parse_study(text)
            assert str(exc.value) == message
            assert text.count(old) == 1
            text = text.replace(old, new)
        parse_study(text)  # every fault mended


def test_parse_peak_memory_is_bounded_by_the_text():
    """A sparse chain of about 0.5 MB: the token list and the graph it
    builds stay under 40 times the text, so no block read copies the token
    list whole."""
    text = load_script("adjust_scaling").sparse_chain(10_000)
    assert 0.45e6 < len(text) < 0.55e6
    tracemalloc.start()
    try:
        study = parse_study(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(study.graph.nodes) == 10_004
    assert peak < 40 * len(text)


class TestCanonicalForm:
    def test_canonical_orders_blocks(self):
        text = spec_text("itt.swg")
        canon = serialize(parse_study(text))
        # fixed block order: nodes, edges, strategies, estimand, scm
        assert canon.index("node A") < canon.index("edges {")
        assert canon.index("edges {") < canon.index("strategy M:")
        assert canon.index("strategy M:") < canon.index("estimand ")
        assert canon.index("estimand ") < canon.index("scm {")

    def test_comments_do_not_survive(self):
        canon = serialize(parse_study(spec_text("itt.swg")))
        assert "#" not in canon

    def test_root_equations_gain_identity_tables(self):
        canon = serialize(parse_study(spec_text("simplest.swg")))
        assert "A := noise { 0: 1/2; 1: 1/2; } table () { (0) -> 0; (1) -> 1; };" in canon
