"""Rule-language parsing, printing, and catalog validation."""

import pytest
from hypothesis import given, strategies as st

from lingmap import (
    Condition,
    DefinitionError,
    Interval,
    LinguisticVariable,
    Rule,
    RuleSyntaxError,
    RuleValidationError,
    Trapezoid,
    format_rules,
    parse_rules,
)
from lingmap.rules import check_rules


def rule_tuples(text):
    return [
        (tuple((c.variable, c.term) for c in r.antecedents),
         (r.consequent.variable, r.consequent.term))
        for r in parse_rules(text)
    ]


class TestParsing:
    def test_single_rule(self):
        assert rule_tuples("if temp is hot then fan is fast") == [
            ((("temp", "hot"),), ("fan", "fast"))
        ]

    def test_conjunction(self):
        got = rule_tuples("if a is x and b is y and c is z then d is w")
        assert got == [(((("a", "x")), ("b", "y"), ("c", "z")), ("d", "w"))]

    def test_keywords_case_insensitive(self):
        text = "IF temp IS hot THEN fan IS fast"
        assert rule_tuples(text) == [((("temp", "hot"),), ("fan", "fast"))]

    def test_identifiers_case_sensitive(self):
        got = rule_tuples("if Temp is Hot then fan is fast")
        assert got[0][0][0] == ("Temp", "Hot")

    def test_comments_and_blank_lines(self):
        text = """
        # heating rules
        if temp is cold then heater is on   # trailing comment

        if temp is hot then heater is off
        """
        assert len(parse_rules(text)) == 2

    def test_identifier_shape(self):
        parse_rules("if a1_b is t_2 then y is z")
        with pytest.raises(RuleSyntaxError):
            parse_rules("if 1a is t then y is z")
        with pytest.raises(RuleSyntaxError):
            parse_rules("if _a is t then y is z")

    def test_rule_order_preserved(self):
        text = "if a is x then o is p\nif b is y then o is q"
        rules = list(parse_rules(text))
        assert rules[0].consequent.term == "p"
        assert rules[1].consequent.term == "q"


REJECTED = {
    # missing if
    "temp is hot then fan is fast": (1, "expected 'if', got 'temp'"),
    # missing is
    "if temp hot then fan is fast": (9, "expected 'is', got 'hot'"),
    # missing term
    "if temp is then fan is fast": (12, "expected a term name, got keyword 'then'"),
    # missing then
    "if temp is hot fan is fast": (16, "expected 'and' or 'then', got 'fan'"),
    # missing consequent term
    "if temp is hot then fan is": (27, "expected a term name, got end of line"),
    # trailing junk
    "if temp is hot then fan is fast extra": (33, "expected end of line, got 'extra'"),
    # no 'or'
    "if temp is hot or hum is low then fan is fast": (16, "expected 'and' or 'then', got 'or'"),
    # keywords as identifiers
    "if then then then then": (4, "expected a variable name, got keyword 'then'"),
    # stray symbol
    "if a is b / c then d is e": (11, "expected 'and' or 'then', got '/'"),
}


class TestSyntaxErrors:
    @pytest.mark.parametrize("text", list(REJECTED))
    def test_rejected(self, text):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        col, message = REJECTED[text]
        assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == [(1, col, message)]

    def test_empty_input_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("# only a comment\n\n")

    def test_diagnostics_carry_line_and_column(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("if a is b then c is d\nif x is then y is z")
        diags = err.value.diagnostics
        assert len(diags) == 1
        assert diags[0].line == 2
        assert diags[0].col == 9
        assert "term name" in diags[0].message
        assert str(diags[0]).startswith("2:9:")

    def test_all_bad_lines_reported_at_once(self):
        bad = "if a then b\nif c is d then e is f\nif g g g"
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(bad)
        lines = {d.line for d in err.value.diagnostics}
        assert lines == {1, 3}

    def test_duplicate_antecedent_variable_rejected(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("if a is x and a is y then o is p")
        assert "appears twice" in str(err.value)

    def test_same_variable_in_two_rules_is_fine(self):
        parse_rules("if a is x then o is p\nif a is y then o is q")


class TestFormatting:
    def test_format_parse_fixpoint(self):
        text = """
        # comment
        IF a IS x AND b IS y THEN o IS p
        if c is z then o is q
        """
        rb = parse_rules(text)
        printed = format_rules(rb)
        assert parse_rules(printed) == rb
        assert format_rules(parse_rules(printed)) == printed

    def test_canonical_form(self):
        rb = parse_rules("IF  a  IS  x  THEN  o  IS  p")
        assert format_rules(rb) == "if a is x then o is p\n"


IDENT = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)


class TestParserTotality:
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_rules(text)
        except RuleSyntaxError:
            pass

    @given(
        st.lists(
            st.tuples(st.lists(st.tuples(IDENT, IDENT), min_size=1, max_size=3), IDENT, IDENT),
            min_size=1,
            max_size=5,
        )
    )
    def test_generated_rules_round_trip(self, specs):
        lines = []
        for antecedents, out_var, out_term in specs:
            # identifiers that collide with keywords are not valid rule text
            names = [n for pair in antecedents for n in pair] + [out_var, out_term]
            if any(n.lower() in ("if", "is", "and", "then") for n in names):
                return
            seen = set()
            conds = []
            for var, term in antecedents:
                if var in seen:
                    return
                seen.add(var)
                conds.append(f"{var} is {term}")
            lines.append("if " + " and ".join(conds) + f" then {out_var} is {out_term}")
        text = "\n".join(lines)
        rb = parse_rules(text)
        assert format_rules(rb) == text + "\n"


@pytest.fixture
def catalogs():
    inputs = {
        "temp": LinguisticVariable(
            "temp", "interval", Interval(0, 40),
            {"cold": Trapezoid(0, 0, 10, 20), "hot": Trapezoid(20, 30, 40, 40)},
        )
    }
    outputs = {
        "fan": LinguisticVariable(
            "fan", "ratio", Interval(0, 10),
            {"slow": Trapezoid(0, 0, 3, 5), "fast": Trapezoid(5, 7, 10, 10)},
        )
    }
    return inputs, outputs


def diagnostics(rb, catalogs):
    """Every problem check_rules finds, or [] if it accepts the rules."""
    try:
        check_rules(rb, *catalogs)
    except RuleValidationError as exc:
        return exc.diagnostics
    return []


class TestValidation:
    def test_valid_rules_produce_no_diagnostics(self, catalogs):
        rb = parse_rules("if temp is cold then fan is slow")
        assert diagnostics(rb, catalogs) == []

    def test_unknown_variable(self, catalogs):
        rb = parse_rules("if hum is low then fan is slow")
        (diag,) = diagnostics(rb, catalogs)
        assert "unknown variable 'hum'" in diag.message

    def test_unknown_term_lists_known_ones(self, catalogs):
        rb = parse_rules("if temp is chilly then fan is slow")
        (diag,) = diagnostics(rb, catalogs)
        assert "no term 'chilly'" in diag.message
        assert "cold" in diag.message and "hot" in diag.message

    def test_output_variable_in_antecedent(self, catalogs):
        rb = parse_rules("if fan is slow then fan is fast")
        (diag,) = diagnostics(rb, catalogs)
        assert "output" in diag.message

    def test_input_variable_in_consequent(self, catalogs):
        rb = parse_rules("if temp is cold then temp is hot")
        (diag,) = diagnostics(rb, catalogs)
        assert "input" in diag.message

    def test_all_problems_reported(self, catalogs):
        rb = parse_rules(
            "if hum is low then fan is slow\nif temp is chilly then lamp is on"
        )
        diags = diagnostics(rb, catalogs)
        assert len(diags) == 3

    def test_check_rules_raises_with_diagnostics(self, catalogs):
        rb = parse_rules("if hum is low then fan is slow")
        with pytest.raises(RuleValidationError) as err:
            check_rules(rb, *catalogs)
        assert "hum" in str(err.value)


class TestDataTypes:
    def test_condition_equality_ignores_position(self):
        assert Condition("a", "x", 1, 4) == Condition("a", "x", 9, 2)

    def test_rule_needs_antecedent(self):
        with pytest.raises(DefinitionError):
            Rule((), Condition("o", "p"))
