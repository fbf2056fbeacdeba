"""Parser and validator for the if-then rule language.

Grammar (one rule per line, keywords case-insensitive, identifiers
case-sensitive)::

    rule := "if" cond ("and" cond)* "then" cond
    cond := IDENT "is" IDENT

``#`` starts a comment; blank lines are ignored.  An IDENT is a letter
followed by letters, digits or underscores.  Only conjunction is supported;
there is no "or", negation, or hedging.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DefinitionError, RuleSyntaxError, RuleValidationError
from .variables import LinguisticVariable

KEYWORDS = ("if", "is", "and", "then")

# an identifier or keyword, else any one character but a blank
_TOKENS = re.compile(r"[A-Za-z][A-Za-z0-9_]*|[^ \t]")
_VARIABLE = "a variable name"
_TERM = "a term name"
# what the grammar wants after each token but a term name and the end of
# the line; a keyword tuple is matched case-insensitively, "" is the end
_AFTER = {("if",): _VARIABLE, ("and", "then"): _VARIABLE, _VARIABLE: ("is",), ("is",): _TERM}


@dataclass(frozen=True)
class Diagnostic:
    """A single parse or validation problem, anchored in the source text."""

    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


@dataclass(frozen=True)
class Condition:
    """One "VARIABLE is TERM" clause.  Positions are 1-based."""

    variable: str
    term: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Rule:
    """A conjunctive if-then rule with a single consequent."""

    antecedents: tuple[Condition, ...]
    consequent: Condition

    def __post_init__(self):
        if not self.antecedents:
            raise DefinitionError("rule needs at least one antecedent")


def _mismatch(word: str, want) -> str | None:
    """Why a token cannot stand where the grammar wants `want`, or None."""
    found = f"'{word}'" if word else "end of line"
    if isinstance(want, tuple):
        if word.lower() in want:
            return None
        want = " or ".join(f"'{k}'" for k in want) if want[0] else "end of line"
    elif word.lower() in KEYWORDS:
        found = f"keyword '{word}'"
    elif word[:1].isalpha() and word.isascii():  # "é" is a one-character token
        return None
    return f"expected {want}, got {found}"


def _parse_rule_line(text: str, line_no: int):
    """The rule on one line, or None and the diagnostics rejecting it."""
    tokens = [(m.group(), m.start() + 1) for m in _TOKENS.finditer(text)]
    tokens.append(("", len(text) + 1))  # the end of the line
    conds = []
    want = ("if",)
    for i, (word, col) in enumerate(tokens):
        problem = _mismatch(word, want)
        if problem:
            return None, [Diagnostic(line_no, col, problem)]
        if want == _TERM:
            (lead, _), (var, var_col) = tokens[i - 3 : i - 1]
            conds.append(Condition(var, word, line_no, var_col))
            want = ("",) if lead.lower() == "then" else ("and", "then")
        elif word:
            want = _AFTER[want]

    *antecedents, consequent = conds
    errors = []
    seen = set()
    for cond in antecedents:
        if cond.variable in seen:
            errors.append(
                Diagnostic(
                    cond.line,
                    cond.col,
                    f"variable '{cond.variable}' appears twice in one rule's antecedent",
                )
            )
        seen.add(cond.variable)
    if errors:
        return None, errors
    return Rule(tuple(antecedents), consequent), []


def parse_rules(text: str) -> tuple[Rule, ...]:
    """Parse rule-language source into a nonempty tuple of rules, in order.

    Raises RuleSyntaxError carrying every diagnostic found (parsing
    continues past a bad line so all problems are reported at once), and
    when the text holds no rule at all.
    """
    rules = []
    diagnostics = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        rule, errors = _parse_rule_line(line, line_no)
        diagnostics.extend(errors)
        if rule is not None:
            rules.append(rule)
    if diagnostics:
        raise RuleSyntaxError(diagnostics)
    if not rules:
        raise RuleSyntaxError([Diagnostic(1, 1, "no rules found in input")])
    return tuple(rules)


def format_rules(rules: tuple[Rule, ...]) -> str:
    """Canonical textual form of rules; parses back to an equal tuple."""
    lines = []
    for rule in rules:
        conds = " and ".join(f"{c.variable} is {c.term}" for c in rule.antecedents)
        lines.append(f"if {conds} then {rule.consequent.variable} is {rule.consequent.term}")
    return "\n".join(lines) + "\n"


def _check_condition(cond, catalog, side, other_names, diagnostics):
    var = catalog.get(cond.variable)
    if var is None:
        if cond.variable in other_names:
            wrong = "an output" if side == "antecedent" else "an input"
            diagnostics.append(
                Diagnostic(
                    cond.line,
                    cond.col,
                    f"{side} references '{cond.variable}', which is {wrong} variable",
                )
            )
        else:
            diagnostics.append(
                Diagnostic(cond.line, cond.col, f"unknown variable '{cond.variable}'")
            )
        return
    if cond.term not in var.terms:
        known = ", ".join(var.terms)
        diagnostics.append(
            Diagnostic(
                cond.line,
                cond.col,
                f"variable '{cond.variable}' has no term '{cond.term}' (known terms: {known})",
            )
        )


def check_rules(
    rules: tuple[Rule, ...],
    inputs: dict[str, LinguisticVariable],
    outputs: dict[str, LinguisticVariable],
) -> None:
    """Resolve every rule against the input/output variable catalogs.

    Raises RuleValidationError carrying every problem found: unknown variables,
    unknown terms (listing the known ones), antecedents on output
    variables, and consequents on input variables.  Empty catalogs raise
    DefinitionError.
    """
    if not inputs or not outputs:
        raise DefinitionError("an inference system needs at least one input and one output")
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        for cond in rule.antecedents:
            _check_condition(cond, inputs, "antecedent", outputs, diagnostics)
        _check_condition(rule.consequent, outputs, "consequent", inputs, diagnostics)
    if diagnostics:
        raise RuleValidationError(diagnostics)
