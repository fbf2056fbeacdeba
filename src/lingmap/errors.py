"""Exception types raised by the lingmap library."""


class LingmapError(Exception):
    """Base class for all errors raised by this package."""


class DefinitionError(LingmapError):
    """A membership function or variable definition violates its invariants."""


class DomainError(LingmapError):
    """A crisp value falls outside the domain of its linguistic variable."""

    def __init__(self, variable: str, domain, value):
        self.variable = variable
        self.domain = domain
        self.value = value
        super().__init__(
            f"value {value!r} is outside the domain {domain} of variable '{variable}'"
        )


class EvaluationError(LingmapError):
    """Inference was called with missing or unknown input variables, or with
    inputs that are not one value or 1-D sequences of one length."""


class NoRuleFiredError(LingmapError):
    """The aggregated output curve is identically zero.

    Signals a coverage gap in the rule base; evaluation never silently
    substitutes a default output value.
    """


class RuleSyntaxError(LingmapError):
    """Rule text could not be parsed.  Carries one diagnostic per problem."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class RuleValidationError(LingmapError):
    """Parsed rules reference unknown variables or terms."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class ElicitationError(LingmapError):
    """Automatic membership-function elicitation failed."""


class SchemaError(LingmapError):
    """A catalog or inference-system document violates the JSON schema.

    The message starts with a JSON-pointer-style path to the offending field.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class DatasetError(LingmapError):
    """A training-data CSV file is malformed or out of range."""
