"""Fuzzy linguistic variables, if-then rules, and Mamdani inference.

The package turns heterogeneous measurements into words (linguistic terms
with membership functions), lets you write if-then rules over those words,
and evaluates the rules into crisp outputs.  Term sets can be written by
hand or elicited automatically from 1-D samples via subtractive clustering,
fuzzy c-means and a two-term Gaussian fit.
"""

from .elicit import (
    ClusterModel,
    ElicitResult,
    Gauss2Fit,
    TrainingSet,
    elicit_variable,
    fcm,
    fit_gauss2,
    subtractive_clusters,
)
from .errors import (
    DatasetError,
    DefinitionError,
    DomainError,
    ElicitationError,
    EvaluationError,
    LingmapError,
    NoRuleFiredError,
    RuleSyntaxError,
    RuleValidationError,
    SchemaError,
)
from .dataio import (
    Catalog,
    dumps_catalog,
    load_catalog,
    load_fis,
    load_training_csv,
    save_catalog,
)
from .inference import FuzzyInferenceSystem, evaluate
from .membership import CrispLabel, Gauss2, Trapezoid
from .rules import (
    Condition,
    Rule,
    format_rules,
    parse_rules,
)
from .variables import (
    CodeList,
    Interval,
    LinguisticVariable,
    fuzzify,
)

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "ClusterModel",
    "CodeList",
    "Condition",
    "CrispLabel",
    "DatasetError",
    "DefinitionError",
    "DomainError",
    "ElicitResult",
    "ElicitationError",
    "EvaluationError",
    "FuzzyInferenceSystem",
    "Gauss2",
    "Gauss2Fit",
    "Interval",
    "LingmapError",
    "LinguisticVariable",
    "NoRuleFiredError",
    "Rule",
    "RuleSyntaxError",
    "RuleValidationError",
    "SchemaError",
    "TrainingSet",
    "Trapezoid",
    "dumps_catalog",
    "elicit_variable",
    "evaluate",
    "fcm",
    "fit_gauss2",
    "format_rules",
    "fuzzify",
    "load_catalog",
    "load_fis",
    "load_training_csv",
    "parse_rules",
    "save_catalog",
    "subtractive_clusters",
    "__version__",
]
