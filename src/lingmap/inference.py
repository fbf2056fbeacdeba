"""Mamdani-style fuzzy inference.

The pipeline is fuzzify -> min-conjunction -> min-implication (clipping) ->
max-aggregation -> center-of-area defuzzification.  Aggregation happens on a
uniform sample grid over each output variable's interval domain; the same
grid is reused for defuzzification, so results are deterministic and
bit-identical across calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DefinitionError, EvaluationError, NoRuleFiredError
from .rules import Rule, check_rules
from .variables import Interval, LinguisticVariable, fuzzify


@dataclass(frozen=True)
class FuzzyInferenceSystem:
    """An immutable rule-based mapping from crisp inputs to crisp outputs.

    inputs/outputs map variable names to their definitions; every rule of
    the nonempty rules tuple must resolve against them.  Output variables
    need interval domains because defuzzification integrates over a range.
    """

    inputs: dict[str, LinguisticVariable]
    outputs: dict[str, LinguisticVariable]
    rules: tuple[Rule, ...]
    defuzz_resolution: int = 1001

    def __post_init__(self):
        object.__setattr__(self, "inputs", dict(self.inputs))
        object.__setattr__(self, "outputs", dict(self.outputs))
        object.__setattr__(self, "rules", tuple(self.rules))
        if not self.rules:
            raise DefinitionError("an inference system needs at least one rule")
        if not isinstance(self.defuzz_resolution, int) or self.defuzz_resolution < 2:
            raise DefinitionError("defuzz_resolution must be an integer >= 2")
        for name, var in {**self.inputs, **self.outputs}.items():
            if name != var.name:
                raise DefinitionError(
                    f"catalog key '{name}' does not match variable name '{var.name}'"
                )
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise DefinitionError(
                f"variables cannot be both input and output: {sorted(overlap)}"
            )
        for name, var in self.outputs.items():
            if not isinstance(var.domain, Interval):
                raise DefinitionError(
                    f"output variable '{name}' must have an interval domain"
                )
        check_rules(self.rules, self.inputs, self.outputs)

    def output_grid(self, name: str) -> np.ndarray:
        """The sample grid used for aggregation over one output variable."""
        return self.outputs[name].domain.grid(self.defuzz_resolution)


def _fuzzify_inputs(fis: FuzzyInferenceSystem, values: dict) -> dict[str, dict]:
    missing = sorted(set(fis.inputs) - set(values))
    if missing:
        raise EvaluationError(f"missing value for input variable '{missing[0]}'")
    unknown = sorted(set(values) - set(fis.inputs))
    if unknown:
        raise EvaluationError(f"'{unknown[0]}' is not an input variable of this system")
    return {name: fuzzify(fis.inputs[name], values[name]) for name in fis.inputs}


def firing_strengths(fis: FuzzyInferenceSystem, values: dict) -> list[float]:
    """Min-conjunction activation of each rule, in rule order."""
    degrees = _fuzzify_inputs(fis, values)
    return [
        min(degrees[c.variable][c.term] for c in rule.antecedents)
        for rule in fis.rules
    ]


def infer(fis: FuzzyInferenceSystem, values: dict) -> dict[str, np.ndarray]:
    """Aggregate output membership curves for one crisp input profile.

    Each rule's consequent term is clipped at the rule's firing strength;
    curves for the same output variable combine by pointwise max.  Returns
    one length-defuzz_resolution array per output variable (all zeros if no
    rule for it fired).
    """
    strengths = firing_strengths(fis, values)
    curves = {
        name: np.zeros(fis.defuzz_resolution) for name in fis.outputs
    }
    grids = {name: fis.output_grid(name) for name in fis.outputs}
    for rule, strength in zip(fis.rules, strengths):
        if strength <= 0.0:
            continue
        out = rule.consequent.variable
        mf = fis.outputs[out].terms[rule.consequent.term]
        clipped = np.minimum(mf(grids[out]), strength)
        np.maximum(curves[out], clipped, out=curves[out])
    return curves


def defuzzify_coa(curve: np.ndarray, domain: Interval, variable: str | None = None) -> float:
    """Discrete center-of-area of a membership curve sampled uniformly.

    Raises NoRuleFiredError when the curve is identically zero instead of
    inventing a default: a silent midpoint would be indistinguishable from a
    real answer.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or curve.size < 2:
        raise ValueError("curve must be a 1-D array with at least two samples")
    total = float(curve.sum())
    if total <= 0.0:
        where = f" for variable '{variable}'" if variable else ""
        raise NoRuleFiredError(
            f"no rule fired{where}: the aggregated membership curve is zero everywhere"
        )
    xs = domain.grid(curve.size)
    value = float(np.dot(xs, curve) / total)
    # the exact centroid cannot leave [lo, hi]; clip ulp-level rounding spill
    return min(max(value, domain.lo), domain.hi)


def evaluate(fis: FuzzyInferenceSystem, values: dict) -> dict[str, float]:
    """Crisp outputs for one crisp input profile (the full Mamdani pipeline)."""
    curves = infer(fis, values)
    return {
        name: defuzzify_coa(curves[name], fis.outputs[name].domain, variable=name)
        for name in fis.outputs
    }
