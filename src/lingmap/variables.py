"""Linguistic variables: named term sets over an interval or code-list domain."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DefinitionError, DomainError
from .membership import CrispLabel, Gauss2, MembershipFunction, Trapezoid

VARIABLE_KINDS = ("nominal", "ordinal", "interval", "ratio")


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not np.isfinite(self.lo) or not np.isfinite(self.hi) or self.lo >= self.hi:
            raise DefinitionError(f"interval needs finite lo < hi, got [{self.lo}, {self.hi}]")

    def __contains__(self, x) -> bool:
        try:
            return self.lo <= float(x) <= self.hi
        except (TypeError, ValueError):
            return False

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)


@dataclass(frozen=True)
class CodeList:
    """Finite catalog of text codes for nominal and ordinal variables."""

    codes: tuple

    def __init__(self, codes):
        object.__setattr__(self, "codes", tuple(codes))
        if not self.codes:
            raise DefinitionError("code list must be nonempty")
        if not all(isinstance(code, str) for code in self.codes):
            raise DefinitionError(f"code list codes must be strings, got {list(self.codes)}")
        if len(set(self.codes)) != len(self.codes):
            raise DefinitionError("code list contains duplicates")

    def __contains__(self, x) -> bool:
        return x in self.codes

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.codes) + "}"


Domain = Interval | CodeList


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable whose values are words grounded in membership functions.

    Carries the variable name, its level-of-measurement kind (nominal,
    ordinal, interval or ratio), the domain, and an ordered term-name to
    membership-function map.  Interval domains take Trapezoid or Gauss2
    terms; code-list domains take CrispLabel terms.
    """

    name: str
    kind: str
    domain: Interval | CodeList
    terms: Mapping[str, MembershipFunction] = field(hash=False)

    def __post_init__(self):
        if not self.name:
            raise DefinitionError("variable name must be nonempty")
        if self.kind not in VARIABLE_KINDS:
            raise DefinitionError(
                f"variable '{self.name}': kind must be one of {VARIABLE_KINDS}, got {self.kind!r}"
            )
        if not self.terms:
            raise DefinitionError(f"variable '{self.name}' needs at least one term")
        object.__setattr__(self, "terms", dict(self.terms))
        for term, mf in self.terms.items():
            if isinstance(self.domain, CodeList):
                if not isinstance(mf, CrispLabel):
                    raise DefinitionError(
                        f"variable '{self.name}': term '{term}' must be a crisp label "
                        "on a code-list domain"
                    )
                extra = mf.levels - set(self.domain.codes)
                if extra:
                    raise DefinitionError(
                        f"variable '{self.name}': term '{term}' matches codes "
                        f"{sorted(extra)} outside the domain {self.domain}"
                    )
            elif not isinstance(mf, (Trapezoid, Gauss2)):
                raise DefinitionError(
                    f"variable '{self.name}': term '{term}' must be a trapezoid or "
                    "gauss2 shape on an interval domain"
                )


def fuzzify(var: LinguisticVariable, x) -> dict[str, float]:
    """Convert a crisp in-domain value into one degree per term, keyed by term name.

    Raises DomainError when the value falls outside the variable's domain
    (or is not a listed code); out-of-domain inputs are never clamped.
    """
    if x not in var.domain:
        raise DomainError(var.name, var.domain, x)
    return {term: float(mf(x)) for term, mf in var.terms.items()}


def coverage_gaps(var: LinguisticVariable, samples: int = 1001, floor: float = 0.0):
    """Domain points where the best term degree does not exceed ``floor``.

    Rule bases cannot fire at uncovered points, so gaps usually indicate a
    modelling mistake.  This is a warning-level check: it reports, callers
    decide.  Returns a list of offending domain values (sampled for interval
    domains, exhaustive for code lists).
    """
    if isinstance(var.domain, CodeList):
        points = list(var.domain.codes)
    else:
        points = var.domain.grid(samples)
    gaps = []
    for x in points:
        best = max(float(mf(x)) for mf in var.terms.values())
        if best <= floor:
            gaps.append(x)
    return gaps
