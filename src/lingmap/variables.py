"""Linguistic variables: named term sets over an interval or code-list domain."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .errors import DefinitionError, DomainError, EvaluationError
from .membership import _KERNELS, CrispLabel, MembershipFunction

VARIABLE_KINDS = ("nominal", "ordinal", "interval", "ratio")


@lru_cache(maxsize=64)
def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    grid = np.linspace(lo, hi, n)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]: finite lo < hi, with a finite width hi - lo.

    A width that overflows, as of [-1.7e308, 1.7e308], would make the grid's
    steps and a centroid over it NaN.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise DefinitionError(f"interval needs finite lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise DefinitionError(
                f"interval needs a finite width hi - lo, got [{self.lo}, {self.hi}]"
            )

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"

    def grid(self, n: int) -> np.ndarray:
        """n evenly spaced points from lo to hi; read-only, as calls share it."""
        return _grid(self.lo, self.hi, n)


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

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.codes) + "}"


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
            elif not isinstance(mf, tuple(_KERNELS)):
                raise DefinitionError(
                    f"variable '{self.name}': term '{term}' must be a trapezoid or "
                    "gauss2 shape on an interval domain"
                )

    @cached_property
    def _stacks(self) -> list[tuple[list, object, np.ndarray]]:
        """(term names, kernel, their _params stacked on a last axis, C-contiguous) per shape."""
        stacks = []
        for shape, kernel in _KERNELS.items():
            names = [term for term, mf in self.terms.items() if isinstance(mf, shape)]
            if names:
                params = np.stack([self.terms[t]._params for t in names], axis=-1)
                stacks.append((names, kernel, params[..., None]))
        return stacks


def _single(x) -> bool:
    """Whether x is one value (a number or a code) rather than a sequence of them."""
    if isinstance(x, np.ndarray):
        return x.ndim == 0
    return isinstance(x, str) or not hasattr(x, "__len__")


def _column(var: LinguisticVariable, x) -> tuple:
    """x as a 1-D column of in-domain values (floats, or codes), and whether x is one value.

    Raises DomainError naming the first value outside the domain, where NaN
    and text that is not a number are outside every interval domain.
    """
    single = _single(x)
    if isinstance(var.domain, CodeList):
        codes = [x] if single else list(x)
        for code in codes:
            if code not in var.domain.codes:
                raise DomainError(var.name, var.domain, code)
        return codes, single
    values = [x] if single else x
    try:
        column = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        for value in values:
            try:
                float(value)
            except (TypeError, ValueError):
                raise DomainError(var.name, var.domain, value) from None
        raise
    if column.ndim != 1:
        raise EvaluationError(
            f"values of '{var.name}' must be one number or a 1-D sequence, "
            f"got {column.ndim} dimensions"
        )
    lo, hi = var.domain.lo, var.domain.hi
    # NaN fails every comparison, so it is outside too
    if single:
        inside = lo <= column[0] <= hi
    else:
        inside = not column.size or (lo <= column.min() and column.max() <= hi)
    if not inside:
        first = np.flatnonzero(~((column >= lo) & (column <= hi)))[0]
        raise DomainError(var.name, var.domain, x if single else column[first].item())
    return column, single


def fuzzify(var: LinguisticVariable, x) -> dict:
    """Degrees of a crisp value per term, keyed by term name.

    x is one value, or a 1-D sequence of values (an array of numbers, or a
    sequence of codes on a code-list domain).  One value gives a float per
    term, a sequence an array per term.  Either way interval terms are
    evaluated on a 1-D array, so a value's degrees are the same bits alone or
    in a batch.  Raises DomainError naming the first value outside the domain
    (or not a listed code); out-of-domain inputs are never clamped.
    """
    column, single = _column(var, x)
    if isinstance(var.domain, CodeList):
        return {term: mf(x if single else column) for term, mf in var.terms.items()}
    degrees = {}
    for names, kernel, params in var._stacks:
        rows = kernel(params, column)
        degrees.update(zip(names, rows[:, 0].tolist() if single else rows))
    return degrees if len(var._stacks) == 1 else {term: degrees[term] for term in var.terms}


def _coverage(var: LinguisticVariable, points) -> np.ndarray:
    """The best term degree at each of points, which lie in var's domain."""
    return np.max(list(fuzzify(var, points).values()), axis=0)


def coverage_gaps(var: LinguisticVariable):
    """Domain points where no term has a positive degree.

    Rule bases cannot fire at uncovered points, so gaps usually indicate a
    modelling mistake.  This is a warning-level check: it reports, callers
    decide.  Returns a list of offending domain values (1001 evenly spaced
    samples of an interval domain, every code of a code list).
    """
    if isinstance(var.domain, CodeList):
        points = list(var.domain.codes)
    else:
        points = var.domain.grid(1001)
    return [x for x, degree in zip(points, _coverage(var, points)) if degree <= 0.0]
