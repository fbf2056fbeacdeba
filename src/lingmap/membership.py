"""Membership function shapes: trapezoids, two-term Gaussians, crisp label sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Union, get_args

import numpy as np

from .errors import DefinitionError


def _gauss2_params(shapes) -> np.ndarray:
    """[3, 2, shapes]: alpha, beta and gamma * gamma of both bumps of each Gauss2."""
    return np.array([
        [[s.alpha1 for s in shapes], [s.alpha2 for s in shapes]],
        [[s.beta1 for s in shapes], [s.beta2 for s in shapes]],
        [[s.gamma1 * s.gamma1 for s in shapes], [s.gamma2 * s.gamma2 for s in shapes]],
    ])


def _gauss2(params, x) -> np.ndarray:
    """Each Gauss2 of params (from _gauss2_params) at x: [shapes, *x.shape].

    One array expression for every shape, so a variable's Gauss2 terms cost
    the numpy calls of one term.
    """
    alpha, beta, width2 = params.reshape(params.shape + (1,) * x.ndim)
    weighted = alpha * np.exp(-((x - beta) ** 2) / width2)
    return np.minimum(np.maximum(weighted[0] + weighted[1], 0.0), 1.0)


def _require_finite(shape) -> None:
    for f in fields(shape):
        value = getattr(shape, f.name)
        if not math.isfinite(value):
            raise DefinitionError(f"{shape.tag} parameter {f.name} must be finite, got {value}")


@dataclass(frozen=True)
class Trapezoid:
    """Piecewise-linear trapezoid with breakpoints a <= b <= c <= d.

    Degenerate edges (a == b, c == d) give vertical shoulders, so left and
    right shoulder shapes and rectangles are all expressible.  Breakpoints
    may lie outside the owning variable's domain; only in-domain values are
    ever evaluated.
    """

    tag: ClassVar[str] = "trapezoid"
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _require_finite(self)
        # an edge width that overflows would divide to 0 or NaN in __call__
        widths = (self.b - self.a, self.d - self.c)
        if not (self.a <= self.b <= self.c <= self.d and all(map(math.isfinite, widths))):
            raise DefinitionError(
                "trapezoid breakpoints must satisfy a <= b <= c <= d, with finite edge "
                f"widths b - a and d - c, got ({self.a}, {self.b}, {self.c}, {self.d})"
            )

    def __call__(self, x):
        # the lesser of the rising and the falling edge; x is clamped onto
        # each edge first, so each quotient lies in [0, 1] and cannot
        # overflow however narrow the edge.  A vertical edge is a step, so
        # no breakpoint is divided by zero
        arr = np.asarray(x, dtype=float)
        a, b, c, d = self.a, self.b, self.c, self.d
        up = (np.minimum(np.maximum(arr, a), b) - a) / (b - a) if b > a else (arr >= b) * 1.0
        down = (d - np.minimum(np.maximum(arr, c), d)) / (d - c) if d > c else (arr <= c) * 1.0
        return np.minimum(up, down)


@dataclass(frozen=True)
class Gauss2:
    """Sum of two Gaussian bumps, clamped into [0, 1].

    degree(x) = clamp(alpha1 * exp(-(x - beta1)^2 / gamma1^2)
                      + alpha2 * exp(-(x - beta2)^2 / gamma2^2), 0, 1)

    The raw sum can exceed 1 where the bumps overlap (and can go negative
    when a fitted alpha is negative), so evaluation always clamps.  The
    alphas are dimensionless; betas and gammas are in domain units, with
    gammas positive and gamma**2 a positive finite float.
    """

    tag: ClassVar[str] = "gauss2"
    alpha1: float
    beta1: float
    gamma1: float
    alpha2: float
    beta2: float
    gamma2: float

    def __post_init__(self):
        _require_finite(self)
        # a width squared to 0 evaluates to NaN, one that overflows raises
        if not all(g > 0 and 0 < g * g < math.inf for g in (self.gamma1, self.gamma2)):
            raise DefinitionError(
                f"gauss2 widths must be positive with a finite nonzero square, got "
                f"gamma1={self.gamma1}, gamma2={self.gamma2}"
            )

    def __call__(self, x):
        return _gauss2(_gauss2_params([self]), np.asarray(x, dtype=float))[0]


@dataclass(frozen=True)
class CrispLabel:
    """Exact-match membership over a finite catalog of discrete codes.

    Degree is 1 for codes in ``levels`` and 0 for every other code; used for
    nominal and ordinal variables whose domain is a code list.  Codes are
    text, as in :class:`lingmap.variables.CodeList`.  One code gives a
    float, a sequence of codes an array of degrees.
    """

    tag: ClassVar[str] = "crisp"
    levels: frozenset

    def __init__(self, levels):
        object.__setattr__(self, "levels", frozenset(levels))
        if not self.levels:
            raise DefinitionError("crisp label needs at least one matching level")
        if not all(isinstance(code, str) for code in self.levels):
            raise DefinitionError(f"crisp label codes must be strings, got {set(self.levels)}")

    def __call__(self, x):
        if isinstance(x, str):
            return 1.0 if x in self.levels else 0.0
        return np.array([code in self.levels for code in x], dtype=float)


MembershipFunction = Union[Trapezoid, Gauss2, CrispLabel]

# Catalog JSON tag -> shape class; dataio reads each shape's fields from here.
SHAPES: dict[str, type] = {cls.tag: cls for cls in get_args(MembershipFunction)}
