"""Automatic elicitation of linguistic variables from 1-D samples.

The pipeline has three stages:

1. subtractive clustering picks the number of clusters and seed centers,
2. fuzzy c-means refines the centers and produces a membership column per
   cluster,
3. a damped Gauss-Newton fit compresses each membership column into a
   two-term Gaussian, which becomes one linguistic term.

No RNG is involved anywhere, and exact potential ties in stage 1 go to
the smallest value: stage 1 sorts the data, and ``argmax`` takes the first
maximum.  So permuting the input cannot change the outcome.  That
makes repeated runs bit-identical on one numpy/BLAS build; it does not
make them bit-identical across builds, whose matrix products and solves
round differently.  What is tested is that such rounding does not steer
the result: stage 3 seeds the two bumps of each term apart, at the center
plus and minus half the cluster spread, so the fit has one well-defined
minimum to converge to.  On the packaged individualism data a 1-ulp change
to a membership column moves the fitted parameters by less than 1e-12
relative (tests/test_elicit.py::TestFitStability).

The only setting is the cluster radius, a fraction of the data span
(default 0.5).  Every other constant is fixed:

* SQUASH_FACTOR = 1.25: an accepted center suppresses potential within
  1.25 radii.  Chiu (1994) suggests 1.5; 1.25 is the usual default of
  later implementations.
* ACCEPT_RATIO = 0.5 and REJECT_RATIO = 0.15: a candidate whose potential
  is above half the first center's is accepted, one below 0.15 of it ends
  the search, and one in between is judged by its distance to the
  accepted centers (Chiu 1994).
* FUZZIFIER = 2.0: the exponent m of fuzzy c-means, Bezdek's (1981)
  usual choice.
* FCM_TOL = 1e-6 and FCM_MAX_ITER = 500: c-means stops once every center
  moves by less than FCM_TOL, or after FCM_MAX_ITER iterations.
* FIT_MAX_ITER = 200, FIT_MIN_DROP = 1e-9 and FIT_MIN_STEP = 1e-10: the
  Gauss-Newton fit stops after FIT_MAX_ITER steps, or once a step lowers
  the cost by less than FIT_MIN_DROP of it or is shorter than
  FIT_MIN_STEP.
* RESIDUAL_CEILING = 0.15: elicitation fails if a term's fit has a larger
  RMS residual against its membership column.
* COVERAGE_FLOOR = 0.2: elicitation warns where no term reaches this
  degree inside the sampled range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, DefinitionError, ElicitationError
from .membership import Gauss2, _bump
from .variables import Interval, LinguisticVariable, _coverage

# A two-term Gaussian has six parameters, so fits (and therefore
# elicitation) need at least six observations.
MIN_OBSERVATIONS = 6

# the fixed constants described in the module docstring
SQUASH_FACTOR = 1.25
ACCEPT_RATIO = 0.5
REJECT_RATIO = 0.15
FUZZIFIER = 2.0
FCM_TOL = 1e-6
FCM_MAX_ITER = 500
FIT_MAX_ITER = 200
FIT_MIN_DROP = 1e-9
FIT_MIN_STEP = 1e-10
RESIDUAL_CEILING = 0.15
COVERAGE_FLOOR = 0.2

# Elements (2 MB of float64) in the scratch block subtractive clustering
# computes potentials in; a block always holds at least one whole row.
_POTENTIAL_BLOCK = 2**18


@dataclass(frozen=True)
class TrainingSet:
    """1-D finite observations, read-only."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).ravel()
        if arr.size == 0:
            raise DatasetError("training set is empty")
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise DatasetError(f"non-finite value at row {bad + 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self):
        return int(self.values.size)


@dataclass(frozen=True)
class ClusterModel:
    """Fuzzy c-means result: ascending centers and matching memberships.

    memberships has one row per observation and one column per center;
    rows sum to 1.  objective_path records the weighted within-cluster
    scatter at the start of each iteration and is nonincreasing.
    """

    centers: np.ndarray
    memberships: np.ndarray
    objective_path: tuple[float, ...]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class Gauss2Fit:
    """Outcome of fitting a two-term Gaussian to (x, y) samples."""

    params: Gauss2
    residual: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ElicitResult:
    """A fully elicited variable plus the intermediate artifacts behind it."""

    variable: LinguisticVariable
    clusters: ClusterModel
    fits: tuple[Gauss2Fit, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)


def _potentials(zs: np.ndarray, alpha: float) -> np.ndarray:
    """sum_j exp(alpha * (zs[i] - zs[j])**2) for every i, in O(n) memory.

    Rows are computed a block at a time in one scratch buffer.  Each
    potential is still the sum of one whole contiguous row, reduced in the
    same order as a row of the n x n matrix would be, so the result equals
    the dense formula bit for bit.
    """
    n = zs.size
    rows = max(1, _POTENTIAL_BLOCK // n)
    # one buffer per call: fresh per-block temporaries of this size are
    # mapped and unmapped by the allocator on every block, which made the
    # blocked loop slower than the dense formula
    buf = np.empty((min(rows, n), n))
    potentials = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[: stop - start]
        np.subtract(zs[start:stop, None], zs[None, :], out=block)
        np.square(block, out=block)
        np.multiply(block, alpha, out=block)
        np.exp(block, out=block)
        block.sum(axis=1, out=potentials[start:stop])
    return potentials


def subtractive_clusters(values, radius: float = 0.5) -> np.ndarray:
    """Estimate cluster centers by potential subtraction.

    values are normalized to [0, 1] by their own min/max before any
    distance is computed, so `radius` is a fraction of the observed data
    span; it must be positive.  Returns centers in original units, in
    order of selection (strongest first).  Identical data collapses to a
    single center.

    Takes O(n) memory and O(n^2) time: potentials are summed a block of
    rows at a time and each revision row is computed only for the accepted
    center, never as an n x n matrix.  The centers equal those of the dense
    n x n formula bit for bit.
    """
    if not radius > 0.0:
        raise DefinitionError(f"radius must be positive, got {radius!r}")
    xs = np.asarray(values, dtype=float).ravel()
    if xs.size == 0:
        raise DatasetError("training set is empty")
    # canonical order: potentials are sums whose float rounding depends on
    # summation order, so sorting first makes the result independent of how
    # the caller happened to arrange the data
    xs = np.sort(xs)
    lo, hi = float(xs[0]), float(xs[-1])
    if hi == lo:
        return np.array([lo])
    zs = (xs - lo) / (hi - lo)

    potentials = _potentials(zs, -4.0 / radius**2)
    rb = SQUASH_FACTOR * radius
    beta = -4.0 / rb**2

    # the strongest candidate passes the accept test, so it is the first center
    p_first = potentials.max()
    centers = []
    while True:
        # xs is sorted, so the first maximum is the smallest of tied values
        idx = int(np.argmax(potentials))
        p = potentials[idx]
        if p <= 0.0:
            break
        if p > ACCEPT_RATIO * p_first:
            accept = True
        elif p < REJECT_RATIO * p_first:
            break
        else:
            # gray zone: accept only if the candidate is far enough from
            # every existing center relative to how weak it is
            dmin = min(abs(zs[idx] - zs[c]) for c in centers)
            accept = dmin / radius + p / p_first >= 1.0
        if accept:
            centers.append(idx)
            potentials -= p * np.exp(beta * (zs[idx] - zs) ** 2)
        else:
            potentials[idx] = 0.0

    return xs[centers]


def _fcm_memberships(d2: np.ndarray) -> np.ndarray:
    """Bezdek's memberships from the squared distances, one row per point."""
    u = np.zeros_like(d2)
    zero_rows = np.any(d2 == 0.0, axis=1)
    if np.any(zero_rows):
        hits = d2[zero_rows] == 0.0
        u[zero_rows] = hits / hits.sum(axis=1, keepdims=True)
    regular = ~zero_rows
    if np.any(regular):
        # Bezdek's update on distance ratios: dividing each row by its
        # smallest d2 keeps every base >= 1, so the negative power lies in
        # (0, 1] and cannot overflow however tiny the distances are; a
        # ratio that overflows to inf gets the exact limit, membership 0
        power = 1.0 / (FUZZIFIER - 1.0)
        rows = d2[regular]
        with np.errstate(over="ignore"):
            ratio = rows / rows.min(axis=1, keepdims=True)
        inv = ratio**-power
        u[regular] = inv / inv.sum(axis=1, keepdims=True)
    return u


def fcm(values, k: int, init=None) -> ClusterModel:
    """Fuzzy c-means on 1-D data with a deterministic start.

    init supplies the starting centers (e.g. from subtractive_clusters);
    when missing or shorter than k, evenly spaced quantiles of the data are
    used instead.  Iteration stops when the largest center movement drops
    below FCM_TOL; hitting FCM_MAX_ITER first sets converged=False rather
    than raising.  Centers come back sorted ascending with membership
    columns permuted to match.
    """
    xs = np.asarray(values, dtype=float).ravel()
    if xs.size == 0:
        raise DatasetError("training set is empty")
    if k < 1:
        raise DefinitionError("k must be at least 1")
    if k > xs.size:
        raise DefinitionError(f"cannot form {k} clusters from {xs.size} observations")

    if init is not None and len(init) >= k:
        centers = np.asarray(init, dtype=float).ravel()[:k].copy()
    else:
        centers = np.quantile(xs, (np.arange(k) + 0.5) / k)
    if np.unique(centers).size < k:
        # coincident seeds would never separate; nudge onto quantiles
        centers = np.quantile(xs, (np.arange(k) + 0.5) / k)
        if np.unique(centers).size < k:
            centers = centers + np.arange(k) * 1e-9 * max(np.ptp(xs), 1.0)

    objective_path = []
    converged = False
    iterations = 0
    for _ in range(FCM_MAX_ITER):
        d2 = (xs[:, None] - centers[None, :]) ** 2
        weights = _fcm_memberships(d2) ** FUZZIFIER
        objective_path.append(float((weights * d2).sum()))
        total = weights.sum(axis=0)
        # a center whose weights all underflow to 0 stays put, not NaN
        new_centers = np.divide(
            (weights * xs[:, None]).sum(axis=0), total, out=centers.copy(), where=total > 0.0
        )
        iterations += 1
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < FCM_TOL:
            converged = True
            break

    u = _fcm_memberships((xs[:, None] - centers[None, :]) ** 2)
    order = np.argsort(centers, kind="stable")
    centers = centers[order]
    u = u[:, order]
    centers.setflags(write=False)
    u.setflags(write=False)
    return ClusterModel(
        centers=centers,
        memberships=u,
        objective_path=tuple(objective_path),
        iterations=iterations,
        converged=converged,
    )


def _gauss2_jacobian(xs: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Model values and Jacobian at p = (a1, b1, log g1, a2, b2, log g2)."""
    jac = np.empty((xs.size, 6))
    f = np.zeros(xs.size)
    # trial steps can push log-widths to extremes; exp then saturates to
    # inf/0 and the resulting non-finite cost gets the step rejected
    with np.errstate(all="ignore"):
        for t in range(2):
            a, b, logg = p[3 * t : 3 * t + 3]
            g = float(np.exp(logg))
            dx = xs - b
            e = _bump(xs, b, g)
            f += a * e
            jac[:, 3 * t] = e
            jac[:, 3 * t + 1] = a * e * 2.0 * dx / g**2
            jac[:, 3 * t + 2] = a * e * 2.0 * dx**2 / g**2
    return f, jac


def fit_gauss2(xs, ys, init: Gauss2) -> Gauss2Fit:
    """Least-squares fit of a two-term Gaussian by damped Gauss-Newton.

    Widths are optimized in log space, which keeps them positive without
    constraints.  Only cost-reducing steps are ever accepted, so the result
    is never worse than init.  Convergence means the relative cost decrease
    fell below FIT_MIN_DROP or the step shrank below FIT_MIN_STEP; running
    out of iterations or damping headroom reports converged=False instead.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise DatasetError(f"{xs.size} x values but {ys.size} y values")
    if xs.size < MIN_OBSERVATIONS:
        raise DatasetError(
            f"dataset too small: fitting a two-term Gaussian needs at least "
            f"{MIN_OBSERVATIONS} points, got {xs.size}"
        )
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DatasetError("non-finite values in fit data")

    p = np.array(
        [
            init.alpha1,
            init.beta1,
            math.log(init.gamma1),
            init.alpha2,
            init.beta2,
            math.log(init.gamma2),
        ]
    )
    f, jac = _gauss2_jacobian(xs, p)
    residual = f - ys
    cost = float(residual @ residual)
    # below this, the residual is numerical noise and further damping
    # sweeps would just stall without improving
    cost_floor = 1e-22 * max(float(ys @ ys), 1.0)

    lam = 1e-3
    converged = cost <= cost_floor
    iterations = 0
    while not converged and iterations < FIT_MAX_ITER:
        iterations += 1
        grad = jac.T @ residual
        hess = jac.T @ jac
        diag = np.maximum(np.diag(hess), 1e-12)

        accepted = False
        while lam <= 1e12:
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            new_p = p + step
            new_f, new_jac = _gauss2_jacobian(xs, new_p)
            new_residual = new_f - ys
            new_cost = float(new_residual @ new_residual)
            if np.isfinite(new_cost) and new_cost < cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break

        drop = cost - new_cost
        p, residual, jac, cost = new_p, new_residual, new_jac, new_cost
        lam = max(lam / 10.0, 1e-12)
        if (
            cost <= cost_floor
            or drop <= FIT_MIN_DROP * max(cost, 1e-300)
            or float(np.linalg.norm(step)) <= FIT_MIN_STEP
        ):
            converged = True
            break

    params = Gauss2(
        alpha1=float(p[0]),
        beta1=float(p[1]),
        gamma1=float(np.exp(p[2])),
        alpha2=float(p[3]),
        beta2=float(p[4]),
        gamma2=float(np.exp(p[5])),
    )
    rms = math.sqrt(cost / xs.size)
    return Gauss2Fit(params=params, residual=rms, converged=converged, iterations=iterations)


def _seed_gauss2(xs: np.ndarray, u_col: np.ndarray, center: float) -> Gauss2:
    """Starting point for fitting one membership column.

    spread is the cluster's membership-weighted standard deviation, floored
    away from 0.  Both bumps get height 0.5 and width spread and sit half a
    spread either side of the center.  Bumps seeded on top of each other
    would stay exact copies under Gauss-Newton until rounding told them
    apart, so the fit would stop on a symmetric saddle whose parameters
    depend on the BLAS build.
    """
    w = u_col**FUZZIFIER
    var = float((w * (xs - center) ** 2).sum() / w.sum())
    floor = 0.01 * max(float(np.ptp(xs)), 1e-9)
    spread = max(math.sqrt(var), floor)
    return Gauss2(
        alpha1=0.5,
        beta1=center - spread / 2.0,
        gamma1=spread,
        alpha2=0.5,
        beta2=center + spread / 2.0,
        gamma2=spread,
    )


def elicit_variable(
    data: TrainingSet,
    name: str,
    domain: Interval,
    radius: float = 0.5,
    kind: str = "interval",
) -> ElicitResult:
    """Derive a linguistic variable from raw samples.

    Cluster count and seeds come from subtractive clustering, memberships
    from fuzzy c-means, and each membership column is compressed into a
    two-term Gaussian term named LC1..LCk in ascending-center order.  Each
    fit starts from two equal bumps half a cluster spread (the membership-
    weighted standard deviation) either side of the center, so the fitted
    parameters follow from the data rather than from one BLAS build's
    rounding, as they would from two coincident bumps.  Fails if
    subtractive clustering finds only one cluster (a smaller radius finds
    more) or if any fit's RMS exceeds RESIDUAL_CEILING; merely thin
    coverage of the sampled range is reported as a warning instead.
    """
    xs = data.values
    if xs.size < MIN_OBSERVATIONS:
        raise ElicitationError(
            f"dataset too small: elicitation needs at least {MIN_OBSERVATIONS} "
            f"observations, got {xs.size}"
        )
    outside = xs[(xs < domain.lo) | (xs > domain.hi)]
    if outside.size:
        raise ElicitationError(
            f"{outside.size} observation(s) outside the domain {domain}, "
            f"first is {float(outside[0])!r}"
        )

    seeds = subtractive_clusters(xs, radius)
    if seeds.size == 1:
        # one membership column is 1 everywhere, and a two-bump fit to it
        # flattens by growing its widths without bound
        raise ElicitationError(
            f"subtractive clustering found one cluster in '{name}' at radius {radius}; "
            "a linguistic variable needs two terms or more, so try a smaller radius"
        )
    model = fcm(xs, k=seeds.size, init=seeds)

    fits = []
    terms = {}
    for col, center in enumerate(model.centers):
        u_col = model.memberships[:, col]
        init = _seed_gauss2(xs, u_col, float(center))
        fit = fit_gauss2(xs, u_col, init)
        if fit.residual > RESIDUAL_CEILING:
            raise ElicitationError(
                f"membership fit for term LC{col + 1} of '{name}' has RMS residual "
                f"{fit.residual:.4f}, above the ceiling {RESIDUAL_CEILING}"
            )
        fits.append(fit)
        terms[f"LC{col + 1}"] = fit.params

    variable = LinguisticVariable(name=name, kind=kind, domain=domain, terms=terms)

    warnings = []
    hull = np.linspace(float(xs.min()), float(xs.max()), 101)
    probe = np.unique(np.concatenate([hull, xs]))
    coverage = _coverage(variable, probe)
    worst = int(np.argmin(coverage))
    if coverage[worst] < COVERAGE_FLOOR:
        warnings.append(
            f"coverage of '{name}' dips to {coverage[worst]:.3f} near "
            f"{probe[worst]:.4g}, below the floor {COVERAGE_FLOOR}"
        )

    return ElicitResult(
        variable=variable,
        clusters=model,
        fits=tuple(fits),
        warnings=tuple(warnings),
    )
