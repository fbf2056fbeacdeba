"""Automatic elicitation of linguistic variables from 1-D samples.

The pipeline has three stages:

1. subtractive clustering picks the number of clusters and seed centers,
2. fuzzy c-means refines exactly those centers and produces a membership
   column per cluster,
3. a damped Gauss-Newton fit compresses each membership column into a
   two-term Gaussian, which becomes one linguistic term.

No RNG is involved anywhere, and no stage depends on the order of the
rows.  Stage 1 reads the sorted data and gives exact potential ties to the
smallest value.  Stages 2 and 3 run over the distinct sorted values
(stage 3 over the distinct (value, membership) pairs), each weighted by
how often it occurs, as Eschrich, Ke, Hall & Goldgof (2003) do for fuzzy
c-means.  So permuting the input changes no bit of the result; the
membership rows follow the input rows.  That makes repeated runs
bit-identical on one numpy build running on one CPU; it does not make
them bit-identical across builds, or across the kernels one OpenBLAS
build picks from by CPU (``OPENBLAS_CORETYPE`` changes the bytes), whose
matrix products and solves round differently, or across the exp loops
numpy picks by CPU features.  On one x86-64 host, under three other
OpenBLAS kernels and with numpy's AVX-512 loops turned off, the fitted
Gauss2 parameters of the packaged scores and four other samples moved by
at most 2.5e-15 relative.  Stage 1 is not affected: it decides only on
potentials computed without BLAS, so its centers are the same bits on
every BLAS.  What is tested for stages
2 and 3 is that such rounding does not steer the result: stage 3 seeds
the two bumps of each term apart, at the center plus and minus half the
cluster spread, so the fit has one well-defined minimum to converge to.
On the packaged individualism data a 1-ulp change to a membership column
moves the fitted parameters by less than 1e-12 relative
(tests/test_elicit.py::TestFitStability).

Stage 1 takes O(n) memory for any radius, and O(n log n + n *
HERMITE_TERMS) time plus O(n) for each value recomputed exactly; the
n x n formulation (Chiu 1994) takes O(n^2) of both.  A fast Gauss
transform (Greengard & Strain 1991) approximates every potential with a
proven error bound, and the centers equal the n x n formulation's bit for
bit, as the subtractive_clusters docstring argues.

Stage 2 makes no start of its own: fcm runs from the centers it is given,
which must be distinct and within the data's range, as the distinct data
values stage 1 picks are.

A TrainingSet sorts its rows once, in O(n log n), the first time they
are read, and keeps the order, the sorted rows and the runs of equal
values in them.  Stages 1 and 2 read those, and elicit_variable hands
stage 3 the sorted rows, so no stage sorts the rows again; the fit still
merges its (value, membership) pairs with numpy's lexsort.  An iteration
of fcm or of the fit then takes a number of numpy calls that does not
grow with n, and array work in proportion to the number of distinct
values.  A fit whose pairs are all distinct skips the weights, which
would all be exactly 1.  A trial step of the fit evaluates only the
model; the Jacobian is built once per accepted step, from the
intermediates of the trial that was accepted.  bench/run.py times each
stage, and the BENCH_*.json files hold its results.

The only setting is the cluster radius, a fraction of the data span
(default 0.5).  Every other constant is fixed:

* SQUASH_FACTOR = 1.25: an accepted center suppresses potential within
  1.25 radii.  Chiu (1994) suggests 1.5; 1.25 is the usual default of
  later implementations.
* ACCEPT_RATIO = 0.5 and REJECT_RATIO = 0.15: a candidate whose potential
  is above half the first center's is accepted, one below 0.15 of it ends
  the search, and one in between is judged by its distance to the
  accepted centers (Chiu 1994).
* HERMITE_TERMS = 24 and BOX_REACH = 7: the Gauss transform splits the
  normalized data into boxes one kernel width (radius / 2) wide, sums a
  24-term Hermite expansion per box, and translates it to the boxes at
  most 7 boxes away.  The truncation error is below 4e-14 per sample and
  a skipped farther box adds below exp(-49) per sample, both well under
  the rounding allowance of the bound.
* FUZZIFIER = 2.0: the exponent m of fuzzy c-means, Bezdek's (1981)
  usual choice.
* FCM_TOL = 1e-6 and FCM_MAX_ITER = 500: c-means stops once every center
  moves by less than FCM_TOL, or after FCM_MAX_ITER iterations.
* FIT_MAX_ITER = 200, FIT_MIN_DROP = 1e-9 and FIT_MIN_STEP = 1e-10: the
  Gauss-Newton fit stops after FIT_MAX_ITER steps, or once a step lowers
  the cost by less than FIT_MIN_DROP of it or is shorter than
  FIT_MIN_STEP.  Its damping lambda starts at 1e-3 and is multiplied by
  10 after a rejected trial.  After an accepted step it follows the gain
  ratio rho, the cost drop over the drop the damped linear model
  predicted: lambda is multiplied by the power of two nearest in log to
  max(1/10, 1 - (2 rho - 1)^3), i.e. by 1/8, 1/4, 1/2, 1 or 2, and floored
  at 1e-12 (Nielsen 1999, "Damping parameter in Marquardt's method",
  IMM-REP-1999-05; Madsen, Nielsen & Tingleff 2004, "Methods for
  Non-Linear Least Squares Problems").  On the packaged scores that takes
  56 model evaluations for 42 steps, where dividing lambda by 10 after
  every step took 139 for 69, half of them retaken at 10 times the
  damping.
* RESIDUAL_CEILING = 0.15: elicitation fails if a term's fit has a larger
  RMS residual against its membership column.
* COVERAGE_FLOOR = 0.2: elicitation warns where no term reaches this
  degree inside the sampled range.
* WIDTH_FLOOR = 1e-3: elicitation warns of a fitted bump narrower than
  this fraction of the data span.  The fit can converge with one bump
  collapsed to a spike, often far outside the data, and the term is then
  one Gaussian.  16 of the 3893 fits of 2000 seeded two-mode samples of
  110 integer scores end so, and none of the packaged scores' fits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, DefinitionError, ElicitationError
from .membership import Gauss2, _gauss2_bumps
from .variables import Interval, LinguisticVariable, _coverage

# A two-term Gaussian has six parameters, so fits (and therefore
# elicitation) need at least six observations.
MIN_OBSERVATIONS = 6

# the fixed constants described in the module docstring
SQUASH_FACTOR = 1.25
ACCEPT_RATIO = 0.5
REJECT_RATIO = 0.15
HERMITE_TERMS = 24
BOX_REACH = 7
FUZZIFIER = 2.0
FCM_TOL = 1e-6
FCM_MAX_ITER = 500
FIT_MAX_ITER = 200
FIT_MIN_DROP = 1e-9
FIT_MIN_STEP = 1e-10
RESIDUAL_CEILING = 0.15
COVERAGE_FLOOR = 0.2
WIDTH_FLOOR = 1e-3

# float64's unit roundoff, in the rounding allowances of the potential bound
_UNIT = 2.0**-53


@dataclass(frozen=True)
class TrainingSet:
    """1-D finite observations, read-only, sorted once on first use."""

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

    @functools.cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The sorting order, the sorted rows, and each run of equal values' start and length."""
        order = np.argsort(self.values)
        rows = self.values[order]
        starts, runs = _runs(rows)
        for a in (order, rows, starts, runs):
            a.setflags(write=False)
        return order, rows, starts, runs


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


def _runs(a: np.ndarray, *more: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal entries in the sorted array a.

    With more arrays of a's length, a run is a run of equal entries in each.
    """
    first = np.empty(a.size, dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    for b in more:
        first[1:] |= b[1:] != b[:-1]
    starts = first.nonzero()[0]
    return starts, np.append(starts[1:], a.size) - starts


def _gamma(k: int) -> float:
    """Relative error bound of a result rounded k times in a row (Higham's gamma_k)."""
    return k * _UNIT / (1.0 - k * _UNIT)


@functools.cache
def _hermite_bounds() -> tuple[float, float]:
    """Per-sample bounds of the expansion in _potentials: its truncation, and its terms.

    With source and target within half a box of their box centers (|s|,
    |t| <= 1/2), one source contributes the terms s^n t^m / (n! m!) *
    (-1)^m h_{n+m}(D), and Cramer's inequality |h_k(x)| <= 1.09 * 2^(k/2)
    * sqrt(k!) bounds each by 1.09 * 2^(-k/2) * C(k, n) / sqrt(k!), with
    k = n + m.  Returns the sum of those bounds over the terms dropped (n
    or m >= HERMITE_TERMS) and over the terms kept.  Orders k past the
    last one summed add below 1e-50.
    """
    dropped = kept = 0.0
    for k in range(2 * HERMITE_TERMS + 40):
        scale = 1.09 * 2.0 ** (-k / 2) / math.sqrt(math.factorial(k))
        lo, hi = max(0, k - HERMITE_TERMS + 1), min(k, HERMITE_TERMS - 1)
        inside = sum(math.comb(k, n) for n in range(lo, hi + 1))
        kept += scale * inside
        dropped += scale * (2**k - inside)
    return dropped, kept


@functools.cache
def _hermite_to_taylor() -> np.ndarray:
    """T[BOX_REACH + d][n, m] = (-1)^m h_{n+m}(d) / (n! m!) for box offsets |d| <= BOX_REACH.

    h_k(x) = H_k(x) exp(-x^2) is the Hermite function of the physicists'
    polynomial H_k.  Boxes are one unit wide, so d is an integer and so is
    H_k(d), computed exactly; an entry is rounded at most 10 times.  T
    turns the Hermite moments of a source box into the Taylor coefficients
    of its contribution about the center of the target box d boxes away.
    """
    order = np.arange(HERMITE_TERMS)
    inv_fact = np.array([1.0 / math.factorial(k) for k in order])
    scale = inv_fact[:, None] * (inv_fact * (-1.0) ** order)[None, :]
    index = order[:, None] + order[None, :]
    table = np.empty((2 * BOX_REACH + 1, HERMITE_TERMS, HERMITE_TERMS))
    for d in range(-BOX_REACH, BOX_REACH + 1):
        hermite = [1, 2 * d]
        for k in range(1, 2 * HERMITE_TERMS - 2):
            hermite.append(2 * d * hermite[k] - 2 * k * hermite[k - 1])
        h = np.array([float(v) for v in hermite]) * math.exp(-d * d)
        table[BOX_REACH + d] = h[index] * scale
    table.setflags(write=False)
    return table


# boxes whose neighbours' moments _potentials gathers at once: at most
# 4096 * 15 * 24 floats, 12 MB
_GATHER = 4096


def _potentials(uz: np.ndarray, counts: np.ndarray, h: float) -> tuple[np.ndarray, float]:
    """Approximate potentials of the distinct sorted values uz in [0, 1], and their error bound.

    The potential of uz[i] is sum_j counts[j] * exp(-((uz[i] - uz[j]) / h)^2),
    a Gauss transform, approximated here as Greengard & Strain (1991) do:
    in units of h, the data fall into boxes one unit wide; each box sums
    the first HERMITE_TERMS Hermite moments of its values about its center,
    and those turn, through _hermite_to_taylor(), into a Taylor polynomial
    about each box within BOX_REACH boxes.  That costs O(n * HERMITE_TERMS)
    time and memory, plus O((2 * BOX_REACH + 1) * HERMITE_TERMS^2) time
    per occupied box.

    The returned bound holds for every i against the potential as numpy
    sums it in the dense formula, np.exp(alpha * np.square(z - zs)).sum()
    with alpha = -4 / radius^2, over all n samples.  It adds, per sample:
    the truncation, the boxes left out, the rounding of each position in
    units of h (at most u / h, u = 2^-53), and numpy's rounding of one
    dense term (its exp taken as within 4 ulp); then the rounding of the
    expansion, at most _gamma(chain) of the sum of its terms' sizes in any
    order of summation, and of numpy's pairwise sum of the dense row, which
    rounds no term more than ceil(log2 n) + 26 times.  Past 2^50 boxes,
    where box offsets are no longer exact, the bound is inf.
    """
    x = uz / h
    box = np.floor(x)
    offset = x - (box + 0.5)
    # counts * offset^k, one row per power k, doubling the rows known:
    # row k is still rounded at most k times
    powers = np.empty((HERMITE_TERMS, uz.size))
    powers[0] = counts
    np.multiply(counts, offset, out=powers[1])
    known, factor = 2, offset * offset
    while known < HERMITE_TERMS:
        more = min(known, HERMITE_TERMS - known)
        np.multiply(powers[:more], factor, out=powers[known : known + more])
        known, factor = known + more, factor * factor
    starts, sizes = _runs(box)
    ids = box[starts]
    moments = np.add.reduceat(powers, starts, axis=1).T
    # a box's Taylor coefficients are one product of the moments of the
    # boxes at offsets -reach..reach (a row of zeros where none is) with
    # the stacked tables; _GATHER boxes at a time bound the memory
    reach = int(min(BOX_REACH, ids[-1] - ids[0]))
    shifts = np.arange(-reach, reach + 1)
    table = _hermite_to_taylor()[BOX_REACH - reach : BOX_REACH + reach + 1].reshape(-1, HERMITE_TERMS)
    padded = np.concatenate((moments, np.zeros((1, HERMITE_TERMS))))
    taylor = np.empty_like(moments)
    for lo in range(0, ids.size, _GATHER):
        source = ids[lo : lo + _GATHER, None] - shifts
        at = np.minimum(np.searchsorted(ids, source), ids.size - 1)
        at[ids[at] != source] = ids.size
        taylor[lo : lo + _GATHER] = padded[at].reshape(len(source), -1) @ table
    approx = np.einsum("ij,ji->i", np.repeat(taylor, sizes, axis=0), powers) / counts

    n = float(counts.sum())
    widest = int(sizes.max())
    # roundings in a row: the moment sums, the powers, a table entry, the
    # product over every neighbour's moments, and the polynomial's value
    chain = widest + 10 + (2 * BOX_REACH + 4) * HERMITE_TERMS + 1
    truncation, term_size = _hermite_bounds()
    # per sample: the truncation, the farther boxes, two positions off by
    # u / h each on a kernel of slope below 1, and a dense term's rounding,
    # below 12 u (or 2^-1020 where its exp is subnormal)
    per_sample = truncation + math.exp(-(BOX_REACH**2)) + _UNIT * (2.0 / h + 16.0) + 2.0**-1020
    bound = n * per_sample + n * term_size * _gamma(chain)
    bound += 1.01 * n * _gamma(math.ceil(math.log2(n)) + 26)
    if not x[-1] < 2.0**50:
        bound = math.inf
    return approx, bound


def subtractive_clusters(data: TrainingSet, radius: float = 0.5) -> np.ndarray:
    """Estimate cluster centers by potential subtraction.

    data's values are normalized to [0, 1] by their own min/max before any
    distance is computed, so `radius` is a fraction of the observed data
    span; it must be positive, with -4/radius^2 and -4/(1.25 radius)^2
    finite and nonzero (about 1.5e-154 to 1e154), and the span finite.
    Returns centers in original units, in order of selection (strongest
    first).  Identical data collapses to a single center.

    Reads the rows as data sorted them, once, in O(n log n), having refused
    non-finite ones.  Takes O(n) memory and O(n * HERMITE_TERMS) time, plus
    O(n) for each distinct value whose potential has to be recomputed
    exactly: a handful on most data, but most values of evenly spaced data
    at small radii, whose potentials tie to within rounding.  The centers
    equal those of the dense n x n formula bit for bit: every choice is made
    on potentials that formula would compute, recomputed exactly for the
    values the bound cannot tell from the strongest.  A value leaves the
    search once, for good, when it is accepted, rejected or ruled out by its
    bound.  The dense formula zeroes an accepted or rejected value's
    potential, which can top the others again only once all are <= 0, below
    REJECT_RATIO of the first center's (at least 1, its own rows' exp(0)),
    and the search ends there.  A gray-zone rejection at potential p, the
    strongest, rules out every value that fails the gray-zone test at each
    potential up to p its bound allows: potentials only fall, distances to
    the centers only shrink, and none can pass the accept test, so the dense
    formula rejects such a value whenever it comes up, or it stops the
    search where the next value stops it too.
    """
    if not radius > 0.0:
        raise DefinitionError(f"radius must be positive, got {radius!r}")
    # the kernels' exponents, as Python floats: a numpy radius keeps its
    # bits, and a square that overflows raises instead of warning.  Outside
    # about [1.5e-154, 1e154] they are infinite or 0, and every potential
    # NaN or constant
    try:
        alpha = -4.0 / float(radius) ** 2
        rb = SQUASH_FACTOR * float(radius)
        beta = -4.0 / rb**2
    except (OverflowError, ZeroDivisionError):
        alpha = beta = math.nan
    if not all(math.isfinite(e) and e != 0.0 for e in (alpha, beta)):
        raise DefinitionError(
            f"radius {radius!r} is out of range: -4/r^2 and -4/(1.25 r)^2 must be "
            "finite and nonzero"
        )
    # canonical order: potentials are sums whose float rounding depends on
    # summation order, so the sorted rows make the result independent of
    # how the caller happened to arrange the data
    _, xs, starts, runs = data._sorted
    lo, hi = float(xs[0]), float(xs[-1])
    if not math.isfinite(hi - lo):
        raise DatasetError(f"the data span from {lo!r} to {hi!r} is not a finite number")
    if hi == lo:
        return np.array([lo])
    zs = (xs - lo) / (hi - lo)

    # equal values have equal potentials and share every decision, so the
    # search runs over the distinct values, starts[i] being uz[i]'s first row
    uz = zs[starts]
    counts = runs.astype(float)

    approx, bound = _potentials(uz, counts, radius / 2.0)
    # comparisons with approx use the bound widened by a few ulp of itself
    # and of approx's largest value, for their own rounding
    margin = bound * (1.0 + 8.0 * _UNIT) + 4.0 * _UNIT * float(np.abs(approx).max())

    row_sums = {}
    revisions = []

    def exact(ks: np.ndarray) -> np.ndarray:
        """The potentials of uz[ks], bit for bit as the dense formula has them now."""
        for k in ks:
            if k not in row_sums:
                row_sums[k] = np.exp(alpha * np.square(uz[k] - zs)).sum()
        p = np.array([row_sums[k] for k in ks])
        zk = uz[ks]
        for pc, zc in revisions:
            p = p - pc * np.exp(beta * np.square(zc - zk))
        return p

    # invariant: live holds the values still in the search; a value leaves
    # it for good once accepted, rejected or ruled out by its bound
    live = np.ones(uz.size, dtype=bool)
    dmin = np.full(uz.size, np.inf)
    centers = []
    while True:
        top = np.maximum.reduce(approx, where=live, initial=-np.inf)
        candidates = (live & (approx >= top - 2.0 * margin)).nonzero()[0]
        if candidates.size == 0:
            break
        # the strongest candidate; of exact ties, the smallest value
        p_all = exact(candidates)
        best = int(np.argmax(p_all))
        idx, p = int(candidates[best]), p_all[best]
        if not centers:
            # the strongest candidate passes the accept test, so it is the
            # first center
            p_first = p
        if p > ACCEPT_RATIO * p_first:
            accept = True
        elif p < REJECT_RATIO * p_first:
            break
        else:
            # gray zone: accept only if the candidate is far enough from
            # every existing center relative to how weak it is
            accept = dmin[idx] / radius + p / p_first >= 1.0
        live[idx] = False
        if not accept:
            # no live potential is above p, so none passes the first test
            live &= dmin / radius + np.minimum(approx + margin, p) / p_first >= 1.0
            continue

        centers.append(idx)
        revisions.append((p, uz[idx]))
        approx -= p * np.exp(beta * np.square(uz[idx] - uz))
        # the revision is the same bits as the dense one; only rounding the
        # two differences apart can widen the bound
        largest = float(np.abs(approx).max())
        bound = bound * (1.0 + _UNIT) + 2.0 * _UNIT / (1.0 - _UNIT) * largest
        margin = bound * (1.0 + 8.0 * _UNIT) + 4.0 * _UNIT * largest
        np.minimum(dmin, np.abs(uz[idx] - uz), out=dmin)

    return xs[starts[centers]]


def _fcm_memberships(d2: np.ndarray) -> np.ndarray:
    """Bezdek's memberships from the squared distances d2, [clusters, values]."""
    hits = d2 == 0.0
    # Bezdek's update on distance ratios: dividing each column by its
    # smallest d2 keeps every base >= 1, so the negative power lies in
    # (0, 1] and cannot overflow however tiny the distances are; a ratio
    # that overflows to inf gets the exact limit, membership 0.  A column
    # with a zero distance comes out NaN here and is replaced below
    power = 1.0 / (FUZZIFIER - 1.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = (d2 / d2.min(axis=0)) ** -power
        u = inv / inv.sum(axis=0)
    exact = hits.any(axis=0)
    if exact.any():
        # a value on a center belongs to the centers it sits on, equally
        hits = hits[:, exact]
        u[:, exact] = hits / hits.sum(axis=0)
    return u


def fcm(data: TrainingSet, init) -> ClusterModel:
    """Fuzzy c-means on the values of data, started from the k = len(init) centers init.

    A start holds 1 to (number of distinct values) centers, distinct and
    within [min, max] of the data, as subtractive_clusters' are; any other
    raises DefinitionError.  Iteration stops when the largest center
    movement drops below FCM_TOL; hitting FCM_MAX_ITER first sets
    converged=False rather than raising.  Centers that coincide at the end
    raise ElicitationError rather than return identical membership columns.
    Centers come back sorted ascending with membership columns permuted to
    match.

    Equal values have equal memberships, so the iteration runs over the
    distinct values in the order data sorts them in, each weighted by its
    count (Eschrich, Ke, Hall & Goldgof 2003): centers are sum(c u^m x) /
    sum(c u^m) and the objective is sum(c u^m d^2).  Its numpy calls per
    iteration do not grow with n, and its array work grows with the number
    of distinct values; the memberships are then spread back to one row per
    observation, in data's row order.  Permuting the rows changes no bit.
    Data whose span has no finite square (so no finite squared distance)
    raises DatasetError; TrainingSet has refused non-finite values.
    """
    order, xs, starts, runs = data._sorted
    ux = xs[starts]
    lo, hi = float(ux[0]), float(ux[-1])
    if not math.isfinite((hi - lo) * (hi - lo)):
        raise DatasetError(f"the data span from {lo!r} to {hi!r} has no finite square")
    counts = runs.astype(float)

    centers = np.array(init, dtype=float).ravel()
    # NaN and infinities fail the range test too
    inside = np.all((centers >= lo) & (centers <= hi))
    if not (1 <= centers.size <= ux.size and inside and np.unique(centers).size == centers.size):
        raise DefinitionError(
            f"a start needs 1 to {ux.size} distinct centers within the data's range "
            f"[{lo!r}, {hi!r}], got {centers.tolist()}"
        )

    objective_path = []
    converged = False
    iterations = 0
    for _ in range(FCM_MAX_ITER):
        d2 = (ux - centers[:, None]) ** 2
        weights = _fcm_memberships(d2) ** FUZZIFIER * counts
        objective_path.append(float((weights * d2).sum()))
        total = weights.sum(axis=1)
        # a center whose weights all underflow to 0 stays put, not NaN
        new_centers = np.divide(
            (weights * ux).sum(axis=1), total, out=centers.copy(), where=total > 0.0
        )
        iterations += 1
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if shift < FCM_TOL:
            converged = True
            break

    u = _fcm_memberships((ux - centers[:, None]) ** 2)
    ascending = np.argsort(centers, kind="stable")
    centers = centers[ascending]
    if np.any(centers[1:] == centers[:-1]):
        raise ElicitationError(
            f"fuzzy c-means merged clusters: the centers {centers.tolist()} coincide"
        )
    # each distinct value's row, repeated over its run, back in data's row order
    memberships = np.empty((xs.size, centers.size))
    memberships[order] = np.repeat(u[ascending].T, runs, axis=0)
    centers.setflags(write=False)
    memberships.setflags(write=False)
    return ClusterModel(
        centers=centers,
        memberships=memberships,
        objective_path=tuple(objective_path),
        iterations=iterations,
        converged=converged,
    )


def _gauss2_model(xs: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Model values at p = (a1, b1, log g1, a2, b2, log g2), and the intermediates of the Jacobian.

    Both bumps are one [2, n] expression, the one Gauss2 evaluates.  The
    squared widths are float64, so a log-width that saturates gives 0 or inf
    there rather than an OverflowError; fit_gauss2 rejects such a trial.
    Called with numpy's floating-point warnings off.
    """
    width2 = np.square(np.exp(p[2::3]))[:, None]
    dx, e, ae = _gauss2_bumps(p[0::3, None], p[1::3, None], -width2, xs)
    return ae[0] + ae[1], (e, ae, dx, width2)


def _gauss2_jacobian(parts: tuple) -> np.ndarray:
    """The model's Jacobian [6, n] from the intermediates _gauss2_model returned."""
    e, ae, dx, width2 = parts
    jac = np.empty((6, e.shape[1]))
    jac[0::3] = e
    jac[1::3] = ae * 2.0 * dx / width2
    jac[2::3] = ae * 2.0 * np.square(dx) / width2
    return jac


def fit_gauss2(xs, ys, init: Gauss2) -> Gauss2Fit:
    """Least-squares fit of a two-term Gaussian by damped Gauss-Newton.

    Widths are optimized in log space, which keeps them positive without
    constraints.  Only cost-reducing steps are ever accepted, so the result
    is never worse than init; a trial whose squared width is 0 or inf is
    rejected as a non-finite cost is.  The damping lambda is multiplied by
    10 after a rejected trial and, after an accepted step, by the power of
    two nearest in log to Nielsen's max(1/10, 1 - (2 rho - 1)^3), where rho
    is the cost drop over the drop step . (lambda D step - grad) that the
    damped linear model predicted and D is the damping diagonal.  Rounding
    the factor to a power of two keeps rounding noise in rho out of lambda
    unless rho sits on a boundary between two factors; with the factor
    itself, a 1-ulp change to a packaged membership column moved a fitted
    center by 1.2e-12 relative.  Convergence means the relative cost
    decrease fell below FIT_MIN_DROP or the step shrank below FIT_MIN_STEP;
    running out of iterations or damping headroom reports converged=False
    instead.

    Equal (x, y) pairs are merged first, and their counts weight the cost,
    the gradient and the normal matrix, so the work grows with the number
    of distinct pairs and permuting the pairs changes no bit.  A trial step
    evaluates only the model; the Jacobian is built once per accepted step
    from that trial's intermediates.  The residual reported is the RMS over
    all the pairs given.
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
    n = xs.size
    # equal pairs share every residual: merge them, sorted by x then y
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    starts, counts = _runs(xs, ys)
    xs, ys, counts = xs[starts], ys[starts], counts.astype(float)
    # with no pair repeated every weight is exactly 1, and multiplying by
    # 1.0 changes no bit, so the weighting is skipped
    unit = counts.size == n

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
    # a trial step can push a log-width to where exp saturates to inf or 0;
    # the non-finite cost then gets the step rejected, so numpy's
    # floating-point warnings are off for the whole loop
    with np.errstate(all="ignore"):
        f, parts = _gauss2_model(xs, p)
        residual = f - ys
        weighted = residual if unit else counts * residual
        cost = float(weighted @ residual)
        # below this, the residual is numerical noise and further damping
        # sweeps would just stall without improving
        cost_floor = 1e-22 * max(float((counts * ys) @ ys), 1.0)

        # the normal matrix is sqrt(counts) * jac times its own transpose,
        # a product numpy computes exactly symmetric
        root = None if unit else np.sqrt(counts)
        lam = 1e-3
        converged = cost <= cost_floor
        iterations = 0
        while not converged and iterations < FIT_MAX_ITER:
            iterations += 1
            jac = _gauss2_jacobian(parts)
            grad = jac @ weighted
            if not unit:
                jac *= root
            hess = jac @ jac.T
            damping = np.maximum(hess.diagonal(), 1e-12)

            accepted = False
            while lam <= 1e12:
                # hess + lam * diag(damping), adding only to the diagonal
                damped = hess.copy()
                damped.flat[::7] += lam * damping
                try:
                    step = np.linalg.solve(damped, -grad)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                new_p = p + step
                new_f, new_parts = _gauss2_model(xs, new_p)
                width2 = new_parts[3]
                new_residual = new_f - ys
                new_weighted = new_residual if unit else counts * new_residual
                new_cost = float(new_weighted @ new_residual)
                if (
                    math.isfinite(new_cost)
                    and new_cost < cost
                    and 0.0 < width2.min()
                    and width2.max() < math.inf
                ):
                    accepted = True
                    break
                lam *= 10.0
            if not accepted:
                break

            drop = cost - new_cost
            # the drop the damped linear model predicted, and Nielsen's
            # factor from the gain ratio, rounded to a power of two
            pred = float(step @ (lam * damping * step - grad))
            rho = drop / pred if pred > 0.0 else math.inf
            factor = max(0.1, 1.0 - min(2.0 * rho - 1.0, 1.0) ** 3)
            lam = max(lam * 2.0 ** round(math.log2(factor)), 1e-12)
            p, parts, weighted, cost = new_p, new_parts, new_weighted, new_cost
            if (
                cost <= cost_floor
                or drop <= FIT_MIN_DROP * max(cost, 1e-300)
                or math.sqrt(float(step @ step)) <= FIT_MIN_STEP
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
    rms = math.sqrt(cost / n)
    return Gauss2Fit(params=params, residual=rms, converged=converged, iterations=iterations)


def _seed_gauss2(ux: np.ndarray, counts: np.ndarray, u_col: np.ndarray, center: float) -> Gauss2:
    """Starting point for fitting one membership column.

    ux are the distinct sorted values, counts how often each occurs and
    u_col their memberships.  spread is the cluster's count- and
    membership-weighted standard deviation, floored away from 0.  Both
    bumps get height 0.5 and width spread and sit half a spread either side
    of the center.  Bumps seeded on top of each other would stay exact
    copies under Gauss-Newton until rounding told them apart, so the fit
    would stop on a symmetric saddle whose parameters depend on the BLAS
    build.
    """
    w = u_col**FUZZIFIER * counts
    var = float((w * (ux - center) ** 2).sum() / w.sum())
    floor = 0.01 * max(float(ux[-1] - ux[0]), 1e-9)
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
    more) or if any fit's RMS exceeds RESIDUAL_CEILING.  A bump narrower
    than WIDTH_FLOOR of the data span, and thin coverage of the sampled
    range, are reported as warnings instead.
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

    # data sorts its rows once, here, and every stage below reads that sort
    order, sx, starts, runs = data._sorted
    seeds = subtractive_clusters(data, radius)
    if seeds.size == 1:
        # one membership column is 1 everywhere, and a two-bump fit to it
        # flattens by growing its widths without bound
        raise ElicitationError(
            f"subtractive clustering found one cluster in '{name}' at radius {radius}; "
            "a linguistic variable needs two terms or more, so try a smaller radius"
        )
    model = fcm(data, seeds)
    # the distinct values and their memberships, which equal values share
    ux, counts = sx[starts], runs.astype(float)
    distinct = model.memberships[order[starts]]

    fits = []
    terms = {}
    for col, center in enumerate(model.centers):
        init = _seed_gauss2(ux, counts, distinct[:, col], float(center))
        fit = fit_gauss2(sx, np.repeat(distinct[:, col], runs), init)
        if fit.residual > RESIDUAL_CEILING:
            raise ElicitationError(
                f"membership fit for term LC{col + 1} of '{name}' has RMS residual "
                f"{fit.residual:.4f}, above the ceiling {RESIDUAL_CEILING}"
            )
        fits.append(fit)
        terms[f"LC{col + 1}"] = fit.params

    variable = LinguisticVariable(name=name, kind=kind, domain=domain, terms=terms)

    warnings = []
    span = float(ux[-1] - ux[0])
    for col, fit in enumerate(fits):
        width = min(fit.params.gamma1, fit.params.gamma2)
        if width < WIDTH_FLOOR * span:
            warnings.append(
                f"term LC{col + 1} of '{name}' has a bump of width {width:.3g}, below "
                f"{WIDTH_FLOOR} of the data span {span:.4g}, so it is one Gaussian"
            )
    hull = np.linspace(float(ux[0]), float(ux[-1]), 101)
    probe = np.union1d(hull, ux)
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
