"""Mamdani-style fuzzy inference (Mamdani & Assilian, 1975), one kernel for N profiles.

The pipeline is fuzzify -> min-conjunction -> min-implication (clipping) ->
max-aggregation -> center-of-area defuzzification, and every stage works on
a batch of N input profiles at once:

* degrees: each input's terms evaluated on the batch, a [terms, N] matrix
  (one array expression for each shape among an input's terms);
* firing strengths: a gather of each rule's antecedent rows, then a min;
* aggregation: each consequent term is sampled once per system on the
  output grid and kept on its support, the slice from its first to its last
  nonzero sample.  A term is clipped at the strongest of the rules that
  conclude it, since max_r min(c, s_r) = min(c, max_r s_r), and written by
  pointwise max into its slice of a zeroed [N, grid] array per output;
  outside every support, min(0, s) = 0 leaves the zeros;
* defuzzification: the discrete centroid, (curve * grid).sum / curve.sum,
  summed over whole rows, so the supports change no summation order.

Inputs are given per variable as one value or a 1-D sequence of values,
broadcast together; a single profile is a batch of one, so there is no
separate scalar path.  The kernel uses elementwise operations and numpy
sums only, no matrix products, so no BLAS routine touches a result.  A
profile's output is the same bits alone or in any batch, and repeated calls
give the same bits, on one numpy build and CPU: numpy picks its exp loop by
CPU features, and with its AVX-512 loops turned off 82 of 2000 outputs on
the packaged cases moved, by at most 5.6e-16 relative.  They are not the
bits of the per-profile pipeline this kernel replaced, which called each
membership function on a 0-d value and took the centroid with a dot
product: outputs differ from it by rounding, about 5e-14 at most on the
packaged cases, and the tests keep that pipeline as an oracle to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DefinitionError, EvaluationError, NoRuleFiredError
from .rules import Rule, check_rules
from .variables import Interval, LinguisticVariable, _column, _single, fuzzify

# evaluate runs its batch in chunks of _CHUNK_FLOATS // defuzz_resolution
# profiles (at least one), so that its largest temporary, the chunk's
# [profiles, grid] aggregated curves, holds at most this many floats (512 KiB)
_CHUNK_FLOATS = 1 << 16

# the largest defuzz_resolution: the output grid and each term's samples on
# it are this many floats, 8 MB, so a catalog cannot ask for more memory
MAX_DEFUZZ_RESOLUTION = 10**6


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
        resolution = self.defuzz_resolution
        if not isinstance(resolution, int) or not 2 <= resolution <= MAX_DEFUZZ_RESOLUTION:
            raise DefinitionError(
                f"defuzz_resolution must be an integer from 2 to {MAX_DEFUZZ_RESOLUTION}"
            )
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

    @cached_property
    def _antecedents(self) -> np.ndarray:
        """[rules, k] rows of each rule's antecedent terms in the degree matrix.

        Rows follow the inputs' term order.  A rule with fewer than k
        antecedents repeats its first, which leaves its min unchanged.
        """
        row = {}
        for name, var in self.inputs.items():
            for term in var.terms:
                row[name, term] = len(row)
        width = max(len(rule.antecedents) for rule in self.rules)
        index = []
        for rule in self.rules:
            rows = [row[c.variable, c.term] for c in rule.antecedents]
            index.append(rows + rows[:1] * (width - len(rows)))
        return np.array(index, dtype=np.intp)

    @cached_property
    def _consequents(self) -> dict[str, tuple[np.ndarray, list]]:
        """Per output: a [terms, k] index of each term's rules, and the terms' supports.

        Each term a rule concludes is sampled once on the output grid, on
        the first inference, not at construction, and kept as its support:
        the grid slice from its first to its last nonzero sample, the curve
        there, and whether it overlaps no earlier term's slice.  A term with
        no nonzero sample is left out, as clipping 0 gives 0.  A term concluded
        by fewer than k rules repeats its first, which leaves their max unchanged.
        """
        table = {}
        for name, var in self.outputs.items():
            grid = self.output_grid(name)
            concluding = {}
            for i, rule in enumerate(self.rules):
                if rule.consequent.variable == name:
                    concluding.setdefault(rule.consequent.term, []).append(i)
            index, supports = [], []
            for term, rules in concluding.items():
                curve = var.terms[term](grid)
                nonzero = np.flatnonzero(curve)
                if nonzero.size:
                    lo, hi = nonzero[0], nonzero[-1] + 1
                    alone = all(hi <= s.start or s.stop <= lo for s, _, _ in supports)
                    supports.append((slice(lo, hi), curve[lo:hi], alone))
                    index.append(rules)
            width = max(map(len, index), default=1)
            index = [rules + rules[:1] * (width - len(rules)) for rules in index]
            table[name] = (np.array(index, dtype=np.intp).reshape(-1, width), supports)
        return table


def _batch_size(fis: FuzzyInferenceSystem, values: dict) -> tuple[int, dict]:
    """N, the common length of the sequence inputs (1 if none), and their lengths by name."""
    if values.keys() != fis.inputs.keys():
        # an unknown name first: a misspelt input is also a missing one, and
        # the misspelling is what the caller has to fix
        unknown = sorted(set(values) - set(fis.inputs))
        if unknown:
            raise EvaluationError(f"'{unknown[0]}' is not an input variable of this system")
        missing = sorted(set(fis.inputs) - set(values))
        raise EvaluationError(f"missing value for input variable '{missing[0]}'")
    lengths = {name: len(v) for name, v in values.items() if not _single(v)}
    n = max(lengths.values(), default=1)
    for name, length in lengths.items():
        if length not in (1, n):
            raise EvaluationError(
                f"input '{name}' has {length} values, the others {n}: "
                "sequence inputs must have one length"
            )
    return n, lengths


def firing_strengths(fis: FuzzyInferenceSystem, values: dict) -> np.ndarray:
    """Min-conjunction activation of each rule, for each profile.

    values is as for evaluate.  Returns a flat array, profile-major: the R
    rule strengths (in rule order) of one profile, or N*R for a batch of N,
    so that ``reshape(N, R)`` recovers one row per profile.
    """
    try:
        degrees = [
            degree
            for name, var in fis.inputs.items()
            for degree in fuzzify(var, values[name]).values()
        ]
        try:
            matrix = np.array(degrees)
        except ValueError:
            # rows of two lengths: single values broadcast over sequences
            matrix = np.array(np.broadcast_arrays(*degrees))
    except (KeyError, ValueError):
        # a missing input, or sequences of two lengths: evaluate checks the
        # names and lengths once, before its chunks, so only a direct call
        # pays for naming the fault here
        _batch_size(fis, values)
        raise
    return matrix[fis._antecedents].min(axis=1).T.ravel()


def infer(fis: FuzzyInferenceSystem, values: dict) -> dict[str, np.ndarray]:
    """Aggregate output membership curves for the input profiles.

    Each rule's consequent curve is clipped at the rule's firing strength;
    curves for the same output variable combine by pointwise max.  Returns
    one [N, defuzz_resolution] array per output variable, with N = 1 when
    every input is one value.  A row is all zeros where no rule for that
    output fired.  values is as for firing_strengths.
    """
    strengths = firing_strengths(fis, values).reshape(-1, len(fis.rules))
    curves = {}
    for name, (index, supports) in fis._consequents.items():
        # max_r min(c, s_r) = min(c, max_r s_r): one clip per term, at the
        # strongest of its rules, and only on its support, as min(0, s) = 0
        clips = strengths.T[index].max(axis=1)[..., None]
        curve = np.zeros((len(strengths), fis.defuzz_resolution))
        for (support, consequent, alone), clip in zip(supports, clips):
            part = curve[:, support]
            if alone:  # the curve is still 0 there, and max(0, m) = m
                np.minimum(consequent, clip, out=part)
            else:
                np.maximum(part, np.minimum(consequent, clip), out=part)
        curves[name] = curve
    return curves


def defuzzify_coa(curve: np.ndarray, domain: Interval, variable: str | None = None):
    """Discrete center-of-area of membership curves sampled uniformly over domain.

    curve is one curve, giving a float, or an [N, samples] array of them,
    giving N centroids.  Raises NoRuleFiredError when a curve is
    identically zero instead of inventing a default: a silent midpoint
    would be indistinguishable from a real answer.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim not in (1, 2) or curve.shape[-1] < 2:
        raise ValueError("curve must be 1-D or 2-D with at least two samples per curve")
    total = curve.sum(axis=-1)
    if (total <= 0.0).any():
        where = f" for variable '{variable}'" if variable else ""
        raise NoRuleFiredError(
            f"no rule fired{where}: the aggregated membership curve is zero everywhere"
        )
    grid = domain.grid(curve.shape[-1])
    # the products are taken a quarter chunk at a time: a product as large
    # as the curves, freed beside them, lets glibc's malloc trim the heap
    # after each evaluate call, and the next call faults the pages back in
    # (about 300 minor faults per call on a 65-profile case-2 batch)
    block = max(1, _CHUNK_FLOATS // 4 // grid.size)
    if total.size <= block:
        moment = (curve * grid).sum(axis=-1)
    else:  # so curve is [N, samples]
        moment = np.empty(total.shape)
        for lo in range(0, len(curve), block):
            (curve[lo:lo + block] * grid).sum(axis=-1, out=moment[lo:lo + block])
    value = moment / total
    # the exact centroid cannot leave [lo, hi]; clip ulp-level rounding spill
    if curve.ndim == 1:
        return min(max(float(value), domain.lo), domain.hi)
    return np.minimum(np.maximum(value, domain.lo), domain.hi)


def _no_rule_fired(fis: FuzzyInferenceSystem, values: dict, row: int, exc) -> NoRuleFiredError:
    """exc, naming the inputs of profile ``row``.

    Validates every input first: a value outside its domain anywhere in the
    batch outranks a profile for which no rule fired.
    """
    columns = {name: _column(var, values[name])[0] for name, var in fis.inputs.items()}
    pairs = []
    for name, column in columns.items():
        value = column[row if len(column) > 1 else 0]
        if isinstance(value, np.generic):
            value = value.item()
        pairs.append(f"{name}={value!r}")
    return NoRuleFiredError(f"{exc}, at {', '.join(pairs)}")


def evaluate(fis: FuzzyInferenceSystem, values: dict) -> dict:
    """Crisp outputs for input profiles: the full Mamdani pipeline.

    values maps each input variable to one value or to a 1-D sequence of
    values (an array of numbers, or a sequence of codes on a code-list
    domain); sequences share one length N and single values stand for every
    profile.  Returns a float per output when every input is one value,
    else an array of N per output.  Each profile's outputs are the same bits
    whether it is evaluated alone or in any batch.

    Raises DomainError naming the first value outside its domain (NaN and
    non-numeric text included), before any NoRuleFiredError, which names
    the inputs of the first profile for which no rule fired.
    """
    n, lengths = _batch_size(fis, values)
    step = max(1, _CHUNK_FLOATS // fis.defuzz_resolution)
    if n <= step:
        outputs = _centroids(fis, values, values, 0)
    else:
        outputs = {name: np.empty(n) for name in fis.outputs}
        for lo in range(0, n, step):
            chunk = {name: v[lo:lo + step] if lengths.get(name) == n else v
                     for name, v in values.items()}
            for name, centroids in _centroids(fis, values, chunk, lo).items():
                outputs[name][lo:lo + step] = centroids
    if not lengths:
        return {name: float(out[0]) for name, out in outputs.items()}
    return outputs


def _centroids(fis: FuzzyInferenceSystem, values: dict, chunk: dict, lo: int) -> dict:
    """The outputs of chunk, the profiles of values from row lo on.  Its curves
    are freed on return, for the same reason as the blocks in defuzzify_coa."""
    outputs = {}
    for name, curve in infer(fis, chunk).items():
        try:
            outputs[name] = defuzzify_coa(curve, fis.outputs[name].domain, variable=name)
        except NoRuleFiredError as exc:
            row = lo + int(np.argmax(curve.sum(axis=-1) <= 0.0))
            raise _no_rule_fired(fis, values, row, exc) from None
    return outputs
