"""Reference formulas the benchmark checks lingmap against.

Nothing here imports lingmap. The Mamdani oracle reads a catalog JSON
document itself and evaluates it with ``math`` alone: the Gauss2 and
trapezoid formulas for membership, min over a rule's antecedents, max over
the rules that share a consequent term, clipping and max-aggregation on the
grid ``lo + (hi - lo) * k / (N - 1)``, and the discrete centre of area.
The elicitation helpers recompute fuzzy c-means memberships with Bezdek's
formula in its direct form and the RMS of a Gauss2 term against them.
"""

from __future__ import annotations

import math
import re

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def gauss2(p: dict, x: float) -> float:
    """Clamped sum of two Gaussian bumps, as a catalog's ``gauss2`` term."""
    raw = p["alpha1"] * math.exp(-((x - p["beta1"]) ** 2) / p["gamma1"] ** 2) + p[
        "alpha2"
    ] * math.exp(-((x - p["beta2"]) ** 2) / p["gamma2"] ** 2)
    return min(max(raw, 0.0), 1.0)


def trapezoid(p: dict, x: float) -> float:
    """Trapezoid with breakpoints a <= b <= c <= d; equal breakpoints make shoulders."""
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    if b <= x <= c:
        return 1.0
    if a < x < b:
        return (x - a) / (b - a)
    if c < x < d:
        return (d - x) / (d - c)
    return 0.0


_SHAPES = {"gauss2": gauss2, "trapezoid": trapezoid}


def membership(mf: dict, x: float) -> float:
    """Degree of x under one catalog ``mf`` object."""
    try:
        shape = _SHAPES[mf["type"]]
    except KeyError:
        raise ValueError(f"the oracle has no formula for membership type {mf['type']!r}") from None
    return shape(mf, x)


def parse_rule(line: str) -> tuple[list[tuple[str, str]], tuple[str, str]]:
    """``if V is T and ... then O is U`` -> ([(V, T), ...], (O, U))."""
    words = _WORD.findall(line)
    lowered = [w.lower() for w in words]
    if not lowered or lowered[0] != "if" or "then" not in lowered:
        raise ValueError(f"not a rule: {line!r}")
    cut = lowered.index("then")

    def conditions(ws):
        # each condition is VAR is TERM; conditions are joined by 'and'
        out = []
        for i in range(0, len(ws), 4):
            var, is_, term = ws[i : i + 3]
            if is_.lower() != "is":
                raise ValueError(f"not a rule: {line!r}")
            out.append((var, term))
        return out

    antecedents = conditions(words[1:cut])
    (consequent,) = conditions(words[cut + 1 :])
    return antecedents, consequent


class MamdaniOracle:
    """Evaluates the inference system of one catalog document.

    The consequent curves do not depend on the input, so they are sampled on
    the output grid once. Per evaluation only the grid points where some
    consequent term is nonzero are visited; at every other point the
    aggregated curve is 0 and adds nothing to either sum of the centroid.
    """

    def __init__(self, doc: dict):
        variables = {v["name"]: v for v in doc["variables"]}
        fis = doc["fis"]
        self.inputs = {
            name: [(t["name"], t["mf"]) for t in variables[name]["terms"]]
            for name in fis["inputs"]
        }
        self.rules = []
        for raw in fis["rules"].splitlines():
            line = raw.split("#", 1)[0]
            if line.strip():
                self.rules.append(parse_rule(line))
        n = fis.get("defuzz_resolution", 1001)
        self.outputs = {}
        for name in fis["outputs"]:
            lo, hi = variables[name]["domain"]
            grid = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
            terms = [t["name"] for t in variables[name]["terms"]]
            curves = {t["name"]: [membership(t["mf"], x) for x in grid] for t in variables[name]["terms"]}
            # points where exactly one term is nonzero, per term, and the
            # points where several overlap
            alone = {t: ([], []) for t in terms}
            shared = []
            for k, x in enumerate(grid):
                live = [(t, curves[t][k]) for t in terms if curves[t][k] > 0.0]
                if len(live) == 1:
                    t, c = live[0]
                    alone[t][0].append(x)
                    alone[t][1].append(c)
                elif live:
                    shared.append((x, live))
            self.outputs[name] = (lo, hi, alone, shared)

    def strengths(self, values: dict) -> dict[tuple[str, str], float]:
        """Activation of each consequent (output, term): max over its rules."""
        degrees = {
            name: {term: membership(mf, values[name]) for term, mf in terms}
            for name, terms in self.inputs.items()
        }
        out: dict[tuple[str, str], float] = {}
        for antecedents, consequent in self.rules:
            s = min(degrees[var][term] for var, term in antecedents)
            out[consequent] = max(out.get(consequent, 0.0), s)
        return out

    def evaluate(self, values: dict) -> dict[str, float]:
        """Crisp output per output variable; raises ValueError if no rule fires."""
        strength = self.strengths(values)
        result = {}
        for name, (lo, hi, alone, shared) in self.outputs.items():
            num = den = 0.0
            for term, (xs, cs) in alone.items():
                s = strength.get((name, term), 0.0)
                if s <= 0.0:
                    continue
                clipped = [c if c < s else s for c in cs]
                num += math.fsum(x * a for x, a in zip(xs, clipped))
                den += math.fsum(clipped)
            for x, live in shared:
                a = max(min(strength.get((name, t), 0.0), c) for t, c in live)
                num += x * a
                den += a
            if den <= 0.0:
                raise ValueError(f"no rule fired for output {name!r}")
            result[name] = min(max(num / den, lo), hi)
        return result


def bezdek_memberships(xs, centers, m: float) -> list[list[float]]:
    """u_ij = 1 / sum_k (|x_i - c_j| / |x_i - c_k|)^(2 / (m - 1)).

    A point that sits exactly on centres shares membership 1 equally among
    them.
    """
    power = 1.0 / (m - 1.0)
    rows = []
    for x in xs:
        d2 = [(x - c) ** 2 for c in centers]
        hits = [j for j, d in enumerate(d2) if d == 0.0]
        if hits:
            rows.append([1.0 / len(hits) if j in hits else 0.0 for j in range(len(centers))])
            continue
        rows.append([1.0 / sum((dj / dk) ** power for dk in d2) for dj in d2])
    return rows


def gauss2_rms(params: dict, xs, column) -> float:
    """Root-mean-square gap between a gauss2 term and one membership column."""
    return math.sqrt(math.fsum((gauss2(params, x) - u) ** 2 for x, u in zip(xs, column)) / len(xs))
