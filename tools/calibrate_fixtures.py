#!/usr/bin/env python3
"""Build and verify the packaged case-study fixtures.

Elicits the `individualism` variable from the bundled scores, then solves
for output term placements that make the two case studies hit their anchor
targets, and verifies every behavioural requirement on the real pipeline
before freezing the results as catalog JSON under src/lingmap/fixtures/.

Design notes, so the numbers below are not magic:

* Output terms are rectangle-shaped trapezoids (a == b, c == d) whose
  midpoints sit on the defuzzification grid and whose edges sit on grid
  points.  With min-clip/max aggregation of disjoint rectangles, the
  discrete center-of-area is then EXACTLY
      sum_i(strength_i * npoints_i * mid_i) / sum_i(strength_i * npoints_i),
  a weighted interpolation of the midpoints.  That makes anchor targets
  solvable in closed form and makes the case-1 response monotone whenever
  the LC2/LC1 degree ratio is monotone.

* The published anchor set is almost additive (interaction 0.76 cm), so the
  case-2 targets are nudged symmetrically by (1.6 - 0.76)/4 = 0.21 cm per
  corner to guarantee a clearly non-additive response (interaction 1.6 cm)
  while staying far inside the 5 cm reproduction tolerance.

Run:  python3 tools/calibrate_fixtures.py
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lingmap import (  # noqa: E402
    Catalog,
    FuzzyInferenceSystem,
    Interval,
    LinguisticVariable,
    Trapezoid,
    elicit_variable,
    evaluate,
    fuzzify,
    load_training_csv,
    parse_rules,
    save_catalog,
)

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "src", "lingmap", "fixtures")

OUT_LO, OUT_HI = 45.0, 120.0
RESOLUTION = 1001
H = (OUT_HI - OUT_LO) / (RESOLUTION - 1)  # grid step, 0.075 cm

CASE1_TARGETS = {38.0: 69.9, 67.0: 100.7}
# corners as (individualism, gender) -> published expectation
CASE2_TARGETS = {
    (38.0, 0.0): 63.63,
    (67.0, 0.0): 84.7,
    (38.0, 1.0): 87.51,
    (67.0, 1.0): 109.34,
}
INTERACTION_TARGET = 1.6  # cm; required non-additivity of the case-2 corners


def snap_mid(x: float) -> float:
    """Nearest defuzzification grid point."""
    return OUT_LO + H * round((x - OUT_LO) / H)


def rectangle(mid: float, halfpoints: int) -> Trapezoid:
    """Rectangle term covering 2*halfpoints+1 grid points centred on mid."""
    half = halfpoints * H
    return Trapezoid(mid - half, mid - half, mid + half, mid + half)


def solve_two_term(t1: float, t2: float, u: float, v: float) -> tuple[float, float]:
    """Midpoints (m1, m2) with (m1 + u*m2)/(1+u) = t1 and (m1 + v*m2)/(1+v) = t2.

    u and v are the strength*npoints weight ratios of the second rectangle
    over the first at the two anchor inputs.
    """
    m2 = ((t2 - t1) + t2 * v - t1 * u) / (v - u)
    m1 = t1 * (1.0 + u) - u * m2
    return m1, m2


def build_case1(ind: LinguisticVariable, r38: float, r67: float) -> FuzzyInferenceSystem:
    t1, t2 = CASE1_TARGETS[38.0], CASE1_TARGETS[67.0]
    n_half = 67  # 135 grid points ~ 10 cm wide, same for both terms
    m_close, m_far = solve_two_term(t1, t2, r38, r67)
    terms = {
        "close": rectangle(snap_mid(m_close), n_half),
        "far": rectangle(snap_mid(m_far), n_half),
    }
    distance = LinguisticVariable("distance", "ratio", Interval(OUT_LO, OUT_HI), terms)
    rules = parse_rules(
        "if individualism is LC1 then distance is close\n"
        "if individualism is LC2 then distance is far\n"
    )
    return FuzzyInferenceSystem(
        inputs={"individualism": ind},
        outputs={"distance": distance},
        rules=rules,
        defuzz_resolution=RESOLUTION,
    )


def gender_variable() -> LinguisticVariable:
    return LinguisticVariable(
        "gender",
        "nominal",
        Interval(0.0, 1.0),
        {
            "female": Trapezoid(0.0, 0.0, 0.25, 0.5),
            "male": Trapezoid(0.5, 0.75, 1.0, 1.0),
        },
    )


def build_case2(ind: LinguisticVariable, r38: float, r67: float) -> FuzzyInferenceSystem:
    # nudge the published corners to a clearly non-additive target set
    published = CASE2_TARGETS
    interaction0 = (
        published[(38.0, 0.0)]
        - published[(67.0, 0.0)]
        - published[(38.0, 1.0)]
        + published[(67.0, 1.0)]
    )
    delta = (INTERACTION_TARGET - interaction0) / 4.0
    t00 = published[(38.0, 0.0)] + delta
    t01 = published[(67.0, 0.0)] - delta
    t10 = published[(38.0, 1.0)] - delta
    t11 = published[(67.0, 1.0)] + delta

    n_close = 54  # 109 points ~ 8.1 cm
    best = None
    # one free shape parameter: the medium/close width ratio; scan it and
    # keep the geometry with the most headroom inside the output domain
    for n_medium in range(60, 181, 2):
        rho2 = (2 * n_medium + 1) / (2 * n_close + 1)
        m_close, m_medium = solve_two_term(t00, t01, r38 * rho2, r67 * rho2)

        ratio = r67 / r38
        denom = (t11 - m_medium) - ratio * (t10 - m_medium)
        if abs(denom) < 1e-9:
            continue
        m_far = (t10 * (t11 - m_medium) - ratio * t11 * (t10 - m_medium)) / denom
        rho3 = (t10 - m_medium) / (r38 * (m_far - t10))
        n_far = round(((2 * n_medium + 1) * rho3 - 1) / 2)
        if n_far < 6:
            continue

        mids = [snap_mid(m_close), snap_mid(m_medium), snap_mid(m_far)]
        halves = [n_close, n_medium, n_far]
        edges = [(m - n * H, m + n * H) for m, n in zip(mids, halves)]
        if edges[0][0] < OUT_LO + H:  # keep whole rectangles inside the grid
            continue
        if edges[2][1] > OUT_HI - H:
            continue
        if edges[0][1] + H >= edges[1][0] or edges[1][1] + H >= edges[2][0]:
            continue  # rectangles must stay disjoint
        headroom = min(
            edges[0][0] - OUT_LO,
            OUT_HI - edges[2][1],
            edges[1][0] - edges[0][1],
            edges[2][0] - edges[1][1],
        )
        if best is None or headroom > best[0]:
            best = (headroom, mids, halves)
    if best is None:
        raise SystemExit("no feasible case-2 geometry found")

    _, mids, halves = best
    terms = {
        "close": rectangle(mids[0], halves[0]),
        "medium": rectangle(mids[1], halves[1]),
        "far": rectangle(mids[2], halves[2]),
    }
    distance = LinguisticVariable("distance", "ratio", Interval(OUT_LO, OUT_HI), terms)
    rules = parse_rules(
        "if individualism is LC1 and gender is female then distance is close\n"
        "if individualism is LC1 and gender is male then distance is medium\n"
        "if individualism is LC2 and gender is female then distance is medium\n"
        "if individualism is LC2 and gender is male then distance is far\n"
    )
    return FuzzyInferenceSystem(
        inputs={"individualism": ind, "gender": gender_variable()},
        outputs={"distance": distance},
        rules=rules,
        defuzz_resolution=RESOLUTION,
    )


def verify(case1: FuzzyInferenceSystem, case2: FuzzyInferenceSystem) -> None:
    failures = []

    def check(ok: bool, label: str) -> None:
        print(("  ok   " if ok else "  FAIL ") + label)
        if not ok:
            failures.append(label)

    print("case 1 verification")
    for c, target in CASE1_TARGETS.items():
        got = evaluate(case1, {"individualism": c})["distance"]
        check(abs(got - target) <= 5.0, f"anchor {c}: {got:.3f} vs {target} (+-5)")
    lo_out = evaluate(case1, {"individualism": 38.0})["distance"]
    hi_out = evaluate(case1, {"individualism": 67.0})["distance"]
    check(lo_out < hi_out, f"ordering {lo_out:.3f} < {hi_out:.3f}")

    cs = np.linspace(0.0, 100.0, 100001)
    outs = evaluate(case1, {"individualism": cs})["distance"]
    diffs = np.diff(outs)
    check(bool(np.all(diffs >= -1e-12)), f"monotone over {cs.size} samples (min diff {diffs.min():.3e})")
    check(bool(np.all(diffs > 0.0)), "strictly increasing everywhere")

    print("case 2 verification")
    corners = {}
    for (c, g), target in CASE2_TARGETS.items():
        got = evaluate(case2, {"individualism": c, "gender": g})["distance"]
        corners[(c, g)] = got
        check(abs(got - target) <= 5.0, f"anchor ({c:g},{g:g}): {got:.3f} vs {target} (+-5)")
    check(
        corners[(38.0, 0.0)] < corners[(38.0, 1.0)]
        and corners[(67.0, 0.0)] < corners[(67.0, 1.0)],
        "female < male at both individualism anchors",
    )
    check(
        corners[(38.0, 0.0)] < corners[(67.0, 0.0)]
        and corners[(38.0, 1.0)] < corners[(67.0, 1.0)],
        "low-individualism < high-individualism for both genders",
    )
    interaction = (
        corners[(38.0, 0.0)]
        - corners[(67.0, 0.0)]
        - corners[(38.0, 1.0)]
        + corners[(67.0, 1.0)]
    )
    check(abs(interaction) > 1.2, f"non-additive interaction {interaction:.3f} (need >1.2)")

    sweep = {
        "individualism": np.repeat(np.linspace(0.0, 100.0, 200), 50),
        "gender": np.tile(np.linspace(0.0, 1.0, 50), 200),
    }
    outs = evaluate(case2, sweep)["distance"]
    inside = bool(np.all((OUT_LO <= outs) & (outs <= OUT_HI)))
    check(inside, "200x50 sweep stays inside the output domain")

    for g in (0.0, 1.0):
        outs = evaluate(case2, {"individualism": cs[::10], "gender": g})["distance"]
        check(bool(np.all(np.diff(outs) >= -1e-12)), f"monotone in individualism at gender={g:g}")

    if failures:
        raise SystemExit(f"{len(failures)} verification failure(s)")


def main(argv=None) -> None:
    # no options; parsing first makes --help and a stray argument write nothing
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args(argv)
    data = load_training_csv(os.path.join(FIXTURES, "hofstede_individualism.csv"))
    result = elicit_variable(data, "individualism", Interval(0.0, 100.0), kind="ordinal")
    ind = result.variable
    print(f"elicited {len(ind.terms)} terms, centers {result.clusters.centers}")
    for term, fit in zip(ind.terms, result.fits):
        print(f"  {term}: rms {fit.residual:.5f}")

    deg38 = fuzzify(ind, 38.0)
    deg67 = fuzzify(ind, 67.0)
    r38 = deg38["LC2"] / deg38["LC1"]
    r67 = deg67["LC2"] / deg67["LC1"]
    print(f"degree ratios: r(38)={r38:.6f} r(67)={r67:.6f}")

    case1 = build_case1(ind, r38, r67)
    case2 = build_case2(ind, r38, r67)
    verify(case1, case2)

    source = (
        "Individualism scores transcribed from the public Hofstede dimension "
        "data matrix (geerthofstede.com/research-and-vsm/dimension-data-matrix/)."
    )
    meta1 = {
        "title": "expected interpersonal distance from cultural individualism",
        "units": "cm",
        "source": source,
        "anchors": [
            {"inputs": {"individualism": c}, "expected": t} for c, t in CASE1_TARGETS.items()
        ],
    }
    meta2 = {
        "title": "expected interpersonal distance from individualism and gender",
        "units": "cm",
        "source": source,
        "anchors": [
            {"inputs": {"individualism": c, "gender": g}, "expected": t}
            for (c, g), t in CASE2_TARGETS.items()
        ],
    }
    save_catalog(
        Catalog(metadata=meta1, fis=case1),
        os.path.join(FIXTURES, "case1_distance.json"),
    )
    save_catalog(
        Catalog(metadata=meta2, fis=case2),
        os.path.join(FIXTURES, "case2_distance_gender.json"),
    )
    print("wrote case1_distance.json and case2_distance_gender.json")


if __name__ == "__main__":
    main()
