"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test prints ``criterion NN: PASS/FAIL - description`` and the terminal
summary hook in conftest.py repeats the collected lines after the run, so
the verdicts stay visible even under output capture.
"""

import time
from importlib import resources

import numpy as np

from lingmap import (
    FuzzyInferenceSystem,
    Gauss2,
    Interval,
    TrainingSet,
    Trapezoid,
    dumps_catalog,
    evaluate,
    fcm,
    fit_gauss2,
    load_catalog,
)
from lingmap import cli
from lingmap.inference import defuzzify_coa

RESULT_LINES: list[str] = []


def gauss2_sum(x, a1, b1, g1, a2, b2, g2):
    """The unclamped two-bump sum, written out apart from lingmap's own."""
    return a1 * np.exp(-((x - b1) ** 2) / g1**2) + a2 * np.exp(-((x - b2) ** 2) / g2**2)

CASE2_PUBLISHED = {
    (38.0, 0.0): 63.63,
    (67.0, 0.0): 84.7,
    (38.0, 1.0): 87.51,
    (67.0, 1.0): 109.34,
}
ANCHOR_TOLERANCE = 5.0


def _check(num: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        line = f"criterion {num:02d}: FAIL - {description}"
        RESULT_LINES.append(line)
        print(line)
        raise
    line = f"criterion {num:02d}: PASS - {description}"
    RESULT_LINES.append(line)
    print(line)


def test_criterion_01_cluster_count(tmp_path, capsys):
    def body():
        ref = resources.files("lingmap").joinpath(
            "fixtures", "hofstede_individualism.csv"
        )
        data = tmp_path / "individualism.csv"
        data.write_text(ref.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "elicited.json"
        args = [
            "elicit", "--data", str(data), "--domain", "0,100", "--out", str(out),
        ]
        start = time.perf_counter()
        code = cli.main(args)
        elapsed = time.perf_counter() - start
        printed = capsys.readouterr().out
        assert code == 0
        assert "clusters: 2" in printed
        assert len(load_catalog(out).variables["individualism"].terms) == 2
        assert elapsed < 1.0, f"elicitation took {elapsed:.3f}s"

    _check(1, "default elicitation of the 110-score fixture finds exactly 2 "
              "clusters in under 1 s", body)


def test_criterion_02_case1_anchors(case1_fis):
    def body():
        at38 = evaluate(case1_fis, {"individualism": 38.0})["distance"]
        at67 = evaluate(case1_fis, {"individualism": 67.0})["distance"]
        assert abs(at38 - 69.9) <= ANCHOR_TOLERANCE, f"eval(38) = {at38:.3f}"
        assert abs(at67 - 100.7) <= ANCHOR_TOLERANCE, f"eval(67) = {at67:.3f}"
        assert at38 < at67

    _check(2, "case 1 outputs at 38 and 67 within ±5 cm of 69.9 / 100.7 and "
              "strictly ordered", body)


def test_criterion_03_case2_anchors(case2_fis):
    def body():
        got = {
            key: evaluate(
                case2_fis, {"individualism": key[0], "gender": key[1]}
            )["distance"]
            for key in CASE2_PUBLISHED
        }
        for key, want in CASE2_PUBLISHED.items():
            assert abs(got[key] - want) <= ANCHOR_TOLERANCE, (
                f"eval{key} = {got[key]:.3f}, published {want}"
            )
        assert got[(38.0, 0.0)] < got[(38.0, 1.0)]
        assert got[(67.0, 0.0)] < got[(67.0, 1.0)]
        assert got[(38.0, 0.0)] < got[(67.0, 0.0)]
        assert got[(38.0, 1.0)] < got[(67.0, 1.0)]

    _check(3, "case 2 anchors within ±5 cm of 63.63 / 84.7 / 87.51 / 109.34 "
              "with the published partial orders", body)


def test_criterion_04_not_additive(case2_fis):
    def body():
        corners = {
            key: evaluate(
                case2_fis, {"individualism": key[0], "gender": key[1]}
            )["distance"]
            for key in CASE2_PUBLISHED
        }
        # an additive model a + b*[c high] + d*[male] fitted to any three
        # corners predicts the fourth by inclusion-exclusion
        keys = list(corners)
        for held_out in keys:
            others = [k for k in keys if k != held_out]
            opposite = next(
                k for k in others
                if k[0] != held_out[0] and k[1] != held_out[1]
            )
            adjacent = [k for k in others if k != opposite]
            predicted = sum(corners[k] for k in adjacent) - corners[opposite]
            residual = abs(corners[held_out] - predicted)
            assert residual > 1.0, (
                f"additive model reproduces {held_out} within {residual:.3f} cm"
            )

    _check(4, "case 2 surface is not additive: every 3-corner additive fit "
              "misses the 4th corner by more than 1 cm", body)


def test_criterion_05_range_containment(case2_fis):
    def body():
        lows, highs = [], []
        for c in np.linspace(0.0, 100.0, 200):
            for g in np.linspace(0.0, 1.0, 50):
                value = evaluate(
                    case2_fis, {"individualism": float(c), "gender": float(g)}
                )["distance"]
                lows.append(value)
                highs.append(value)
        assert min(lows) >= 45.0, f"minimum output {min(lows):.3f}"
        assert max(highs) <= 120.0, f"maximum output {max(highs):.3f}"

    _check(5, "all 200x50 case 2 sweep outputs stay inside [45, 120] cm", body)


def test_criterion_06_monotone_case1(case1_fis):
    def body():
        values = [
            evaluate(case1_fis, {"individualism": float(c)})["distance"]
            for c in np.linspace(0.0, 100.0, 1000)
        ]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9), f"largest decrease {diffs.min():.3e}"

    _check(6, "case 1 response is nondecreasing over a 1000-point sweep of "
              "[0, 100]", body)


def _loop_fcm(xs, k, init, m=2.0, tol=1e-6, max_iter=500):
    """Direct per-point/per-cluster loop implementation used as an oracle."""

    def memberships(centers):
        u = []
        for x in xs:
            d2 = [(x - c) ** 2 for c in centers]
            if any(d == 0.0 for d in d2):
                hits = [1.0 if d == 0.0 else 0.0 for d in d2]
                u.append([h / sum(hits) for h in hits])
            else:
                inv = [d ** (-1.0 / (m - 1.0)) for d in d2]
                u.append([v / sum(inv) for v in inv])
        return u

    centers = [float(c) for c in init]
    objective = []
    for _ in range(max_iter):
        u = memberships(centers)
        objective.append(
            sum(
                u[i][j] ** m * (xs[i] - centers[j]) ** 2
                for i in range(len(xs))
                for j in range(k)
            )
        )
        new_centers = [
            sum(u[i][j] ** m * xs[i] for i in range(len(xs)))
            / sum(u[i][j] ** m for i in range(len(xs)))
            for j in range(k)
        ]
        shift = max(abs(a - b) for a, b in zip(new_centers, centers))
        centers = new_centers
        if shift < tol:
            break
    return centers, memberships(centers), objective


def test_criterion_07_fcm_oracle(two_blobs):
    def body():
        init = np.quantile(two_blobs, [0.25, 0.75])
        model = fcm(TrainingSet(two_blobs), init)
        ref_centers, ref_u, ref_obj = _loop_fcm(list(two_blobs), 2, init)
        order = np.argsort(ref_centers)
        assert np.max(np.abs(model.centers - np.array(ref_centers)[order])) <= 1e-6
        assert np.max(np.abs(model.memberships - np.array(ref_u)[:, order])) <= 1e-6
        assert np.all(np.diff(model.objective_path) <= 1e-9)

    _check(7, "fuzzy c-means matches an independent loop implementation to "
              "1e-6 with a nonincreasing objective", body)


def test_criterion_08_gauss2_recovery():
    def body():
        true = (0.6, 4.0, 2.5, 0.4, 14.0, 3.5)
        xs = np.linspace(-5.0, 25.0, 60)
        ys = gauss2_sum(xs, *true)
        rng = np.random.default_rng(20260814)
        names = ("alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2")

        start = time.perf_counter()
        recovered = 0
        for _ in range(100):
            init = Gauss2(*(p * f for p, f in zip(true, rng.uniform(0.8, 1.2, 6))))
            fit = fit_gauss2(xs, ys, init)
            got = [getattr(fit.params, n) for n in names]
            swapped = got[3:] + got[:3]
            rel = min(
                max(abs(g - t) / abs(t) for g, t in zip(candidate, true))
                for candidate in (got, swapped)
            )
            if fit.converged and rel <= 1e-4:
                recovered += 1
        elapsed = time.perf_counter() - start
        assert recovered == 100, f"only {recovered}/100 trials recovered"
        assert elapsed < 1.0, f"100 fits took {elapsed:.3f}s"

    _check(8, "two-term Gaussian fit recovers true parameters to 1e-4 in "
              "100/100 perturbed-start trials in under 1 s", body)


def test_criterion_09_property_suite(case1_fis, case2_fis, two_blobs):
    def body():
        # membership degrees stay in [0, 1], including the clamped region
        grid = np.linspace(-5.0, 105.0, 2001)
        shapes = [
            Trapezoid(0.0, 2.0, 4.0, 9.0),
            Trapezoid(1.0, 1.0, 1.0, 1.0),
            Gauss2(0.9, 5.0, 2.0, 0.8, 12.0, 3.0),
            Gauss2(5.0, 5.0, 2.0, 4.0, 12.0, 3.0),
            *case1_fis.inputs["individualism"].terms.values(),
        ]
        for mf in shapes:
            vals = mf(grid)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

        # centroid defuzzification lands inside the output domain
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo = float(rng.uniform(-100.0, 100.0))
            domain = Interval(lo, lo + float(rng.uniform(0.5, 200.0)))
            curve = rng.random(101) * (rng.random(101) > 0.3)
            curve[0] = 0.5  # keep at least one positive sample
            value = defuzzify_coa(curve, domain)
            assert domain.lo <= value <= domain.hi

        # permuting the rule base never changes the output
        reordered = FuzzyInferenceSystem(
            inputs=case2_fis.inputs,
            outputs=case2_fis.outputs,
            rules=case2_fis.rules[::-1],
            defuzz_resolution=case2_fis.defuzz_resolution,
        )
        for c in (0.0, 20.0, 38.0, 51.0, 67.0, 93.0, 100.0):
            for g in (0.0, 0.2, 0.8, 1.0):
                profile = {"individualism": c, "gender": g}
                assert evaluate(case2_fis, profile) == evaluate(reordered, profile)

        # fuzzy partition rows sum to one
        for k in (2, 3):
            model = fcm(TrainingSet(two_blobs), np.quantile(two_blobs, (np.arange(k) + 0.5) / k))
            assert np.max(np.abs(model.memberships.sum(axis=1) - 1.0)) <= 1e-12

        # canonical serialization is byte-stable through a round trip
        for name in ("case1_distance.json", "case2_distance_gender.json"):
            ref = resources.files("lingmap").joinpath("fixtures", name)
            with resources.as_file(ref) as path:
                assert dumps_catalog(load_catalog(path)) == ref.read_text(
                    encoding="utf-8"
                )

    _check(9, "degrees in [0,1], centroid in domain, rule-order invariance, "
              "partition row sums, byte-stable round trip", body)


def test_criterion_10_reproduce_cli(capsys):
    def body():
        start = time.perf_counter()
        code1 = cli.main(["reproduce", "--case", "1"])
        code2 = cli.main(["reproduce", "--case", "2"])
        elapsed = time.perf_counter() - start
        printed = capsys.readouterr().out
        assert code1 == 0, "case 1 reproduction failed"
        assert code2 == 0, "case 2 reproduction failed"
        assert printed.count("PASS") == 2
        assert elapsed < 5.0, f"reproductions took {elapsed:.3f}s"

    _check(10, "packaged case reproductions exit 0 in under 5 s with no "
               "network access", body)
