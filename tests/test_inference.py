"""Mamdani pipeline: firing, clipping, aggregation, defuzzification."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmap import (
    DefinitionError,
    DomainError,
    EvaluationError,
    FuzzyInferenceSystem,
    Gauss2,
    Interval,
    LinguisticVariable,
    NoRuleFiredError,
    RuleValidationError,
    Trapezoid,
    evaluate,
    parse_rules,
)
from lingmap.inference import MAX_DEFUZZ_RESOLUTION, defuzzify_coa, firing_strengths, infer


def make_fis(resolution=1001):
    temp = LinguisticVariable(
        "temp", "interval", Interval(0.0, 40.0),
        {"cold": Trapezoid(0, 0, 10, 20), "hot": Trapezoid(15, 25, 40, 40)},
    )
    hum = LinguisticVariable(
        "hum", "ratio", Interval(0.0, 100.0),
        {"dry": Trapezoid(0, 0, 30, 60), "damp": Trapezoid(40, 70, 100, 100)},
    )
    fan = LinguisticVariable(
        "fan", "ratio", Interval(0.0, 10.0),
        {"slow": Trapezoid(0, 1, 3, 4), "fast": Trapezoid(6, 7, 9, 10)},
    )
    rules = parse_rules(
        "if temp is cold and hum is dry then fan is slow\n"
        "if temp is hot then fan is fast\n"
    )
    return FuzzyInferenceSystem(
        inputs={"temp": temp, "hum": hum}, outputs={"fan": fan},
        rules=rules, defuzz_resolution=resolution,
    )


def oracle_coa(curve_fn, lo, hi, n=1_000_001):
    """Independent center-of-area by dense sampling of a membership callable."""
    xs = np.linspace(lo, hi, n)
    mu = curve_fn(xs)
    return float(np.dot(xs, mu) / mu.sum())


class TestConstruction:
    def test_rules_checked_at_construction(self):
        fis = make_fis()
        bad = parse_rules("if temp is freezing then fan is slow")
        with pytest.raises(RuleValidationError):
            FuzzyInferenceSystem(fis.inputs, fis.outputs, bad)

    def test_output_needs_interval_domain(self):
        from lingmap import CodeList, CrispLabel

        out = LinguisticVariable("y", "nominal", CodeList(["a"]), {"t": CrispLabel(["a"])})
        inp = make_fis().inputs["temp"]
        rules = parse_rules("if temp is cold then y is t")
        with pytest.raises(DefinitionError):
            FuzzyInferenceSystem({"temp": inp}, {"y": out}, rules)

    def test_variable_cannot_be_input_and_output(self):
        fis = make_fis()
        rules = parse_rules("if temp is cold then temp is hot")
        with pytest.raises((DefinitionError, RuleValidationError)):
            FuzzyInferenceSystem(fis.inputs, {"temp": fis.inputs["temp"]}, rules)

    def test_resolution_validated(self):
        for resolution in (1, MAX_DEFUZZ_RESOLUTION + 1):
            with pytest.raises(DefinitionError, match="defuzz_resolution"):
                make_fis(resolution=resolution)
        # the grid is sampled on first use, so the bound itself builds nothing
        assert make_fis(resolution=MAX_DEFUZZ_RESOLUTION).defuzz_resolution == 10**6

    @pytest.mark.parametrize("empty", ["inputs", "outputs"])
    def test_needs_inputs_and_outputs(self, empty):
        fis = make_fis()
        parts = {"inputs": fis.inputs, "outputs": fis.outputs, empty: {}}
        with pytest.raises(DefinitionError, match="at least one input and one output"):
            FuzzyInferenceSystem(rules=fis.rules, **parts)

    def test_needs_rules(self):
        fis = make_fis()
        with pytest.raises(DefinitionError, match="at least one rule"):
            FuzzyInferenceSystem(fis.inputs, fis.outputs, rules=())


class TestFiring:
    def test_conjunction_takes_minimum(self):
        fis = make_fis()
        # temp=5 -> cold 1.0; hum=45 -> dry 0.5: rule 1 fires at min = 0.5
        s = firing_strengths(fis, {"temp": 5.0, "hum": 45.0})
        assert s[0] == pytest.approx(0.5)
        assert s[1] == 0.0

    def test_single_antecedent_passes_degree_through(self):
        fis = make_fis()
        s = firing_strengths(fis, {"temp": 20.0, "hum": 0.0})
        assert s[1] == pytest.approx(0.5)  # hot(20) = (20-15)/10

    def test_missing_input_is_an_error(self):
        fis = make_fis()
        with pytest.raises(EvaluationError) as err:
            evaluate(fis, {"temp": 5.0})
        assert "hum" in str(err.value)

    def test_direct_call_names_a_missing_input_or_a_length(self):
        fis = make_fis()
        with pytest.raises(EvaluationError, match="'hum'"):
            firing_strengths(fis, {"temp": 5.0})
        with pytest.raises(EvaluationError, match="one length"):
            infer(fis, {"temp": [5.0, 6.0, 7.0], "hum": [1.0, 2.0]})

    def test_unknown_input_is_an_error(self):
        fis = make_fis()
        with pytest.raises(EvaluationError) as err:
            evaluate(fis, {"temp": 5.0, "hum": 40.0, "pressure": 1.0})
        assert "pressure" in str(err.value)


class TestAggregation:
    def test_clipped_at_firing_strength(self):
        fis = make_fis()
        curves = infer(fis, {"temp": 5.0, "hum": 45.0})
        assert curves["fan"].max() == pytest.approx(0.5)

    def test_pointwise_max_over_rules(self):
        fis = make_fis()
        # temp=17.5: cold 0.25, hot 0.25; hum=0: dry 1.0 -> both rules at 0.25
        curves = infer(fis, {"temp": 17.5, "hum": 0.0})
        grid = fis.output_grid("fan")
        slow = np.minimum(fis.outputs["fan"].terms["slow"](grid), 0.25)
        fast = np.minimum(fis.outputs["fan"].terms["fast"](grid), 0.25)
        np.testing.assert_array_equal(curves["fan"], [np.maximum(slow, fast)])

    def test_zero_strength_rule_leaves_no_trace(self):
        fis = make_fis()
        curves = infer(fis, {"temp": 5.0, "hum": 0.0})
        grid = fis.output_grid("fan")
        assert curves["fan"][:, grid >= 6.0].max() == 0.0


class TestDefuzzify:
    def test_symmetric_plateau_centers(self):
        curve = np.minimum(Trapezoid(2, 4, 6, 8)(np.linspace(0, 10, 100001)), 1.0)
        assert defuzzify_coa(curve, Interval(0, 10)) == pytest.approx(5.0, abs=1e-9)

    def test_matches_dense_oracle_on_asymmetric_shape(self):
        mf = Trapezoid(0, 1, 2, 7)
        dom = Interval(0.0, 10.0)
        engine = defuzzify_coa(mf(dom.grid(1001)), dom)
        dense = oracle_coa(mf, 0.0, 10.0)
        assert engine == pytest.approx(dense, abs=0.01)

    def test_all_zero_curve_raises_named_error(self):
        with pytest.raises(NoRuleFiredError) as err:
            defuzzify_coa(np.zeros(11), Interval(0, 10), variable="fan")
        assert "fan" in str(err.value)

    def test_never_silently_defaults(self):
        fis = make_fis()
        # temp=30 -> cold 0; hum=80 -> dry 0: nothing fires for rule 1, rule 2 fires
        # but with temp=12.5, hum=80: cold 0.75, dry 0 -> rule1 min=0, hot(12.5)=0
        with pytest.raises(NoRuleFiredError):
            evaluate(fis, {"temp": 12.5, "hum": 80.0})

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=64),
    )
    def test_result_always_inside_domain(self, mu):
        curve = np.array(mu)
        dom = Interval(-3.0, 7.0)
        if curve.sum() == 0.0:
            with pytest.raises(NoRuleFiredError):
                defuzzify_coa(curve, dom)
        else:
            assert -3.0 <= defuzzify_coa(curve, dom) <= 7.0


class TestEvaluate:
    def test_full_pipeline_against_hand_computation(self):
        # one active rule, symmetric consequent clipped anywhere -> centroid
        # of the clipped symmetric trapezoid stays at its axis of symmetry
        out = LinguisticVariable(
            "y", "ratio", Interval(0.0, 10.0), {"mid": Trapezoid(3, 4, 6, 7)}
        )
        inp = LinguisticVariable(
            "x", "ratio", Interval(0.0, 1.0), {"on": Trapezoid(0, 0, 1, 1)}
        )
        fis = FuzzyInferenceSystem(
            {"x": inp}, {"y": out}, parse_rules("if x is on then y is mid")
        )
        assert evaluate(fis, {"x": 0.5})["y"] == pytest.approx(5.0, abs=1e-9)

    def test_weighted_mix_of_two_disjoint_rectangles(self):
        # rectangles make the discrete center-of-area an exact weighted mean
        out = LinguisticVariable(
            "y", "ratio", Interval(0.0, 10.0),
            {"a": Trapezoid(1, 1, 3, 3), "b": Trapezoid(7, 7, 9, 9)},
        )
        inp = LinguisticVariable(
            "x", "ratio", Interval(0.0, 1.0),
            {"lo": Trapezoid(0, 0, 0, 1), "hi": Trapezoid(0, 1, 1, 1)},
        )
        rules = parse_rules("if x is lo then y is a\nif x is hi then y is b")
        fis = FuzzyInferenceSystem({"x": inp}, {"y": out}, rules, defuzz_resolution=1001)
        s_lo, s_hi = 0.75, 0.25
        got = evaluate(fis, {"x": 0.25})["y"]
        grid = fis.output_grid("y")
        in_a = (grid >= 1) & (grid <= 3)
        in_b = (grid >= 7) & (grid <= 9)
        expected = (s_lo * grid[in_a].sum() + s_hi * grid[in_b].sum()) / (
            s_lo * in_a.sum() + s_hi * in_b.sum()
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_deterministic_bit_identical(self, case2_fis):
        a = evaluate(case2_fis, {"individualism": 41.7, "gender": 0.3})["distance"]
        b = evaluate(case2_fis, {"individualism": 41.7, "gender": 0.3})["distance"]
        assert a == b

    def test_rule_order_never_matters(self, case2_fis):
        reordered = case2_fis.rules[::-1]
        flipped = FuzzyInferenceSystem(
            case2_fis.inputs, case2_fis.outputs, reordered, case2_fis.defuzz_resolution
        )
        for c in (3.0, 38.0, 52.5, 67.0, 99.0):
            for g in (0.0, 0.25, 1.0):
                x = {"individualism": c, "gender": g}
                assert evaluate(case2_fis, x) == evaluate(flipped, x)


def scalar_pipeline(fis, values):
    """The per-profile pipeline the batched kernel replaced, kept as an oracle.

    One profile at a time: every degree from a scalar membership call, each
    firing rule's consequent sampled afresh and clipped, max aggregation,
    and the centroid as a dot product.
    """
    degrees = {
        name: {term: float(mf(values[name])) for term, mf in var.terms.items()}
        for name, var in fis.inputs.items()
    }
    out = {}
    for name, var in fis.outputs.items():
        grid = np.linspace(var.domain.lo, var.domain.hi, fis.defuzz_resolution)
        curve = np.zeros(grid.size)
        for rule in fis.rules:
            if rule.consequent.variable != name:
                continue
            strength = min(degrees[c.variable][c.term] for c in rule.antecedents)
            if strength > 0.0:
                clipped = np.minimum(var.terms[rule.consequent.term](grid), strength)
                np.maximum(curve, clipped, out=curve)
        out[name] = float(np.dot(grid, curve) / curve.sum())
    return out


def case2_profiles(n, seed=2):
    rng = np.random.default_rng(seed)
    gender = rng.uniform(0.0, 1.0, n)
    gender[gender == 0.5] = 0.25  # both gender terms are 0 at 0.5
    return {"individualism": rng.uniform(0.0, 100.0, n), "gender": gender}


class TestBatchKernel:
    def test_matches_the_scalar_pipeline(self, case1_fis, case2_fis):
        rng = np.random.default_rng(11)
        batches = [
            (case1_fis, {"individualism": rng.uniform(0.0, 100.0, 300)}),
            (case2_fis, case2_profiles(300)),
        ]
        for fis, batch in batches:
            got = evaluate(fis, batch)["distance"]
            for k, value in enumerate(got):
                profile = {name: float(column[k]) for name, column in batch.items()}
                assert abs(value - scalar_pipeline(fis, profile)["distance"]) <= 1e-12

    def test_batch_rows_equal_single_calls(self, case2_fis):
        # 70 profiles span three chunks of the case-2 kernel
        batch = case2_profiles(70)
        got = evaluate(case2_fis, batch)["distance"]
        assert isinstance(got, np.ndarray) and got.shape == (70,)
        for k in range(70):
            profile = {name: float(column[k]) for name, column in batch.items()}
            single = evaluate(case2_fis, profile)["distance"]
            assert isinstance(single, float)
            assert got[k] == single

    def test_single_values_broadcast(self, case2_fis):
        ind = np.linspace(0.0, 100.0, 9)
        got = evaluate(case2_fis, {"individualism": ind, "gender": 1.0})["distance"]
        full = evaluate(case2_fis, {"individualism": ind, "gender": np.ones(9)})["distance"]
        assert got.tolist() == full.tolist()
        one = evaluate(case2_fis, {"individualism": [38.0], "gender": 0.0})["distance"]
        assert one.shape == (1,)
        assert one[0] == evaluate(case2_fis, {"individualism": 38.0, "gender": 0.0})["distance"]

    def test_firing_strengths_are_profile_major(self, case2_fis):
        batch = case2_profiles(12)
        rules = len(case2_fis.rules)
        table = np.asarray(firing_strengths(case2_fis, batch)).reshape(12, rules)
        for k in range(12):
            profile = {name: float(column[k]) for name, column in batch.items()}
            single = firing_strengths(case2_fis, profile)
            assert np.shape(single) == (rules,)
            assert table[k].tolist() == list(single)

    def test_infer_gives_one_row_per_profile(self, case2_fis):
        batch = case2_profiles(5)
        curves = infer(case2_fis, batch)["distance"]
        assert curves.shape == (5, case2_fis.defuzz_resolution)
        single = infer(case2_fis, {"individualism": 20.0, "gender": 0.0})["distance"]
        assert single.shape == (1, case2_fis.defuzz_resolution)

    def test_defuzzify_rows_equal_single_curves(self, case2_fis):
        curves = infer(case2_fis, case2_profiles(6))["distance"]
        domain = case2_fis.outputs["distance"].domain
        got = defuzzify_coa(curves, domain)
        assert got.tolist() == [defuzzify_coa(row, domain) for row in curves]

    def test_code_list_batches(self):
        from lingmap import CodeList, CrispLabel

        x = LinguisticVariable("x", "ratio", Interval(0, 10), {"any": Trapezoid(0, 0, 10, 10)})
        g = LinguisticVariable(
            "g", "nominal", CodeList(["0", "1"]),
            {"zero": CrispLabel(["0"]), "one": CrispLabel(["1"])},
        )
        y = LinguisticVariable(
            "y", "ratio", Interval(0, 10),
            {"low": Trapezoid(0, 0, 2, 4), "high": Trapezoid(6, 8, 10, 10)},
        )
        fis = FuzzyInferenceSystem(
            {"x": x, "g": g}, {"y": y},
            parse_rules("if x is any and g is zero then y is low\n"
                        "if x is any and g is one then y is high"),
        )
        codes = ["1", "0", "0", "1"]
        got = evaluate(fis, {"x": 5.0, "g": codes})["y"]
        assert got.tolist() == [evaluate(fis, {"x": 5.0, "g": c})["y"] for c in codes]
        assert got[0] > 5.0 > got[1]
        fixed = evaluate(fis, {"x": [1.0, 9.0], "g": "0"})["y"]
        assert fixed.tolist() == [evaluate(fis, {"x": v, "g": "0"})["y"] for v in (1.0, 9.0)]
        with pytest.raises(DomainError) as err:
            evaluate(fis, {"x": 5.0, "g": ["0", "2", "3"]})
        assert err.value.value == "2"

    @pytest.mark.parametrize(
        "bad, first",
        [
            ([10.0, float("nan"), 150.0], "nan"),
            ([10.0, 100.5, -1.0], 100.5),
            ([10.0, "many", "x"], "many"),
        ],
    )
    def test_bad_value_in_a_batch_is_named(self, case2_fis, bad, first):
        # no rule fires for the first profile, in an earlier chunk than the
        # bad values: a bad value still comes first
        ind = [10.0] * 40 + bad
        values = {"individualism": ind, "gender": [0.5] + [0.0] * (len(ind) - 1)}
        with pytest.raises(DomainError) as err:
            evaluate(case2_fis, values)
        assert err.value.variable == "individualism"
        assert str(err.value.value) == str(first)

    def test_no_fire_profile_is_named(self, case2_fis):
        ind = np.linspace(0.0, 100.0, 40)
        gender = np.zeros(40)
        gender[37] = 0.5
        with pytest.raises(NoRuleFiredError) as err:
            evaluate(case2_fis, {"individualism": ind, "gender": gender})
        assert str(err.value).endswith(f"at individualism={float(ind[37])!r}, gender=0.5")
        with pytest.raises(NoRuleFiredError) as err:
            evaluate(case2_fis, {"individualism": 38.0, "gender": 0.5})
        assert str(err.value).endswith("at individualism=38.0, gender=0.5")

    def test_lengths_must_agree(self, case2_fis):
        with pytest.raises(EvaluationError, match="one length"):
            evaluate(case2_fis, {"individualism": [1.0, 2.0, 3.0], "gender": [0.0, 1.0]})
        with pytest.raises(EvaluationError, match="1-D"):
            evaluate(case2_fis, {"individualism": [[1.0, 2.0]], "gender": 0.0})
        with pytest.raises(DomainError):
            evaluate(case2_fis, {"individualism": [[1.0, 2.0], [3.0]], "gender": 0.0})

    def test_empty_batch(self, case2_fis):
        got = evaluate(case2_fis, {"individualism": np.empty(0), "gender": 0.0})
        assert got["distance"].shape == (0,)

    def test_consequents_sampled_once_on_first_inference(self, case2_fis, monkeypatch):
        fis = FuzzyInferenceSystem(
            case2_fis.inputs, case2_fis.outputs, case2_fis.rules, case2_fis.defuzz_resolution
        )
        calls = []
        original = Trapezoid.__call__

        def counting(mf, x):
            calls.append(np.size(x))
            return original(mf, x)

        monkeypatch.setattr(Trapezoid, "__call__", counting)
        assert calls == []  # nothing is sampled at construction
        evaluate(fis, case2_profiles(3))
        grid_calls = [n for n in calls if n == fis.defuzz_resolution]
        assert len(grid_calls) == 3  # close, medium and far, once each
        evaluate(fis, case2_profiles(3))
        assert [n for n in calls if n == fis.defuzz_resolution] == grid_calls


def aggregation_system(consequents: dict, rules: str) -> FuzzyInferenceSystem:
    """Inputs x on [0, 1] and y on [0, 10]; output z on [0, 10] with the given terms."""
    x = LinguisticVariable(
        "x", "ratio", Interval(0.0, 1.0),
        {"lo": Trapezoid(0, 0, 0.3, 0.7), "mid": Gauss2(0.9, 0.5, 0.2, 0.3, 0.7, 0.1),
         "hi": Trapezoid(0.3, 0.7, 1, 1)},
    )
    y = LinguisticVariable(
        "y", "ratio", Interval(0.0, 10.0), {"a": Trapezoid(0, 0, 4, 6), "b": Trapezoid(4, 6, 10, 10)}
    )
    z = LinguisticVariable("z", "ratio", Interval(0.0, 10.0), consequents)
    return FuzzyInferenceSystem({"x": x, "y": y}, {"z": z}, parse_rules(rules))


# every system has a rule on "x is mid", whose Gauss2 is positive on all of
# [0, 1], so some rule fires for every profile
AGGREGATION_SYSTEMS = {
    "overlapping supports": aggregation_system(
        {"p": Trapezoid(0, 2, 4, 6), "q": Trapezoid(3, 5, 7, 9), "r": Trapezoid(5, 8, 10, 10)},
        "if x is lo then z is p\nif x is mid then z is q\nif x is hi and y is b then z is r",
    ),
    "gauss2 consequent": aggregation_system(
        # the second bump's negative alpha clamps the flanks to 0
        {"g": Gauss2(1.0, 5.0, 1.5, -0.4, 5.0, 4.0), "t": Trapezoid(1, 2, 3, 4)},
        "if x is mid then z is g\nif x is lo and y is a then z is t",
    ),
    "one term, several rules": aggregation_system(
        {"m": Trapezoid(2, 4, 6, 8), "n": Trapezoid(6, 8, 10, 10)},
        "if x is lo and y is a then z is m\nif x is hi then z is m\n"
        "if x is mid then z is n\nif x is mid and y is b then z is m",
    ),
    "support outside the domain": aggregation_system(
        {"far": Trapezoid(20, 21, 22, 23), "near": Trapezoid(1, 3, 5, 7)},
        "if x is lo then z is far\nif x is mid then z is near",
    ),
}


def dense_aggregation(fis, values) -> np.ndarray:
    """The clip/max aggregation over every rule and every grid point, as an oracle."""
    strengths = np.reshape(firing_strengths(fis, values), (-1, len(fis.rules)))
    grid = fis.output_grid("z")
    curves = np.array([fis.outputs["z"].terms[r.consequent.term](grid) for r in fis.rules])
    return np.minimum(curves, strengths[:, :, None]).max(axis=1, initial=0.0)


def aggregation_profiles(n: int) -> dict:
    rng = np.random.default_rng(n)
    return {"x": rng.uniform(0.0, 1.0, n), "y": rng.uniform(0.0, 10.0, n)}


class TestSupportAggregation:
    @pytest.mark.parametrize("system", AGGREGATION_SYSTEMS)
    @pytest.mark.parametrize("n", [1, 64, 65, 66, 131])
    def test_equals_the_dense_aggregation(self, system, n):
        fis = AGGREGATION_SYSTEMS[system]
        batch = aggregation_profiles(n)
        np.testing.assert_array_equal(infer(fis, batch)["z"], dense_aggregation(fis, batch))

    @pytest.mark.parametrize("system", AGGREGATION_SYSTEMS)
    def test_batch_rows_equal_single_calls(self, system):
        fis = AGGREGATION_SYSTEMS[system]
        batch = aggregation_profiles(131)
        for n in (64, 65, 66, 131):
            got = evaluate(fis, {name: column[:n] for name, column in batch.items()})["z"]
            for k in range(n):
                single = evaluate(fis, {name: float(column[k]) for name, column in batch.items()})
                assert got[k] == single["z"]

    def test_supports_are_the_nonzero_samples(self):
        fis = AGGREGATION_SYSTEMS["gauss2 consequent"]
        index, supports = fis._consequents["z"]
        grid = fis.output_grid("z")
        for (support, curve, _), term in zip(supports, ("g", "t")):
            full = fis.outputs["z"].terms[term](grid)
            nonzero = np.flatnonzero(full)
            assert (support.start, support.stop) == (nonzero[0], nonzero[-1] + 1)
            assert curve.tolist() == full[support].tolist()
        # the Gauss2 clamps to 0 on its flanks, so its support is not the grid
        assert 0 < supports[0][0].start and supports[0][0].stop < grid.size
        assert index.tolist() == [[0], [1]]

    def test_term_outside_the_domain_has_no_support(self):
        fis = AGGREGATION_SYSTEMS["support outside the domain"]
        index, supports = fis._consequents["z"]
        # the rule concluding "far" fires, but "far" is 0 on the whole grid
        assert firing_strengths(fis, {"x": 0.1, "y": 5.0})[0] == 1.0
        assert index.tolist() == [[1]] and len(supports) == 1

    def test_rules_of_one_term_share_a_padded_row(self):
        index, _ = AGGREGATION_SYSTEMS["one term, several rules"]._consequents["z"]
        assert index.tolist() == [[0, 1, 3], [2, 2, 2]]

    def test_memory_is_bounded_beyond_the_outputs(self, case2_fis):
        # 200 000 profiles in one call: the chunks keep the temporaries near
        # one chunk's [profiles, grid] curves, where one [N, grid] array
        # would take 1.6 GB
        batch = case2_profiles(200_000, seed=7)
        evaluate(case2_fis, case2_profiles(3))  # sample the consequents first
        tracemalloc.start()
        try:
            got = evaluate(case2_fis, batch)["distance"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (200_000,)
        assert peak - got.nbytes < 2**20
