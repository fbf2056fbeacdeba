"""Linguistic variables, domains, and fuzzification."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lingmap import (
    CodeList,
    CrispLabel,
    DefinitionError,
    DomainError,
    Gauss2,
    Interval,
    LinguisticVariable,
    Trapezoid,
    fuzzify,
)
from lingmap.membership import _KERNELS
from lingmap.variables import _coverage, coverage_gaps


class TestDomains:
    def test_interval_contains(self):
        # values enter an interval domain through fuzzify, which checks the bounds
        var = LinguisticVariable(
            "x", "ratio", Interval(0.0, 10.0), {"t": Trapezoid(0, 1, 9, 10)}
        )
        for inside in (0.0, 10.0, 5):
            fuzzify(var, inside)
        for outside in (-0.001, 10.001, "abc"):
            with pytest.raises(DomainError):
                fuzzify(var, outside)

    def test_interval_requires_finite_ordered_bounds(self):
        with pytest.raises(DefinitionError):
            Interval(5.0, 5.0)
        with pytest.raises(DefinitionError):
            Interval(3.0, 1.0)
        with pytest.raises(DefinitionError):
            Interval(0.0, float("inf"))
        with pytest.raises(DefinitionError, match="finite width"):
            Interval(-1.7e308, 1.7e308)

    def test_interval_grid(self):
        assert Interval(0.0, 1.0).grid(3).tolist() == [0.0, 0.5, 1.0]

    def test_code_list(self):
        assert CodeList(["a", "b", "c"]).codes == ("a", "b", "c")
        with pytest.raises(DefinitionError):
            CodeList([])
        with pytest.raises(DefinitionError):
            CodeList(["a", "a"])

    def test_codes_must_be_text(self):
        # catalogs store codes as JSON strings, so an int code would save
        # into a file that load_catalog rejects
        with pytest.raises(DefinitionError):
            CodeList([0, 1])
        with pytest.raises(DefinitionError):
            CodeList([0, "a"])


@pytest.fixture
def score():
    return LinguisticVariable(
        "score",
        "ratio",
        Interval(0.0, 100.0),
        {"low": Trapezoid(0, 0, 20, 60), "high": Trapezoid(40, 80, 100, 100)},
    )


class TestLinguisticVariable:
    def test_term_order_is_preserved(self, score):
        assert list(score.terms) == ["low", "high"]

    def test_needs_known_kind(self):
        with pytest.raises(DefinitionError):
            LinguisticVariable("x", "continuous", Interval(0, 1), {"t": Trapezoid(0, 0, 1, 1)})

    def test_needs_at_least_one_term(self):
        with pytest.raises(DefinitionError):
            LinguisticVariable("x", "ratio", Interval(0, 1), {})

    def test_term_names_must_be_nonempty(self):
        # no rule can name an empty term
        with pytest.raises(DefinitionError, match="variable 'x': term names must be nonempty"):
            LinguisticVariable("x", "ratio", Interval(0, 1), {"": Trapezoid(0, 0, 1, 1)})

    def test_interval_domain_rejects_crisp_terms(self):
        with pytest.raises(DefinitionError):
            LinguisticVariable("x", "ratio", Interval(0, 1), {"t": CrispLabel(["a"])})

    def test_code_domain_rejects_shape_terms(self):
        with pytest.raises(DefinitionError):
            LinguisticVariable("x", "nominal", CodeList(["a"]), {"t": Trapezoid(0, 0, 1, 1)})

    def test_crisp_terms_must_stay_within_codes(self):
        with pytest.raises(DefinitionError):
            LinguisticVariable(
                "x", "nominal", CodeList(["a", "b"]), {"t": CrispLabel(["a", "z"])}
            )

    def test_gauss2_terms_allowed_on_interval(self):
        var = LinguisticVariable(
            "x", "interval", Interval(0, 1), {"t": Gauss2(0.5, 0.5, 0.2, 0.5, 0.5, 0.2)}
        )
        assert fuzzify(var, 0.5)["t"] == 1.0


class TestFuzzify:
    def test_degrees_per_term(self, score):
        degrees = fuzzify(score, 50.0)
        assert degrees["low"] == pytest.approx(0.25)
        assert degrees["high"] == pytest.approx(0.25)

    def test_out_of_domain_raises_not_clamps(self, score):
        with pytest.raises(DomainError) as err:
            fuzzify(score, 100.5)
        assert "score" in str(err.value)
        assert "100.5" in str(err.value)

    def test_boundary_values_are_in_domain(self, score):
        assert fuzzify(score, 0.0)["low"] == 1.0
        assert fuzzify(score, 100.0)["high"] == 1.0

    def test_batch_gives_one_array_per_term(self, score):
        xs = np.array([0.0, 37.5, 50.0, 100.0])
        degrees = fuzzify(score, xs)
        for term, column in degrees.items():
            assert isinstance(column, np.ndarray)
            assert column.tolist() == [fuzzify(score, float(x))[term] for x in xs]
        with pytest.raises(DomainError) as err:
            fuzzify(score, [50.0, float("nan"), 200.0])
        assert np.isnan(err.value.value)

    def test_code_list_fuzzify(self):
        var = LinguisticVariable(
            "marital",
            "nominal",
            CodeList(["single", "married", "divorced"]),
            {"alone": CrispLabel(["single", "divorced"]), "paired": CrispLabel(["married"])},
        )
        assert fuzzify(var, "married") == {"alone": 0.0, "paired": 1.0}
        with pytest.raises(DomainError):
            fuzzify(var, "widowed")


class TestCoverage:
    def test_full_coverage_reports_nothing(self, score):
        assert coverage_gaps(score) == []

    def test_gap_is_reported_not_raised(self):
        var = LinguisticVariable(
            "x",
            "ratio",
            Interval(0.0, 10.0),
            {"lo": Trapezoid(0, 0, 2, 3), "hi": Trapezoid(7, 8, 10, 10)},
        )
        gaps = coverage_gaps(var)
        assert gaps
        assert all(3.0 <= g <= 7.0 for g in gaps)

    def test_code_list_coverage(self):
        var = LinguisticVariable(
            "x", "nominal", CodeList(["a", "b", "c"]), {"t": CrispLabel(["a"])}
        )
        assert coverage_gaps(var) == ["b", "c"]


@st.composite
def mixed_terms(draw) -> dict:
    """One to five Gauss2 and trapezoid terms around the domain [0, 10]."""
    place = st.floats(-5.0, 15.0)
    terms = {}
    for i in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            a, b, c, d = sorted(draw(st.lists(place, min_size=4, max_size=4)))
            # vertical edges, including both at once
            if draw(st.booleans()):
                a = b
            if draw(st.booleans()):
                d = c
            terms[f"t{i}"] = Trapezoid(a, b, c, d)
        else:
            alphas = st.floats(-1.0, 1.5)
            gammas = st.floats(0.05, 10.0)
            terms[f"t{i}"] = Gauss2(
                draw(alphas), draw(place), draw(gammas), draw(alphas), draw(place), draw(gammas)
            )
    return terms


@given(mixed_terms(), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
def test_fuzzify_is_each_terms_bits(terms, xs):
    # the terms are evaluated stacked, one array expression per shape, and
    # must give each term's own bits, in the terms' order
    # (compared as bytes, so that -0.0 is not 0.0)
    var = LinguisticVariable("x", "ratio", Interval(0.0, 10.0), terms)
    batch = fuzzify(var, xs)
    single = fuzzify(var, xs[0])
    assert list(batch) == list(single) == list(terms)
    for term, mf in terms.items():
        assert batch[term].tobytes() == mf(np.array(xs)).tobytes()
        assert type(single[term]) is float
        assert np.float64(single[term]).tobytes() == mf(np.array(xs[:1])).tobytes()


@given(mixed_terms(), st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20))
def test_stacks_hold_each_terms_params(terms, xs):
    # one C-contiguous array per shape, a strided view slowing every kernel
    # call, with each term's own _params on its last axes; coverage reads
    # the same stacks through fuzzify and gives each term's own maximum
    var = LinguisticVariable("x", "ratio", Interval(0.0, 10.0), terms)
    assert sorted(t for names, _, _ in var._stacks for t in names) == sorted(terms)
    for names, kernel, params in var._stacks:
        assert {kernel} == {_KERNELS[type(terms[t])] for t in names}
        expected = np.moveaxis(np.array([terms[t]._params for t in names]), 0, -1)[..., None]
        assert params.flags.c_contiguous
        assert params.shape == expected.shape
        assert params.tobytes() == expected.tobytes()
    each = np.max([mf(np.array(xs)) for mf in terms.values()], axis=0)
    assert _coverage(var, np.array(xs)).tobytes() == each.tobytes()
