"""Membership function shapes."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lingmap import CrispLabel, DefinitionError, Gauss2, Trapezoid
from lingmap.membership import _trapezoid

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestTrapezoid:
    def test_plateau_and_slopes(self):
        mf = Trapezoid(0.0, 2.0, 4.0, 8.0)
        assert mf(0.0) == 0.0
        assert mf(1.0) == 0.5
        assert mf(2.0) == 1.0
        assert mf(3.0) == 1.0
        assert mf(4.0) == 1.0
        assert mf(6.0) == 0.5
        assert mf(8.0) == 0.0
        assert mf(-5.0) == 0.0
        assert mf(50.0) == 0.0

    def test_left_shoulder(self):
        mf = Trapezoid(0.0, 0.0, 0.25, 0.5)
        assert mf(0.0) == 1.0
        assert mf(0.25) == 1.0
        assert mf(0.375) == 0.5
        assert mf(0.5) == 0.0

    def test_right_shoulder(self):
        mf = Trapezoid(0.5, 0.75, 1.0, 1.0)
        assert mf(1.0) == 1.0
        assert mf(0.75) == 1.0
        assert mf(0.625) == 0.5
        assert mf(0.5) == 0.0

    def test_rectangle_has_vertical_edges(self):
        mf = Trapezoid(2.0, 2.0, 3.0, 3.0)
        assert mf(2.0) == 1.0
        assert mf(3.0) == 1.0
        assert mf(1.999999) == 0.0
        assert mf(3.000001) == 0.0

    def test_spike(self):
        mf = Trapezoid(1.0, 1.0, 1.0, 1.0)
        assert mf(1.0) == 1.0
        assert mf(0.999) == 0.0

    def test_vectorized(self):
        mf = Trapezoid(0.0, 1.0, 2.0, 3.0)
        out = mf(np.array([-1.0, 0.5, 1.5, 2.5, 4.0]))
        assert out.tolist() == [0.0, 0.5, 1.0, 0.5, 0.0]

    def test_breakpoint_order_enforced(self):
        with pytest.raises(DefinitionError):
            Trapezoid(0.0, 2.0, 1.0, 3.0)
        with pytest.raises(DefinitionError):
            Trapezoid(4.0, 2.0, 5.0, 6.0)

    @given(st.lists(finite, min_size=4, max_size=4).map(sorted), finite)
    # the falling edge's quotient overflowed to -inf, with a RuntimeWarning
    @example([0.0, 0.0, 0.0, 2.7954497238727497e-306], 503.0)
    def test_degree_always_in_unit_interval(self, abcd, x):
        # finite breakpoints can still be an overflowing distance apart;
        # such a trapezoid is refused rather than evaluated
        try:
            mf = Trapezoid(*abcd)
        except DefinitionError:
            a, b, c, d = abcd
            assert not (math.isfinite(b - a) and math.isfinite(d - c))
            return
        assert 0.0 <= mf(x) <= 1.0

    def test_matches_the_masked_formula(self):
        def masked(a, b, c, d, x):
            """The region-by-region trapezoid the edge formula replaced."""
            out = np.zeros_like(x)
            out[(x >= b) & (x <= c)] = 1.0
            if b > a:
                rising = (x > a) & (x < b)
                out[rising] = (x[rising] - a) / (b - a)
            if d > c:
                falling = (x > c) & (x < d)
                out[falling] = (d - x[falling]) / (d - c)
            return out

        rng = np.random.default_rng(5)
        for _ in range(100):
            shapes = []
            for _ in range(4):
                abcd = np.sort(rng.uniform(-10.0, 10.0, 4))
                # vertical edges and coincident plateau ends
                if rng.random() < 0.2:
                    abcd[1] = abcd[0]
                if rng.random() < 0.2:
                    abcd[3] = abcd[2]
                if rng.random() < 0.1:
                    abcd[2] = abcd[1]
                shapes.append(abcd)
            # vertical edges at 0.0, met by -0.0 and by the floats beside 0
            shapes.append(np.array([0.0, 0.0, 0.0, 0.0]))
            shapes.append(np.array([-1.0, 0.0, 0.0, 1.0]))
            breakpoints = np.concatenate(shapes)
            xs = np.concatenate([
                rng.uniform(-12.0, 12.0, 200), breakpoints, np.nextafter(breakpoints, 99.0),
                np.nextafter(breakpoints, -99.0), [-0.0, 5e-324, -5e-324],
            ])
            mfs = [Trapezoid(*abcd.tolist()) for abcd in shapes]
            stacked = _trapezoid(np.stack([mf._params for mf in mfs], axis=-1)[..., None], xs)
            for mf, abcd, row in zip(mfs, shapes, stacked):
                got = mf(xs)
                assert got.tolist() == row.tolist() == masked(*abcd, xs).tolist()
                assert [mf(float(x)) for x in xs] == got.tolist()

    def test_vertical_edge_at_zero_meets_negative_zero(self):
        # the one-ulp ramp below 0.0 starts at -5e-324, so -0.0 is on the step
        for abcd in ((0.0, 0.0, 1.0, 2.0), (-2.0, -1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)):
            mf = Trapezoid(*abcd)
            assert mf(np.array([-0.0, 0.0])).tolist() == [1.0, 1.0]
            assert mf(-0.0) == 1.0
        assert Trapezoid(0.0, 0.0, 1.0, 2.0)(-5e-324) == 0.0
        assert Trapezoid(-2.0, -1.0, 0.0, 0.0)(5e-324) == 0.0

    @pytest.mark.parametrize(
        "abcd",
        [
            (-sys.float_info.max, -sys.float_info.max, 0.0, 1.0),
            (0.0, 1.0, sys.float_info.max, sys.float_info.max),
            (sys.float_info.max,) * 4,
            (-sys.float_info.max,) * 4,
        ],
    )
    def test_vertical_edge_at_max_is_refused(self, abcd):
        # no float lies beyond it, so it has no one-ulp ramp
        with pytest.raises(DefinitionError, match="one ulp if vertical"):
            Trapezoid(*abcd)

    def test_vertical_edge_one_float_inside_max_is_a_step(self):
        big = sys.float_info.max
        near = math.nextafter(big, 0.0)
        # the ramps run from -max to -near and from near to max
        mf = Trapezoid(-near, -near, near, near)
        assert mf(np.array([-big, -near, 0.0, near, big])).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]


class TestGauss2:
    def test_matches_scalar_formula(self):
        mf = Gauss2(0.6, 10.0, 3.0, 0.5, 20.0, 5.0)
        for x in (-3.0, 0.0, 9.5, 15.0, 20.0, 31.0):
            expected = 0.6 * math.exp(-((x - 10.0) ** 2) / 9.0) + 0.5 * math.exp(
                -((x - 20.0) ** 2) / 25.0
            )
            expected = min(max(expected, 0.0), 1.0)
            assert mf(x) == pytest.approx(expected, abs=1e-15)

    def test_clamps_above_one(self):
        mf = Gauss2(0.9, 10.0, 4.0, 0.9, 10.5, 4.0)
        assert mf(10.2) == 1.0
        assert 0.9 * math.exp(-(0.2**2) / 16.0) + 0.9 * math.exp(-(0.3**2) / 16.0) > 1.0

    def test_clamps_below_zero(self):
        mf = Gauss2(-0.5, 10.0, 4.0, 0.1, 30.0, 1.0)
        assert mf(10.0) == 0.0

    def test_widths_must_be_positive(self):
        with pytest.raises(DefinitionError):
            Gauss2(0.5, 0.0, 0.0, 0.5, 1.0, 1.0)
        with pytest.raises(DefinitionError):
            Gauss2(0.5, 0.0, 1.0, 0.5, 1.0, -2.0)

    def test_vectorized(self):
        mf = Gauss2(0.5, 0.0, 1.0, 0.5, 0.0, 1.0)
        out = mf(np.array([0.0, 100.0]))
        assert out[0] == 1.0
        assert out[1] == 0.0

    @given(
        st.floats(min_value=-2, max_value=2),
        finite,
        widths,
        st.floats(min_value=-2, max_value=2),
        finite,
        widths,
        finite,
    )
    def test_degree_always_in_unit_interval(self, a1, b1, g1, a2, b2, g2, x):
        mf = Gauss2(a1, b1, g1, a2, b2, g2)
        assert 0.0 <= mf(x) <= 1.0


class TestCrispLabel:
    def test_membership_is_exact_match(self):
        mf = CrispLabel(["single", "divorced"])
        assert mf("single") == 1.0
        assert mf("divorced") == 1.0
        assert mf("married") == 0.0

    def test_sequence_of_codes(self):
        mf = CrispLabel(["single", "divorced"])
        out = mf(["married", "single", "divorced"])
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [0.0, 1.0, 1.0]

    def test_levels_must_be_nonempty(self):
        with pytest.raises(DefinitionError):
            CrispLabel([])

    def test_levels_must_be_distinct(self):
        # a repeated level was folded into the set, so a catalog listing one
        # twice saved to other text than it was loaded from
        with pytest.raises(DefinitionError, match="crisp label contains duplicate levels"):
            CrispLabel(["m", "m"])
        assert CrispLabel(iter(["f", "m"])).levels == {"f", "m"}

    def test_equality_ignores_level_order(self):
        assert CrispLabel(["a", "b"]) == CrispLabel(["b", "a"])

    def test_codes_must_be_text(self):
        # catalogs store codes as JSON strings, so an int code would save
        # into a file that load_catalog rejects
        with pytest.raises(DefinitionError):
            CrispLabel([0, 1])
        with pytest.raises(DefinitionError):
            CrispLabel([0, "a"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "shape, params",
    [(Trapezoid, (0.0, 1.0, 2.0, 3.0)), (Gauss2, (0.5, 0.5, 0.2, 0.5, 0.6, 0.2))],
)
def test_every_parameter_must_be_finite(shape, params, bad):
    # a NaN parameter would reach evaluate's output as NaN, and an infinite
    # one cannot be written as JSON
    for i in range(len(params)):
        with pytest.raises(DefinitionError, match="finite"):
            shape(*params[:i], bad, *params[i + 1 :])


@pytest.mark.parametrize(
    "abcd", [(-1e308, 1e308, 1e308, 1e308), (-1e308, -1e308, -1e308, 1e308)]
)
def test_trapezoid_edge_widths_must_be_finite(abcd):
    # the rising edge of the first gave 0.0 at x = 0, not 0.5, and NaN at 1e308
    with pytest.raises(DefinitionError, match="with finite edge widths b - a and d - c"):
        Trapezoid(*abcd)


@pytest.mark.parametrize("width", [1e-200, 1e200])
@pytest.mark.parametrize("at", [2, 5])
def test_gauss2_width_squares_must_be_nonzero_and_finite(width, at):
    # a zero square makes evaluation at the center 0/0 = NaN; an
    # overflowing one raises OverflowError in evaluation
    params = [1.0, 0.0, 1.0, 0.5, 5.0, 1.0]
    params[at] = width
    with pytest.raises(DefinitionError, match="finite nonzero square"):
        Gauss2(*params)
