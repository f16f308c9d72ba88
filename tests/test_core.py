import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcbounds import (
    CLAMP_TOL,
    BoundInterval,
    CountTable,
    InconsistentBoundsError,
    InvalidInputError,
    Probability,
)

probs = st.floats(min_value=0.0, max_value=1.0)


class TestProbability:
    @pytest.mark.parametrize("x", [0.0, 1.0, 0.5, 0.3333333333333333])
    def test_accepts_unit_interval(self, x):
        assert float(Probability(x)) == x

    def test_is_a_float(self):
        p = Probability(0.25)
        assert isinstance(p, float)
        assert p + 0.25 == 0.5

    def test_clamps_tiny_negative(self):
        assert float(Probability(-5e-13)) == 0.0

    def test_clamps_tiny_excess(self):
        assert float(Probability(1.0 + 5e-13)) == 1.0

    @pytest.mark.parametrize("x", [-1e-6, 1.000001, 2.0, -1.0, math.inf, -math.inf])
    def test_rejects_out_of_range(self, x):
        with pytest.raises(InvalidInputError):
            Probability(x)

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Probability(math.nan)


def _reference_probability(value):
    """``Probability.__new__``'s checks as they were before the in-range
    fast path, kept verbatim as the reference for the boundary cases."""
    v = float(value)
    if math.isnan(v):
        raise InvalidInputError("probability must not be NaN")
    if -CLAMP_TOL <= v < 0.0:
        v = 0.0
    elif 1.0 < v <= 1.0 + CLAMP_TOL:
        v = 1.0
    if not 0.0 <= v <= 1.0:
        raise InvalidInputError(f"probability {value!r} outside [0, 1]")
    return v


def _outcome(make, value):
    try:
        return float.hex(make(value))
    except InvalidInputError as e:
        return str(e)


class TestProbabilityFastPath:
    @pytest.mark.parametrize(
        "value",
        [
            0.0, -0.0, 1.0, 0.5,
            -CLAMP_TOL, 1.0 + CLAMP_TOL, -CLAMP_TOL / 2, 1.0 + CLAMP_TOL / 2,
            -2 * CLAMP_TOL, 1.0 + 2 * CLAMP_TOL,
            math.nan, math.inf, -math.inf,
            np.float64(0.25), np.float64(-0.0), np.float64(1.5),
            np.float64(math.nan),
            0, 1, 2, -1, True, False,
            "0.5", "1e-13", "-1e-13", "1.5", "nan",
        ],
        ids=repr,
    )
    def test_same_value_or_error_as_reference(self, value):
        assert _outcome(Probability, value) == _outcome(_reference_probability, value)

    def test_negative_zero_keeps_its_sign(self):
        p = Probability(-0.0)
        assert type(p) is Probability
        assert math.copysign(1.0, p) == -1.0

    def test_clamps_just_outside(self):
        assert float(Probability(-CLAMP_TOL)) == 0.0
        assert float(Probability(1.0 + CLAMP_TOL)) == 1.0

    @pytest.mark.parametrize("value", [-2 * CLAMP_TOL, 1.0 + 2 * CLAMP_TOL])
    def test_rejects_twice_the_clamp_window(self, value):
        with pytest.raises(InvalidInputError, match="outside"):
            Probability(value)

    @pytest.mark.parametrize("value", [np.float64(0.25), 1, True, "0.25"])
    def test_converts_other_numeric_types(self, value):
        p = Probability(value)
        assert type(p) is Probability
        assert float(p) == float(value)


class TestBoundInterval:
    def test_basic(self):
        iv = BoundInterval(Probability(0.2), Probability(0.8))
        assert float(iv.lower) == 0.2
        assert float(iv.upper) == 0.8

    def test_coerces_floats(self):
        iv = BoundInterval(0.2, 0.8)
        assert isinstance(iv.lower, Probability)

    def test_probability_endpoints_pass_through(self):
        lo, hi = Probability(0.2), Probability(0.8)
        iv = BoundInterval(lo, hi)
        assert iv.lower is lo and iv.upper is hi

    def test_still_checks_probability_endpoints_for_inversion(self):
        with pytest.raises(InconsistentBoundsError):
            BoundInterval(Probability(0.7), Probability(0.3))
        iv = BoundInterval(Probability(0.5 + 5e-13), Probability(0.5))
        assert iv.upper is iv.lower

    def test_collapses_float_noise_crossing(self):
        iv = BoundInterval(0.5 + 5e-13, 0.5)
        assert float(iv.lower) == float(iv.upper) == 0.5 + 5e-13

    def test_rejects_real_crossing(self):
        with pytest.raises(InconsistentBoundsError):
            BoundInterval(0.7, 0.3)

    def test_str_six_digits(self):
        assert str(BoundInterval(1 / 3, 2 / 3)) == "[0.333333, 0.666667]"

    @given(probs, probs)
    def test_any_ordered_pair_is_valid(self, a, b):
        lo, hi = min(a, b), max(a, b)
        iv = BoundInterval(lo, hi)
        assert iv.lower <= iv.upper


class TestCountTable:
    def test_valid(self):
        t = CountTable(30, 100, 12, 100)
        assert t.exposed_event == 30
        assert CountTable(np.int64(30), np.int32(100), np.uint8(12), 100) == t

    @pytest.mark.parametrize(
        "args",
        [
            (-1, 100, 12, 100),
            (30, 100, 12, 0),
            (101, 100, 12, 100),
            (30, 100, 101, 100),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(InvalidInputError):
            CountTable(*args)

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidInputError):
            CountTable(30.5, 100, 12, 100)
        with pytest.raises(InvalidInputError):
            CountTable(True, 100, 12, 100)
        with pytest.raises(InvalidInputError):
            CountTable(np.float64(30), 100, 12, 100)
        with pytest.raises(InvalidInputError):
            CountTable(np.bool_(True), 100, 12, 100)

    def test_message_names_the_field(self):
        with pytest.raises(InvalidInputError) as exc:
            CountTable(30, 100, -1, 100)
        assert str(exc.value) == "unexposed_event must be a nonnegative integer, got -1"


def test_probability_rejects_integer_beyond_float_range():
    with pytest.raises(InvalidInputError, match="too large for a float"):
        Probability(10**400)
    with pytest.raises(InvalidInputError):
        Probability(-(10**400))
