import math
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pcbounds import (
    CLAMP_TOL,
    BoundInterval,
    CountTable,
    InconsistentBoundsError,
    InvalidInputError,
    PartialMediationMargins,
    PcUndefinedError,
    Probability,
    compare,
    read_margins_json,
)
from pcbounds.core import _unit

probs = st.floats(min_value=0.0, max_value=1.0)
DATA = Path(__file__).resolve().parent.parent / "data"


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


class _FloatSubclass(float):
    pass


def _any_outcome(make, value):
    """(type name, float.hex) of the result, or (exception type, message)."""
    try:
        p = make(value)
    except Exception as e:
        return type(e).__name__, str(e)
    return type(p).__name__, float.hex(p)


class TestUnitFastPath:
    """``_unit`` is ``float(Probability(v))`` on every input; only its speed differs,
    and a float already in [0, 1] comes back as the same object."""

    @pytest.mark.parametrize(
        "value",
        [
            -0.0, 0.0, 5e-324, 0.5, 1.0,
            -CLAMP_TOL / 2, 1.0 + CLAMP_TOL / 2, -2 * CLAMP_TOL, 1.0 + 2 * CLAMP_TOL,
            math.nan, math.inf, -math.inf,
            0, 1, 2, True, False,
            np.float64(0.5), Fraction(1, 3), Decimal("0.5"),
            "0.5", None, 10**400,
            _FloatSubclass(0.25), _FloatSubclass(1.5), Probability(0.75),
        ],
        ids=repr,
    )
    def test_same_type_bits_or_error_as_probability(self, value):
        reference = _any_outcome(lambda v: float(Probability(v)), value)
        assert _any_outcome(_unit, value) == reference
        if reference[0] == "float":
            assert type(_unit(value)) is float
        if type(value) is float and 0.0 <= value <= 1.0:
            assert _unit(value) is value

    @given(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6), st.booleans())
    @example([1.941549899085741e-214, 2.225073858507203e-309, 0.0, 0.0, 1.0, 0.5], True)
    def test_every_report_field_and_endpoint_is_a_probability(self, v, claim):
        if claim:
            v[2], v[3] = v[0], v[1]
        try:
            rep = compare(PartialMediationMargins(*v), complete_claim=claim)
        except PcUndefinedError:  # p1 = 0
            assume(False)
        assert (rep.complete_interval is not None) == claim
        for f in fields(rep):
            value = getattr(rep, f.name)
            if f.type == "float":
                assert type(value) is float, f.name
            elif f.type.startswith("BoundInterval") and value is not None:
                assert type(value.lower) is type(value.upper) is float, f.name
        if not claim:
            narrower = min(rep.simple_interval, rep.partial_interval,
                           key=lambda iv: iv.upper)
            assert rep.combined_interval is narrower

    @given(st.lists(st.one_of(probs, st.integers(0, 20).map(lambda k: k / 20)),
                    min_size=6, max_size=6), st.booleans())
    def test_margins_and_compare_never_call_probability_new(self, v, claim):
        # _interval clamps an endpoint to the int 0 or 1, which _unit's fast
        # path must take as it takes a float.
        if claim:
            v[2], v[3] = v[0], v[1]
        calls = []
        new = Probability.__new__

        def counting(cls, value):
            calls.append(value)
            return new(cls, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Probability, "__new__", staticmethod(counting))
            try:
                compare(PartialMediationMargins(*v), complete_claim=claim)
            except PcUndefinedError:  # p1 = 0
                assume(False)
            assert calls == []
            _unit(True)  # a bool takes Probability, so the counter counts
        assert calls == [True]

    def test_margins_file_and_replace_never_call_probability_new(self):
        # Each field converts once, in read_margins_json; the margins type and
        # dataclasses.replace take the float it handed back as it is.
        calls = []
        new = Probability.__new__

        def counting(cls, value):
            calls.append(value)
            return new(cls, value)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Probability, "__new__", staticmethod(counting))
            m = read_margins_json(DATA / "example1_margins.json")
            assert calls == []
            replace(m, y00=0.1)
        assert calls == []


class TestBoundInterval:
    def test_basic(self):
        iv = BoundInterval(Probability(0.2), Probability(0.8))
        assert float(iv.lower) == 0.2
        assert float(iv.upper) == 0.8

    def test_coerces_floats(self):
        iv = BoundInterval(0.2, 0.8)
        assert type(iv.lower) is type(iv.upper) is float
        iv = BoundInterval(0, Probability(0.8))
        assert type(iv.lower) is type(iv.upper) is float
        assert float.hex(iv.lower) == float.hex(0.0)
        assert float.hex(iv.upper) == float.hex(0.8)

    def test_probability_endpoints_pass_through(self):
        # A float in [0, 1] is stored as itself; a Probability as its plain float.
        lo, hi = 0.2, 0.8
        iv = BoundInterval(lo, hi)
        assert iv.lower is lo and iv.upper is hi
        iv = BoundInterval(Probability(0.2), Probability(0.8))
        assert (type(iv.lower), iv.lower, type(iv.upper), iv.upper) == (
            float, 0.2, float, 0.8)

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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((101, 100, 12, 100), "exposed_event 101 exceeds exposed_total 100"),
            ((30, 100, 101, 100), "unexposed_event 101 exceeds unexposed_total 100"),
        ],
    )
    def test_event_above_total_names_the_arm(self, args, message):
        with pytest.raises(InvalidInputError) as exc:
            CountTable(*args)
        assert str(exc.value) == message


def test_probability_rejects_integer_beyond_float_range():
    with pytest.raises(InvalidInputError, match="too large for a float"):
        Probability(10**400)
    with pytest.raises(InvalidInputError):
        Probability(-(10**400))
