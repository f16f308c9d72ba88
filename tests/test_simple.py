import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcbounds import (
    PcUndefinedError,
    SimpleMargins,
    margins_from_count_table,
    risk_ratio,
    simple_bounds,
)
from pcbounds.simple import _interval, _min

probs = st.floats(min_value=0.0, max_value=1.0)


def test_risk_ratio():
    assert risk_ratio(SimpleMargins(0.3, 0.12)) == 2.5


def test_risk_ratio_no_unexposed_events():
    assert risk_ratio(SimpleMargins(0.3, 0.0)) == math.inf


def test_risk_ratio_no_events_at_all():
    assert math.isnan(risk_ratio(SimpleMargins(0.0, 0.0)))


def test_reference_counts(reference_counts):
    m = margins_from_count_table(reference_counts)
    iv = simple_bounds(m)
    assert float(iv.lower) == 0.6
    assert float(iv.upper) == 1.0


def test_tighter_when_unexposed_rate_large():
    # p0 caps the upper bound through 1 - p0 < p1.
    iv = simple_bounds(SimpleMargins(0.78, 0.32))
    assert float(iv.lower) == 0.5897435897435898
    assert float(iv.upper) == 0.8717948717948717


def test_lower_is_zero_when_no_excess_risk():
    iv = simple_bounds(SimpleMargins(0.2, 0.3))
    assert float(iv.lower) == 0.0


def test_degenerate_certain_cause():
    iv = simple_bounds(SimpleMargins(1.0, 0.0))
    assert float(iv.lower) == 1.0
    assert float(iv.upper) == 1.0


def test_undefined_without_exposed_events():
    with pytest.raises(PcUndefinedError):
        simple_bounds(SimpleMargins(0.0, 0.5))


@given(p1=st.floats(min_value=1e-9, max_value=1.0), p0=probs)
def test_interval_well_formed(p1, p0):
    iv = simple_bounds(SimpleMargins(p1, p0))
    assert 0.0 <= float(iv.lower) <= float(iv.upper) <= 1.0


@given(p1=st.floats(min_value=1e-9, max_value=1.0), p0=probs)
def test_closed_forms(p1, p0):
    iv = simple_bounds(SimpleMargins(p1, p0))
    assert float(iv.lower) == pytest.approx(max(0.0, 1.0 - p0 / p1), abs=1e-15)
    assert float(iv.upper) == pytest.approx(min(1.0 - p0, p1) / p1, abs=1e-15)


@given(p1=st.floats(min_value=0.05, max_value=1.0), p0=probs)
def test_upper_shrinks_as_p0_grows(p1, p0):
    iv = simple_bounds(SimpleMargins(p1, p0))
    if p0 < 1.0:
        wider = simple_bounds(SimpleMargins(p1, p0 * 0.5))
        assert float(iv.upper) <= float(wider.upper) + 1e-12


# --- the pairwise min and the clamp of every kernel ---------------------------

edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
)


@given(edge_floats, edge_floats)
def test_min_is_the_builtin_min(a, b):
    twin = float.fromhex(a.hex())  # equal to a, another object
    assert _min(a, b) is min(a, b)
    assert _min(b, a) is min(b, a)
    assert _min(a, twin) is min(a, twin) is a


@given(st.fractions(), st.fractions())
def test_min_is_the_builtin_min_on_fractions(a, b):
    assert _min(a, b) is min(a, b)
    assert _min(a, Fraction(a)) is min(a, Fraction(a)) is a


def _typed_hex(values):
    return [(type(x), float(x).hex()) for x in values]


@given(st.floats(5e-324, 1.0), probs, st.floats(0.0, 2.0))
def test_interval_clamps_as_max_and_min(p1, p0, numerator):
    want = (max(0, 1 - p0 / p1), min(1, numerator / p1))
    got = _interval(p1, p0, numerator, "")
    assert _typed_hex(got) == _typed_hex(want)


@given(st.fractions(0, 1).filter(bool), st.fractions(0, 1), st.fractions(0, 2))
def test_interval_clamps_as_max_and_min_on_fractions(p1, p0, numerator):
    want = (max(0, 1 - p0 / p1), min(1, numerator / p1))
    got = _interval(p1, p0, numerator, "")
    assert [(type(x), x) for x in got] == [(type(x), x) for x in want]
