"""Float rounding of the bound formulas, measured against exact arithmetic.

Each regime has one kernel that returns its derived rates (p1, p0) and its
upper numerator N (``simple._simple_parts``, ``mediation._complete_parts``,
``mediation._partial_parts``), and every regime's interval is the one rule
``simple._interval``: [max(0, 1 - p0/p1), min(1, N/p1)]. Both are written
with integer literals, so on :class:`fractions.Fraction` inputs they
evaluate exactly. Each check feeds one set of float margins to the public
bound, in floats, and to the kernel and the rule, in fractions, and
requires every float endpoint to lie within the bound derived here of the
exact one.

The bound. Write u = 2**-53 for the unit roundoff and eta = 2**-1074 for
the smallest subnormal float. Each kernel output is a sum of at most four
nonnegative products of two factors, and each factor is an input, one
minus an input, or the smaller of two such. A factor carries at most one
rounding, a product adds one, and summing four terms adds at most three,
so an output x is off by at most 6u x / (1 - 6u) from its exact value,
plus 2 eta, since each product can lose up to eta / 2 to underflow. That
is ``_err``.

An endpoint is 1 - A/B or A/B, clamped to [0, 1], with B = p1 and A = p0
or N. Moving A by at most eA and B by at most eB moves A/B by at most
(eA + r eB) / (B - eB), r = A/B. The clamp only shrinks that, and when
r > 1 it caps the move at (eA + eB) / (B + eB); so r can be replaced by
min(r, 1). The division and the subtraction from 1 round twice more,
each by at most u on a value near [0, 1]: 3u covers both. That is
``_tol``. The bound is a few ulps unless p1 is small, where it grows as
1/p1, and it is infinite when p1 itself is within its error of 0.
"""

import math
from dataclasses import fields
from fractions import Fraction
from numbers import Rational

from hypothesis import given
from hypothesis import strategies as st

from pcbounds import (
    CompleteMediationMargins,
    PartialMediationMargins,
    PcUndefinedError,
    SimpleMargins,
    collapse_to_complete,
    complete_bounds,
    derive_simple_from_partial,
    partial_bounds,
    simple_bounds,
)
from pcbounds.mediation import _complete_parts, _partial_parts
from pcbounds.simple import _interval, _simple_parts

U = 2.0**-53
ETA = 2.0**-1074


def _err(x) -> float:
    """Largest error of a float kernel output whose exact value is x."""
    return 6 * U / (1 - 6 * U) * x + 2 * ETA


def _tol(a, b) -> float:
    """Largest distance of a float endpoint from its exact value, for exact
    kernel outputs a (p0 or N) and b (p1)."""
    slack = b - _err(b)
    if slack <= 0:
        return math.inf
    return float((_err(a) + min(a / b, 1) * _err(b)) / slack) + 3 * U


def check_regime(bounds, kernel, margins) -> None:
    """``bounds(margins)`` against ``kernel`` and the rule in fractions."""
    exact = [Fraction(float(getattr(margins, f.name))) for f in fields(margins)]
    p1, p0, numerator = kernel(*exact)[:3]
    assert all(isinstance(v, Fraction) for v in (p1, p0, numerator))
    try:
        iv = bounds(margins)
    except PcUndefinedError:
        assert 0 <= p1 <= _err(p1)
        return
    lower, upper = _interval(p1, p0, numerator, "")
    assert isinstance(lower, Rational) and isinstance(upper, Rational)
    assert abs(Fraction(iv.lower) - lower) <= _tol(p0, p1)
    assert abs(Fraction(iv.upper) - upper) <= _tol(numerator, p1)


def check_all_regimes(m: PartialMediationMargins) -> None:
    """The partial bounds of m, the simple bounds of its derived rates and
    the complete bounds of its collapse."""
    check_regime(partial_bounds, _partial_parts, m)
    check_regime(simple_bounds, _simple_parts, derive_simple_from_partial(m))
    check_regime(complete_bounds, _complete_parts, collapse_to_complete(m))


def test_worked_examples_and_criterion_4_sets(criterion_4_sets):
    for m in criterion_4_sets:
        check_all_regimes(m)


def test_rule_and_kernels_are_exact_on_fractions():
    """Worked example of the simple regime: p1 = 3/10, p0 = 3/25 gives
    [3/5, 1] with N = 3/10, and no float creeps in."""
    p1, p0, numerator = _simple_parts(Fraction(3, 10), Fraction(3, 25))
    assert numerator == Fraction(3, 10)
    assert _interval(p1, p0, numerator, "") == (Fraction(3, 5), 1)
    assert _complete_parts(*map(Fraction, ("0.7", "0.6", "0.4", "0.9"))) == (
        Fraction(39, 50), Fraction(69, 100), Fraction(27, 100)
    )


probs = st.floats(min_value=0.0, max_value=1.0)
grid = st.integers(0, 20).map(lambda k: k / 20)
values = st.one_of(probs, grid)


@given(v=st.tuples(*[values] * 6))
def test_drawn_sets_round_within_the_bound(v):
    check_all_regimes(PartialMediationMargins(*v))
    check_regime(complete_bounds, _complete_parts, CompleteMediationMargins(*v[:4]))
    check_regime(simple_bounds, _simple_parts, SimpleMargins(*v[:2]))
