"""Bounds on the probability of causation from arm response rates alone.

For an exposed case that developed the outcome, the probability of
causation is PC = P(Y(0)=0 | X=1, Y=1): the chance the outcome would
not have occurred absent exposure. Writing p1 = P(Y=1 | X<-1) and
p0 = P(Y=1 | X<-0) for the randomized arm rates, the sharp bounds are

    max{0, 1 - p0/p1}  <=  PC  <=  min{1 - p0, p1} / p1.

The lower endpoint is the classic excess-fraction 1 - 1/RR; the upper
endpoint is the Frechet cap on P(Y(0)=0, Y(1)=1) divided by p1.

Accuracy: every endpoint is within ``core.CLAMP_TOL`` of the exact closed form of
the float inputs. Each mediated kernel reaches its callers through ``_parts``, which
reruns it on ``Fraction``s wherever its float p1 is below 2**-9, 0 included; above
that, rounding moves an endpoint by at most about 4u/p1 + 15u (u = 2**-53), under a
quarter of ``CLAMP_TOL`` (``tests/test_rounding.py`` derives and tests the bound).
"""

from __future__ import annotations

import math

from .core import BoundInterval, CountTable, PcUndefinedError, _frozen, _unit

__all__ = ["SimpleMargins", "margins_from_count_table", "risk_ratio", "simple_bounds"]


@_frozen(convert=_unit)
class SimpleMargins:
    """Arm response rates p1 = P(Y=1 | X<-1) and p0 = P(Y=1 | X<-0)."""

    p1: float
    p0: float


def margins_from_count_table(t: CountTable) -> SimpleMargins:
    """Arm rates from a 2x2 count table."""
    return SimpleMargins(p1=t.exposed_event / t.exposed_total,
                         p0=t.unexposed_event / t.unexposed_total)


def risk_ratio(m: SimpleMargins) -> float:
    """p1/p0 as a float; +inf when only p0 is zero, nan when both are.

    ``nan`` is a value here, not an error, so callers can decide what an
    outcome-free trial should mean for them.
    """
    if m.p0 == 0.0:
        return math.nan if m.p1 == 0.0 else math.inf
    return m.p1 / m.p0


def _min(a, b):
    """``min(a, b)``, the same object on a tie and for 0.0 and -0.0, without the
    builtin's call: the Frechet min of every kernel."""
    return b if b < a else a


def _interval(p1, p0, numerator, undefined: str) -> tuple:
    """The interval rule of every regime, (max(0, 1 - p0/p1), min(1, numerator/p1));
    p1 = 0 raises :class:`PcUndefinedError` with the message ``undefined``. Integer
    literals keep it exact on fractions; on floats they act as 0.0 and 1.0."""
    if p1 == 0:
        raise PcUndefinedError(undefined)
    lower, upper = 1 - p0 / p1, numerator / p1
    return lower if lower > 0 else 0, upper if upper < 1 else 1


def _parts(kernel, args) -> tuple:
    """``kernel(*args)``, the one route to a mediated kernel, rerun on ``Fraction``s of
    ``args`` where its float p1 is below 2**-9: rates and numerator come back exact,
    later tuples as floats."""
    parts = kernel(*args)
    if parts[0] < 2**-9:
        from fractions import Fraction  # here alone: importing it costs about 18 ms
        exact = kernel(*map(Fraction, args))
        return exact[:3] + tuple(tuple(map(float, t)) for t in exact[3:])
    return parts


def _bounds(kernel, args, undefined: str) -> BoundInterval:
    """:func:`_interval` on :func:`_parts` of ``kernel``, as an interval."""
    return BoundInterval(*map(float, _interval(*_parts(kernel, args)[:3], undefined)))


def _simple_parts(p1, p0) -> tuple:
    """The arm rates and their upper numerator, the Frechet cap on P(Y(0)=0, Y(1)=1)."""
    return p1, p0, _min(1 - p0, p1)


def simple_bounds(m: SimpleMargins) -> BoundInterval:
    """Sharp PC bounds from the two arm rates.

    Raises :class:`PcUndefinedError` when p1 = 0: with no exposed cases
    the conditioning event is empty and PC has no value.
    """
    undefined = ("P(Y=1 | X<-1) = 0: there are no exposed cases, so the probability "
                 "of causation is undefined")
    return BoundInterval(*_interval(*_simple_parts(m.p1, m.p0), undefined))
