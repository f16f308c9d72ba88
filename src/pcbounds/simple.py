"""Bounds on the probability of causation from arm response rates alone.

For an exposed case that developed the outcome, the probability of
causation is PC = P(Y(0)=0 | X=1, Y=1): the chance the outcome would
not have occurred absent exposure. Writing p1 = P(Y=1 | X<-1) and
p0 = P(Y=1 | X<-0) for the randomized arm rates, the sharp bounds are

    max{0, 1 - p0/p1}  <=  PC  <=  min{1 - p0, p1} / p1.

The lower endpoint is the classic excess-fraction 1 - 1/RR; the upper
endpoint is the Frechet cap on P(Y(0)=0, Y(1)=1) divided by p1.
"""

from __future__ import annotations

import math

from .core import BoundInterval, PcUndefinedError, Probability, _frozen, _unit

__all__ = ["SimpleMargins", "risk_ratio", "simple_bounds"]


@_frozen(init=False)
class SimpleMargins:
    """Arm response rates p1 = P(Y=1 | X<-1) and p0 = P(Y=1 | X<-0)."""

    p1: Probability
    p0: Probability

    def __init__(self, p1: Probability, p0: Probability) -> None:
        object.__setattr__(self, "p1", Probability(p1))
        object.__setattr__(self, "p0", Probability(p0))


def risk_ratio(m: SimpleMargins) -> float:
    """p1/p0 as a float; +inf when only p0 is zero, nan when both are.

    ``nan`` is a value here, not an error, so callers can decide what an
    outcome-free trial should mean for them.
    """
    if m.p0 == 0.0:
        return math.nan if m.p1 == 0.0 else math.inf
    return float(m.p1) / float(m.p0)


def _interval(p1, p0, numerator, undefined: str) -> tuple:
    """The interval rule of every regime, (max(0, 1 - p0/p1), min(1, numerator/p1));
    p1 = 0 raises :class:`PcUndefinedError` with the message ``undefined``. Integer
    literals keep it exact on fractions; on floats they act as 0.0 and 1.0."""
    if p1 == 0:
        raise PcUndefinedError(undefined)
    return max(0, 1 - p0 / p1), min(1, numerator / p1)


def _bounds(p1, p0, numerator, undefined: str) -> BoundInterval:
    """:func:`_interval` on derived rates made probabilities, as an interval."""
    lower, upper = _interval(_unit(p1), _unit(p0), numerator, undefined)
    return BoundInterval(_unit(lower), _unit(upper))


def _simple_parts(p1, p0) -> tuple:
    """The arm rates and their upper numerator, the Frechet cap on P(Y(0)=0, Y(1)=1)."""
    return p1, p0, min(1 - p0, p1)


def simple_bounds(m: SimpleMargins) -> BoundInterval:
    """Sharp PC bounds from the two arm rates.

    Raises :class:`PcUndefinedError` when p1 = 0: with no exposed cases
    the conditioning event is empty and PC has no value.
    """
    return _bounds(*_simple_parts(m.p1, m.p0), "P(Y=1 | X<-1) = 0: there are no "
                   "exposed cases, so the probability of causation is undefined")
