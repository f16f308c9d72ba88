"""The coupling references: the simple and complete-mediation forms again,
without a law.

``coupling_sweep_simple`` divides the two ends of the Frechet range of
q = P(Y(0)=0, Y(1)=1) by p1, and ``complete_coupling_sweep`` takes the
largest of q01 r01 + q10 r10 over the four corners of the Frechet ranges
of the mediator and response couplings. Only tests call them, so they
live here and not in ``pcbounds.oracle``.
"""

from pcbounds import (
    BoundInterval,
    CompleteMediationMargins,
    PcUndefinedError,
    SimpleMargins,
)
from pcbounds.core import _unit


def frechet(p_a: float, p_b: float) -> BoundInterval:
    """Frechet bounds on P(A and B) from the two event probabilities."""
    pa, pb = _unit(p_a), _unit(p_b)
    return BoundInterval(max(pa + pb - 1.0, 0.0), min(pa, pb))


def coupling_sweep_simple(m: SimpleMargins) -> BoundInterval:
    """Extremes of PC over all couplings of (Y(0), Y(1)) with the given margins.

    The intersection cell q = P(Y(0)=0, Y(1)=1) ranges over its Frechet
    interval and PC = q / p1 is increasing in q, so the extremes are the
    two ends of that interval divided by p1.
    """
    p1 = m.p1
    if p1 == 0.0:
        raise PcUndefinedError("P(Y=1 | X<-1) = 0: the probability of causation is "
                               "undefined")
    cap = frechet(1.0 - m.p0, p1)
    # q = p1 up to rounding makes the ratio overshoot 1 by an ulp when
    # p1 is tiny; the ratio is a probability, so clip, don't reject.
    return BoundInterval(*(min(q / p1, 1.0) for q in (cap.lower, cap.upper)))


def complete_coupling_sweep(m: CompleteMediationMargins) -> float:
    """Max of P(Y(0)=0, Y(1)=1) over independent mediator/response couplings.

    Under complete mediation the joint event needs a discordant mediator
    pair and a matching discordant response pair, so the probability is
    q01 r01 + q10 r10 with q from the (M(0), M(1)) coupling and r from
    the (Y*(0), Y*(1)) coupling. Each coupling has one free cell with a
    Frechet range, and the sum is bilinear in the two, so its maximum
    sits at one of the four corners of the box of ranges.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    return max(q01 * r01 + (1.0 - a - b + q01) * (1.0 - c - d + r01)
               for q01 in (max(a + b - 1.0, 0.0), min(a, b))
               for r01 in (max(c + d - 1.0, 0.0), min(c, d)))
