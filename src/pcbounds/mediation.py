"""Mediator-informed bounds on the probability of causation.

Margins name the probability of the value 1 throughout. For the partial
setting the inputs are the six identifiable quantities

    y_xm = P(Y*(x, m) = 1)   response when exposure is set to x and the
                             mediator to m,
    m_x  = P(M(x) = 1)       mediator response to exposure x,

and for complete mediation (exposure acts only through the mediator,
with Y*(m) the shared response surface)

    a = P(M(0)=0),  b = P(M(1)=1),  c = P(Y*(0)=0),  d = P(Y*(1)=1).

Both closed forms keep the excess-fraction lower bound of the derived
arm rates; what the mediator buys them is a smaller feasible maximum for
the joint event {Y(0)=0, Y(1)=1}, hence a tighter upper bound. The upper
numerators are sums of Frechet caps: one product per mediator
trajectory (m0, m1), each capping how much of that trajectory's mass
can land on response pairs with Y*(0, m0)=0 and Y*(1, m1)=1.

Each formula has one source. One kernel per regime, on plain numbers,
returns the derived rates (p1, p0) and the upper numerator N
(``simple._simple_parts``, ``_complete_parts``, and ``_partial_parts``,
which also returns the split (alpha, beta, gamma, delta) and the four
trajectory caps); one rule, ``simple._interval``, makes any of them
[max(0, 1 - p0/p1), min(1, N/p1)]. The public functions wrap them, and
:func:`compare` calls the partial kernel once.

The partial N replaces each trajectory weight w_ab = P(M(0)=a, M(1)=b)
with its own Frechet cap, min(P(M(0)=a), P(M(1)=b)). The four caps can
sum to more than 1, which no joint law of (M(0), M(1)) allows: that is
the slack of the partial upper endpoint when the mediator block is
independent of the response block (example 1: 0.8195, sharp 0.7960).

Each margins class validates and stores every field in one hand-written
``__init__``; derived values become probabilities through ``core._unit``.
"""

from __future__ import annotations

from .core import (
    STRUCT_TOL,
    AssumptionViolationError,
    BoundInterval,
    InconsistentBoundsError,
    Probability,
    _frozen,
    _require_tol,
    _unit,
)
from .simple import SimpleMargins, _bounds, _interval, _simple_parts

__all__ = [
    "CompleteMediationMargins",
    "PartialMediationMargins",
    "ComparisonReport",
    "complete_numerator",
    "complete_bounds",
    "derive_simple_from_complete",
    "partial_upper_terms",
    "partial_upper_numerator",
    "partial_bounds",
    "derive_simple_from_partial",
    "decomposition",
    "simple_numerator_via_decomposition",
    "collapse_to_complete",
    "compare",
]


@_frozen(init=False)
class CompleteMediationMargins:
    """Margins when exposure acts on the outcome only through the mediator."""

    a: Probability
    b: Probability
    c: Probability
    d: Probability

    def __init__(self, a: Probability, b: Probability, c: Probability,
                 d: Probability) -> None:
        object.__setattr__(self, "a", Probability(a))
        object.__setattr__(self, "b", Probability(b))
        object.__setattr__(self, "c", Probability(c))
        object.__setattr__(self, "d", Probability(d))


@_frozen(init=False)
class PartialMediationMargins:
    """Response-surface and mediator margins when X may also act directly.

    Stored in the P(=1) convention. Worked examples often quote the
    complements (no-outcome and mediator-absent rates); pass ``1 - rate``
    for those.
    """

    y00: Probability
    y01: Probability
    y10: Probability
    y11: Probability
    m0: Probability
    m1: Probability

    def __init__(self, y00: Probability, y01: Probability, y10: Probability,
                 y11: Probability, m0: Probability, m1: Probability) -> None:
        object.__setattr__(self, "y00", Probability(y00))
        object.__setattr__(self, "y01", Probability(y01))
        object.__setattr__(self, "y10", Probability(y10))
        object.__setattr__(self, "y11", Probability(y11))
        object.__setattr__(self, "m0", Probability(m0))
        object.__setattr__(self, "m1", Probability(m1))


def _fields(m: PartialMediationMargins) -> tuple[float, ...]:
    return (m.y00, m.y01, m.y10, m.y11, m.m0, m.m1)


_COMPLETE_UNDEFINED = ("derived P(Y=1 | X<-1) = 0 under complete mediation: the "
                       "probability of causation is undefined")
_PARTIAL_UNDEFINED = ("derived P(Y=1 | X<-1) = 0: the probability of causation is "
                      "undefined for these margins")


def _complete_parts(a, b, c, d) -> tuple:
    """Raw derived (p1, p0) and upper numerator of complete margins."""
    na, nb, nc, nd = 1 - a, 1 - b, 1 - c, 1 - d
    return (b * d + nb * nc, na * d + a * nc,
            min(a, b) * min(c, d) + min(na, nb) * min(nc, nd))


def complete_numerator(m: CompleteMediationMargins) -> Probability:
    """Largest feasible P(Y(0)=0, Y(1)=1 | X<-1) under complete mediation:
    min{a,b} min{c,d} + min{1-a,1-b} min{1-c,1-d}."""
    return Probability(_complete_parts(m.a, m.b, m.c, m.d)[2])


def derive_simple_from_complete(m: CompleteMediationMargins) -> SimpleMargins:
    """Arm response rates implied by complete-mediation margins.

    p1 = b d + (1-b)(1-c) and p0 = (1-a) d + a (1-c): push the mediator
    response for each arm through the shared outcome surface.
    """
    return SimpleMargins(*_complete_parts(m.a, m.b, m.c, m.d)[:2])


def complete_bounds(m: CompleteMediationMargins) -> BoundInterval:
    """PC bounds under complete mediation.

    The lower endpoint is the simple lower bound of the derived arm
    rates (this closed form never improves the lower bound); the upper
    endpoint divides :func:`complete_numerator` by the derived p1.
    """
    return _bounds(*_complete_parts(m.a, m.b, m.c, m.d), _COMPLETE_UNDEFINED)


def _partial_parts(y00, y01, y10, y11, m0, m1) -> tuple:
    """Raw derived (p1, p0), upper numerator, split and four trajectory caps."""
    q00, q01, n0, n1 = 1 - y00, 1 - y01, 1 - m0, 1 - m1
    gamma, delta = y10 * n1, y11 * m1
    t1 = min(q00, y10) * min(n0, n1)
    t2 = min(q00, y11) * min(n0, m1)
    t3 = min(q01, y10) * min(m0, n1)
    t4 = min(q01, y11) * min(m0, m1)
    return (gamma + delta, y00 * n0 + y01 * m0, t1 + t2 + t3 + t4,
            (q00 * n0, q01 * m0, gamma, delta), (t1, t2, t3, t4))


def partial_upper_terms(m: PartialMediationMargins) -> tuple[float, ...]:
    """The four Frechet-cap products, one per mediator trajectory.

    Term order is (m0, m1) = (0,0), (0,1), (1,0), (1,1), writing
    q_xm = 1 - y_xm for the no-outcome rates.
    """
    return _partial_parts(*_fields(m))[4]


def partial_upper_numerator(m: PartialMediationMargins) -> float:
    """Sum of the four trajectory caps, returned raw.

    The sum can exceed 1 (it can reach 2 when both arm events are
    certain), so it is a plain float, not a probability; the bound
    clamps only after dividing by p1.
    """
    return _partial_parts(*_fields(m))[2]


def derive_simple_from_partial(m: PartialMediationMargins) -> SimpleMargins:
    """Arm response rates implied by the six partial-mediation margins."""
    return SimpleMargins(*_partial_parts(*_fields(m))[:2])


def partial_bounds(m: PartialMediationMargins) -> BoundInterval:
    """PC bounds using the mediator without assuming complete mediation.

    Shares its lower endpoint with the simple bounds of the derived arm
    rates; the upper endpoint is the four-term numerator over p1,
    clamped at 1.
    """
    return _bounds(*_partial_parts(*_fields(m))[:3], _PARTIAL_UNDEFINED)


def decomposition(m: PartialMediationMargins) -> tuple[Probability, ...]:
    """Mediator-resolved split (alpha, beta, gamma, delta) of the arm events.

    alpha + beta = P(Y(0)=0) and gamma + delta = P(Y(1)=1), with each
    piece attributing the arm event to one mediator value.
    """
    return tuple(map(_unit, _partial_parts(*_fields(m))[3]))


def simple_numerator_via_decomposition(m: PartialMediationMargins) -> Probability:
    """min{alpha+beta, gamma+delta}, the simple numerator from the split.

    alpha + beta = 1 - p0 and gamma + delta = p1 by algebra;
    ``test_decomposition_partitions_arm_rates`` in
    ``tests/test_mediation.py`` pins both identities at 1e-12.
    """
    alpha, beta, gamma, delta = _partial_parts(*_fields(m))[3]
    return _unit(min(alpha + beta, gamma + delta))


def _collapsed(v: tuple[float, ...]) -> tuple[float, float, float, float]:
    return (1.0 - v[4], v[5], 1.0 - v[0], v[3])


def collapse_to_complete(m: PartialMediationMargins) -> CompleteMediationMargins:
    """Reindex partial margins as complete-mediation margins.

    Valid when the response surface does not depend on x (y00 = y10 and
    y01 = y11); the caller is responsible for checking that claim. The
    map is a = 1-m0, b = m1, c = 1-y00, d = y11.
    """
    return CompleteMediationMargins(*_collapsed(_fields(m)))


@_frozen()
class ComparisonReport:
    """Side-by-side intervals plus the quantities the comparison rests on.

    numerator_partial is a raw float (the four-term sum is not a
    probability); construction verifies it never exceeds twice the
    simple numerator.
    """

    simple_interval: BoundInterval
    partial_interval: BoundInterval
    complete_interval: BoundInterval | None
    combined_interval: BoundInterval
    alpha: Probability
    beta: Probability
    gamma: Probability
    delta: Probability
    numerator_simple: Probability
    numerator_partial: float

    def __post_init__(self) -> None:
        if self.numerator_partial > 2.0 * float(self.numerator_simple) + STRUCT_TOL:
            raise InconsistentBoundsError(
                f"partial numerator {self.numerator_partial!r} exceeds twice "
                f"the simple numerator {float(self.numerator_simple)!r}"
            )


def compare(
    m: PartialMediationMargins,
    complete_claim: bool = False,
    claim_tol: float = STRUCT_TOL,
) -> ComparisonReport:
    """Compute all applicable intervals and intersect them.

    With ``complete_claim`` the x-invariance of the response surface is
    required to hold within ``claim_tol`` (keep the default for analytic
    margins; pass a statistical tolerance for estimated ones), the
    margins are collapsed, and the complete-mediation interval joins the
    intersection. A NaN or negative ``claim_tol`` is invalid input.
    """
    _require_tol("claim_tol", claim_tol)
    v = _fields(m)
    if complete_claim:
        for mval in (0, 1):
            gap = abs(v[mval] - v[2 + mval])
            if gap > claim_tol:
                raise AssumptionViolationError(
                    f"complete-mediation claim fails at M={mval}: "
                    f"|y0{mval} - y1{mval}| = {gap:.6g} exceeds {claim_tol:.6g}"
                )
    p1, p0, numerator, split, _ = _partial_parts(*v)
    p1, p0 = _unit(p1), _unit(p0)
    lower, upper = _interval(p1, p0, numerator, _PARTIAL_UNDEFINED)
    lower = _unit(lower)
    simple_upper = _interval(*_simple_parts(p1, p0), _PARTIAL_UNDEFINED)[1]
    simple_iv = BoundInterval(lower, _unit(simple_upper))
    partial_iv = BoundInterval(lower, _unit(upper))
    combined = BoundInterval(lower, min(simple_iv.upper, partial_iv.upper))
    complete_iv = None
    if complete_claim:
        complete_iv = _bounds(*_complete_parts(*_collapsed(v)), _COMPLETE_UNDEFINED)
        try:
            combined = BoundInterval(max(combined.lower, complete_iv.lower),
                                     min(combined.upper, complete_iv.upper))
        except InconsistentBoundsError:
            raise InconsistentBoundsError(
                f"complete-mediation claim accepted at claim_tol {claim_tol:.6g}, "
                f"but its interval {complete_iv} is disjoint from {combined}, "
                f"where the simple {simple_iv} and partial {partial_iv} intervals meet"
            ) from None

    alpha, beta, gamma, delta = split = tuple(map(_unit, split))
    return ComparisonReport(simple_iv, partial_iv, complete_iv, combined, *split,
                            _unit(min(alpha + beta, gamma + delta)), numerator)
