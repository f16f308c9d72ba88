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
trajectory caps), each Frechet min taken by ``simple._min``; one rule,
``simple._interval``, makes any of them [max(0, 1 - p0/p1), min(1, N/p1)].
Every public function here reads its kernel through ``simple._parts``, which reruns
it on exact fractions where a derived p1 is below 2**-9, so each value read, the split
and both upper numerators of :func:`compare` too, comes from one run, exact on that
route. A claimed collapse is ``_collapsed_parts`` of the six margins, read the same way.

The partial N replaces each trajectory weight w_ab = P(M(0)=a, M(1)=b)
with its own Frechet cap, min(P(M(0)=a), P(M(1)=b)). The four caps can
sum to more than 1, which no joint law of (M(0), M(1)) allows: that is
the slack of the partial upper endpoint when the mediator block is
independent of the response block (example 1: 0.8195, sharp 0.7960).

Every field and derived rate is a plain float checked by ``core._unit``, each
field stored through its slot by the ``__init__`` that ``core._frozen`` makes and
read back in ``__match_args__`` order by ``_fields``.
:func:`read_margins_json` reads a margins file into the type whose field names
are its keys: ``{p1, p0}``, ``{a, b, c, d}`` or ``{y00, y01, y10, y11, m0, m1}``.
"""

from __future__ import annotations

import os
from operator import attrgetter

from .core import (
    STRUCT_TOL,
    AssumptionViolationError,
    BoundInterval,
    InconsistentBoundsError,
    InvalidInputError,
    PcUndefinedError,
    _frozen,
    _read_object,
    _require_tol,
    _unit,
)
from .simple import SimpleMargins, _bounds, _interval, _min, _parts, _simple_parts

__all__ = [
    "CompleteMediationMargins",
    "PartialMediationMargins",
    "ComparisonReport",
    "complete_bounds",
    "derive_simple_from_complete",
    "partial_bounds",
    "derive_simple_from_partial",
    "compare",
    "read_margins_json",
]


@_frozen(convert=_unit)
class CompleteMediationMargins:
    """Margins when exposure acts on the outcome only through the mediator."""

    a: float
    b: float
    c: float
    d: float


@_frozen(convert=_unit)
class PartialMediationMargins:
    """Response-surface and mediator margins when X may also act directly.

    Stored in the P(=1) convention. Worked examples often quote the
    complements (no-outcome and mediator-absent rates); pass ``1 - rate``
    for those.
    """

    y00: float
    y01: float
    y10: float
    y11: float
    m0: float
    m1: float


_fields = attrgetter(*PartialMediationMargins.__match_args__)
_COMPLETE_UNDEFINED = ("derived P(Y=1 | X<-1) = 0 under complete mediation: the "
                       "probability of causation is undefined")
_PARTIAL_UNDEFINED = ("derived P(Y=1 | X<-1) = 0: the probability of causation is "
                      "undefined for these margins")


def _complete_parts(a, b, c, d) -> tuple:
    """Raw derived (p1, p0) and upper numerator of complete margins."""
    na, nb, nc, nd = 1 - a, 1 - b, 1 - c, 1 - d
    return (b * d + nb * nc, na * d + a * nc,
            _min(a, b) * _min(c, d) + _min(na, nb) * _min(nc, nd))


def derive_simple_from_complete(m: CompleteMediationMargins) -> SimpleMargins:
    """Arm response rates implied by complete-mediation margins.

    p1 = b d + (1-b)(1-c) and p0 = (1-a) d + a (1-c): push the mediator
    response for each arm through the shared outcome surface.
    """
    return SimpleMargins(*_parts(_complete_parts, (m.a, m.b, m.c, m.d))[:2])


def complete_bounds(m: CompleteMediationMargins) -> BoundInterval:
    """PC bounds under complete mediation.

    Lower: the simple lower bound of the derived arm rates; upper: the largest
    feasible P(Y(0)=0, Y(1)=1 | X<-1) over p1. Both are sharp when the mediator
    block is independent of the response block (the oracle's laws).
    """
    return _bounds(_complete_parts, (m.a, m.b, m.c, m.d), _COMPLETE_UNDEFINED)


def _partial_parts(y00, y01, y10, y11, m0, m1) -> tuple:
    """Raw derived (p1, p0), upper numerator (it reaches 2 when both arm events
    are certain), split, and the four trajectory caps, in the order
    (m0, m1) = (0,0), (0,1), (1,0), (1,1)."""
    q00, q01, n0, n1 = 1 - y00, 1 - y01, 1 - m0, 1 - m1
    gamma, delta = y10 * n1, y11 * m1
    t1 = _min(q00, y10) * _min(n0, n1)
    t2 = _min(q00, y11) * _min(n0, m1)
    t3 = _min(q01, y10) * _min(m0, n1)
    t4 = _min(q01, y11) * _min(m0, m1)
    return (gamma + delta, y00 * n0 + y01 * m0, t1 + t2 + t3 + t4,
            (q00 * n0, q01 * m0, gamma, delta), (t1, t2, t3, t4))


def derive_simple_from_partial(m: PartialMediationMargins) -> SimpleMargins:
    """Arm response rates implied by the six partial-mediation margins."""
    return SimpleMargins(*_parts(_partial_parts, _fields(m))[:2])


def partial_bounds(m: PartialMediationMargins) -> BoundInterval:
    """PC bounds using the mediator without assuming complete mediation.

    Shares its lower endpoint with the simple bounds of the derived arm
    rates; the upper endpoint is the four-term numerator over p1,
    clamped at 1.
    """
    return _bounds(_partial_parts, _fields(m), _PARTIAL_UNDEFINED)


def _collapsed_parts(y00, y01, y10, y11, m0, m1) -> tuple:
    """:func:`_complete_parts` of the collapse (a, b, c, d) = (1 - m0, m1, 1 - y00, y11)
    that a complete-mediation claim makes of the six partial margins."""
    return _complete_parts(1 - m0, m1, 1 - y00, y11)


@_frozen()
class ComparisonReport:
    """Side-by-side intervals plus what they rest on, from the kernel run they use
    (exact where p1 < 2**-9): the split of P(Y(0)=0) = alpha + beta and P(Y(1)=1) =
    gamma + delta by mediator value, and the upper numerators, min(1 - p0, p1) and the
    partial one, as floats; construction checks numerator_partial <= 2 numerator_simple.
    Without a complete claim, combined_interval is the narrower of the two, not a copy.
    With one, complete_interval is [0, 1] where p1 > 0 but the collapsed p1 is 0.
    """

    simple_interval: BoundInterval
    partial_interval: BoundInterval
    complete_interval: BoundInterval | None
    combined_interval: BoundInterval
    alpha: float
    beta: float
    gamma: float
    delta: float
    numerator_simple: float
    numerator_partial: float

    def __post_init__(self) -> None:
        if self.numerator_partial > 2.0 * self.numerator_simple + STRUCT_TOL:
            raise InconsistentBoundsError(
                f"partial numerator {self.numerator_partial!r} exceeds twice "
                f"the simple numerator {self.numerator_simple!r}"
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
    intersection; a claim raises :class:`PcUndefinedError` only where the
    call without it does, and :class:`InconsistentBoundsError` where the collapse's
    interval misses the other two. A NaN, negative or bool ``claim_tol`` is invalid
    input.
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
    p1, p0, numerator, split, _ = _parts(_partial_parts, v)
    simple = _simple_parts(p1, p0)[2]
    lower, upper = _interval(p1, p0, numerator, _PARTIAL_UNDEFINED)
    simple_upper = _interval(p1, p0, simple, _PARTIAL_UNDEFINED)[1]
    simple_iv = BoundInterval(float(lower), float(simple_upper))
    partial_iv = BoundInterval(float(lower), float(upper))
    combined = partial_iv if partial_iv.upper < simple_iv.upper else simple_iv
    complete_iv = None
    if complete_claim:
        try:
            complete_iv = _bounds(_collapsed_parts, v, _COMPLETE_UNDEFINED)
        except PcUndefinedError:  # p1 > 0, but not after the collapse
            complete_iv = BoundInterval(0.0, 1.0)
        try:
            combined = BoundInterval(max(combined.lower, complete_iv.lower),
                                     min(combined.upper, complete_iv.upper))
        except InconsistentBoundsError:
            raise InconsistentBoundsError(
                f"complete-mediation claim accepted at claim_tol {claim_tol:.6g}, "
                f"but its interval {complete_iv} is disjoint from {combined}, "
                f"where the simple {simple_iv} and partial {partial_iv} "
                "intervals meet"
            ) from None
    return ComparisonReport(simple_iv, partial_iv, complete_iv, combined, *split,
                            float(simple), float(numerator))


def read_margins_json(
    path: str | os.PathLike,
) -> SimpleMargins | CompleteMediationMargins | PartialMediationMargins:
    """Parse a margins JSON file; the key set selects the margins type."""
    kinds = SimpleMargins, CompleteMediationMargins, PartialMediationMargins
    cls, data = _read_object(path, *kinds)
    values = {}
    for name, v in sorted(data.items()):
        if not isinstance(v, (int, float)):
            raise InvalidInputError(f"{path}: field {name!r} must be a number, "
                                    f"got {v!r}")
        try:
            values[name] = _unit(v)
        except InvalidInputError as e:
            raise InvalidInputError(f"{path}: field {name!r}: {e}") from None
    return cls(**values)
