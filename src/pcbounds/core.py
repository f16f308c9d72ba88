"""Validated probability scalars, bound intervals, and 2x2 trial counts.

Everything downstream trades in these types: values are checked once at
the edge, after which the bound formulas can assume unit-interval floats
and ordered intervals. Two tolerance regimes apply throughout the
package:

* ``STRUCT_TOL`` for identities that hold by construction and should
  only ever be off by accumulated float error,
* ``REPORT_TOL`` for agreement with 2-decimal reference displays and
  for cross-checks between derived and observed rates.

Micro-violations from float arithmetic (a hair below 0, a hair above 1,
a lower bound a hair above its upper bound) are clamped, but only inside
a window of ``CLAMP_TOL``; anything larger is a real error and raises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass, fields

STRUCT_TOL = 1e-9
REPORT_TOL = 0.005
CLAMP_TOL = 1e-12

__all__ = [
    "STRUCT_TOL",
    "REPORT_TOL",
    "CLAMP_TOL",
    "PcBoundsError",
    "InvalidInputError",
    "InconsistentBoundsError",
    "PcUndefinedError",
    "InsufficientDataError",
    "AssumptionViolationError",
    "RecordParseError",
    "Probability",
    "BoundInterval",
    "CountTable",
]


class PcBoundsError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInputError(PcBoundsError, ValueError):
    """A value, field, or file failed validation before any math ran."""


class InconsistentBoundsError(PcBoundsError):
    """A lower bound exceeded its upper bound by more than float noise.

    Signals a logic bug or inconsistent inputs upstream, never a
    condition the caller should retry.
    """


class PcUndefinedError(PcBoundsError):
    """The conditioning event (an exposed case with the outcome) has
    probability zero, so the probability of causation is undefined."""


class InsufficientDataError(PcBoundsError):
    """A required arm or stratum has no records to estimate from."""


class AssumptionViolationError(PcBoundsError):
    """Supplied margins contradict an assumption the method needs."""


class RecordParseError(InvalidInputError):
    """A records or JSON file is malformed; the message names the spot."""


class Probability(float):
    """A float validated to lie in the closed unit interval.

    Values within ``CLAMP_TOL`` below 0 or above 1 are clamped to the
    boundary; anything further out raises :class:`InvalidInputError`.
    A value already in [0, 1] (including -0.0, whose sign is kept) takes
    a fast path that only converts it; NaN and out-of-range values go on
    to the clamp-or-raise checks, and an integer too large for a float
    raises :class:`InvalidInputError` too. Instances behave as plain floats in
    arithmetic, and ``min``/``max`` work on them directly.
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "Probability":
        try:
            v = float(value)
        except OverflowError:
            raise InvalidInputError("probability too large for a float") from None
        if 0.0 <= v <= 1.0:
            return float.__new__(cls, v)
        if math.isnan(v):
            raise InvalidInputError("probability must not be NaN")
        if -CLAMP_TOL <= v < 0.0:
            v = 0.0
        elif 1.0 < v <= 1.0 + CLAMP_TOL:
            v = 1.0
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"probability {value!r} outside [0, 1]")
        return super().__new__(cls, v)


def _unit(v: float) -> Probability:
    """``Probability(v)``; a v already in [0, 1] skips the Python ``__new__``."""
    if 0.0 <= v <= 1.0:
        return float.__new__(Probability, v)
    return Probability(v)


def _frozen(**options):
    """``dataclass(frozen=True, slots=True, **options)`` that refuses every write.

    Setting or deleting any attribute raises FrozenInstanceError; the
    dataclass's own methods raise TypeError for a name that is not a field.
    """
    def make(cls):
        cls = dataclass(frozen=True, slots=True, **options)(cls)

        def refuse(self, name, *value):
            raise FrozenInstanceError(f"cannot set or delete {name!r}: "
                                      f"{type(self).__name__} is frozen")
        cls.__setattr__ = cls.__delattr__ = refuse
        return cls
    return make


@_frozen(init=False)
class BoundInterval:
    """Closed interval [lower, upper] of probabilities.

    Construction coerces an endpoint through :class:`Probability` unless
    it already is one (then it is validated and passes through as is).
    A lower endpoint at most ``CLAMP_TOL`` above the upper one is float
    noise and collapses to the degenerate interval at ``lower`` (the
    lower endpoint is kept because it is shared across bound families
    and must stay stable); a larger inversion raises
    :class:`InconsistentBoundsError`.

    The hand-written ``__init__`` takes the generated one's parameters,
    checks each endpoint and stores it once; ``fields``, ``replace``,
    eq, hash, repr and pickling are the dataclass's own.
    """

    lower: Probability
    upper: Probability

    def __init__(self, lower: Probability, upper: Probability) -> None:
        lo = lower if type(lower) is Probability else Probability(lower)
        hi = upper if type(upper) is Probability else Probability(upper)
        if lo > hi:
            if lo - hi <= CLAMP_TOL:
                hi = lo
            else:
                raise InconsistentBoundsError(
                    f"lower bound {float(lo)!r} exceeds upper bound {float(hi)!r}"
                )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __str__(self) -> str:
        return f"[{float(self.lower):.6g}, {float(self.upper):.6g}]"


def _require_tol(name: str, value: float) -> None:
    """Reject a NaN or negative tolerance as invalid input."""
    if not value >= 0.0:
        raise InvalidInputError(f"{name} must be a nonnegative number, got {value!r}")


def _require_int(name: str, value, least: int, what: str) -> None:
    """Reject a bool, a non-integer or an integer below ``least``."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < least:
        raise InvalidInputError(f"{name} must be {what}, got {value!r}")


@_frozen()
class CountTable:
    """Exposure-by-outcome counts from a two-arm randomized trial."""

    exposed_event: int
    exposed_total: int
    unexposed_event: int
    unexposed_total: int

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_int(f.name, getattr(self, f.name), 0, "a nonnegative integer")
        if self.exposed_total == 0 or self.unexposed_total == 0:
            raise InvalidInputError("arm totals must be positive")
        if self.exposed_event > self.exposed_total:
            raise InvalidInputError(
                f"exposed_event {self.exposed_event} exceeds exposed_total "
                f"{self.exposed_total}"
            )
        if self.unexposed_event > self.unexposed_total:
            raise InvalidInputError(
                f"unexposed_event {self.unexposed_event} exceeds unexposed_total "
                f"{self.unexposed_total}"
            )
