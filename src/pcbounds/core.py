"""Validated probability scalars, bound intervals, and 2x2 trial counts.

Everything downstream trades in these types: values are converted once,
at the edge, by :func:`_unit`, which checks each as :class:`Probability` does
and hands back a plain float, after which the bound formulas can assume
unit-interval floats and ordered intervals. Every frozen type is made by
:func:`_frozen`, without ``dataclasses``, and stores each field through its
slot's own descriptor, the one store the package has.
Two tolerance regimes apply throughout the package:

* ``STRUCT_TOL`` for identities that hold by construction and should
  only ever be off by accumulated float error,
* ``REPORT_TOL`` for agreement with 2-decimal reference displays and
  for cross-checks between derived and observed rates.

Micro-violations from float arithmetic (a hair below 0, a hair above 1,
a lower bound a hair above its upper bound) are clamped, but only inside
a window of ``CLAMP_TOL``; anything larger is a real error and raises.

This module also holds the rule of every JSON input (count, margins and
law files): one object whose keys are the field names of the type it
builds, no repeated key, no JSON boolean as a number, and every error
naming the file as given. :func:`read_count_json` reads a count file, whose keys
are the four integer fields of :class:`CountTable`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from operator import attrgetter

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
    "read_count_json",
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
    raises :class:`InvalidInputError` too. The package stores no instance:
    :func:`_unit` checks a value here and keeps its plain ``float``.
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "Probability":
        try:
            v = float(value)
        except OverflowError:
            raise InvalidInputError("probability too large for a float") from None
        except (TypeError, ValueError):
            raise InvalidInputError(
                f"probability must be a number, got {value!r}") from None
        if 0.0 <= v <= 1.0:
            return float.__new__(cls, v)
        if math.isnan(v):
            raise InvalidInputError("probability must not be NaN")
        if not -CLAMP_TOL <= v <= 1.0 + CLAMP_TOL:
            raise InvalidInputError(f"probability {value!r} outside [0, 1]")
        return float.__new__(cls, float(v > 0.0))  # the nearer boundary


def _unit(v: float) -> float:
    """``float(Probability(v))``, the one conversion: a float in [0, 1] comes back as
    itself, an int in [0, 1] as ``float(v)``, anything else through ``Probability``."""
    if v.__class__ is float and 0.0 <= v <= 1.0:
        return v
    if v.__class__ is int and 0 <= v <= 1:
        return float(v)
    return float(Probability(v))


class _Fields(frozenset):
    """A :func:`_frozen` class's hidden field names, as its ``__dataclass_fields__``:
    the first lookup makes the table with ``dataclasses`` and puts it in its place."""

    def __get__(self, obj, cls) -> dict:
        from dataclasses import field, make_dataclass
        cls = next(c for c in cls.__mro__ if "__dataclass_fields__" in vars(c))
        spec = [(n, t, field(repr=n not in self))
                for n, t in cls.__annotations__.items()]
        cls.__dataclass_fields__ = make_dataclass(
            cls.__name__, spec, init=False, repr=False, eq=False).__dataclass_fields__
        return cls.__dataclass_fields__


def _frozen(convert=None, eq=True, hidden=()):
    """A frozen slotted class with a dataclass's fields, made without ``dataclasses``.

    It has a dataclass's ``__match_args__``, repr (less the ``hidden`` fields), eq
    and hash (unless ``eq=False``), ``__replace__`` and list pickle state; setting
    or deleting any attribute raises FrozenInstanceError; :class:`_Fields` serves
    the helpers.
    One ``attrgetter`` reads the fields, another the shown ones: two or more each.
    The store rule: the package stores every field through its slot's own
    member descriptor, ``Cls.field.__set__(obj, value)``, which the refusal
    does not see. A class that defines no ``__init__`` gets one made from its
    fields, in order and without defaults: it stores ``convert(value)`` (the
    value itself without ``convert``) in each, then calls ``__post_init__``
    if the class has one. A hand-written ``__init__`` is kept as it is.
    """
    def make(cls):
        names = tuple(cls.__annotations__)
        shown = [n for n in names if n not in hidden]
        get, show = attrgetter(*names), attrgetter(*shown)
        text = ", ".join(n + "={!r}" for n in shown)

        def setstate(self, state):
            for store, value in zip(stores, state):
                store(self, value)

        def refuse(self, name, *value):
            from dataclasses import FrozenInstanceError
            raise FrozenInstanceError(f"cannot set or delete {name!r}: "
                                      f"{type(self).__name__} is frozen")
        body = dict(vars(cls), __slots__=names, __match_args__=names,
                    __qualname__=cls.__qualname__, __dataclass_fields__=_Fields(hidden),
                    __getstate__=lambda self: list(get(self)), __setstate__=setstate,
                    __replace__=lambda self, /, **changes:  # copy.replace, 3.13+
                        __import__("dataclasses").replace(self, **changes),
                    __repr__=lambda self: "{}({})".format(type(self).__qualname__,
                                                          text.format(*show(self))))
        del body["__dict__"], body["__weakref__"]
        if eq:
            body["__hash__"] = lambda self: hash(get(self))
            body["__eq__"] = lambda self, other: (
                get(self) == get(other) if other.__class__ is self.__class__
                else NotImplemented)
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls.__setattr__ = cls.__delattr__ = refuse
        stores = [vars(cls)[n].__set__ for n in names]
        if "__init__" not in body:
            arg = "convert({})" if convert else "{}"
            code = [f"set_{n}(self, {arg.format(n)})" for n in names]
            code += ["self.__post_init__()"] * hasattr(cls, "__post_init__")
            env = {"convert": convert} | {f"set_{n}": s for n, s in zip(names, stores)}
            source = "\n    ".join([f"def __init__(self, {', '.join(names)}):", *code])
            exec(source, env)
            cls.__init__ = init = env["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            init.__annotations__ = cls.__annotations__ | {"return": None}
        return cls
    return make


@_frozen()
class BoundInterval:
    """Closed interval [lower, upper] of probabilities.

    Construction converts each endpoint through :func:`_unit` to a plain float.
    A lower endpoint at most ``CLAMP_TOL`` above the upper one is float
    noise and collapses to the degenerate interval at ``lower`` (the
    lower endpoint is kept because it is shared across bound families
    and must stay stable); a larger inversion raises
    :class:`InconsistentBoundsError`.
    """

    lower: float
    upper: float

    def __init__(self, lower: float, upper: float) -> None:
        lo, hi = _unit(lower), _unit(upper)
        if lo > hi:
            if lo - hi <= CLAMP_TOL:
                hi = lo
            else:
                raise InconsistentBoundsError(
                    f"lower bound {lo!r} exceeds upper bound {hi!r}"
                )
        _set_lower(self, lo)
        _set_upper(self, hi)

    def __str__(self) -> str:
        return f"[{self.lower:.6g}, {self.upper:.6g}]"


_set_lower, _set_upper = BoundInterval.lower.__set__, BoundInterval.upper.__set__


def _require_tol(name: str, value: float) -> None:
    """Reject a NaN, a negative value, a bool or a non-number as invalid input."""
    try:
        if value >= 0.0 and value.__class__ is not bool:
            return
    except (TypeError, ValueError):
        pass
    raise InvalidInputError(f"{name} must be a nonnegative number, got {value!r}")


def _require_int(name: str, value, least: int) -> None:
    """Reject a bool, a non-integer or an integer below ``least``, 0 or 1."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < least:
        what = "a positive" if least else "a nonnegative"
        raise InvalidInputError(f"{name} must be {what} integer, got {value!r}")


@_frozen()
class CountTable:
    """Exposure-by-outcome counts from a two-arm randomized trial."""

    exposed_event: int
    exposed_total: int
    unexposed_event: int
    unexposed_total: int

    def __post_init__(self) -> None:
        for name in self.__match_args__:
            _require_int(name, getattr(self, name), 0)
        if self.exposed_total == 0 or self.unexposed_total == 0:
            raise InvalidInputError("arm totals must be positive")
        for arm in ("exposed", "unexposed"):
            event, total = getattr(self, f"{arm}_event"), getattr(self, f"{arm}_total")
            if event > total:
                raise InvalidInputError(
                    f"{arm}_event {event} exceeds {arm}_total {total}")


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a key it repeats is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _fspath(path: str | os.PathLike) -> str:
    """The name to open ``path`` by, as given; bytes or a NUL in it is refused."""
    if isinstance(name := os.fspath(path), bytes):
        raise InvalidInputError(f"{path!r}: a path is str or os.PathLike, not bytes")
    if "\0" in name:
        raise InvalidInputError(f"{path!r}: a path cannot hold a NUL character")
    return name


def _read_json(path: str | os.PathLike):
    """Decode a JSON file, opened and named as given; any decoding failure, a
    repeated key included, is a RecordParseError."""
    name = _fspath(path)
    try:
        with open(name) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise RecordParseError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None
    except (ValueError, RecursionError) as e:
        raise RecordParseError(f"{path}: invalid JSON: {e}") from None


def _read_object(path: str | os.PathLike, *types) -> tuple[type, dict]:
    """The first of ``types`` whose field names are the file's keys, and the object;
    a JSON boolean as a value or list cell is an InvalidInputError, any other
    shape a RecordParseError that lists each type's keys. Both name the file."""
    data = _read_json(path)
    for cls in types:
        if isinstance(data, dict) and data.keys() == set(cls.__match_args__):
            for key in cls.__match_args__:
                cells = data[key] if isinstance(data[key], list) else [data[key]]
                if any(isinstance(c, bool) for c in cells):
                    raise InvalidInputError(f"{path}: {key} holds a boolean, "
                                            "not a number")
            return cls, data
    expected = " | ".join("{" + ", ".join(c.__match_args__) + "}" for c in types)
    got = f", got {sorted(data)}" if isinstance(data, dict) else ""
    raise RecordParseError(f"{path}: expected a JSON object with exactly the keys "
                           f"{expected}{got}")


def _build(path: str | os.PathLike, cls, data: dict):
    """``cls(**data)``, with the file named in any InvalidInputError."""
    try:
        return cls(**data)
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}") from None


def read_count_json(path: str | os.PathLike) -> CountTable:
    """Parse a count JSON file into a :class:`CountTable`."""
    return _build(path, *_read_object(path, CountTable))
