"""The constructor contract of the frozen value classes.

``BoundInterval``, ``SimpleMargins``, ``CompleteMediationMargins`` and
``PartialMediationMargins`` validate and store each field once in an
``__init__`` that is not the one ``dataclass`` generates (``BoundInterval``'s
is hand-written, the margins' are made by ``core._frozen``). These tests pin
everything a caller could see of the dataclass-generated constructor: the
argument errors, ``dataclasses`` helpers, eq/hash/repr, frozenness,
pickling and the clamp-or-raise rules of each field. Every field holds a
plain ``float``, never a ``Probability``. Every frozen class in the package
refuses a write to any attribute the same way.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcbounds import (
    CLAMP_TOL,
    BoundInterval,
    CompleteMediationMargins,
    CountTable,
    Dataset,
    InconsistentBoundsError,
    InvalidInputError,
    PartialMediationMargins,
    PotentialOutcomeLaw,
    Probability,
    SimpleMargins,
    compare,
    soundness_report,
)

# (class, field names, valid values, other valid values)
CASES = [
    (BoundInterval, ("lower", "upper"), (0.2, 0.8), (0.25, 0.75)),
    (SimpleMargins, ("p1", "p0"), (0.3, 0.12), (0.4, 0.1)),
    (CompleteMediationMargins, ("a", "b", "c", "d"), (0.7, 0.6, 0.4, 0.9),
     (0.5, 0.6, 0.4, 0.9)),
    (PartialMediationMargins, ("y00", "y01", "y10", "y11", "m0", "m1"),
     (0.1, 0.2, 0.3, 0.4, 0.5, 0.6), (0.1, 0.2, 0.3, 0.4, 0.5, 0.7)),
]
IDS = [case[0].__name__ for case in CASES]
contract = pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)


def _bits(obj, names):
    return [(type(getattr(obj, n)).__name__, float.hex(getattr(obj, n))) for n in names]


@contract
def test_positional_and_keyword_construction(cls, names, values, other):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert _bits(by_position, names) == _bits(by_keyword, names)
    for name, value in zip(names, values):
        assert type(getattr(by_position, name)) is float
        assert getattr(by_position, name) is value


@contract
def test_argument_errors(cls, names, values, other):
    init = f"{cls.__name__}.__init__()"
    with pytest.raises(TypeError) as exc:
        cls(*values[:-1])
    assert str(exc.value) == (
        f"{init} missing 1 required positional argument: {names[-1]!r}"
    )
    with pytest.raises(TypeError) as exc:
        cls(*values, 0.5)
    assert str(exc.value) == (
        f"{init} takes {len(names) + 1} positional arguments "
        f"but {len(names) + 2} were given"
    )
    with pytest.raises(TypeError) as exc:
        cls(*values, nonsense=0.5)
    assert str(exc.value) == f"{init} got an unexpected keyword argument 'nonsense'"
    with pytest.raises(TypeError) as exc:
        cls(*values, **{names[0]: values[0]})
    assert str(exc.value) == f"{init} got multiple values for argument {names[0]!r}"


@contract
def test_dataclass_helpers(cls, names, values, other):
    obj = cls(*values)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert all(f.init for f in dataclasses.fields(obj))
    assert dataclasses.asdict(obj) == dict(zip(names, values))
    changed = dataclasses.replace(obj, **{names[0]: other[0]})
    assert changed == cls(other[0], *values[1:])
    assert type(getattr(changed, names[0])) is float
    assert _bits(changed, names) == _bits(cls(other[0], *values[1:]), names)
    assert dataclasses.replace(obj) == obj


@contract
def test_eq_hash_repr(cls, names, values, other):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    fields_text = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({fields_text})"


@contract
def test_frozen(cls, names, values, other):
    obj = cls(*values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, names[0], 0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, names[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


# One instance of every frozen slotted class in the package.
PARTIAL = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
FROZEN = {
    "BoundInterval": lambda: BoundInterval(0.2, 0.8),
    "CountTable": lambda: CountTable(30, 100, 12, 100),
    "SimpleMargins": lambda: SimpleMargins(0.3, 0.12),
    "CompleteMediationMargins": lambda: CompleteMediationMargins(0.7, 0.6, 0.4, 0.9),
    "PartialMediationMargins": lambda: PartialMediationMargins(*PARTIAL),
    "ComparisonReport": lambda: compare(PartialMediationMargins(*PARTIAL)),
    "Dataset": lambda: Dataset(x=[0, 1, 1], m=[1, 0, 1], y=[1, 1, 0]),
    "PotentialOutcomeLaw": lambda: PotentialOutcomeLaw(
        (0.25,) * 4, (1.0,) + (0.0,) * 15
    ),
    "SoundnessReport": lambda: soundness_report(
        PartialMediationMargins(*PARTIAL), n_laws=5
    ),
}


def _field_values(obj):
    values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
    return [v.tolist() if isinstance(v, np.ndarray) else v for v in values]


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
def test_every_write_raises_frozen_instance_error(make):
    obj = make()
    name = dataclasses.fields(obj)[0].name
    writes = (
        lambda: setattr(obj, name, 0.5),
        lambda: setattr(obj, "width", 1),
        lambda: delattr(obj, name),
        lambda: delattr(obj, "width"),
    )
    for write in writes:
        with pytest.raises(dataclasses.FrozenInstanceError):
            write()
    assert not hasattr(obj, "__dict__")
    assert _field_values(pickle.loads(pickle.dumps(obj))) == _field_values(obj)


@contract
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, names, values, other, protocol):
    obj = cls(*values)
    back = pickle.loads(pickle.dumps(obj, protocol))
    assert type(back) is cls and back == obj
    assert _bits(back, names) == _bits(obj, names)


@contract
def test_deepcopy_round_trip(cls, names, values, other):
    obj = cls(*values)
    back = copy.deepcopy(obj)
    assert type(back) is cls and back == obj
    assert _bits(back, names) == _bits(obj, names)
    assert copy.copy(obj) == obj


@contract
def test_signature(cls, names, values, other):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == list(names)
    for p in params:
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert p.default is inspect.Parameter.empty
        assert p.annotation == "float"
    assert inspect.signature(cls).return_annotation in (None, "None")


@contract
@pytest.mark.parametrize(
    "raw, stored",
    [
        (-0.0, -0.0),
        (-CLAMP_TOL / 2, 0.0),
        (1.0 + CLAMP_TOL / 2, 1.0),
        (-CLAMP_TOL, 0.0),
        (1.0 + CLAMP_TOL, 1.0),
        (1, 1.0),
        ("0.5", 0.5),
    ],
)
def test_every_field_clamps(cls, names, values, other, raw, stored):
    for k, name in enumerate(names):
        if cls is BoundInterval:
            # Keep the interval ordered whichever endpoint is replaced.
            args = (raw, 1.0) if k == 0 else (0.0, raw)
        else:
            args = values[:k] + (raw,) + values[k + 1:]
        got = getattr(cls(*args), name)
        assert type(got) is float
        assert float.hex(got) == float.hex(stored)


@contract
@pytest.mark.parametrize(
    "raw, message",
    [
        (-2 * CLAMP_TOL, "outside"),
        (1.0 + 2 * CLAMP_TOL, "outside"),
        (math.nan, "NaN"),
        (math.inf, "outside"),
        (-math.inf, "outside"),
        (10**400, "too large for a float"),
        # None: not a number, and the message names the value
        ("abc", None),
        (None, None),
        ([0.5], None),
    ],
)
def test_every_field_raises(cls, names, values, other, raw, message):
    message = message or re.escape(f"probability must be a number, got {raw!r}")
    for k in range(len(names)):
        args = values[:k] + (raw,) + values[k + 1:]
        with pytest.raises(InvalidInputError, match=message):
            cls(*args)


@pytest.mark.parametrize("raw", [None, "abc", [0.5], 1j, Decimal("sNaN")], ids=repr)
def test_probability_refuses_a_non_number(raw):
    with pytest.raises(InvalidInputError) as exc:
        Probability(raw)
    assert str(exc.value) == f"probability must be a number, got {raw!r}"
    assert exc.value.__cause__ is None and exc.value.__suppress_context__


class TestBoundIntervalOrder:
    def test_micro_inversion_collapses_to_lower(self):
        iv = BoundInterval(0.5 + CLAMP_TOL / 2, 0.5)
        assert iv.upper is iv.lower

    def test_inversion_raises_with_both_endpoints(self):
        with pytest.raises(InconsistentBoundsError) as exc:
            BoundInterval(0.7, 0.3)
        assert str(exc.value) == "lower bound 0.7 exceeds upper bound 0.3"

    def test_replace_rechecks_the_order(self):
        with pytest.raises(InconsistentBoundsError):
            dataclasses.replace(BoundInterval(0.2, 0.4), lower=0.9)


# --- core._unit against float(Probability(v)) --------------------------------


def _outcome(make, value):
    """(type name, float.hex, sign) of the result, or (error type, text)."""
    try:
        p = make(value)
    except InvalidInputError as e:
        return type(e).__name__, str(e)
    return type(p).__name__, float.hex(p), math.copysign(1.0, p)


def _check_unit(value):
    """``_unit(value)`` is ``float(Probability(value))``, bit for bit or error for
    error, and a float already in [0, 1] comes back as the same object."""
    from pcbounds.core import _unit

    assert _outcome(_unit, value) == _outcome(lambda v: float(Probability(v)), value)
    if 0.0 <= value <= 1.0:
        assert _unit(value) is value


@pytest.mark.parametrize(
    "value",
    [
        0.0, -0.0, 1.0, 0.5,
        -CLAMP_TOL / 2, 1.0 + CLAMP_TOL / 2, -CLAMP_TOL, 1.0 + CLAMP_TOL,
        -2 * CLAMP_TOL, 1.0 + 2 * CLAMP_TOL,
        math.nan, math.inf, -math.inf,
    ],
    ids=repr,
)
def test_unit_matches_probability(value):
    _check_unit(value)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_unit_matches_probability_on_any_float(value):
    _check_unit(value)


@given(st.floats(min_value=-4 * CLAMP_TOL, max_value=1.0 + 4 * CLAMP_TOL))
def test_unit_matches_probability_near_the_edges(value):
    _check_unit(value)
