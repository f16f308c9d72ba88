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

``core._frozen`` builds these classes without ``dataclasses``; the tests at the
end pin, for each of its other classes, what 0.9.0 built with ``dataclass``:
the repr, eq and hash, ``match``, the ``dataclasses`` helpers and the pickle
bytes, so that pickles load across versions in both directions.
"""

import copy
import dataclasses
import inspect
import io
import json
import math
import pickle
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pcbounds import (
    CLAMP_TOL,
    BoundInterval,
    ComparisonReport,
    CompleteMediationMargins,
    CountTable,
    Dataset,
    InconsistentBoundsError,
    InvalidInputError,
    PartialMediationMargins,
    PotentialOutcomeLaw,
    Probability,
    SimpleMargins,
    SoundnessReport,
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
# ``copy.replace`` is new in Python 3.13; before it, call the method it calls.
replace = getattr(copy, "replace", lambda obj, **changes: type(obj).__replace__(
    obj, **changes))


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
    copied = replace(obj, **{names[0]: other[0]})
    assert type(copied) is cls and _bits(copied, names) == _bits(changed, names)


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
    for attr, write in zip((name, "width", name, "width"), writes):
        with pytest.raises(dataclasses.FrozenInstanceError) as exc:
            write()
        assert str(exc.value) == (f"cannot set or delete {attr!r}: "
                                  f"{type(obj).__name__} is frozen")
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
        for call in (dataclasses.replace, replace):
            with pytest.raises(InconsistentBoundsError):
                call(BoundInterval(0.2, 0.4), lower=0.9)
            assert call(BoundInterval(0.2, 0.4), lower=0.3) == BoundInterval(0.3, 0.4)


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


# --- the contract of every other _frozen class, as 0.9.0 kept it --------------

IV = BoundInterval(0.25, 0.75)
# name: (one instance, its repr at 0.9.0, its fields in order, a field to change)
OTHERS = {
    "CountTable": (
        lambda: CountTable(30, 100, 12, 100),
        "CountTable(exposed_event=30, exposed_total=100, unexposed_event=12, "
        "unexposed_total=100)",
        ("exposed_event", "exposed_total", "unexposed_event", "unexposed_total"),
        {"exposed_event": 31},
    ),
    "ComparisonReport": (
        lambda: ComparisonReport(IV, BoundInterval(0.25, 0.5), None,
                                 BoundInterval(0.25, 0.5), 0.125, 0.375, 0.0625, 0.5,
                                 0.5, 0.75),
        "ComparisonReport(simple_interval=BoundInterval(lower=0.25, upper=0.75), "
        "partial_interval=BoundInterval(lower=0.25, upper=0.5), "
        "complete_interval=None, combined_interval=BoundInterval(lower=0.25, "
        "upper=0.5), alpha=0.125, beta=0.375, gamma=0.0625, delta=0.5, "
        "numerator_simple=0.5, numerator_partial=0.75)",
        ("simple_interval", "partial_interval", "complete_interval",
         "combined_interval", "alpha", "beta", "gamma", "delta", "numerator_simple",
         "numerator_partial"),
        {"alpha": 0.25},
    ),
    "PotentialOutcomeLaw": (
        lambda: PotentialOutcomeLaw((0.25,) * 4, (0.5, 0.5) + (0.0,) * 14),
        "PotentialOutcomeLaw(m_block=(0.25, 0.25, 0.25, 0.25), y_block=(0.5, 0.5, "
        + ", ".join(["0.0"] * 14) + "))",
        ("m_block", "y_block"),
        {"m_block": (1.0, 0.0, 0.0, 0.0)},
    ),
    "SoundnessReport": (
        lambda: SoundnessReport(IV, BoundInterval(0.125, 0.875), 5, 7, 0, 1, 0.0,
                                0.375, 0.625, 0.125, 0.25, False),
        "SoundnessReport(interval=BoundInterval(lower=0.25, upper=0.75), "
        "simple_interval=BoundInterval(lower=0.125, upper=0.875), n_laws=5, seed=7, "
        "violations=0, simple_violations=1, worst_violation=0.0, min_true_pc=0.375, "
        "max_true_pc=0.625, lower_gap=0.125, upper_gap=0.25, confounded=False)",
        ("interval", "simple_interval", "n_laws", "seed", "violations",
         "simple_violations", "worst_violation", "min_true_pc", "max_true_pc",
         "lower_gap", "upper_gap", "confounded"),
        {"seed": 8},
    ),
    "Dataset": (
        lambda: Dataset(x=[0, 1, 1], m=[1, 0, 1], y=[1, 1, 0], source="r.csv"),
        "Dataset(source='r.csv', has_mediator=True)",
        ("source", "has_mediator", "codes", "_cells"),
        None,
    ),
}
others = pytest.mark.parametrize("make, text, names, change", OTHERS.values(),
                                 ids=OTHERS)


@others
def test_repr_is_the_one_0_9_0_printed(make, text, names, change):
    assert repr(make()) == text


@others
def test_eq_and_hash(make, text, names, change):
    a, b = make(), make()
    if isinstance(a, Dataset):  # eq=False: identity, as object has it
        assert a == a and a != b and hash(a) == object.__hash__(a)
        return
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, n) for n in names))
    assert a.__eq__(object()) is NotImplemented
    assert a != dataclasses.replace(a, **change)


@others
def test_match_args_and_a_positional_pattern(make, text, names, change):
    obj = make()
    cls = type(obj)
    assert cls.__match_args__ == names
    match obj:
        case cls(first, second):
            assert (first, second) == (getattr(obj, names[0]), getattr(obj, names[1]))
        case _:
            pytest.fail("the positional pattern did not match")


@others
def test_dataclasses_helpers_read_the_fields(make, text, names, change):
    obj = make()
    cls = type(obj)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert dataclasses.fields(obj) == dataclasses.fields(cls)
    assert all(f.init and f.compare for f in dataclasses.fields(cls))
    values = [getattr(obj, n) for n in names]
    plain = [dataclasses.asdict(v) if dataclasses.is_dataclass(v) else v
             for v in values]
    assert list(dataclasses.asdict(obj)) == list(names)
    assert len(dataclasses.astuple(obj)) == len(names)
    if cls is Dataset:
        shown = [f.repr for f in dataclasses.fields(Dataset)]
        assert shown == [True, True, False, False]
        assert dataclasses.fields(Dataset)[2].repr is False
        for call in (dataclasses.replace, replace):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                call(obj)
        return
    assert list(dataclasses.asdict(obj).values()) == plain
    assert dataclasses.astuple(obj) == tuple(
        dataclasses.astuple(v) if dataclasses.is_dataclass(v) else v for v in values)
    assert all(f.repr for f in dataclasses.fields(cls))
    assert dataclasses.replace(obj) == obj
    assert replace(obj) == obj


def test_a_subclass_keeps_its_name_and_its_bases_fields():
    from pcbounds.core import _frozen

    @_frozen()
    class Base:
        a: int
        b: int

    class Sub(Base):
        pass

    sub = Sub(1, 2)
    assert [f.name for f in dataclasses.fields(sub)] == ["a", "b"]  # first lookup
    assert dataclasses.fields(Base) == dataclasses.fields(Sub)
    assert repr(sub) == f"{Sub.__qualname__}(a=1, b=2)"
    assert sub == Sub(1, 2) and sub != Base(1, 2)


# Bytes of ``_dumps(obj, protocol)`` for each instance, made by pcbounds 0.9.0.
PICKLES = json.loads(
    (Path(__file__).resolve().parent / "frozen_pickles_0.9.0.json").read_text())
EVERY = {**{case[0].__name__: (lambda case=case: case[0](*case[2])) for case in CASES},
         **{name: case[0] for name, case in OTHERS.items()}}


class _NoArrays(pickle.Pickler):
    """A pickler that names a numpy array by a persistent id: numpy pickles an
    array through functions whose module moves between its versions."""

    def persistent_id(self, obj):
        return "array" if isinstance(obj, np.ndarray) else None


def _dumps(obj, protocol: int) -> bytes:
    out = io.BytesIO()
    _NoArrays(out, protocol).dump(obj)
    return out.getvalue()


@pytest.mark.parametrize("name", EVERY)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_bytes_are_the_ones_0_9_0_wrote(name, protocol):
    obj = EVERY[name]()
    got = _dumps(obj, protocol)
    assert got.hex() == PICKLES[name][protocol]
    if not isinstance(obj, Dataset):
        assert got == pickle.dumps(obj, protocol)

    class Loader(pickle.Unpickler):
        def persistent_load(self, pid):
            return obj.codes

    back = Loader(io.BytesIO(bytes.fromhex(PICKLES[name][protocol]))).load()
    assert type(back) is type(obj) and _field_values(back) == _field_values(obj)
