import copy
import dataclasses
import json
import os
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcbounds import (
    CompleteMediationMargins,
    CountTable,
    Dataset,
    DirectEffectWarning,
    InsufficientDataError,
    InvalidInputError,
    PartialMediationMargins,
    PotentialOutcomeLaw,
    RecordParseError,
    SimpleMargins,
    estimate_complete,
    estimate_partial,
    estimate_simple,
    margins_from_count_table,
    read_count_json,
    read_law_json,
    read_margins_json,
    read_records_csv,
    simulate_trial,
    write_records_csv,
)


def columns_from_counts(counts):
    """{(x, m, y): n} as x, m and y lists, n records of each cell in order."""
    rows = [cell for cell, n in counts.items() for _ in range(n)]
    return dict(zip("xmy", map(list, zip(*rows))))


def records_from_counts(counts):
    """The Dataset whose columns are ``columns_from_counts(counts)``."""
    return Dataset(**columns_from_counts(counts))


# Stratum sizes chosen so every frequency is a clean fraction and
# no two margins coincide by accident.
BALANCED = {
    (0, 0, 0): 16, (0, 0, 1): 4,
    (0, 1, 0): 5, (0, 1, 1): 5,
    (1, 0, 0): 5, (1, 0, 1): 15,
    (1, 1, 0): 2, (1, 1, 1): 18,
}


@pytest.fixture
def balanced_records():
    return records_from_counts(BALANCED)


class TestDataset:
    def test_counts(self, balanced_records):
        d = balanced_records
        assert len(d) == 70
        assert d.arm_counts(1) == (33, 40)
        assert d.stratum_counts(0, 1) == (5, 10)
        assert d.mediator_counts(0) == (10, 30)
        assert d.has_mediator

    def test_mediator_free(self):
        d = Dataset(x=[0, 1], m=None, y=[1, 0])
        assert not d.has_mediator
        assert d.m is None
        assert d.arm_counts(0) == (1, 1)
        with pytest.raises(InvalidInputError):
            d.stratum_counts(0, 0)
        with pytest.raises(InvalidInputError):
            d.mediator_counts(0)

    def test_columns_keep_record_order(self, balanced_records):
        for name, values in columns_from_counts(BALANCED).items():
            col = getattr(balanced_records, name)
            assert col.dtype == np.int8
            assert not col.flags.writeable
            assert col.tolist() == values

    def test_stores_only_the_codes(self, balanced_records):
        d = balanced_records
        names = [f.name for f in dataclasses.fields(Dataset)]
        assert names == ["source", "has_mediator", "codes", "_cells"]
        assert not hasattr(d, "__dict__")
        assert repr(d) == "Dataset(source='', has_mediator=True)"
        assert d.x is not d.x
        for name, shift in (("x", 2), ("m", 1), ("y", 0)):
            assert getattr(d, name).tolist() == (d.codes >> shift & 1).tolist()
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.codes = d.codes

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_keep_a_read_only_column(self, balanced_records, protocol):
        for d in (balanced_records, Dataset(x=[0, 1], m=None, y=[1, 0], source="s")):
            for back in (pickle.loads(pickle.dumps(d, protocol)), copy.deepcopy(d)):
                assert not back.codes.flags.writeable
                assert back.codes.tolist() == d.codes.tolist()
                assert back._cells == d._cells
                assert (back.source, back.has_mediator) == (d.source, d.has_mediator)

    def test_column_constructor_copies(self, balanced_records):
        ref = balanced_records
        x, m, y = ref.x.astype(np.int64), ref.m.tolist(), ref.y.astype(bool)
        d = Dataset(x=x, m=m, y=y, source="s")
        x[:] = 0
        assert np.array_equal(d.x, ref.x)
        assert d.source == "s"
        for xv in (0, 1):
            assert d.arm_counts(xv) == ref.arm_counts(xv)
            assert d.mediator_counts(xv) == ref.mediator_counts(xv)
            for mv in (0, 1):
                assert d.stratum_counts(xv, mv) == ref.stratum_counts(xv, mv)

    def test_empty_columns_rejected(self):
        with pytest.raises(InsufficientDataError):
            Dataset(x=[], m=None, y=[])

    @pytest.mark.parametrize("columns", [
        {"x": [0, 2], "m": None, "y": [0, 1]},
        {"x": [0, 1], "m": [0, -1], "y": [0, 1]},
        {"x": [0, 1], "m": None, "y": [0.5, 1]},
        {"x": ["0", "1"], "m": None, "y": [0, 1]},
        {"x": [0, 1], "m": None, "y": [0]},
        {"x": [0, 1], "m": [0], "y": [0, 1]},
        {"x": [[0, 1]], "m": None, "y": [[0, 1]]},
    ])
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(InvalidInputError):
            Dataset(**columns)


class TestEstimators:
    def test_simple(self, balanced_records):
        m = estimate_simple(balanced_records)
        assert float(m.p1) == 33 / 40
        assert float(m.p0) == 9 / 30

    def test_simple_requires_both_arms(self):
        d = Dataset(x=[1], m=None, y=[1])
        with pytest.raises(InsufficientDataError) as exc:
            estimate_simple(d)
        assert "X=0" in str(exc.value)

    def test_partial(self, balanced_records):
        m = estimate_partial(balanced_records)
        assert float(m.y00) == 0.2
        assert float(m.y01) == 0.5
        assert float(m.y10) == 0.75
        assert float(m.y11) == 0.9
        assert float(m.m0) == 10 / 30
        assert float(m.m1) == 0.5

    def test_partial_requires_mediator(self):
        d = Dataset(x=[0, 1], m=None, y=[1, 0])
        with pytest.raises(InvalidInputError):
            estimate_partial(d)

    @pytest.mark.parametrize("empty_arm", [0, 1])
    def test_complete_without_mediator_is_invalid_before_an_empty_arm(self, empty_arm):
        d = Dataset(x=[1 - empty_arm] * 2, m=None, y=[0, 1])
        with pytest.raises(InvalidInputError) as exc:
            estimate_complete(d)
        assert type(exc.value) is InvalidInputError
        assert str(exc.value) == "records carry no mediator column"

    def test_partial_names_empty_stratum(self):
        d = records_from_counts({k: n for k, n in BALANCED.items() if k[:2] != (1, 0)})
        with pytest.raises(InsufficientDataError) as exc:
            estimate_partial(d)
        assert "(x=1, m=0)" in str(exc.value)

    def test_complete_pools_outcome_rates(self):
        d = records_from_counts({
            (0, 0, 0): 30, (0, 0, 1): 10,
            (0, 1, 0): 5, (0, 1, 1): 5,
            (1, 0, 0): 15, (1, 0, 1): 5,
            (1, 1, 0): 15, (1, 1, 1): 15,
        })
        m = estimate_complete(d)
        # a = P(M=0 | X=0) = 40/50, b = P(M=1 | X=1) = 30/50.
        assert float(m.a) == 0.8
        assert float(m.b) == 0.6
        # c = P(Y=0 | M=0) pooled = 45/60, d = P(Y=1 | M=1) pooled = 20/40.
        assert float(m.c) == 0.75
        assert float(m.d) == 0.5

    def test_complete_warns_on_direct_effect(self, balanced_records):
        with pytest.warns(DirectEffectWarning, match="M=0"):
            estimate_complete(balanced_records)

    def test_complete_quiet_when_rates_agree(self):
        d = records_from_counts({
            (0, 0, 0): 30, (0, 0, 1): 10,
            (0, 1, 0): 5, (0, 1, 1): 5,
            (1, 0, 0): 15, (1, 0, 1): 5,
            (1, 1, 0): 15, (1, 1, 1): 15,
        })
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DirectEffectWarning)
            estimate_complete(d, tol=0.3)


def test_margins_from_count_table(reference_counts):
    m = margins_from_count_table(reference_counts)
    assert float(m.p1) == 0.3
    assert float(m.p0) == 0.12
    numpy_counts = CountTable(np.int64(30), np.int32(100), np.uint8(12), np.uint16(100))
    assert margins_from_count_table(numpy_counts) == m


class TestRecordsCsv:
    def test_round_trip(self, tmp_path, balanced_records):
        path = tmp_path / "records.csv"
        n = write_records_csv(balanced_records, path)
        assert n == 70
        d = read_records_csv(path)
        assert len(d) == 70
        assert d.source == str(path)
        ref = balanced_records
        for name in ("x", "m", "y"):
            assert np.array_equal(getattr(d, name), getattr(ref, name))
        assert estimate_partial(d) == estimate_partial(ref)

    def test_mediator_free_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(Dataset(x=[0, 1], m=None, y=[1, 0]), path)
        assert path.read_text().splitlines()[0] == "x,y"
        d = read_records_csv(path)
        assert not d.has_mediator
        with pytest.raises(InvalidInputError):
            estimate_partial(d)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("exposure,mediator,outcome\n1,0,1\n")
        with pytest.raises(RecordParseError) as exc:
            read_records_csv(path)
        assert f"{path}:1" in str(exc.value)

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,m,y\n1,0,1\n1,2,0\n")
        with pytest.raises(RecordParseError) as exc:
            read_records_csv(path)
        assert f"{path}:3" in str(exc.value)

    def test_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,m,y\n1,0\n")
        with pytest.raises(RecordParseError):
            read_records_csv(path)

    def test_undecodable_bytes_name_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"x,m,y\n0,1,1\r1,\xff,1\n")
        with pytest.raises(RecordParseError) as exc:
            read_records_csv(path)
        assert str(exc.value).startswith(f"{path}:3: not ")

    def test_oversized_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n0,1\n1," + "1" * 200_000 + "\n")
        with pytest.raises(RecordParseError) as exc:
            read_records_csv(path)
        assert str(exc.value).startswith(f"{path}:3: field larger than field limit")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(RecordParseError):
            read_records_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,m,y\n")
        with pytest.raises(RecordParseError, match="no data rows"):
            read_records_csv(path)

    def test_write_rejects_mixed(self, tmp_path):
        with pytest.raises(InvalidInputError) as exc:
            write_records_csv(((0, 0, 1), (1, None, 1)), tmp_path / "x.csv")
        assert str(exc.value) == "records must be a Dataset, got tuple"
        assert not (tmp_path / "x.csv").exists()

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(InvalidInputError) as exc:
            write_records_csv([], tmp_path / "x.csv")
        assert str(exc.value) == "records must be a Dataset, got list"
        assert not (tmp_path / "x.csv").exists()

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "records.csv"
        d = Dataset(x=[0, 1, 1], m=[1, 0, 1], y=[0, 1, 1])
        assert write_records_csv(d, path) == 3
        assert path.read_bytes() == b"x,m,y\r\n0,1,0\r\n1,0,1\r\n1,1,1\r\n"
        write_records_csv(Dataset(x=[1, 0], m=None, y=[1, 0]), path)
        assert path.read_bytes() == b"x,y\r\n1,1\r\n0,0\r\n"

    def test_dev_null_returns_row_count(self):
        d = Dataset._from_codes(np.arange(2**16 + 3, dtype=np.uint8) % 8, True)
        assert write_records_csv(d, os.devnull) == 2**16 + 3

    @pytest.mark.parametrize("n, fail_at", [(3, 1), (2**16 + 5, 2)])
    def test_failed_write_leaves_a_prefix(self, tmp_path, monkeypatch, n, fail_at):
        # the header and the pieces before the failure; nothing of the old file
        path = tmp_path / "records.csv"
        path.write_bytes(b"old rows\r\n" * 10**5)
        d = Dataset._from_codes(np.arange(n, dtype=np.uint8) % 8, True)
        write_records_csv(d, tmp_path / "whole.csv")
        whole = (tmp_path / "whole.csv").read_bytes()
        calls, take = [], np.take

        def failing_take(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise MemoryError("no room for this piece")
            return take(*args, **kwargs)

        monkeypatch.setattr(np, "take", failing_take)
        with pytest.raises(MemoryError, match="no room for this piece"):
            write_records_csv(d, path)
        assert len(calls) == fail_at
        assert path.read_bytes() == whole[: 7 + 7 * 2**16 * (fail_at - 1)]


def traced_peak_mib(fn):
    """fn's result and the peak of memory traced while it ran, in MiB."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_round_trip_memory_per_stage(tmp_path):
    """Each stage of the round trip at 10^5 per arm stays near one byte per
    record. Measured: simulate 2.2, write 1.4, read 2.9 MiB, against 10.1,
    2.7 and 5.4 MiB when records passed through int64 and float64 columns,
    and against simulate 2.7 and read 3.6 MiB when the cell counts widened
    every code to intp at once; each bound leaves at least 13% headroom
    over the measured value and fails the whole-column count."""
    path = tmp_path / "records.csv"
    law = PotentialOutcomeLaw.independent(PartialMediationMargins(
        y00=0.2, y01=0.6, y10=0.35, y11=0.85, m0=0.3, m1=0.7))
    write_records_csv(simulate_trial(law, 10, seed=1), path)  # warm-up
    read_records_csv(path)
    d, simulate_mib = traced_peak_mib(lambda: simulate_trial(law, 10**5, seed=1))
    _, write_mib = traced_peak_mib(lambda: write_records_csv(d, path))
    back, read_mib = traced_peak_mib(lambda: read_records_csv(path))
    assert all(np.array_equal(getattr(back, c), getattr(d, c)) for c in "xmy")
    assert simulate_mib <= 2.5, simulate_mib
    assert write_mib <= 1.8, write_mib
    assert read_mib <= 3.4, read_mib


@pytest.mark.parametrize("size", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_cell_counts_match_bincount_across_pieces(size):
    codes = np.random.default_rng(size).integers(0, 8, size, dtype=np.uint8)
    d = Dataset._from_codes(codes, has_mediator=True)
    assert d._cells == np.bincount(codes, minlength=8).reshape(2, 2, 2).tolist()


class TestCountJson:
    def test_happy_path(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "exposed_event": 30, "exposed_total": 100,
            "unexposed_event": 12, "unexposed_total": 100,
        }))
        t = read_count_json(path)
        assert t == CountTable(30, 100, 12, 100)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"exposed_event": 30, "exposed_total": 100,
                                    "unexposed_event": 12}))
        with pytest.raises(RecordParseError) as exc:
            read_count_json(path)
        assert str(exc.value) == (
            f"{path}: expected a JSON object with exactly the keys {{exposed_event, "
            "exposed_total, unexposed_event, unexposed_total}, got ['exposed_event', "
            "'exposed_total', 'unexposed_event']"
        )

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "exposed_event": 30, "exposed_total": 100,
            "unexposed_event": 12, "unexposed_total": 100, "extra": 1,
        }))
        with pytest.raises(RecordParseError) as exc:
            read_count_json(path)
        assert str(exc.value) == (
            f"{path}: expected a JSON object with exactly the keys {{exposed_event, "
            "exposed_total, unexposed_event, unexposed_total}, got ['exposed_event', "
            "'exposed_total', 'extra', 'unexposed_event', 'unexposed_total']"
        )

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "exposed_event": 30.5, "exposed_total": 100,
            "unexposed_event": 12, "unexposed_total": 100,
        }))
        with pytest.raises(InvalidInputError) as exc:
            read_count_json(path)
        assert str(exc.value) == (
            f"{path}: exposed_event must be a nonnegative integer, got 30.5"
        )

    def test_bool_rejected(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "exposed_event": True, "exposed_total": 100,
            "unexposed_event": 12, "unexposed_total": 100,
        }))
        with pytest.raises(InvalidInputError) as exc:
            read_count_json(path)
        assert str(exc.value) == f"{path}: exposed_event holds a boolean, not a number"

    def test_bad_value_names_the_file(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({
            "exposed_event": 30, "exposed_total": 100,
            "unexposed_event": -1, "unexposed_total": 100,
        }))
        with pytest.raises(InvalidInputError) as exc:
            read_count_json(path)
        assert str(exc.value) == (
            f"{path}: unexposed_event must be a nonnegative integer, got -1"
        )

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"exposed_event": 30,\n  "exposed_total": }')
        with pytest.raises(RecordParseError) as exc:
            read_count_json(path)
        assert f"{path}:2" in str(exc.value)


class TestMarginsJson:
    def test_simple_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": 0.3, "p0": 0.12}))
        m = read_margins_json(path)
        assert isinstance(m, SimpleMargins)
        assert float(m.p1) == 0.3

    def test_complete_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"a": 0.7, "b": 0.6, "c": 0.4, "d": 0.9}))
        m = read_margins_json(path)
        assert isinstance(m, CompleteMediationMargins)

    def test_partial_kind(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 0.02, "y01": 0.835, "y10": 0.685, "y11": 0.857,
            "m0": 0.27, "m1": 0.019,
        }))
        m = read_margins_json(path)
        assert isinstance(m, PartialMediationMargins)
        assert float(m.m0) == 0.27

    def test_unknown_key_set_lists_schemas(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": 0.3}))
        with pytest.raises(RecordParseError) as exc:
            read_margins_json(path)
        assert str(exc.value) == (
            f"{path}: expected a JSON object with exactly the keys {{p1, p0}} | "
            "{a, b, c, d} | {y00, y01, y10, y11, m0, m1}, got ['p1']"
        )

    def test_out_of_range_value(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": 1.3, "p0": 0.12}))
        with pytest.raises(InvalidInputError):
            read_margins_json(path)

    @pytest.mark.parametrize(
        "text, field, cause",
        [
            ('{"p1": 0.3, "p0": 1.5}', "p0", "probability 1.5 outside [0, 1]"),
            ('{"p1": NaN, "p0": 0.12}', "p1", "probability must not be NaN"),
            ('{"p1": 0.3, "p0": 1' + "0" * 400 + "}", "p0",
             "probability too large for a float"),
            ('{"y00": 0.1, "y01": 0.1, "y10": 0.1, "y11": 0.1, "m0": 0.1, "m1": -1}',
             "m1", "probability -1 outside [0, 1]"),
        ],
        ids=["range", "nan", "overflow", "partial-m1"],
    )
    def test_bad_value_names_the_file_and_the_field(self, tmp_path, text, field, cause):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as exc:
            read_margins_json(path)
        assert type(exc.value) is InvalidInputError
        assert str(exc.value) == f"{path}: field {field!r}: {cause}"

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": "high", "p0": 0.12}))
        with pytest.raises(InvalidInputError):
            read_margins_json(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([0.3, 0.12]))
        with pytest.raises(RecordParseError):
            read_margins_json(path)


_COUNTS = {"exposed_event": 3, "exposed_total": 10,
           "unexposed_event": 1, "unexposed_total": 10}
_COUNT_KEYS = "{exposed_event, exposed_total, unexposed_event, unexposed_total}"
_MARGIN_KEYS = "{p1, p0} | {a, b, c, d} | {y00, y01, y10, y11, m0, m1}"
_Y_BLOCK = [1.0] + [0.0] * 15
_SHAPE = "expected a JSON object with exactly the keys "


@pytest.mark.parametrize(
    "reader, data, error, message",
    [
        (read_count_json, list(_COUNTS.values()), RecordParseError,
         _SHAPE + _COUNT_KEYS),
        (read_count_json, {**_COUNTS, "extra": 1}, RecordParseError,
         _SHAPE + _COUNT_KEYS + ", got ['exposed_event', 'exposed_total', 'extra', "
         "'unexposed_event', 'unexposed_total']"),
        (read_count_json, {"exposed_event": 3, "exposed_total": 10,
                           "unexposed_event": 1}, RecordParseError,
         _SHAPE + _COUNT_KEYS + ", got ['exposed_event', 'exposed_total', "
         "'unexposed_event']"),
        (read_count_json, {**_COUNTS, "unexposed_total": True}, InvalidInputError,
         "unexposed_total holds a boolean, not a number"),
        (read_margins_json, [0.3, 0.12], RecordParseError, _SHAPE + _MARGIN_KEYS),
        (read_margins_json, {"p1": 0.3, "p0": 0.12, "extra": 1}, RecordParseError,
         _SHAPE + _MARGIN_KEYS + ", got ['extra', 'p0', 'p1']"),
        (read_margins_json, {"a": 0.7, "b": 0.6, "c": 0.4}, RecordParseError,
         _SHAPE + _MARGIN_KEYS + ", got ['a', 'b', 'c']"),
        (read_margins_json, {"p1": 0.3, "p0": False}, InvalidInputError,
         "p0 holds a boolean, not a number"),
        (read_law_json, [[1.0, 0.0, 0.0, 0.0], _Y_BLOCK], RecordParseError,
         _SHAPE + "{m_block, y_block}"),
        (read_law_json, {"m_block": [1.0, 0.0, 0.0, 0.0], "y_block": _Y_BLOCK,
                         "extra": 1}, RecordParseError,
         _SHAPE + "{m_block, y_block}, got ['extra', 'm_block', 'y_block']"),
        (read_law_json, {"y_block": _Y_BLOCK}, RecordParseError,
         _SHAPE + "{m_block, y_block}, got ['y_block']"),
        (read_law_json, {"m_block": [1.0, 0.0, 0.0, 0.0], "y_block": [True] * 16},
         InvalidInputError, "y_block holds a boolean, not a number"),
    ],
    ids=[f"{kind}-{case}" for kind in ("counts", "margins", "law")
         for case in ("list", "extra-key", "missing-key", "boolean")],
)
def test_one_json_rule_for_every_reader(tmp_path, reader, data, error, message):
    """Each JSON reader refuses the same shapes with the same words."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInputError) as exc:
        reader(path)
    assert type(exc.value) is error
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize(
    "reader, text, key",
    [
        (read_count_json, '{"exposed_event": 90, "exposed_total": 100, '
         '"unexposed_event": 1, "unexposed_total": 100, "exposed_event": 3}',
         "exposed_event"),
        (read_margins_json, '{"p1": 0.9, "p1": 0.3, "p0": 0.12}', "p1"),
        (read_law_json, '{"m_block": [1, 0, 0, 0], "y_block": [1' + ", 0" * 15
         + '], "m_block": [0, 0, 0, 1]}', "m_block"),
    ],
    ids=["counts", "margins", "law"],
)
def test_every_reader_refuses_a_repeated_key(tmp_path, reader, text, key):
    """A key given twice is refused, not read as its last value."""
    path = tmp_path / "input.json"
    path.write_text(text)
    with pytest.raises(RecordParseError) as exc:
        reader(path)
    assert str(exc.value) == f"{path}: invalid JSON: repeated key {key!r}"


def _write(path):
    """The bytes ``write_records_csv`` writes to ``path`` for two records."""
    write_records_csv(Dataset(x=[0, 1], m=[0, 1], y=[1, 1]), path)
    with open(path, "rb") as fh:
        return fh.read()


def _comparable(result):
    """A reader's result in a form ``==`` compares by value."""
    if isinstance(result, Dataset):
        return result.source, result.has_mediator, result.codes.tolist()
    return result


# Each file function, with a good and a bad file for each reader.
_FILE_FUNCTIONS = {
    "counts": (read_count_json, json.dumps(_COUNTS), "[]"),
    "margins": (read_margins_json, '{"p1": 0.3, "p0": 0.12}', '{"p1": 1.5, "p0": 0}'),
    "law": (read_law_json, json.dumps({"m_block": [1, 0, 0, 0], "y_block": _Y_BLOCK}),
            '{"m_block": [1, 0, 0, 0], "y_block": [1]}'),
    "records": (read_records_csv, "x,m,y\n0,0,1\n1,1,1\n", "x,m,y\n0,2,1\n"),
    "write": (_write, None, None),
}
_READERS = [name for name in _FILE_FUNCTIONS if name != "write"]


class TestPathsAsGiven:
    """Every file function opens a ``str`` or ``os.PathLike`` path as given,
    and names it as given."""

    @pytest.mark.parametrize("name", _FILE_FUNCTIONS)
    def test_str_and_pathlib_path_agree(self, tmp_path, name):
        function, good, _ = _FILE_FUNCTIONS[name]
        path = tmp_path / "input"
        if good is not None:
            path.write_text(good)
        assert _comparable(function(str(path))) == _comparable(function(path))

    @pytest.mark.parametrize("name", _READERS)
    def test_bad_file_message_starts_with_the_path_as_given(
        self, tmp_path, monkeypatch, name
    ):
        function, _, bad = _FILE_FUNCTIONS[name]
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text(bad)
        with pytest.raises(InvalidInputError) as exc:
            function("./bad.json")
        assert str(exc.value).startswith("./bad.json:")

    def test_writer_names_the_path_as_given(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bad.csv").mkdir()
        with pytest.raises(IsADirectoryError) as exc:
            _write("./bad.csv")
        assert exc.value.filename == "./bad.csv"

    @pytest.mark.parametrize("name", _FILE_FUNCTIONS)
    def test_empty_path_is_no_such_file(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as exc:
            _FILE_FUNCTIONS[name][0]("")
        assert str(exc.value).endswith("No such file or directory: ''")

    # The original cases keep the bare function name as their id.
    @pytest.mark.parametrize("name, nul", [
        *(pytest.param(name, False, id=name) for name in _FILE_FUNCTIONS),
        *(pytest.param(name, True, id=f"{name}-nul") for name in _FILE_FUNCTIONS),
    ])
    def test_bytes_path_is_refused_before_any_file_is_opened(
        self, tmp_path, monkeypatch, name, nul
    ):
        class BytesPath:
            def __fspath__(self):
                return b"input"

        class NulPath:
            def __fspath__(self):
                return "input\0.csv"

        function, good, _ = _FILE_FUNCTIONS[name]
        monkeypatch.chdir(tmp_path)
        if good is not None:
            Path("input").write_text(good)
        reason = ("a path cannot hold a NUL character" if nul
                  else "a path is str or os.PathLike, not bytes")
        for path in ("input\0.csv", NulPath()) if nul else (b"input", BytesPath()):
            with pytest.raises(InvalidInputError) as exc:
                function(path)
            assert str(exc.value) == f"{path!r}: {reason}"
        assert os.listdir() == ([] if good is None else ["input"])

    @pytest.mark.parametrize("name", _FILE_FUNCTIONS)
    def test_int_path_is_refused_and_leaves_the_descriptor_open(self, tmp_path, name):
        fd = os.open(tmp_path / "open.json", os.O_RDWR | os.O_CREAT)
        try:
            with pytest.raises(TypeError, match="os.PathLike object, not int"):
                _FILE_FUNCTIONS[name][0](fd)
            os.fstat(fd)
        finally:
            os.close(fd)


class TestToleranceValidation:
    @pytest.fixture
    def example1_records(self):
        law = json.loads(
            (Path(__file__).parent.parent / "data" / "example1_law.json").read_text()
        )
        law = PotentialOutcomeLaw(m_block=law["m_block"], y_block=law["y_block"])
        return simulate_trial(law, n_per_arm=2000, seed=1)

    @pytest.mark.parametrize(
        "tol", [float("nan"), -1e-12, -1.0, "0.1", None, True, False]
    )
    def test_estimate_complete_rejects_nan_or_negative_tol(self, example1_records, tol):
        with pytest.raises(InvalidInputError, match="tol must be a nonnegative"):
            estimate_complete(example1_records, tol=tol)


class TestJsonDecodeFailures:
    """Every way JSON decoding fails is a RecordParseError naming the file."""

    @pytest.mark.parametrize("reader", [read_margins_json, read_count_json])
    def test_integer_over_the_digit_limit(self, tmp_path, reader):
        path = tmp_path / "big.json"
        path.write_text('{"p1": ' + "1" * 5000 + ', "p0": 0.1}')
        with pytest.raises(RecordParseError, match="big.json: invalid JSON"):
            reader(path)

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b'{"p1": 0.3, "p0": "\xff"}')
        with pytest.raises(RecordParseError, match="bytes.json: invalid JSON"):
            read_margins_json(path)

    def test_margin_beyond_float_range(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"p1": 1' + "0" * 400 + ', "p0": 0.1}')
        with pytest.raises(InvalidInputError, match="too large for a float"):
            read_margins_json(path)
