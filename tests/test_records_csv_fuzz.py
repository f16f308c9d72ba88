"""Differential fuzz test of the record CSV reader.

``reference_read`` is the row-by-row ``csv.reader`` parser the package
used before the vectorized reader, kept here verbatim apart from
returning columns instead of row objects. Every generated file must
give the same columns under both readers, or the same
``RecordParseError`` message.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcbounds import RecordParseError, read_records_csv, write_records_csv
from pcbounds.estimate import _PIECE_BYTES, Dataset, _canonical_columns


def reference_read(path):
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordParseError(f"{path}:1: file is empty") from None
        header = [h.strip() for h in header]
        if header == ["x", "m", "y"]:
            with_m = True
        elif header == ["x", "y"]:
            with_m = False
        else:
            raise RecordParseError(
                f"{path}:1: header must be 'x,m,y' or 'x,y', got {','.join(header)!r}"
            )
        width = 3 if with_m else 2
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise RecordParseError(
                    f"{path}:{lineno}: expected {width} fields, got {len(row)}"
                )
            values = []
            for col, token in zip(header, row):
                token = token.strip()
                if token not in ("0", "1"):
                    raise RecordParseError(
                        f"{path}:{lineno}: column {col!r} must be 0 or 1, "
                        f"got {token!r}"
                    )
                values.append(int(token))
            if with_m:
                records.append((values[0], values[1], values[2]))
            else:
                records.append((values[0], None, values[1]))
    if not records:
        raise RecordParseError(f"{path}:1: no data rows")
    x, m, y = (list(col) for col in zip(*records))
    return x, (m if with_m else None), y


def outcome(read, path):
    try:
        return read(path)
    except RecordParseError as e:
        return ("RecordParseError", str(e))


def columns(d):
    return d.x.tolist(), (None if d.m is None else d.m.tolist()), d.y.tolist()


ODD_TOKENS = [" 1", "0 ", "\t1", "1\t", ' "1"', '"0"', "2", "+1", "-0", "1.0", "", " "]
ODD_HEADERS = [" x , m ,y", "x,y\t", '"x",y', "x,m", "y,x", "x,m,y,", "X,Y"]
EOLS = ["\n", "\r\n", "\r"]
NOISE = b"01,\r\n \t\"2+x"


@st.composite
def record_files(draw):
    """A canonical record file, then each kind of edit with probability 1/8.

    Hypothesis favours small draws, so edits come more often than that;
    about a sixth of the files stay canonical. Both reader routes and
    the edge between them are exercised.
    """
    def edit():
        return draw(st.integers(0, 7)) == 0

    header = draw(st.sampled_from(["x,m,y", "x,y"]))
    width = header.count(",") + 1
    row = st.lists(st.sampled_from("01"), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    if edit():
        header = draw(st.sampled_from(ODD_HEADERS))
    if edit():
        k = draw(st.integers(0, len(rows) - 1))
        rows[k][draw(st.integers(0, width - 1))] = draw(st.sampled_from(ODD_TOKENS))
    if edit():
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = draw(st.lists(st.sampled_from("01"), max_size=width + 1))
    lines = [header] + [",".join(r) for r in rows]
    if edit():
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    eol = draw(st.sampled_from(EOLS[:2]))
    ends = [eol] * len(lines)
    if edit():  # lone CR or mixed line ends
        ends = draw(st.lists(st.sampled_from(EOLS), min_size=len(lines),
                             max_size=len(lines)))
    if edit():
        ends[-1] = ""  # no final newline
    text = "".join(line + end for line, end in zip(lines, ends))
    if edit():
        text += draw(st.sampled_from(["\n", "\r\n", "\n\n"]))  # trailing blanks
    data = bytearray(text.encode())
    if edit():
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from(NOISE))
    if edit():
        data[:0] = b"\xef\xbb\xbf"
    return bytes(data)


@settings(max_examples=500)
@given(data=record_files())
def test_reader_matches_reference(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "records.csv"
    path.write_bytes(data)
    want = outcome(reference_read, path)
    got = outcome(read_records_csv, path)
    if isinstance(got, Dataset):
        got = columns(got)
    assert got == want


def test_documented_cases(tmp_path):
    path = tmp_path / "r.csv"
    cases = [
        (b"x,m,y\r\n0,1,1\r\n", ([0], [1], [1])),
        (b"x,m,y\n0,1,1", ([0], [1], [1])),
        (b"x,m,y\r0,1,1\r1,0,0\r", ([0, 1], [1, 0], [1, 0])),
        (b" x , m ,y\n 0,\t1 ,\"1\"\n", ([0], [1], [1])),
        (b"x,y\n1,0\n\n", f"{path}:3: expected 2 fields, got 0"),
        (b"x,y\n1,0\n\n0,0\n", f"{path}:3: expected 2 fields, got 0"),
        (b"x,m,y\n1,0\n", f"{path}:2: expected 3 fields, got 2"),
        (b"x,y\n1,+1\n", f"{path}:2: column 'y' must be 0 or 1, got '+1'"),
        (b"x,y\n2,1\n", f"{path}:2: column 'x' must be 0 or 1, got '2'"),
        (b"\xef\xbb\xbfx,y\n1,1\n",
         f"{path}:1: header must be 'x,m,y' or 'x,y', got {chr(0xFEFF) + 'x,y'!r}"),
        (b"", f"{path}:1: file is empty"),
        (b"x,y\r\n", f"{path}:1: no data rows"),
    ]
    for data, want in cases:
        path.write_bytes(data)
        got = outcome(read_records_csv, path)
        if isinstance(got, Dataset):
            got = columns(got)
        else:
            got = got[1]
        assert got == want, data
        assert outcome(reference_read, path) == (
            want if isinstance(want, tuple) else ("RecordParseError", want)
        )


def test_written_files_take_the_vectorized_path(tmp_path):
    path = tmp_path / "r.csv"
    for m in ([0, 1, 1], None):
        write_records_csv(Dataset(x=[0, 1, 1], m=m, y=[1, 1, 0]), path)
        data = path.read_bytes()
        for variant in (data, data.replace(b"\r\n", b"\n")):
            cols = _canonical_columns(variant)
            assert cols is not None
            assert cols.shape == (2 if m is None else 3, 3)
            assert (cols[0] & 1).tolist() == [0, 1, 1]
            assert (cols[-1] & 1).tolist() == [1, 1, 0]
        assert _canonical_columns(data.replace(b"\r\n", b"\n", 1)) is None
        assert _canonical_columns(data[:-2]) is None


@pytest.mark.parametrize("header, eol", [("x,m,y", b"\r\n"), ("x,y", b"\n")])
def test_one_bad_byte_leaves_the_vectorized_path(tmp_path, header, eol):
    """A file of several comparison pieces, with one bad token at the first
    row, the last row, or either side of a piece boundary."""
    width = header.count(",") + 1
    row_len = 2 * width - 1 + len(eol)
    piece_rows = _PIECE_BYTES // row_len
    n = 4 * piece_rows + piece_rows // 2
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, (n, width))
    data = header.encode() + eol + b"".join(
        b",".join(b"%d" % v for v in r) + eol for r in rows
    )
    start = len(header) + len(eol)
    assert (_canonical_columns(data) & 1).T.tolist() == rows.tolist()
    bad_rows = [0, n - 1]
    for k in range(1, n // piece_rows + 1):
        bad_rows += [k * piece_rows - 1, k * piece_rows]
    path = tmp_path / "r.csv"
    for r in bad_rows:
        # the last token before a boundary or the end, else the first after
        col = width - 1 if r == n - 1 or r % piece_rows == piece_rows - 1 else 0
        bad = bytearray(data)
        bad[start + r * row_len + 2 * col] = ord("2")
        bad = bytes(bad)
        assert _canonical_columns(bad) is None, r
        path.write_bytes(bad)
        name = header.split(",")[col]
        want = f"{path}:{r + 2}: column {name!r} must be 0 or 1, got '2'"
        assert outcome(read_records_csv, path) == ("RecordParseError", want)
