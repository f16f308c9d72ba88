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


@pytest.mark.parametrize("header", ["x,m,y", "x,y"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_both_routes_decode_every_row_kind_alike(tmp_path, header, eol):
    """Every row kind, read from the canonical file and from the same file with
    one space added (which sends it through ``csv.reader``), gives the codes
    x << 2 | m << 1 | y and the cell counts of ``Dataset`` built from its columns."""
    width = header.count(",") + 1
    rows = [[c >> s & 1 for s in reversed(range(width))] for c in range(2**width)]
    x, *m, y = (list(col) for col in zip(*rows))
    want = Dataset(x, m[0] if m else None, y)
    codes = [4 * a + 2 * b + c for a, b, c in zip(x, m[0] if m else [0] * len(x), y)]
    assert want.codes.tolist() == codes
    text = header + eol + "".join(",".join(map(str, r)) + eol for r in rows)
    path = tmp_path / "r.csv"
    for data, canonical in ((text, True), (text.replace(eol, " " + eol, 1), False)):
        data = data.encode()
        assert (_canonical_columns(data) is not None) == canonical
        path.write_bytes(data)
        got = read_records_csv(path)
        assert got.codes.tolist() == codes
        assert got._cells == want._cells
        assert got.has_mediator == want.has_mediator


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


def every_row_kind(header, eol):
    """A record file of header, eol, then each row kind once, in code order."""
    width = header.count(",") + 1
    rows = [[c >> s & 1 for s in reversed(range(width))] for c in range(2**width)]
    return (header + eol + "".join(",".join(map(str, r)) + eol for r in rows)).encode()


def reference_outcome(path, line):
    """``reference_read``'s outcome, or, for bytes it cannot decode, the message
    ``read_records_csv`` gives them on ``line`` (as ``csv.reader`` counts lines)."""
    try:
        return outcome(reference_read, path)
    except UnicodeDecodeError as e:
        message = f"{path}:{line}: not {e.encoding} text ({e.reason})"
        return ("RecordParseError", message)


@pytest.mark.parametrize("header", ["x,m,y", "x,y"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_every_byte_value_at_every_row_position(tmp_path, header, eol):
    """Each byte after the header of a file holding every row kind, set to each of
    the 256 values: the canonical check accepts the file exactly when the byte is
    unchanged or a token set to 0 or 1, and the reader agrees with ``reference_read``
    on every other file."""
    data = every_row_kind(header, eol)
    width = header.count(",") + 1
    start, row_len = len(header) + len(eol), 2 * width - 1 + len(eol)
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    for pos in range(start, len(data)):
        col = (pos - start) % row_len
        token = col < 2 * width - 1 and col % 2 == 0
        for value in range(256):
            bad = data[:pos] + bytes([value]) + data[pos + 1 :]
            cols = _canonical_columns(bad)
            if value == data[pos] or token and value in b"01":
                assert cols is not None, (pos, value)
                rows = bad[start:].split(eol.encode())[:-1]
                assert (cols & 1).T.tolist() == [
                    [int(v) for v in r.split(b",")] for r in rows]
                continue
            assert cols is None, (pos, value)
            with path.open("r+b") as fh:  # in place: every variant has one length
                fh.write(bad)
            got = outcome(read_records_csv, path)
            if isinstance(got, Dataset):
                got = columns(got)
            # LF, CR and CRLF each end a line, as in csv.reader
            line = len(bad[: pos + 1].splitlines())
            assert got == reference_outcome(path, line), (pos, value)


@pytest.mark.parametrize("header", ["x,m,y", "x,y"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_a_bad_separator_at_a_piece_boundary(tmp_path, header, eol):
    """A file longer than one comparison piece, with a comma, the CR or the LF of
    the last row before the boundary or the first after it off by bit 0."""
    width = header.count(",") + 1
    eol = eol.encode()
    row_len = 2 * width - 1 + len(eol)
    piece_rows = _PIECE_BYTES // row_len
    n = piece_rows + piece_rows // 2
    rows = np.random.default_rng(7).integers(0, 2, (n, width))
    data = header.encode() + eol + b"".join(
        b",".join(b"%d" % v for v in r) + eol for r in rows
    )
    start = len(header) + len(eol)
    assert (_canonical_columns(data) & 1).T.tolist() == rows.tolist()
    path = tmp_path / "r.csv"
    for r in (piece_rows - 1, piece_rows):
        # every comma, then the CR if there is one and the LF
        for col in (c for c in range(row_len) if c % 2 or c >= 2 * width - 1):
            bad = bytearray(data)
            bad[start + r * row_len + col] ^= 1
            bad = bytes(bad)
            assert _canonical_columns(bad) is None, (r, col)
            path.write_bytes(bad)
            got = outcome(read_records_csv, path)
            if isinstance(got, Dataset):
                got = columns(got)
            assert got == outcome(reference_read, path), (r, col)
