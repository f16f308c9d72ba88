"""Margin estimation from randomized-trial records, plus file ingestion.

Estimators are plain stratum frequencies; under randomization of X they
are consistent for the quantities the bound formulas need. Reading the
mediator response surface from (x, m) strata additionally assumes the
observed mediator value identifies the response at that value (the
mediator itself is not randomized); that assumption is recorded in
report metadata by the CLI rather than adjudicated here.

Records are held in a :class:`Dataset`, one uint8 cell code per record.

File formats owned by this module:

* record CSV: header ``x,m,y`` or ``x,y``, every value 0 or 1
  (the accepted variants are listed in :func:`read_records_csv`),
* count JSON: integer fields ``exposed_event``, ``exposed_total``,
  ``unexposed_event``, ``unexposed_total``,
* margins JSON: either ``{p1, p0}``, ``{a, b, c, d}`` or
  ``{y00, y01, y10, y11, m0, m1}``, all probabilities of the value 1.

Each JSON file, the law file of :func:`~pcbounds.oracle.read_law_json`
too, is one object whose keys are the field names of the type it builds;
a JSON boolean is never a number, and every error names the file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import field, fields
from pathlib import Path

import numpy as np

from .core import (
    REPORT_TOL,
    CountTable,
    InsufficientDataError,
    InvalidInputError,
    Probability,
    RecordParseError,
    _frozen,
    _require_tol,
)
from .mediation import CompleteMediationMargins, PartialMediationMargins
from .simple import SimpleMargins

__all__ = [
    "Dataset",
    "DirectEffectWarning",
    "estimate_simple",
    "estimate_partial",
    "estimate_complete",
    "margins_from_count_table",
    "read_records_csv",
    "write_records_csv",
    "read_count_json",
    "read_margins_json",
]


class DirectEffectWarning(UserWarning):
    """Outcome rates differ across arms within a mediator stratum more
    than sampling noise explains, which contradicts complete mediation."""


def _column(name: str, values) -> np.ndarray:
    """A uint8 copy of a 1-d column whose values are all 0 or 1."""
    a = np.asarray(values)
    if a.ndim != 1 or a.dtype.kind not in "biuf" or not np.all((a == 0) | (a == 1)):
        raise InvalidInputError(f"column {name!r} must be a 1-d array of 0s and 1s")
    return a.astype(np.uint8)


# The bit of each CSV column in a cell code, and the CRLF line written per code.
_SHIFTS = {True: (2, 1, 0), False: (2, 0)}
_ROWS = {m: np.array([list(",".join(str(c >> s & 1) for s in shifts).encode() + b"\r\n")
                      for c in range(8)], np.uint8) for m, shifts in _SHIFTS.items()}


def _pack(columns) -> np.ndarray:
    """Cell codes from the x, (m,) y columns; bit 0 of an entry is its value."""
    codes = np.zeros(len(columns[0]), np.uint8)
    for col, shift in zip(columns, _SHIFTS[len(columns) == 3]):
        codes |= (col & 1) << shift
    return codes


@_frozen(init=False, eq=False)
class Dataset:
    """An immutable batch of trial records, stored as one code column.

    ``codes`` holds one read-only uint8 cell code per record,
    ``x << 2 | m << 1 | y`` with m = 0 for mediator-free records, in
    record order; it is the only stored form of the records. ``x``,
    ``m`` and ``y`` are properties: each access decodes a fresh
    read-only int8 column of 0s and 1s from ``codes``, and ``m`` is
    ``None`` for mediator-free records. The constructor checks the
    columns it is given and packs them into codes. The eight (x, m, y)
    cell counts are taken once here, so the count methods are lookups.
    """

    source: str
    has_mediator: bool
    codes: np.ndarray = field(repr=False)
    _cells: list = field(repr=False)

    def __init__(self, x, m, y, source: str = "") -> None:
        columns = [_column("x", x), _column("y", y)]
        if m is not None:
            columns.insert(1, _column("m", m))
        if any(col.size != columns[0].size for col in columns):
            raise InvalidInputError("columns x, m and y must have one length")
        if columns[0].size == 0:
            raise InsufficientDataError("dataset has no records")
        self._fill(_pack(columns), m is not None, source)

    @classmethod
    def _from_codes(cls, codes: np.ndarray, has_mediator: bool, source: str = ""):
        """A Dataset of nonempty uint8 codes that are valid by construction."""
        return object.__new__(cls)._fill(codes, has_mediator, source)

    def _fill(self, codes: np.ndarray, has_mediator: bool, source: str) -> "Dataset":
        codes.flags.writeable = False
        # bincount widens its input to intp, so count in pieces of 2^16 codes
        counts = sum(np.bincount(codes[i : i + (1 << 16)], minlength=8)
                     for i in range(0, codes.size, 1 << 16)).reshape(2, 2, 2).tolist()
        for name, value in (("source", source), ("has_mediator", has_mediator),
                            ("codes", codes), ("_cells", counts)):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        # Rebuild through _fill, so a copy's column is read-only too.
        return Dataset._from_codes, (self.codes, self.has_mediator, self.source)

    def _bit(self, shift: int) -> np.ndarray:
        col = (self.codes >> shift & 1).view(np.int8)
        col.flags.writeable = False
        return col

    x = property(lambda self: self._bit(2))
    m = property(lambda self: self._bit(1) if self.has_mediator else None)
    y = property(lambda self: self._bit(0))

    def __len__(self) -> int:
        return self.codes.size

    def _mediator_cells(self, x: int) -> list:
        if not self.has_mediator:
            raise InvalidInputError("records carry no mediator column")
        return self._cells[x]

    def arm_counts(self, x: int) -> tuple[int, int]:
        """(events, total) within arm x."""
        (n00, n01), (n10, n11) = self._cells[x]
        return n01 + n11, n00 + n01 + n10 + n11

    def stratum_counts(self, x: int, m: int) -> tuple[int, int]:
        """(events, total) within the (x, m) stratum."""
        n0, n1 = self._mediator_cells(x)[m]
        return n1, n0 + n1

    def mediator_counts(self, x: int) -> tuple[int, int]:
        """(m=1 count, total) within arm x."""
        (n00, n01), (n10, n11) = self._mediator_cells(x)
        return n10 + n11, n00 + n01 + n10 + n11


def _require_arm(d: Dataset, x: int) -> tuple[int, int]:
    """(events, total) within arm x, which must hold records."""
    events, n = d.arm_counts(x)
    if n == 0:
        raise InsufficientDataError(
            f"arm X={x} has no records; P(Y=1 | X<-{x}) is inestimable"
        )
    return events, n


def estimate_simple(d: Dataset) -> SimpleMargins:
    """Arm response frequencies (p1, p0)."""
    (e0, n0), (e1, n1) = _require_arm(d, 0), _require_arm(d, 1)
    return SimpleMargins(p1=e1 / n1, p0=e0 / n0)


def estimate_partial(d: Dataset) -> PartialMediationMargins:
    """Stratum frequencies for the six partial-mediation margins."""
    rates = []  # in field order: y00, y01, y10, y11
    for x in (0, 1):
        for m in (0, 1):
            events, n = d.stratum_counts(x, m)
            if n == 0:
                raise InsufficientDataError(
                    f"stratum (x={x}, m={m}) has no records; "
                    f"P(Y=1 | X<-{x}, M<-{m}) is inestimable"
                )
            rates.append(events / n)
    # Each arm holds records: the loop above raised for every empty stratum.
    m0, m1 = (ones / n for ones, n in map(d.mediator_counts, (0, 1)))
    return PartialMediationMargins(*rates, m0=m0, m1=m1)


def estimate_complete(d: Dataset, tol: float = REPORT_TOL) -> CompleteMediationMargins:
    """Complete-mediation margins (a, b, c, d) from records.

    a and b come from the mediator frequencies of their own arms; c and
    d pool the outcome over both arms within each mediator stratum,
    which is only valid if the outcome depends on exposure through the
    mediator alone. When a stratum's outcome rates differ across arms
    by more than ``tol`` plus three standard errors, a
    :class:`DirectEffectWarning` is emitted (a diagnostic, not an
    error). A NaN or negative ``tol`` is invalid input.
    """
    _require_tol("tol", tol)
    # The mediator counts go first: Dataset refuses records without a mediator.
    (m1_in_0, n0), (m1_in_1, n1) = d.mediator_counts(0), d.mediator_counts(1)
    for x in (0, 1):
        _require_arm(d, x)
    a = (n0 - m1_in_0) / n0
    b = m1_in_1 / n1

    pooled = {}
    for m in (0, 1):
        e1, c1 = d.stratum_counts(1, m)
        e0, c0 = d.stratum_counts(0, m)
        if c1 + c0 == 0:
            raise InsufficientDataError(
                f"mediator stratum M={m} has no records; "
                f"P(Y=1 | M<-{m}) is inestimable"
            )
        pooled[m] = (e1 + e0) / (c1 + c0)
        if c1 > 0 and c0 > 0:
            p1m = e1 / c1
            p0m = e0 / c0
            se = math.sqrt(p1m * (1 - p1m) / c1 + p0m * (1 - p0m) / c0)
            if abs(p1m - p0m) > tol + 3.0 * se:
                warnings.warn(
                    f"outcome rates differ across arms within M={m}: "
                    f"|{p1m:.4g} - {p0m:.4g}| exceeds {tol:.3g} + 3 SE "
                    f"({se:.3g}); pooled c/d may be biased",
                    DirectEffectWarning,
                    stacklevel=2,
                )
    return CompleteMediationMargins(a=a, b=b, c=1.0 - pooled[0], d=pooled[1])


def margins_from_count_table(t: CountTable) -> SimpleMargins:
    """Arm rates from a 2x2 count table."""
    return SimpleMargins(
        p1=t.exposed_event / t.exposed_total,
        p0=t.unexposed_event / t.unexposed_total,
    )


_ZERO_TO_ONE = bytes.maketrans(b"0", b"1")
_PIECE_BYTES = 1 << 16  # the canonical check compares pieces of about this size


def _canonical_columns(data: bytes) -> np.ndarray | None:
    """The (width, rows) token bytes of a canonical record CSV, else None.

    Canonical means the header ``x,m,y`` or ``x,y`` and at least one row
    of bare ``0``/``1`` tokens joined by commas, with every line, the
    last included, ending in the header's LF or CRLF. Every such file
    parses the same under :func:`_parsed_columns`; this is its one-pass
    shortcut. The result is a view of ``data``, ``ord("0")`` or
    ``ord("1")`` per token, so bit 0 of each entry is the value.
    """
    head, newline, _ = data[:8].partition(b"\n")  # a header line has at most 7 bytes
    width = {b"x,m,y": 3, b"x,y": 2}.get(head.removesuffix(b"\r"))
    if width is None or not newline:
        return None
    row = b",".join([b"1"] * width) + (b"\r\n" if head.endswith(b"\r") else b"\n")
    start = len(head) + 1
    if len(data) == start or (len(data) - start) % len(row):
        return None
    # Translating 0 to 1 maps '0' and '1', and only those, to '1'.
    piece = row * (_PIECE_BYTES // len(row))
    for i in range(start, len(data), len(piece)):
        chunk = data[i : i + len(piece)].translate(_ZERO_TO_ONE)
        if chunk != piece[: len(chunk)]:
            return None
    cells = np.frombuffer(data, np.uint8, offset=start).reshape(-1, len(row))
    return cells[:, 0 : 2 * width : 2].T


def _parsed_columns(path: Path, data: bytes) -> np.ndarray:
    """Row-by-row ``csv.reader`` parse of a record CSV into (width, rows)."""
    try:
        text = io.TextIOWrapper(io.BytesIO(data), newline="").read()
    except UnicodeDecodeError as e:
        # bytes.splitlines breaks lines where csv.reader does: LF, CR, CRLF
        lineno = len(data[: e.start + 1].splitlines())
        raise RecordParseError(
            f"{path}:{lineno}: not {e.encoding} text ({e.reason})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _reader_columns(path, reader)
    except csv.Error as e:
        raise RecordParseError(f"{path}:{reader.line_num}: {e}") from None


def _reader_columns(path: Path, reader) -> np.ndarray:
    try:
        header = next(reader)
    except StopIteration:
        raise RecordParseError(f"{path}:1: file is empty") from None
    header = [h.strip() for h in header]
    if header == ["x", "m", "y"]:
        width = 3
    elif header == ["x", "y"]:
        width = 2
    else:
        raise RecordParseError(
            f"{path}:1: header must be 'x,m,y' or 'x,y', got {','.join(header)!r}"
        )
    values = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise RecordParseError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        for col, token in zip(header, row):
            token = token.strip()
            if token not in ("0", "1"):
                raise RecordParseError(
                    f"{path}:{lineno}: column {col!r} must be 0 or 1, "
                    f"got {token!r}"
                )
            values.append(token == "1")
    if not values:
        raise RecordParseError(f"{path}:1: no data rows")
    return np.array(values, dtype=np.uint8).reshape(-1, width).T


def read_records_csv(path: str | Path) -> Dataset:
    """Parse a record CSV into a :class:`Dataset`.

    The header fixes the schema (``x,m,y`` or ``x,y``); every data cell
    must be the token 0 or 1. Errors name the offending line as
    ``path:line``. The file is read once. A file as
    :func:`write_records_csv` writes it (LF or CRLF line ends, a final
    newline, no spaces) is checked piece by piece and its cell codes are
    decoded from a view of its bytes; any other file goes through
    ``csv.reader`` row by row, which decides the result in every case
    below. Both routes give the same records.

    * Accepted: LF, CRLF, lone-CR or mixed line ends; no final newline;
      spaces or tabs around header names and tokens; quoted tokens such
      as ``"1"``.
    * ``path:N: expected W fields, got K``: a short or long row, and a
      blank line after the header, at the end too (``got 0``).
    * ``path:N: column 'c' must be 0 or 1, got '...'``: any other token,
      such as ``2``, ``+1`` or ``1.0``.
    * ``path:1: header must be 'x,m,y' or 'x,y', got '...'``: any other
      header, a UTF-8 byte-order mark included.
    * ``path:1: file is empty`` and ``path:1: no data rows``: no header
      or no rows after it.
    * ``path:N: not utf-8 text (...)``: bytes the locale's encoding
      cannot decode; ``path:N: field larger than field limit (...)``:
      a field ``csv.reader`` refuses.
    """
    path = Path(path)
    data = path.read_bytes()
    cols = _canonical_columns(data)
    if cols is None:
        cols = _parsed_columns(path, data)
    return Dataset._from_codes(_pack(cols), len(cols) == 3, source=str(path))


def write_records_csv(records: Dataset, path: str | Path) -> int:
    """Write a :class:`Dataset` in the CSV format :func:`read_records_csv` accepts.

    The file is the header, then one ``0``/``1`` row per record, every
    line ending in CRLF. The mediator column is present exactly when the
    records carry mediator values. Each row is looked up from the
    record's cell code in a table of eight lines and written from the
    array's buffer. Returns the number of rows written. Anything but a
    :class:`Dataset` is an :class:`InvalidInputError`.
    """
    if not isinstance(records, Dataset):
        raise InvalidInputError(
            f"records must be a Dataset, got {type(records).__name__}"
        )
    with Path(path).open("wb") as fh:
        fh.write(b"x,m,y\r\n" if records.has_mediator else b"x,y\r\n")
        for piece in np.split(records.codes, range(1 << 16, len(records), 1 << 16)):
            fh.write(np.take(_ROWS[records.has_mediator], piece, axis=0))
    return len(records)


def _unique_keys(pairs: list) -> dict:
    """A decoded JSON object; a key it repeats is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: Path):
    """Decode a JSON file; any decoding failure, a repeated key included, is a
    RecordParseError."""
    with path.open() as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as e:
            raise RecordParseError(
                f"{path}:{e.lineno}: invalid JSON: {e.msg}"
            ) from None
        except (ValueError, RecursionError) as e:
            raise RecordParseError(f"{path}: invalid JSON: {e}") from None


def _read_object(path: Path, *types) -> tuple[type, dict]:
    """The first of ``types`` whose field names are the file's keys, and the object;
    a JSON boolean as a value or list cell is an InvalidInputError, any other
    shape a RecordParseError that lists each type's keys. Both name the file."""
    data = _read_json(path)
    names = [[f.name for f in fields(cls)] for cls in types]
    for cls, keys in zip(types, names):
        if isinstance(data, dict) and data.keys() == set(keys):
            for key in keys:
                cells = data[key] if isinstance(data[key], list) else [data[key]]
                if any(isinstance(c, bool) for c in cells):
                    raise InvalidInputError(f"{path}: {key} holds a boolean, "
                                            "not a number")
            return cls, data
    expected = " | ".join("{" + ", ".join(keys) + "}" for keys in names)
    got = f", got {sorted(data)}" if isinstance(data, dict) else ""
    raise RecordParseError(f"{path}: expected a JSON object with exactly the keys "
                           f"{expected}{got}")


def _build(path: Path, cls, data: dict):
    """``cls(**data)``, with the file named in any InvalidInputError."""
    try:
        return cls(**data)
    except InvalidInputError as e:
        raise InvalidInputError(f"{path}: {e}") from None


def read_count_json(path: str | Path) -> CountTable:
    """Parse a count JSON file into a :class:`CountTable`."""
    path = Path(path)
    return _build(path, *_read_object(path, CountTable))


def read_margins_json(
    path: str | Path,
) -> SimpleMargins | CompleteMediationMargins | PartialMediationMargins:
    """Parse a margins JSON file; the key set selects the margins type."""
    path = Path(path)
    kinds = SimpleMargins, CompleteMediationMargins, PartialMediationMargins
    cls, data = _read_object(path, *kinds)
    values = {}
    for name, v in sorted(data.items()):
        if not isinstance(v, (int, float)):
            raise InvalidInputError(f"{path}: field {name!r} must be a number, "
                                    f"got {v!r}")
        try:
            values[name] = Probability(v)
        except InvalidInputError as e:
            raise InvalidInputError(f"{path}: field {name!r}: {e}") from None
    return cls(**values)
