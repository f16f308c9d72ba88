"""Brute-force verification machinery for the bound formulas.

The sampling and enumeration here deliberately know nothing about the
closed-form bounds. A law over the full potential-outcome table is
represented explicitly, its case probability is computed by enumerating
all 64 cells, and the formulas elsewhere in the package are then
checked against those exact values from the outside. Keeping the two
routes separate is the whole point; do not "optimize" one by calling
the other.

Cell conventions
----------------
The mediator block is the joint law of (M(0), M(1)) as 4 cells indexed
``i = 2*M(0) + M(1)``. The response block is the joint law of
(Y*(0,0), Y*(0,1), Y*(1,0), Y*(1,1)) as 16 cells indexed by the bit
pattern ``j`` with Y*(0,0) in the highest bit and Y*(1,1) in the
lowest. The two blocks are independent by construction, which encodes
the identification assumptions the bounds rely on.

The layout is written down once, as two boolean mask tables: row x of
``_M_MASKS`` marks the mediator cells with M(x) = 1, row 2x + m of
``_Y_MASKS`` the response cells with Y*(x, m) = 1. The margins, the
independent law and the 4 x 16 indicator tables of the PC enumeration
are all read off them. :func:`true_pc` is the one-law case of the
batched enumeration :func:`soundness_report` runs.

Random laws are built one binary coordinate at a time, in the cell
order above, with each margin holding by construction (see
``_fit_block``): no iteration, no retry, and every law with the given
margins can be drawn. The draws come from Philox keyed via
``SeedSequence(seed, spawn_key=(0,))``, a confounded run's per-law M(0)
targets from key ``(1,)``, so the same (margins, n, seed) gives the
same laws on every run and platform and the first k laws do not depend
on n. :func:`simulate_trial` draws records from Philox too, keyed by
``(seed, x)`` for arm x, and reads each record's code off the masks.
"""

from __future__ import annotations

import os
import reprlib
from array import array

import numpy as np

from .core import (
    STRUCT_TOL,
    BoundInterval,
    InvalidInputError,
    PcUndefinedError,
    _build,
    _frozen,
    _read_object,
    _require_int,
    _unit,
)
from .estimate import Dataset
from .mediation import PartialMediationMargins, compare

__all__ = [
    "PotentialOutcomeLaw",
    "read_law_json",
    "SoundnessReport",
    "sample_laws",
    "true_pc",
    "simulate_trial",
    "soundness_report",
]

# The cell layout: M(x) is bit 1 - x of a mediator cell index and Y*(x, m)
# is bit 3 - (2x + m) of a response cell index.
_M_MASKS = (np.arange(4) >> np.array([[1], [0]]) & 1).astype(bool)
_Y_MASKS = (np.arange(16) >> np.arange(3, -1, -1)[:, None] & 1).astype(bool)
# Per mediator cell (row), the response cells with Y(x) = Y*(x, M(x)) = 1,
# row 2x + M(x) of _Y_MASKS. _CODES[x] holds the record code of each (row, cell).
_Y0, _Y1 = (_Y_MASKS[2 * x + _M_MASKS[x].astype(int)] for x in (0, 1))
_JOINT_IND, _Y1_IND = (_Y1 & ~_Y0) * 1.0, _Y1 * 1.0
_CODES = np.uint8([4 * x + 2 * _M_MASKS[x, :, None] + (_Y0, _Y1)[x] for x in (0, 1)])
_MAX_SIZE = np.iinfo(np.intp).max // 144  # see _require_size


def _clean_block(name: str, values, size: int) -> tuple[float, ...]:
    try:
        # array("d") converts each cell as float() does but reads no strings;
        # it would read bytes or a bytearray as raw doubles, so those go first.
        if isinstance(values, (str, bytes, bytearray)):
            raise TypeError
        cells = array("d", values).tolist()
    except OverflowError:
        raise InvalidInputError(
            f"{name} holds a number too large for a float") from None
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"{name} must be a sequence of {size} numbers, got {reprlib.repr(values)}"
        ) from None
    if len(cells) != size:
        raise InvalidInputError(f"{name} must have {size} cells, got {len(cells)}")
    for k, v in enumerate(cells):
        if not 0.0 <= v <= 1.0:
            try:
                cells[k] = _unit(v)
            except InvalidInputError:
                raise InvalidInputError(
                    f"{name}[{k}] = {v!r} is not a probability") from None
    total = sum(cells)
    if abs(total - 1.0) > STRUCT_TOL:
        raise InvalidInputError(f"{name} sums to {total!r}, not 1")
    return tuple(cells)


@_frozen()
class PotentialOutcomeLaw:
    """Full joint law of the potential-outcome table, as two blocks.

    ``m_block`` is the law of (M(0), M(1)) over 4 cells and ``y_block``
    the law of (Y*(0,0), Y*(0,1), Y*(1,0), Y*(1,1)) over 16 cells, in
    the index order documented at module level. Block independence is
    structural: the joint cell weight is always the product.
    """

    m_block: tuple[float, ...]
    y_block: tuple[float, ...]

    def __post_init__(self) -> None:
        type(self).m_block.__set__(self, _clean_block("m_block", self.m_block, 4))
        type(self).y_block.__set__(self, _clean_block("y_block", self.y_block, 16))

    def margins(self) -> PartialMediationMargins:
        """One-dimensional margins of the law, in the P(=1) convention."""
        # cumsum adds each margin's cells in index order; a matmul or .sum()
        # orders the additions differently and can move a margin by an ulp.
        m0, m1, y00, y01, y10, y11 = np.concatenate([
            np.cumsum(np.where(masks, block, 0.0), axis=1)[:, -1]
            for masks, block in ((_M_MASKS, self.m_block), (_Y_MASKS, self.y_block))
        ]).tolist()
        return PartialMediationMargins(y00, y01, y10, y11, m0, m1)

    @classmethod
    def independent(cls, m: PartialMediationMargins) -> "PotentialOutcomeLaw":
        """The law with all five coordinates mutually independent."""
        # np.prod multiplies a cell's factors in coordinate order.
        return cls(*(
            np.prod(np.where(masks, p[:, None], 1.0 - p[:, None]), axis=0).tolist()
            for masks, p in ((_M_MASKS, np.array([m.m0, m.m1])),
                             (_Y_MASKS, np.array([m.y00, m.y01, m.y10, m.y11])))
        ))


def read_law_json(path: str | os.PathLike) -> PotentialOutcomeLaw:
    """Parse a law JSON file, ``{"m_block": [4 cells], "y_block": [16 cells]}``.

    The file follows ``core``'s rule for every JSON input: exactly those two
    keys, none repeated, no cell a JSON ``true`` or ``false``, and the file
    named in every error; :class:`PotentialOutcomeLaw` checks everything else.
    """
    return _build(path, *_read_object(path, PotentialOutcomeLaw))


def _batch_true_pc(m_blocks: np.ndarray, y_blocks: np.ndarray) -> np.ndarray:
    """PC of each stacked law, P(Y(0)=0, Y(1)=1) / P(Y(1)=1), over 64 cells."""
    joint = ((m_blocks @ _JOINT_IND) * y_blocks).sum(axis=1)
    p_y1 = ((m_blocks @ _Y1_IND) * y_blocks).sum(axis=1)
    if np.any(p_y1 <= 0.0):
        raise PcUndefinedError("law gives P(Y(1)=1) = 0: the probability of "
                               "causation is undefined")
    return joint / p_y1


def true_pc(law: PotentialOutcomeLaw) -> float:
    """Exact PC under a fully specified law, by 64-cell enumeration.

    An individual's outcomes are composed as Y(x) = Y*(x, M(x)); PC is
    P(Y(0)=0, Y(1)=1) / P(Y(1)=1), summed over the cells of the law.
    """
    (pc,) = _batch_true_pc(np.array([law.m_block]), np.array([law.y_block]))
    return _unit(pc)


def _fit_block(u: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rows of block cells with the given margins, built one coordinate at a time.

    ``targets`` has one row of per-row margins per coordinate, the first
    for the highest bit of the cell index. Coordinate t splits cell c of
    the cells built so far by chance ``u[:, 2^t - 1 + c]`` of a 1, after
    one affine rescale of those chances, toward 0 or toward 1, makes
    their weighted mean the target.
    """
    cells = np.ones((u.shape[0], 1))
    for t in targets:
        q = u[:, cells.shape[1] - 1 : 2 * cells.shape[1] - 1]
        w = (cells * q).sum(axis=1)
        down = w > t
        # The denominator is 0 only when w = t = 1, which needs no rescale.
        den = np.where(down, w, 1.0 - w)
        r = np.divide(np.where(down, t, 1.0 - t), den, out=np.ones_like(w),
                      where=den > 0)
        q = np.where(down[:, None], q * r[:, None], 1.0 - (1.0 - q) * r[:, None])
        cells = np.stack([cells * (1.0 - q), cells * q], axis=2).reshape(len(u), -1)
    return cells


def _stream(seed: int, key: int) -> np.random.Generator:
    _require_int("seed", seed, 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


def _require_size(name: str, n) -> None:
    """Reject a size that is not a positive integer, or one so large that numpy
    cannot index its (n, 18) float64 draws."""
    _require_int(name, n, 1)
    if n > _MAX_SIZE:
        raise InvalidInputError(f"{name} = {n} is too large to draw")


def _sample_blocks(
    n: int, m: PartialMediationMargins, seed: int, m0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (m_block, y_block) pairs matching the margins ``m``.

    ``m0``, if given, replaces the M(0) margin with one target per row.
    Row k of an (n, 18) Beta(0.1, 0.1) draw from stream 0 gives law k's
    chances: 3 for the mediator block, then 15 for the response block.
    """
    targets = np.tile([[m.m0], [m.m1], [m.y00], [m.y01], [m.y10], [m.y11]], n)
    if m0 is not None:
        targets[0] = m0
    # Beta(0.1, 0.1) puts many laws near the vertices of the feasible set,
    # where the bounds are tight, and every interior law keeps a density.
    u = _stream(seed, 0).beta(0.1, 0.1, size=(n, 18))
    return _fit_block(u[:, :3], targets[:2]), _fit_block(u[:, 3:], targets[2:])


def sample_laws(
    m: PartialMediationMargins, n: int, seed: int = 0
) -> list[PotentialOutcomeLaw]:
    """Draw n random laws whose one-dimensional margins match ``m``.

    Each block is built coordinate by coordinate from random conditional
    chances rescaled to the margins, so every law with these margins can
    be drawn; the bounds must hold for all of them. Deterministic given
    (m, n, seed), and the first k laws are those of a call with n = k.
    Degenerate margins (all 0 or 1) give the unique point-mass law.
    """
    _require_size("n", n)
    m_cells, y_cells = _sample_blocks(n, m, seed)
    return [PotentialOutcomeLaw(m_block=mb, y_block=yb)
            for mb, yb in zip(m_cells.tolist(), y_cells.tolist())]


def simulate_trial(
    law: PotentialOutcomeLaw, n_per_arm: int, seed: int = 0
) -> Dataset:
    """Simulate a randomized trial of 2 * n_per_arm participants.

    Each participant in arm x gets a potential table drawn from the law and
    contributes the record (x, M(x), Y*(x, M(x))), its code read off the
    masks. Returns the records as a :class:`~pcbounds.estimate.Dataset` with
    a mediator column, arm 0 records first. Deterministic given (law,
    n_per_arm, seed): arm x draws from Philox keyed by ``(seed, x)``, its
    first n_per_arm uniforms pick the mediator cells and the next n_per_arm
    the response cells, each by inverting the block's cumulative sum.
    """
    _require_size("n_per_arm", n_per_arm)
    # Searching all but the last sum stays in the block if the sum rounds below 1.
    cdfs = (np.add.accumulate(law.m_block)[:-1], np.add.accumulate(law.y_block)[:-1])
    codes = np.empty((2, n_per_arm), np.uint8)
    for x, arm in enumerate(codes):
        gen = _stream(seed, x)
        mcells, ycells = (cdf.searchsorted(gen.random(n_per_arm), side="right")
                          .astype(np.uint8) for cdf in cdfs)
        mcells <<= 4  # the flat index 16 * mcells + ycells, built in place
        _CODES[x].take(np.bitwise_or(mcells, ycells, out=mcells), out=arm)
    return Dataset._from_codes(codes.ravel(), has_mediator=True)


@_frozen()
class SoundnessReport:
    """Outcome of checking sampled laws against the closed-form interval.

    The gaps report how close the sampled extremes came to the interval
    endpoints; they are observed slack, not a proof of sharpness.
    """

    interval: BoundInterval
    simple_interval: BoundInterval
    n_laws: int
    seed: int
    violations: int
    simple_violations: int
    worst_violation: float
    min_true_pc: float
    max_true_pc: float
    lower_gap: float
    upper_gap: float
    confounded: bool

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.simple_violations == 0


def soundness_report(
    m: PartialMediationMargins,
    n_laws: int = 1000,
    seed: int = 0,
    confounded: bool = False,
) -> SoundnessReport:
    """Sample laws at the given margins and test them against the bounds.

    With ``confounded`` the mediator block is sampled with an arm-
    dependent M(0) margin (a deliberate break of the no-confounding
    assumption behind the bounds) to demonstrate that the interval can
    then fail; such runs are diagnostic and their violations expected.
    A violation is a true PC outside an interval by more than ``STRUCT_TOL``.
    """
    _require_size("n_laws", n_laws)
    rep = compare(m)
    iv, simple_iv = rep.partial_interval, rep.simple_interval
    m0 = _stream(seed, 1).random(n_laws) if confounded else None
    m_cells, y_cells = _sample_blocks(n_laws, m, seed, m0)
    pcs = _batch_true_pc(m_cells, y_cells)
    # Entry 0 of each endpoint pair is the partial interval, entry 1 the simple.
    lower, upper = np.array([[iv.lower, simple_iv.lower], [iv.upper, simple_iv.upper]])
    outside = np.maximum(np.maximum(lower[:, None] - pcs, pcs - upper[:, None]), 0.0)
    violations, simple_violations = (outside > STRUCT_TOL).sum(axis=1).tolist()
    return SoundnessReport(
        interval=iv,
        simple_interval=simple_iv,
        n_laws=n_laws,
        seed=seed,
        violations=violations,
        simple_violations=simple_violations,
        worst_violation=float(outside[0].max()),
        min_true_pc=float(pcs.min()),
        max_true_pc=float(pcs.max()),
        lower_gap=float(pcs.min() - lower[0]),
        upper_gap=float(upper[0] - pcs.max()),
        confounded=confounded,
    )
