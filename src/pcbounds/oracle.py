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
independent law, the point masses, IPF and the 4 x 16 indicator tables
of the PC enumeration are all read off them. :func:`true_pc` is the
one-law case of the batched enumeration :func:`soundness_report` runs.

Random laws are drawn with a counter-based generator (Philox keyed via
``SeedSequence(seed, spawn_key=(law_index, attempt))``), so the same
seed reproduces the same laws across runs, platforms, and parallel
fan-out. :func:`simulate_trial` draws trial records from a law the same
way: arm x uses Philox keyed by ``(seed, x)``, its first n uniforms pick
the mediator cells and the next n the response cells. It fills one uint8
cell code per record and returns a :class:`~pcbounds.estimate.Dataset`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .core import (
    CLAMP_TOL,
    STRUCT_TOL,
    BoundInterval,
    InvalidInputError,
    LawGenerationError,
    PcUndefinedError,
    Probability,
    _require_int,
    _require_tol,
)
from .estimate import Dataset, _pack
from .mediation import (
    CompleteMediationMargins,
    PartialMediationMargins,
    derive_simple_from_partial,
    partial_bounds,
)
from .simple import SimpleMargins, simple_bounds

__all__ = [
    "PotentialOutcomeLaw",
    "SoundnessReport",
    "frechet",
    "coupling_sweep_simple",
    "complete_coupling_sweep",
    "sample_laws",
    "true_pc",
    "simulate_trial",
    "soundness_report",
]

IPF_TOL = 1e-12
IPF_MAX_ROUNDS = 10000
IPF_MAX_RETRIES = 100

# The cell layout: M(x) is bit 1 - x of a mediator cell index and Y*(x, m)
# is bit 3 - (2x + m) of a response cell index.
_M_MASKS = (np.arange(4) >> np.array([[1], [0]]) & 1).astype(bool)
_Y_MASKS = (np.arange(16) >> np.arange(3, -1, -1)[:, None] & 1).astype(bool)
# Per mediator cell (row), the response cells with Y(x) = Y*(x, M(x)) = 1,
# row 2x + M(x) of _Y_MASKS.
_Y0, _Y1 = (_Y_MASKS[2 * x + _M_MASKS[x].astype(int)] for x in (0, 1))
_JOINT_IND, _Y1_IND = (_Y1 & ~_Y0) * 1.0, _Y1 * 1.0


def frechet(p_a: float, p_b: float) -> BoundInterval:
    """Frechet bounds on P(A and B) from the two event probabilities."""
    pa = float(Probability(p_a))
    pb = float(Probability(p_b))
    return BoundInterval(
        Probability(max(pa + pb - 1.0, 0.0)), Probability(min(pa, pb))
    )


def coupling_sweep_simple(m: SimpleMargins, steps: int = 1000) -> BoundInterval:
    """Extremes of PC over all couplings of (Y(0), Y(1)) with the given margins.

    Sweeps the intersection cell q = P(Y(0)=0, Y(1)=1) over its Frechet
    interval (endpoints included, so the result matches the closed form
    exactly up to float noise) and returns [min, max] of q / p1.
    """
    _require_int("steps", steps, 2, "an integer >= 2")
    p1 = float(m.p1)
    if p1 == 0.0:
        raise PcUndefinedError(
            "P(Y=1 | X<-1) = 0: the probability of causation is undefined"
        )
    cap = frechet(1.0 - float(m.p0), p1)
    qs = np.linspace(float(cap.lower), float(cap.upper), steps)
    # q = p1 up to rounding makes the ratio overshoot 1 by an ulp when
    # p1 is tiny; the ratio is a probability, so clip, don't reject.
    pcs = np.clip(qs / p1, 0.0, 1.0)
    return BoundInterval(Probability(float(pcs.min())), Probability(float(pcs.max())))


def complete_coupling_sweep(m: CompleteMediationMargins, steps: int = 201) -> float:
    """Max of P(Y(0)=0, Y(1)=1) over independent mediator/response couplings.

    Under complete mediation the joint event needs a discordant mediator
    pair and a matching discordant response pair, so the probability is
    q01 r01 + q10 r10 with q from the (M(0), M(1)) coupling and r from
    the (Y*(0), Y*(1)) coupling. Each coupling has one free cell, swept
    over its Frechet range here (nested sweeps, endpoints included).
    """
    _require_int("steps", steps, 2, "an integer >= 2")
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    t = np.linspace(max(a + b - 1.0, 0.0), min(a, b), steps)  # q01
    s = np.linspace(max(c + d - 1.0, 0.0), min(c, d), steps)  # r01
    q01 = t[:, None]
    q10 = 1.0 - a - b + q01
    r01 = s[None, :]
    r10 = 1.0 - c - d + r01
    return float((q01 * r01 + q10 * r10).max())


def _clean_block(name: str, values, size: int) -> tuple[float, ...]:
    try:
        # array("d") converts each cell as float() does but reads no strings;
        # it would read bytes or a bytearray as raw doubles, so those go first.
        if isinstance(values, (str, bytes, bytearray)):
            raise TypeError
        cells = array("d", values).tolist()
    except OverflowError:
        raise InvalidInputError(
            f"{name} holds a number too large for a float"
        ) from None
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"{name} must be a sequence of {size} numbers, got {values!r}"
        ) from None
    if len(cells) != size:
        raise InvalidInputError(
            f"{name} must have {size} cells, got {len(cells)}"
        )
    for k, v in enumerate(cells):
        if not 0.0 <= v <= 1.0:
            if not -CLAMP_TOL <= v <= 1.0 + CLAMP_TOL:
                raise InvalidInputError(f"{name}[{k}] = {v!r} is not a probability")
            cells[k] = 0.0 if v < 0.0 else 1.0
    total = sum(cells)
    if abs(total - 1.0) > STRUCT_TOL:
        raise InvalidInputError(f"{name} sums to {total!r}, not 1")
    return tuple(cells)


@dataclass(frozen=True, slots=True)
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
        object.__setattr__(self, "m_block", _clean_block("m_block", self.m_block, 4))
        object.__setattr__(self, "y_block", _clean_block("y_block", self.y_block, 16))

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

    @classmethod
    def point_mass(
        cls, m0: int, m1: int, y00: int, y01: int, y10: int, y11: int
    ) -> "PotentialOutcomeLaw":
        """The deterministic law putting all mass on one 64-cell."""
        for name, v in (("m0", m0), ("m1", m1), ("y00", y00), ("y01", y01),
                        ("y10", y10), ("y11", y11)):
            if v not in (0, 1):
                raise InvalidInputError(f"{name} must be 0 or 1, got {v!r}")
        return cls(np.all(_M_MASKS.T == (m0, m1), axis=1) * 1.0,
                   np.all(_Y_MASKS.T == (y00, y01, y10, y11), axis=1) * 1.0)


def _batch_true_pc(
    m_blocks: np.ndarray,
    y_blocks: np.ndarray,
    undefined: str = "a sampled law gives P(Y(1)=1) = 0",
) -> np.ndarray:
    """PC of each stacked law, P(Y(0)=0, Y(1)=1) / P(Y(1)=1), over 64 cells."""
    joint = ((m_blocks @ _JOINT_IND) * y_blocks).sum(axis=1)
    p_y1 = ((m_blocks @ _Y1_IND) * y_blocks).sum(axis=1)
    if np.any(p_y1 <= 0.0):
        raise PcUndefinedError(undefined)
    return joint / p_y1


def true_pc(law: PotentialOutcomeLaw) -> Probability:
    """Exact PC under a fully specified law, by 64-cell enumeration.

    An individual's outcomes are composed as Y(x) = Y*(x, M(x)); PC is
    P(Y(0)=0, Y(1)=1) / P(Y(1)=1), summed over the cells of the law.
    """
    (pc,) = _batch_true_pc(
        np.array([law.m_block]), np.array([law.y_block]),
        "law gives P(Y(1)=1) = 0: the probability of causation is undefined",
    )
    return Probability(pc)


def _ipf(cells: np.ndarray, masks: np.ndarray, targets) -> np.ndarray:
    """Iterative proportional fitting of rows of ``cells`` to 1-dim margins.

    ``targets`` holds one row of per-row margins per mask. Rows are
    rescaled in place; returns a boolean array marking rows whose margins
    all converged to within ``IPF_TOL``.
    """
    err = np.full(cells.shape[0], np.inf)
    for _ in range(IPF_MAX_ROUNDS):
        for mask, t in zip(masks, targets):
            s1 = cells[:, mask].sum(axis=1)
            s0 = cells[:, ~mask].sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                f1 = np.where(s1 > 0.0, t / s1, 0.0)
                f0 = np.where(s0 > 0.0, (1.0 - t) / s0, 0.0)
            cells[:, mask] *= f1[:, None]
            cells[:, ~mask] *= f0[:, None]
        err = np.zeros(cells.shape[0])
        for mask, t in zip(masks, targets):
            err = np.maximum(err, np.abs(cells[:, mask].sum(axis=1) - t))
        if np.all(err < IPF_TOL):
            break
    return err < IPF_TOL


def _law_generator(seed: int, index: int, attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, attempt))
    return np.random.Generator(np.random.Philox(ss))


def _sample_blocks(
    n: int, m: PartialMediationMargins, seed: int, m0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (m_block, y_block) pairs matching the margins ``m``.

    ``m0``, if given, replaces the M(0) margin with one target per row.
    Starts each block from a symmetric random simplex draw and fits it
    to the margins with IPF; rows that fail to converge are resampled
    with a fresh stream, up to IPF_MAX_RETRIES times.
    """
    targets = np.tile([[m.m0], [m.m1], [m.y00], [m.y01], [m.y10], [m.y11]], n)
    if m0 is not None:
        targets[0] = m0
    m_cells = np.empty((n, 4))
    y_cells = np.empty((n, 16))
    pending = np.arange(n)
    for attempt in range(IPF_MAX_RETRIES + 1):
        if pending.size == 0:
            break
        for row in pending:
            gen = _law_generator(seed, int(row), attempt)
            draw = gen.standard_exponential(20)
            m_cells[row] = draw[:4] / draw[:4].sum()
            y_cells[row] = draw[4:] / draw[4:].sum()
        sub_m = m_cells[pending]
        sub_y = y_cells[pending]
        ok_m = _ipf(sub_m, _M_MASKS, targets[:2, pending])
        ok_y = _ipf(sub_y, _Y_MASKS, targets[2:, pending])
        m_cells[pending] = sub_m
        y_cells[pending] = sub_y
        pending = pending[~(ok_m & ok_y)]
    if pending.size:
        raise LawGenerationError(
            f"{pending.size} of {n} laws failed to reach the requested margins "
            f"after {IPF_MAX_RETRIES} resampling attempts"
        )
    return m_cells, y_cells


def sample_laws(
    m: PartialMediationMargins, n: int, seed: int = 0
) -> list[PotentialOutcomeLaw]:
    """Draw n random laws whose one-dimensional margins match ``m``.

    Dependence within each block is whatever the simplex draw plus IPF
    produced, which is the point: the bounds must hold for all of them.
    Deterministic given (m, n, seed). Degenerate margins (all 0 or 1)
    collapse to the unique point-mass law.
    """
    _require_int("n", n, 1, "a positive integer")
    _require_int("seed", seed, 0, "a nonnegative integer")
    m_cells, y_cells = _sample_blocks(n, m, seed)
    return [
        PotentialOutcomeLaw(m_block=tuple(m_cells[k]), y_block=tuple(y_cells[k]))
        for k in range(n)
    ]


def simulate_trial(
    law: PotentialOutcomeLaw, n_per_arm: int, seed: int = 0
) -> Dataset:
    """Simulate a randomized trial of 2 * n_per_arm participants.

    Each participant in arm x gets a potential table drawn from the law
    and contributes the record (x, M(x), Y*(x, M(x))). Returns the
    records as a :class:`~pcbounds.estimate.Dataset` with a mediator
    column, arm 0 records first. Deterministic given (law, n_per_arm,
    seed): arm x draws from Philox keyed by ``(seed, x)``, its first
    n_per_arm uniforms pick the mediator cells and the next n_per_arm
    the response cells, each by inverting the block's cumulative sum.
    """
    _require_int("n_per_arm", n_per_arm, 1, "a positive integer")
    _require_int("seed", seed, 0, "a nonnegative integer")
    cdfs = (np.cumsum(law.m_block), np.cumsum(law.y_block))
    codes = np.empty((2, n_per_arm), np.uint8)
    for x, arm in enumerate(codes):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(x,)))
        )
        mcells, ycells = (np.minimum(
            np.searchsorted(cdf, gen.random(n_per_arm), side="right"), cdf.size - 1
        ).astype(np.uint8) for cdf in cdfs)
        mvals = mcells >> (1 - x) & 1
        yvals = ycells >> (3 - 2 * x - mvals)
        arm[:] = _pack((np.full(n_per_arm, x, np.uint8), mvals, yvals))
    return Dataset._from_codes(codes.ravel(), has_mediator=True)


@dataclass(frozen=True, slots=True)
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
    tol: float = STRUCT_TOL,
) -> SoundnessReport:
    """Sample laws at the given margins and test them against the bounds.

    With ``confounded`` the mediator block is sampled with an arm-
    dependent M(0) margin (a deliberate break of the no-confounding
    assumption behind the bounds) to demonstrate that the interval can
    then fail; such runs are diagnostic and their violations expected.
    A NaN or negative ``tol`` is invalid input.
    """
    _require_int("n_laws", n_laws, 1, "a positive integer")
    _require_int("seed", seed, 0, "a nonnegative integer")
    _require_tol("tol", tol)
    iv = partial_bounds(m)
    simple_iv = simple_bounds(derive_simple_from_partial(m))
    m0 = None
    if confounded:
        m0 = _law_generator(seed, n_laws, IPF_MAX_RETRIES + 1).random(n_laws)
    m_cells, y_cells = _sample_blocks(n_laws, m, seed, m0)
    pcs = _batch_true_pc(m_cells, y_cells)
    # Entry 0 of each endpoint pair is the partial interval, entry 1 the simple.
    lower, upper = np.array([[iv.lower, simple_iv.lower], [iv.upper, simple_iv.upper]])
    outside = np.maximum(np.maximum(lower[:, None] - pcs, pcs - upper[:, None]), 0.0)
    violations, simple_violations = np.count_nonzero(outside > tol, axis=1).tolist()
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
