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

Random laws are drawn with a counter-based generator (Philox keyed via
``SeedSequence(seed, spawn_key=(law_index, attempt))``), so the same
seed reproduces the same laws across runs, platforms, and parallel
fan-out. :func:`simulate_trial` draws trial records from a law the same
way: arm x uses Philox keyed by ``(seed, x)``, its first n uniforms pick
the mediator cells and the next n the response cells. It fills one uint8
cell code per record and returns a :class:`~pcbounds.estimate.Dataset`.
"""

from __future__ import annotations

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
    "Coupling2",
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


def frechet(p_a: float, p_b: float) -> BoundInterval:
    """Frechet bounds on P(A and B) from the two event probabilities."""
    pa = float(Probability(p_a))
    pb = float(Probability(p_b))
    return BoundInterval(
        Probability(max(pa + pb - 1.0, 0.0)), Probability(min(pa, pb))
    )


@dataclass(frozen=True, slots=True)
class Coupling2:
    """Joint law of two binary events (A, B) as four cell probabilities."""

    p11: Probability
    p10: Probability
    p01: Probability
    p00: Probability

    def __post_init__(self) -> None:
        for name in ("p11", "p10", "p01", "p00"):
            object.__setattr__(self, name, Probability(getattr(self, name)))
        total = (
            float(self.p11) + float(self.p10) + float(self.p01) + float(self.p00)
        )
        if abs(total - 1.0) > STRUCT_TOL:
            raise InvalidInputError(f"coupling cells sum to {total!r}, not 1")

    @property
    def margin_a(self) -> float:
        return float(self.p11) + float(self.p10)

    @property
    def margin_b(self) -> float:
        return float(self.p11) + float(self.p01)

    @property
    def intersection(self) -> float:
        """P(A and B), the cell the Frechet bounds constrain."""
        return float(self.p11)

    @classmethod
    def from_overlap(cls, p_a: float, p_b: float, p11: float) -> "Coupling2":
        """Coupling with the given margins and intersection cell."""
        pa, pb, p11 = float(p_a), float(p_b), float(p11)
        return cls(
            p11=Probability(p11),
            p10=Probability(pa - p11),
            p01=Probability(pb - p11),
            p00=Probability(1.0 - pa - pb + p11),
        )

    @classmethod
    def comonotone(cls, p_a: float, p_b: float) -> "Coupling2":
        """The coupling attaining the Frechet upper bound."""
        return cls.from_overlap(p_a, p_b, min(float(p_a), float(p_b)))

    @classmethod
    def antitone(cls, p_a: float, p_b: float) -> "Coupling2":
        """The coupling attaining the Frechet lower bound."""
        return cls.from_overlap(
            p_a, p_b, max(float(p_a) + float(p_b) - 1.0, 0.0)
        )


def coupling_sweep_simple(m: SimpleMargins, steps: int = 1000) -> BoundInterval:
    """Extremes of PC over all couplings of (Y(0), Y(1)) with the given margins.

    Sweeps the intersection cell q = P(Y(0)=0, Y(1)=1) over its Frechet
    interval (endpoints included, so the result matches the closed form
    exactly up to float noise) and returns [min, max] of q / p1.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
        raise InvalidInputError(f"steps must be an integer >= 2, got {steps!r}")
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
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
        raise InvalidInputError(f"steps must be an integer >= 2, got {steps!r}")
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    t = np.linspace(max(a + b - 1.0, 0.0), min(a, b), steps)  # q01
    s = np.linspace(max(c + d - 1.0, 0.0), min(c, d), steps)  # r01
    q01 = t[:, None]
    q10 = 1.0 - a - b + q01
    r01 = s[None, :]
    r10 = 1.0 - c - d + r01
    return float((q01 * r01 + q10 * r10).max())


# Bit position of Y*(x, m) inside a response-block cell index.
def _y_value(cell: int, x: int, m: int) -> int:
    return (cell >> (3 - (2 * x + m))) & 1


def _m_values(cell: int) -> tuple[int, int]:
    return ((cell >> 1) & 1, cell & 1)


def _clean_block(name: str, values, size: int) -> tuple[float, ...]:
    try:
        cells = [float(v) for v in values]
    except OverflowError:
        raise InvalidInputError(
            f"{name} holds a number too large for a float"
        ) from None
    if len(cells) != size:
        raise InvalidInputError(
            f"{name} must have {size} cells, got {len(cells)}"
        )
    cleaned = []
    for k, v in enumerate(cells):
        if -CLAMP_TOL <= v < 0.0:
            v = 0.0
        if not 0.0 <= v <= 1.0:
            raise InvalidInputError(f"{name}[{k}] = {v!r} is not a probability")
        cleaned.append(v)
    total = sum(cleaned)
    if abs(total - 1.0) > STRUCT_TOL:
        raise InvalidInputError(f"{name} sums to {total!r}, not 1")
    return tuple(cleaned)


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
        m0 = sum(p for i, p in enumerate(self.m_block) if (i >> 1) & 1)
        m1 = sum(p for i, p in enumerate(self.m_block) if i & 1)
        y = []
        for x in (0, 1):
            for mv in (0, 1):
                y.append(
                    sum(
                        p
                        for j, p in enumerate(self.y_block)
                        if _y_value(j, x, mv)
                    )
                )
        return PartialMediationMargins(
            y00=Probability(y[0]),
            y01=Probability(y[1]),
            y10=Probability(y[2]),
            y11=Probability(y[3]),
            m0=Probability(m0),
            m1=Probability(m1),
        )

    @classmethod
    def independent(cls, m: PartialMediationMargins) -> "PotentialOutcomeLaw":
        """The law with all five coordinates mutually independent."""
        mprobs = (float(m.m0), float(m.m1))
        m_block = []
        for i in range(4):
            m0v, m1v = _m_values(i)
            cell = (mprobs[0] if m0v else 1.0 - mprobs[0]) * (
                mprobs[1] if m1v else 1.0 - mprobs[1]
            )
            m_block.append(cell)
        yprobs = (float(m.y00), float(m.y01), float(m.y10), float(m.y11))
        y_block = []
        for j in range(16):
            cell = 1.0
            for k, p in enumerate(yprobs):
                x, mv = divmod(k, 2)
                cell *= p if _y_value(j, x, mv) else 1.0 - p
            y_block.append(cell)
        return cls(m_block=tuple(m_block), y_block=tuple(y_block))

    @classmethod
    def point_mass(
        cls, m0: int, m1: int, y00: int, y01: int, y10: int, y11: int
    ) -> "PotentialOutcomeLaw":
        """The deterministic law putting all mass on one 64-cell."""
        for name, v in (("m0", m0), ("m1", m1), ("y00", y00), ("y01", y01),
                        ("y10", y10), ("y11", y11)):
            if v not in (0, 1):
                raise InvalidInputError(f"{name} must be 0 or 1, got {v!r}")
        m_block = [0.0] * 4
        m_block[2 * m0 + m1] = 1.0
        y_block = [0.0] * 16
        y_block[8 * y00 + 4 * y01 + 2 * y10 + y11] = 1.0
        return cls(m_block=tuple(m_block), y_block=tuple(y_block))


def true_pc(law: PotentialOutcomeLaw) -> Probability:
    """Exact PC under a fully specified law, by 64-cell enumeration.

    An individual's outcomes are composed as Y(x) = Y*(x, M(x)); the
    function accumulates P(Y(0)=0, Y(1)=1) and P(Y(1)=1) cell by cell
    and returns their ratio.
    """
    p_joint = 0.0
    p_y1 = 0.0
    for i, mw in enumerate(law.m_block):
        if mw == 0.0:
            continue
        m0v, m1v = _m_values(i)
        for j, yw in enumerate(law.y_block):
            w = mw * yw
            if w == 0.0:
                continue
            y1 = _y_value(j, 1, m1v)
            if y1 == 1:
                p_y1 += w
                if _y_value(j, 0, m0v) == 0:
                    p_joint += w
    if p_y1 == 0.0:
        raise PcUndefinedError(
            "law gives P(Y(1)=1) = 0: the probability of causation is undefined"
        )
    return Probability(p_joint / p_y1)


def _indicator_matrices() -> tuple[np.ndarray, np.ndarray]:
    joint = np.zeros((4, 16))
    y1 = np.zeros((4, 16))
    for i in range(4):
        m0v, m1v = _m_values(i)
        for j in range(16):
            if _y_value(j, 1, m1v) == 1:
                y1[i, j] = 1.0
                if _y_value(j, 0, m0v) == 0:
                    joint[i, j] = 1.0
    return joint, y1


_JOINT_IND, _Y1_IND = _indicator_matrices()


def _batch_true_pc(m_blocks: np.ndarray, y_blocks: np.ndarray) -> np.ndarray:
    """Vectorized :func:`true_pc` over stacked block arrays."""
    joint = ((m_blocks @ _JOINT_IND) * y_blocks).sum(axis=1)
    p_y1 = ((m_blocks @ _Y1_IND) * y_blocks).sum(axis=1)
    if np.any(p_y1 <= 0.0):
        raise PcUndefinedError("a sampled law gives P(Y(1)=1) = 0")
    return joint / p_y1


# Margin masks: which cells of each block carry value 1 of each coordinate.
_M_MASKS = np.array(
    [[bool((i >> 1) & 1) for i in range(4)], [bool(i & 1) for i in range(4)]]
)
_Y_MASKS = np.array(
    [
        [bool(_y_value(j, x, mv)) for j in range(16)]
        for x in (0, 1)
        for mv in (0, 1)
    ]
)


def _ipf(cells: np.ndarray, masks: np.ndarray, targets) -> np.ndarray:
    """Iterative proportional fitting of rows of ``cells`` to 1-dim margins.

    ``targets`` holds one entry per mask, each a scalar or a per-row
    array. Rows are rescaled in place; returns a boolean array marking
    rows whose margins all converged to within ``IPF_TOL``.
    """
    n = cells.shape[0]
    t_arrs = [np.broadcast_to(np.asarray(t, dtype=float), (n,)) for t in targets]
    err = np.full(n, np.inf)
    for _ in range(IPF_MAX_ROUNDS):
        for mask, t in zip(masks, t_arrs):
            s1 = cells[:, mask].sum(axis=1)
            s0 = cells[:, ~mask].sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                f1 = np.where(s1 > 0.0, t / s1, 0.0)
                f0 = np.where(s0 > 0.0, (1.0 - t) / s0, 0.0)
            cells[:, mask] *= f1[:, None]
            cells[:, ~mask] *= f0[:, None]
        err = np.zeros(n)
        for mask, t in zip(masks, t_arrs):
            err = np.maximum(err, np.abs(cells[:, mask].sum(axis=1) - t))
        if np.all(err < IPF_TOL):
            break
    return err < IPF_TOL


def _law_generator(seed: int, index: int, attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index, attempt))
    return np.random.Generator(np.random.Philox(ss))


def _sample_blocks(
    n: int, m_targets, y_targets, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (m_block, y_block) pairs matching the given margins.

    Starts each block from a symmetric random simplex draw and fits it
    to the margins with IPF; rows that fail to converge are resampled
    with a fresh stream, up to IPF_MAX_RETRIES times.
    """
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
        ok_m = _ipf(sub_m, _M_MASKS, _subset_targets(m_targets, pending))
        ok_y = _ipf(sub_y, _Y_MASKS, _subset_targets(y_targets, pending))
        m_cells[pending] = sub_m
        y_cells[pending] = sub_y
        pending = pending[~(ok_m & ok_y)]
    if pending.size:
        raise LawGenerationError(
            f"{pending.size} of {n} laws failed to reach the requested margins "
            f"after {IPF_MAX_RETRIES} resampling attempts"
        )
    return m_cells, y_cells


def _subset_targets(targets, idx: np.ndarray):
    return [t[idx] if isinstance(t, np.ndarray) else t for t in targets]


def sample_laws(
    m: PartialMediationMargins, n: int, seed: int = 0
) -> list[PotentialOutcomeLaw]:
    """Draw n random laws whose one-dimensional margins match ``m``.

    Dependence within each block is whatever the simplex draw plus IPF
    produced, which is the point: the bounds must hold for all of them.
    Deterministic given (m, n, seed). Degenerate margins (all 0 or 1)
    collapse to the unique point-mass law.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInputError(f"n must be a positive integer, got {n!r}")
    m_cells, y_cells = _sample_blocks(
        n,
        (float(m.m0), float(m.m1)),
        (float(m.y00), float(m.y01), float(m.y10), float(m.y11)),
        seed,
    )
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
    if not isinstance(n_per_arm, int) or isinstance(n_per_arm, bool) or n_per_arm < 1:
        raise InvalidInputError(
            f"n_per_arm must be a positive integer, got {n_per_arm!r}"
        )
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
    if not isinstance(n_laws, int) or isinstance(n_laws, bool) or n_laws < 1:
        raise InvalidInputError(f"n_laws must be a positive integer, got {n_laws!r}")
    _require_tol("tol", tol)
    iv = partial_bounds(m)
    simple_iv = simple_bounds(derive_simple_from_partial(m))
    if confounded:
        conf_gen = _law_generator(seed, n_laws, IPF_MAX_RETRIES + 1)
        m0_target = conf_gen.random(n_laws)
    else:
        m0_target = float(m.m0)
    m_cells, y_cells = _sample_blocks(
        n_laws,
        (m0_target, float(m.m1)),
        (float(m.y00), float(m.y01), float(m.y10), float(m.y11)),
        seed,
    )
    pcs = _batch_true_pc(m_cells, y_cells)
    lower, upper = float(iv.lower), float(iv.upper)
    below = np.maximum(lower - pcs, 0.0)
    above = np.maximum(pcs - upper, 0.0)
    outside = np.maximum(below, above)
    violations = int(np.count_nonzero(outside > tol))
    s_below = np.maximum(float(simple_iv.lower) - pcs, 0.0)
    s_above = np.maximum(pcs - float(simple_iv.upper), 0.0)
    simple_violations = int(
        np.count_nonzero(np.maximum(s_below, s_above) > tol)
    )
    return SoundnessReport(
        interval=iv,
        simple_interval=simple_iv,
        n_laws=n_laws,
        seed=seed,
        violations=violations,
        simple_violations=simple_violations,
        worst_violation=float(outside.max()),
        min_true_pc=float(pcs.min()),
        max_true_pc=float(pcs.max()),
        lower_gap=float(pcs.min() - lower),
        upper_gap=float(upper - pcs.max()),
        confounded=confounded,
    )
