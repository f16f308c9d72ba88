import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pcbounds.oracle as oracle_mod
from pcbounds import (
    BoundInterval,
    CompleteMediationMargins,
    InvalidInputError,
    PartialMediationMargins,
    PcUndefinedError,
    PotentialOutcomeLaw,
    Probability,
    SimpleMargins,
    complete_coupling_sweep,
    complete_numerator,
    coupling_sweep_simple,
    frechet,
    read_law_json,
    sample_laws,
    simple_bounds,
    simulate_trial,
    soundness_report,
    true_pc,
    write_records_csv,
)

probs = st.floats(min_value=0.0, max_value=1.0)


def reference_pc(law):
    """Slow dictionary-based PC for cross-checking the enumeration."""
    joint = 0.0
    y1_total = 0.0
    for i in range(4):
        mediators = {0: (i >> 1) & 1, 1: i & 1}
        for j in range(16):
            # Bit layout of j: (Y*(0,0), Y*(0,1), Y*(1,0), Y*(1,1)).
            table = {
                (0, 0): (j >> 3) & 1,
                (0, 1): (j >> 2) & 1,
                (1, 0): (j >> 1) & 1,
                (1, 1): j & 1,
            }
            w = law.m_block[i] * law.y_block[j]
            y_of = {x: table[(x, mediators[x])] for x in (0, 1)}
            if y_of[1] == 1:
                y1_total += w
                if y_of[0] == 0:
                    joint += w
    return joint / y1_total


def _y_value(cell, x, m):
    """Y*(x, m) of a response-block cell: bit 3 - (2x + m) of its index."""
    return (cell >> (3 - (2 * x + m))) & 1


def _in_order_sum(values):
    """Left-to-right float sum, as ``sum`` adds floats up to Python 3.11
    (3.12's ``sum`` compensates the rounding)."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_margins(law):
    """PotentialOutcomeLaw.margins() as the per-cell loops it was written
    as before the mask tables."""
    m0 = _in_order_sum(p for i, p in enumerate(law.m_block) if (i >> 1) & 1)
    m1 = _in_order_sum(p for i, p in enumerate(law.m_block) if i & 1)
    y = [
        _in_order_sum(p for j, p in enumerate(law.y_block) if _y_value(j, x, mv))
        for x in (0, 1)
        for mv in (0, 1)
    ]
    return PartialMediationMargins(*y, m0, m1)


def reference_independent(m):
    """PotentialOutcomeLaw.independent() as the per-cell loops it was
    written as before the mask tables, as (m_block, y_block)."""
    mprobs = (float(m.m0), float(m.m1))
    m_block = []
    for i in range(4):
        m0v, m1v = (i >> 1) & 1, i & 1
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
    return tuple(m_block), tuple(y_block)


def point_mass(m0, m1, y00, y01, y10, y11):
    """The law with all mass on one of the 64 cells, written from the
    documented cell order: mediator cell 2*M(0) + M(1), Y*(0,0) highest."""
    m_block, y_block = [0.0] * 4, [0.0] * 16
    m_block[2 * m0 + m1] = 1.0
    y_block[8 * y00 + 4 * y01 + 2 * y10 + y11] = 1.0
    return PotentialOutcomeLaw(tuple(m_block), tuple(y_block))


def grid_sweep_simple(m, steps):
    """``coupling_sweep_simple`` as the grid over q it was before it
    became exact, kept verbatim as the reference."""
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


def grid_sweep_complete(m, steps):
    """``complete_coupling_sweep`` as the steps x steps grid over (q01, r01)
    it was before it became exact, kept verbatim as the reference."""
    a, b, c, d = float(m.a), float(m.b), float(m.c), float(m.d)
    t = np.linspace(max(a + b - 1.0, 0.0), min(a, b), steps)  # q01
    s = np.linspace(max(c + d - 1.0, 0.0), min(c, d), steps)  # r01
    q01 = t[:, None]
    q10 = 1.0 - a - b + q01
    r01 = s[None, :]
    r10 = 1.0 - c - d + r01
    return float((q01 * r01 + q10 * r10).max())


# Margins for the sweeps: edge values, the 0.05 grid (ties) and uniform draws.
sweep_values = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]),
    st.integers(0, 20).map(lambda k: k / 20),
    probs,
)


# Cell weights with exact zeros; a block is normalised to sum to 1.
weights = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


def normalised(size):
    return st.lists(weights, min_size=size, max_size=size).filter(any).map(
        lambda w: tuple(np.array(w) / sum(w))
    )


drawn_laws = st.builds(PotentialOutcomeLaw, normalised(4), normalised(16))
margin_values = st.one_of(st.sampled_from([0.0, 1.0]), probs)
MARGIN_NAMES = ("y00", "y01", "y10", "y11", "m0", "m1")


def margin_values_of(m):
    return tuple(float(getattr(m, name)) for name in MARGIN_NAMES)


class TestFrechet:
    def test_disjoint_possible(self):
        iv = frechet(0.3, 0.4)
        assert float(iv.lower) == 0.0
        assert float(iv.upper) == 0.3

    def test_forced_overlap(self):
        iv = frechet(0.8, 0.9)
        assert float(iv.lower) == pytest.approx(0.7, rel=1e-12)
        assert float(iv.upper) == 0.8

    @given(probs, probs)
    def test_well_formed(self, a, b):
        iv = frechet(a, b)
        # A micro-crossing collapse can lift the upper endpoint above
        # min(a, b) by float noise, never by more than the clamp window.
        assert 0.0 <= float(iv.lower) <= float(iv.upper) <= min(a, b) + 1e-12


class TestSweepAgainstClosedForms:
    def test_reference_margins(self):
        m = SimpleMargins(0.3, 0.12)
        swept = coupling_sweep_simple(m)
        closed = simple_bounds(m)
        assert float(swept.lower) == pytest.approx(float(closed.lower), abs=1e-9)
        assert float(swept.upper) == pytest.approx(float(closed.upper), abs=1e-9)

    @given(p1=st.floats(min_value=1e-6, max_value=1.0), p0=probs)
    @settings(max_examples=200)
    def test_matches_simple_bounds(self, p1, p0):
        m = SimpleMargins(p1, p0)
        swept = coupling_sweep_simple(m)
        closed = simple_bounds(m)
        assert float(swept.lower) == pytest.approx(float(closed.lower), abs=1e-9)
        assert float(swept.upper) == pytest.approx(float(closed.upper), abs=1e-9)

    def test_undefined_when_no_exposed_events(self):
        with pytest.raises(PcUndefinedError):
            coupling_sweep_simple(SimpleMargins(0.0, 0.2))

    def test_complete_sweep_reference(self):
        m = CompleteMediationMargins(0.7, 0.6, 0.4, 0.9)
        assert complete_coupling_sweep(m) == pytest.approx(0.27, abs=1e-12)

    @given(a=probs, b=probs, c=probs, d=probs)
    @settings(max_examples=150)
    def test_complete_sweep_matches_numerator(self, a, b, c, d):
        m = CompleteMediationMargins(a, b, c, d)
        swept = complete_coupling_sweep(m)
        assert swept == pytest.approx(float(complete_numerator(m)), abs=1e-12)


class TestExactSweepsMatchTheGrids:
    @given(p1=sweep_values, p0=sweep_values)
    @settings(max_examples=300)
    def test_simple_sweep(self, p1, p0):
        assume(p1 > 0.0)
        m = SimpleMargins(p1, p0)
        exact = coupling_sweep_simple(m)
        for steps in (1000, 100):
            assert exact == grid_sweep_simple(m, steps)

    @given(a=sweep_values, b=sweep_values, c=sweep_values, d=sweep_values)
    @settings(max_examples=300)
    def test_complete_sweep(self, a, b, c, d):
        m = CompleteMediationMargins(a, b, c, d)
        exact = complete_coupling_sweep(m)
        for steps in (201, 51):
            assert exact == pytest.approx(grid_sweep_complete(m, steps), abs=1e-15)


class TestPotentialOutcomeLaw:
    def test_block_margins(self):
        law = PotentialOutcomeLaw(
            m_block=(0.1, 0.2, 0.3, 0.4),
            y_block=(1.0,) + (0.0,) * 15,
        )
        m = law.margins()
        assert float(m.m0) == pytest.approx(0.7)
        assert float(m.m1) == pytest.approx(0.6)
        # Cell 0 has every Y*(x, m) = 0.
        assert float(m.y00) == 0.0
        assert float(m.y11) == 0.0

    def test_independent_round_trips_margins(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        m = law.margins()
        for name in ("y00", "y01", "y10", "y11", "m0", "m1"):
            assert float(getattr(m, name)) == pytest.approx(
                float(getattr(example1_margins, name)), abs=1e-12
            )

    def test_point_mass_round_trips(self):
        law = point_mass(m0=1, m1=0, y00=0, y01=1, y10=1, y11=0)
        m = law.margins()
        assert (float(m.m0), float(m.m1)) == (1.0, 0.0)
        assert (float(m.y00), float(m.y01), float(m.y10), float(m.y11)) == (
            0.0, 1.0, 1.0, 0.0,
        )

    def test_rejects_wrong_block_size(self):
        with pytest.raises(InvalidInputError):
            PotentialOutcomeLaw(m_block=(0.5, 0.5, 0.0), y_block=(1.0,) + (0.0,) * 15)

    def test_rejects_negative_cell(self):
        with pytest.raises(InvalidInputError):
            PotentialOutcomeLaw(
                m_block=(0.5, 0.5, 1e-6, -1e-6), y_block=(1.0,) + (0.0,) * 15
            )

    def test_rejects_bad_total(self):
        with pytest.raises(InvalidInputError):
            PotentialOutcomeLaw(
                m_block=(0.5, 0.3, 0.0, 0.0), y_block=(1.0,) + (0.0,) * 15
            )

    def test_clamps_float_noise(self):
        law = PotentialOutcomeLaw(
            m_block=(0.5 + 1e-13, 0.5, -1e-13, 0.0),
            y_block=(1.0,) + (0.0,) * 15,
        )
        assert law.m_block[2] == 0.0

    def test_clamps_float_noise_above_one(self):
        law = PotentialOutcomeLaw(
            m_block=(1.0 + 1e-13, 0.0, 0.0, 0.0), y_block=(1.0,) + (0.0,) * 15
        )
        assert law.m_block[0] == 1.0

    @pytest.mark.parametrize("cell", [-1e-11, 1.0 + 1e-11])
    def test_rejects_cell_beyond_clamp_window(self, cell):
        with pytest.raises(InvalidInputError, match=r"m_block\[0\] = .* is not a"):
            PotentialOutcomeLaw(
                m_block=(cell, 1.0 - cell, 0.0, 0.0), y_block=(1.0,) + (0.0,) * 15
            )

    @pytest.mark.parametrize(
        "name, block",
        [
            pytest.param("m_block", ("a", 0, 0, 1), id="block0"),
            pytest.param("m_block", None, id="None"),
            pytest.param("m_block", 5, id="5"),
            pytest.param("m_block", (0.5, [0.5], 0, 0), id="block3"),
            pytest.param("m_block", "1000", id="str-block"),
            pytest.param("m_block", b"1000", id="bytes-block"),
            pytest.param("m_block", ("0.5", "0.5", 0, 0), id="str-cells"),
            pytest.param("m_block", (b"1", 0, 0, 0), id="bytes-cell"),
            pytest.param("y_block", "1" + "0" * 15, id="y_block-str-block"),
        ],
    )
    def test_rejects_non_numeric_block(self, name, block):
        blocks = {"m_block": (1.0, 0.0, 0.0, 0.0), "y_block": (1.0,) + (0.0,) * 15}
        size = len(blocks[name])
        with pytest.raises(
            InvalidInputError, match=f"{name} must be a sequence of {size} numbers"
        ):
            PotentialOutcomeLaw(**{**blocks, name: block})

    def test_message_abbreviates_a_long_block(self):
        with pytest.raises(InvalidInputError) as exc:
            PotentialOutcomeLaw(m_block="1" * 100_000, y_block=(1.0,) + (0.0,) * 15)
        assert str(exc.value) == ("m_block must be a sequence of 4 numbers, "
                                  "got '111111111111...1111111111111'")

    @given(drawn_laws)
    @settings(max_examples=300)
    def test_margins_match_loop_reference_exactly(self, law):
        assert margin_values_of(law.margins()) == margin_values_of(
            reference_margins(law)
        )

    @given(st.tuples(*[margin_values] * 6))
    @settings(max_examples=300)
    def test_independent_matches_loop_reference_exactly(self, values):
        m = PartialMediationMargins(*values)
        law = PotentialOutcomeLaw.independent(m)
        assert (law.m_block, law.y_block) == reference_independent(m)
        assert margin_values_of(law.margins()) == margin_values_of(
            reference_margins(law)
        )


class TestReadLawJson:
    Y = [1.0] + [0.0] * 15

    def test_reads_the_bundled_law(self):
        path = Path(__file__).resolve().parent.parent / "data" / "example1_law.json"
        data = json.loads(path.read_text())
        assert read_law_json(str(path)) == PotentialOutcomeLaw(**data)

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param([[1, 0, 0, 0], Y], "expected a JSON object with exactly "
                         "the keys {m_block, y_block}", id="top-level-list"),
            pytest.param({"m_block": [True, 0, 0, 0], "y_block": Y},
                         "m_block holds a boolean, not a number", id="true-cell"),
            pytest.param({"m_block": [1, 0, 0, 0], "y_block": [False] * 16},
                         "y_block holds a boolean, not a number", id="false-cell"),
            pytest.param({"m_block": [1, 0, 0], "y_block": Y},
                         "m_block must have 4 cells, got 3", id="short-block"),
            pytest.param({"m_block": "1000", "y_block": Y},
                         "m_block must be a sequence of 4 numbers, got '1000'",
                         id="string-block"),
            pytest.param({"m_block": [1, 0, 0, 0], "y_block": [0.5] * 16},
                         "y_block sums to 8.0, not 1", id="sum"),
        ],
    )
    def test_each_error_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidInputError) as exc:
            read_law_json(path)
        assert str(exc.value) == f"{path}: {message}"


class TestTruePc:
    def test_certain_causation(self):
        law = point_mass(m0=0, m1=1, y00=0, y01=0, y10=0, y11=1)
        assert float(true_pc(law)) == 1.0

    def test_certain_non_causation(self):
        law = point_mass(m0=0, m1=0, y00=1, y01=1, y10=1, y11=1)
        assert float(true_pc(law)) == 0.0

    def test_undefined_when_exposed_never_respond(self):
        law = point_mass(m0=0, m1=0, y00=1, y01=1, y10=0, y11=0)
        with pytest.raises(PcUndefinedError, match="law gives P\\(Y\\(1\\)=1\\) = 0"):
            true_pc(law)

    def test_independence_collapses_to_complement_rate(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        assert float(true_pc(law)) == pytest.approx(0.75995, abs=1e-12)

    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=20, max_size=20))
    @settings(max_examples=100)
    def test_matches_reference_enumeration(self, raw):
        m_raw = np.array(raw[:4])
        y_raw = np.array(raw[4:])
        law = PotentialOutcomeLaw(
            m_block=tuple(m_raw / m_raw.sum()), y_block=tuple(y_raw / y_raw.sum())
        )
        assert float(true_pc(law)) == pytest.approx(reference_pc(law), abs=1e-12)

    def test_batch_matches_scalar(self, example1_margins):
        """Each row of the batched enumeration matches the scalar reference."""
        laws = sample_laws(example1_margins, 16, seed=5)
        m_blocks = np.array([law.m_block for law in laws])
        y_blocks = np.array([law.y_block for law in laws])
        batch = oracle_mod._batch_true_pc(m_blocks, y_blocks)
        for k, law in enumerate(laws):
            assert batch[k] == pytest.approx(reference_pc(law), abs=1e-12)
            assert float(true_pc(law)) == batch[k]


class TestSampleLaws:
    def test_margins_are_hit(self, example1_margins):
        for law in sample_laws(example1_margins, 10, seed=2):
            got = law.margins()
            for name in ("y00", "y01", "y10", "y11", "m0", "m1"):
                assert float(getattr(got, name)) == pytest.approx(
                    float(getattr(example1_margins, name)), abs=1e-9
                )

    def test_laws_are_the_sampled_rows(self, example1_margins):
        m_cells, y_cells = oracle_mod._sample_blocks(20, example1_margins, 5)
        assert sample_laws(example1_margins, 20, seed=5) == [
            PotentialOutcomeLaw(tuple(m_cells[k]), tuple(y_cells[k])) for k in range(20)
        ]

    def test_deterministic(self, example2_margins):
        a = sample_laws(example2_margins, 5, seed=3)
        b = sample_laws(example2_margins, 5, seed=3)
        assert a == b
        c = sample_laws(example2_margins, 5, seed=4)
        assert a != c

    def test_laws_vary(self, example2_margins):
        laws = sample_laws(example2_margins, 5, seed=0)
        assert len({law.y_block for law in laws}) > 1

    def test_degenerate_margins(self):
        m = PartialMediationMargins(y00=0.0, y01=0.0, y10=1.0, y11=1.0, m0=0.0, m1=1.0)
        (law,) = sample_laws(m, 1, seed=0)
        got = law.margins()
        assert float(got.m1) == pytest.approx(1.0, abs=1e-9)
        assert float(got.y10) == pytest.approx(1.0, abs=1e-9)

    def test_n_validation(self, example1_margins):
        for bad in (0, -1, True, 2.5):
            with pytest.raises(InvalidInputError):
                sample_laws(example1_margins, bad)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[sweep_values] * 6), st.lists(sweep_values, min_size=3,
                                                    max_size=3), st.integers(0, 99))
    def test_margins_are_hit_to_the_last_bits(self, values, m0, seed):
        m = PartialMediationMargins(*values)
        for law in sample_laws(m, 3, seed):
            got = margin_values_of(law.margins())
            np.testing.assert_allclose(got, values, rtol=0, atol=1e-15)
        # A confounded run's per-row M(0) targets are hit the same way.
        m_cells, y_cells = oracle_mod._sample_blocks(3, m, seed, np.array(m0))
        for cells, masks, targets in (
            (m_cells, oracle_mod._M_MASKS, [(v, values[5]) for v in m0]),
            (y_cells, oracle_mod._Y_MASKS, [values[:4]] * 3),
        ):
            assert np.all(np.isfinite(cells)) and np.all(cells >= 0.0)
            got = np.where(masks[None], cells[:, None, :], 0.0).sum(axis=2)
            np.testing.assert_allclose(got, targets, rtol=0, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(normalised(4), normalised(16)))
    def test_every_law_is_reachable(self, law):
        # The law's conditional chance of a 1 for each coordinate given
        # the cells built so far (0.5 where those have no mass), fed back
        # as the draws, rebuild the law.
        law = np.array(law)
        bits = law.size.bit_length() - 1
        u, targets = [], []
        for t in range(bits):
            split = law.reshape(2**t, 2, -1).sum(axis=2)
            prefix = split.sum(axis=1)
            u.append(np.divide(split[:, 1], prefix, out=np.full(2**t, 0.5),
                               where=prefix > 0))
            targets.append([split[:, 1].sum()])
        got = oracle_mod._fit_block(np.concatenate(u)[None], np.array(targets))
        np.testing.assert_allclose(got[0], law, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name, lower, upper", [
        ("example1_margins", 0.7175, 0.7878),
        ("example2_margins", 0.5915, 0.8536),
    ])
    def test_reach_floor(self, request, name, lower, upper):
        # The true-PC spans that iterative proportional fitting reached
        # here at seed 0, before version 0.4.0: the sampler must reach
        # at least as far towards both endpoints.
        rep = soundness_report(request.getfixturevalue(name), n_laws=1000, seed=0)
        assert rep.min_true_pc <= lower and rep.max_true_pc >= upper

    @pytest.mark.parametrize("seed", [0, 7])
    def test_first_laws_do_not_depend_on_n(self, example1_margins, seed):
        assert sample_laws(example1_margins, 5, seed) == sample_laws(
            example1_margins, 10, seed
        )[:5]


class TestSimulateTrial:
    def test_shape_and_arm_order(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        d = simulate_trial(law, 50, seed=0)
        assert len(d) == 100
        assert np.all(d.x[:50] == 0)
        assert np.all(d.x[50:] == 1)
        assert d.has_mediator
        assert np.all((d.m == 0) | (d.m == 1))

    def test_deterministic(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)

        def columns(seed):
            d = simulate_trial(law, 20, seed=seed)
            return np.stack([d.x, d.m, d.y])

        assert np.array_equal(columns(9), columns(9))
        assert not np.array_equal(columns(9), columns(10))

    def test_frequencies_match_law(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        n = 20000
        d = simulate_trial(law, n, seed=1)
        arm1 = d.x == 1
        m1_hat = d.m[arm1].sum() / n
        m1_true = float(example1_margins.m1)
        assert abs(m1_hat - m1_true) <= 4 * math.sqrt(m1_true * (1 - m1_true) / n)
        p1_hat = d.y[arm1].sum() / n
        assert abs(p1_hat - 0.688268) <= 4 * math.sqrt(0.688268 * (1 - 0.688268) / n)

    def test_n_validation(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        for bad in (0, -5, True, 1.5):
            with pytest.raises(InvalidInputError):
                simulate_trial(law, bad)


def _draw_cells(gen, probs, size):
    """The per-arm sampler of simulate_trial before cell codes, verbatim."""
    cdf = np.cumsum(probs)
    idx = np.searchsorted(cdf, gen.random(size), side="right")
    return np.minimum(idx, len(probs) - 1)


def reference_trial(law, n_per_arm, seed):
    """simulate_trial's stream as int64 columns: arm x draws from Philox
    keyed by (seed, x), mediator uniforms first, then response uniforms."""
    m_probs = np.asarray(law.m_block)
    y_probs = np.asarray(law.y_block)
    mcols, ycols = [], []
    for x in (0, 1):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(x,)))
        )
        mcells = _draw_cells(gen, m_probs, n_per_arm)
        ycells = _draw_cells(gen, y_probs, n_per_arm)
        mvals = (mcells >> (1 - x)) & 1
        mcols.append(mvals)
        ycols.append((ycells >> (3 - (2 * x + mvals))) & 1)
    return (
        np.repeat(np.array([0, 1]), n_per_arm),
        np.concatenate(mcols),
        np.concatenate(ycols),
    )


class TestSimulateTrialStream:
    """simulate_trial's draws are a contract: records, CSV bytes and the
    CLI golden transcript all depend on them."""

    @staticmethod
    def laws(example1_margins):
        zero_cells = PotentialOutcomeLaw(
            m_block=(0.6, 0.0, 0.0, 0.4),
            y_block=(0.0, 0.25, 0.0, 0.0, 0.1, 0.0, 0.0, 0.3,
                     0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.15),
        )
        return [
            PotentialOutcomeLaw.independent(example1_margins),
            point_mass(0, 1, 1, 0, 0, 1),
            zero_cells,
        ]

    @pytest.mark.parametrize("n_per_arm", [1, 7, 1000, 2**16 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 9, 4242])
    def test_matches_reference_sampler(self, example1_margins, n_per_arm, seed):
        for law in self.laws(example1_margins):
            d = simulate_trial(law, n_per_arm, seed=seed)
            x, m, y = reference_trial(law, n_per_arm, seed)
            for name, want in (("x", x), ("m", m), ("y", y)):
                got = getattr(d, name)
                assert got.dtype == np.int8
                assert got.tolist() == want.tolist(), name
            assert d.codes.tolist() == (x << 2 | m << 1 | y).tolist()

    def test_code_table_matches_shift_decoding(self):
        table = oracle_mod._CODES
        assert table.shape == (2, 4, 16) and table.dtype == np.uint8
        for x in (0, 1):
            for i in range(4):
                for j in range(16):
                    m = i >> (1 - x) & 1
                    y = j >> (3 - 2 * x - m) & 1
                    assert table[x, i, j] == x << 2 | m << 1 | y, (x, i, j)

    def test_draw_past_a_cdf_below_one_takes_the_last_cell(self, monkeypatch):
        # Both cdfs end at 0.9999999999999999 < 1, so a search of the whole cdf
        # for the largest uniform lands past the block.
        law = PotentialOutcomeLaw(m_block=(0.7, 0.1, 0.1, 0.1),
                                  y_block=(0.7, 0.1, 0.1, 0.1) + (0.0,) * 12)
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(law.m_block)[-1] == np.cumsum(law.y_block)[-1] == top

        class Stream:
            def random(self, n):
                return np.resize([top, 0.0], n)

        monkeypatch.setattr(oracle_mod, "_stream", lambda seed, x: Stream())
        # per arm: mediator cell 3 and response cell 15, then cells 0 and 0
        assert simulate_trial(law, 2).codes.tolist() == [3, 0, 7, 4]

    def test_written_bytes_are_pinned(self, example1_margins, tmp_path):
        # the CLI test pins the bundled law's file; this pins the independent law's
        law = PotentialOutcomeLaw.independent(example1_margins)
        path = tmp_path / "records.csv"
        write_records_csv(simulate_trial(law, 1000, seed=4242), path)
        data = path.read_bytes()
        assert len(data) == 14007
        assert hashlib.sha256(data).hexdigest() == (
            "38c9837c98be8fb4b624bd2fb669bd6c7e773a12f459f883a680723e6a29299f"
        )


class TestSoundnessReport:
    def test_clean_run_passes(self, example1_margins):
        rep = soundness_report(example1_margins, n_laws=100, seed=0)
        assert rep.passed
        assert rep.violations == 0
        assert rep.simple_violations == 0
        iv = rep.interval
        assert iv.lower - 1e-9 <= rep.min_true_pc <= iv.upper + 1e-9
        assert iv.lower - 1e-9 <= rep.max_true_pc <= iv.upper + 1e-9
        assert rep.lower_gap >= -1e-9
        assert rep.upper_gap >= -1e-9

    def test_confounded_run_breaks_the_interval(self, example1_margins):
        rep = soundness_report(example1_margins, n_laws=100, seed=0, confounded=True)
        assert rep.confounded
        assert rep.violations > 0
        assert not rep.passed
        assert rep.worst_violation > 0.01

    def test_n_validation(self, example1_margins):
        with pytest.raises(InvalidInputError):
            soundness_report(example1_margins, n_laws=0)

    def test_undefined_margins_come_before_a_bad_seed(self):
        m = PartialMediationMargins(0.5, 0.5, 0.0, 0.0, 0.3, 0.4)
        with pytest.raises(PcUndefinedError):
            soundness_report(m, n_laws=2, seed=-1)


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
    def test_rejects_negative_or_non_integer_seed(self, example1_margins, seed):
        law = PotentialOutcomeLaw.independent(example1_margins)
        calls = (
            lambda: sample_laws(example1_margins, 2, seed=seed),
            lambda: soundness_report(example1_margins, n_laws=2, seed=seed),
            lambda: simulate_trial(law, 2, seed=seed),
        )
        for call in calls:
            with pytest.raises(
                InvalidInputError,
                match=f"seed must be a nonnegative integer, got {seed!r}$",
            ):
                call()

    def test_numpy_integer_seed_is_the_int_seed(self, example1_margins):
        assert sample_laws(example1_margins, 3, seed=np.int64(7)) == sample_laws(
            example1_margins, 3, seed=7
        )


class TestSizeValidation:
    def test_sizes_numpy_cannot_index_are_refused(self, example1_margins):
        law = PotentialOutcomeLaw.independent(example1_margins)
        calls = {
            "n": lambda size: sample_laws(example1_margins, size),
            "n_laws": lambda size: soundness_report(example1_margins, n_laws=size),
            "n_per_arm": lambda size: simulate_trial(law, size),
        }
        for name, call in calls.items():
            for size in (10**18, 2**200):
                with pytest.raises(InvalidInputError,
                                   match=f"^{name} = {size} is too large to draw$"):
                    call(size)


class TestToleranceValidation:
    def test_law_cell_beyond_float_range(self):
        with pytest.raises(InvalidInputError, match="m_block holds a number too large"):
            PotentialOutcomeLaw(
                m_block=(10**400, 0, 0, 0), y_block=(1.0,) + (0.0,) * 15
            )
