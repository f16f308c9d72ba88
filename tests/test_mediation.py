import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pcbounds import (
    STRUCT_TOL,
    AssumptionViolationError,
    BoundInterval,
    ComparisonReport,
    CompleteMediationMargins,
    InconsistentBoundsError,
    InvalidInputError,
    PartialMediationMargins,
    PcBoundsError,
    PcUndefinedError,
    Probability,
    collapse_to_complete,
    compare,
    complete_bounds,
    complete_numerator,
    decomposition,
    derive_simple_from_complete,
    derive_simple_from_partial,
    partial_bounds,
    partial_upper_numerator,
    partial_upper_terms,
    simple_bounds,
    simple_numerator_via_decomposition,
)

probs = st.floats(min_value=0.0, max_value=1.0)


grid = st.integers(0, 20).map(lambda k: k / 20)


def partial_margin_sets(values=probs):
    return st.builds(
        PartialMediationMargins,
        y00=values, y01=values, y10=values, y11=values, m0=values, m1=values,
    )


@st.composite
def x_invariant_sets(draw):
    """Margins with y00 = y10 and y01 = y11, on the grid or uniform."""
    values = draw(st.sampled_from([probs, grid]))
    y0, y1, m0, m1 = (draw(values) for _ in range(4))
    return PartialMediationMargins(y00=y0, y01=y1, y10=y0, y11=y1, m0=m0, m1=m1)


def reference_compare(m, complete_claim=False, claim_tol=STRUCT_TOL):
    """``compare`` as the composition of public calls it was before it
    became a single pass, kept as the differential reference. The partial
    bounds go first, so p1 = 0 raises their message, as ``compare`` does."""
    if complete_claim:
        for mval, lhs, rhs, names in (
            (0, float(m.y00), float(m.y10), ("y00", "y10")),
            (1, float(m.y01), float(m.y11), ("y01", "y11")),
        ):
            gap = abs(lhs - rhs)
            if gap > claim_tol:
                raise AssumptionViolationError(
                    f"complete-mediation claim fails at M={mval}: "
                    f"|{names[0]} - {names[1]}| = {gap:.6g} exceeds {claim_tol:.6g}"
                )
    partial_iv = partial_bounds(m)
    derived = derive_simple_from_partial(m)
    simple_iv = simple_bounds(derived)
    complete_iv = complete_bounds(collapse_to_complete(m)) if complete_claim else None

    lowers = [simple_iv.lower, partial_iv.lower]
    uppers = [simple_iv.upper, partial_iv.upper]
    if complete_iv is not None:
        lowers.append(complete_iv.lower)
        uppers.append(complete_iv.upper)
    try:
        combined = BoundInterval(max(lowers), min(uppers))
    except InconsistentBoundsError:
        if complete_iv is None:
            raise
        # The one error ``compare`` words itself: an accepted claim whose
        # interval misses the other two.
        both = BoundInterval(max(lowers[:2]), min(uppers[:2]))
        raise InconsistentBoundsError(
            f"complete-mediation claim accepted at claim_tol {claim_tol:.6g}, "
            f"but its interval {complete_iv} is disjoint from {both}, "
            f"where the simple {simple_iv} and partial {partial_iv} intervals meet"
        ) from None

    alpha, beta, gamma, delta = decomposition(m)
    return ComparisonReport(
        simple_interval=simple_iv,
        partial_interval=partial_iv,
        complete_interval=complete_iv,
        combined_interval=combined,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        delta=delta,
        numerator_simple=simple_numerator_via_decomposition(m),
        numerator_partial=partial_upper_numerator(m),
    )


def _bits(x):
    return type(x).__name__, float.hex(x)


def report_bits(make, *args, **kwargs):
    """Every report field as (type name, float.hex), or the error raised."""
    try:
        rep = make(*args, **kwargs)
    except PcBoundsError as e:
        return type(e), str(e)
    out = {}
    for name in ("simple_interval", "partial_interval", "complete_interval",
                 "combined_interval"):
        iv = getattr(rep, name)
        out[name] = None if iv is None else (_bits(iv.lower), _bits(iv.upper))
    for name in ("alpha", "beta", "gamma", "delta", "numerator_simple",
                 "numerator_partial"):
        out[name] = _bits(getattr(rep, name))
    return out


class TestCompleteMediation:
    def test_numerator_reference_values(self):
        m = CompleteMediationMargins(a=0.7, b=0.6, c=0.4, d=0.9)
        assert float(complete_numerator(m)) == 0.27

    def test_derived_margins_reference_values(self):
        m = CompleteMediationMargins(a=0.7, b=0.6, c=0.4, d=0.9)
        derived = derive_simple_from_complete(m)
        assert float(derived.p1) == 0.78
        assert float(derived.p0) == pytest.approx(0.69, rel=1e-12)

    def test_bounds_reference_values(self):
        m = CompleteMediationMargins(a=0.7, b=0.6, c=0.4, d=0.9)
        iv = complete_bounds(m)
        assert float(iv.lower) == pytest.approx(1.0 - 0.69 / 0.78, rel=1e-9)
        assert float(iv.upper) == pytest.approx(0.27 / 0.78, rel=1e-9)

    @given(a=probs, b=probs, c=probs, d=probs)
    def test_branch_form_equals_min_form(self, a, b, c, d):
        m = CompleteMediationMargins(a, b, c, d)
        min_form = min(a, b) * min(c, d) + min(1.0 - a, 1.0 - b) * min(
            1.0 - c, 1.0 - d
        )
        assert float(complete_numerator(m)) == min_form

    @given(a=probs, b=probs, c=probs, d=probs)
    def test_numerator_never_exceeds_response_rate(self, a, b, c, d):
        m = CompleteMediationMargins(a, b, c, d)
        p1 = float(derive_simple_from_complete(m).p1)
        assert float(complete_numerator(m)) <= p1 + 1e-15

    def test_ties_fall_in_low_branch(self):
        m = CompleteMediationMargins(a=0.5, b=0.5, c=0.3, d=0.8)
        assert float(complete_numerator(m)) == 0.5 * 0.3 + 0.5 * (1.0 - 0.8)


class TestPartialTerms:
    def test_reference_terms(self, example1_margins):
        t1, t2, t3, t4 = partial_upper_terms(example1_margins)
        assert float(t1) == pytest.approx(0.50005, rel=1e-12)
        assert float(t2) == pytest.approx(0.016283, rel=1e-12)
        assert float(t3) == pytest.approx(0.04455, rel=1e-12)
        assert float(t4) == pytest.approx(0.003135, rel=1e-12)

    def test_reference_numerator(self, example1_margins):
        assert partial_upper_numerator(example1_margins) == pytest.approx(
            0.564018, rel=1e-12
        )

    def test_numerator_is_plain_float_and_can_exceed_one(self):
        m = PartialMediationMargins(y00=0.0, y01=0.0, y10=1.0, y11=1.0,
                                    m0=0.5, m1=0.5)
        num = partial_upper_numerator(m)
        assert type(num) is float
        assert num == 2.0
        # The bound itself is still a probability after division.
        assert float(partial_bounds(m).upper) == 1.0

    @given(partial_margin_sets())
    def test_terms_bounded_by_decomposition(self, m):
        t1, t2, t3, t4 = partial_upper_terms(m)
        alpha, beta, _, _ = decomposition(m)
        assert t1 <= alpha
        assert t2 <= alpha
        assert t3 <= beta
        assert t4 <= beta

    @given(partial_margin_sets())
    def test_numerator_at_most_twice_simple(self, m):
        num = partial_upper_numerator(m)
        simple_num = simple_numerator_via_decomposition(m)
        assert num <= 2.0 * float(simple_num) + 1e-9


class TestDerivedMargins:
    def test_example1(self, example1_margins):
        d = derive_simple_from_partial(example1_margins)
        assert float(d.p1) == pytest.approx(0.688268, rel=1e-12)
        assert float(d.p0) == pytest.approx(0.24005, rel=1e-12)

    def test_example2(self, example2_margins):
        d = derive_simple_from_partial(example2_margins)
        assert float(d.p1) == pytest.approx(0.7768, rel=1e-12)
        assert float(d.p0) == pytest.approx(0.3176, rel=1e-12)

    def test_decomposition_example2(self, example2_margins):
        alpha, beta, gamma, delta = decomposition(example2_margins)
        assert float(alpha) == pytest.approx(0.0392, rel=1e-12)
        assert float(beta) == pytest.approx(0.6432, rel=1e-12)
        assert float(gamma) == pytest.approx(0.2366, rel=1e-12)
        assert float(delta) == pytest.approx(0.5402, rel=1e-12)

    @given(partial_margin_sets())
    def test_decomposition_partitions_arm_rates(self, m):
        alpha, beta, gamma, delta = decomposition(m)
        d = derive_simple_from_partial(m)
        assert float(alpha) + float(beta) == pytest.approx(
            1.0 - float(d.p0), abs=1e-12
        )
        assert float(gamma) + float(delta) == pytest.approx(float(d.p1), abs=1e-12)

    @given(partial_margin_sets())
    def test_simple_numerator_matches_direct_form(self, m):
        d = derive_simple_from_partial(m)
        direct = min(1.0 - float(d.p0), float(d.p1))
        assert float(simple_numerator_via_decomposition(m)) == pytest.approx(
            direct, abs=1e-12
        )


class TestPartialBounds:
    def test_example1(self, example1_margins):
        iv = partial_bounds(example1_margins)
        assert float(iv.lower) == pytest.approx(0.6512259759279816, rel=1e-12)
        assert float(iv.upper) == pytest.approx(0.8194743907896341, rel=1e-12)

    def test_example2(self, example2_margins):
        iv = partial_bounds(example2_margins)
        assert float(iv.lower) == pytest.approx(0.5911431513903191, rel=1e-10)
        assert float(iv.upper) == pytest.approx(0.946961894953656, rel=1e-10)

    @given(partial_margin_sets())
    def test_lower_equals_simple_lower(self, m):
        d = derive_simple_from_partial(m)
        assume(float(d.p1) > 0.0)
        assert float(partial_bounds(m).lower) == float(simple_bounds(d).lower)

    @given(partial_margin_sets())
    def test_interval_well_formed(self, m):
        assume(float(derive_simple_from_partial(m).p1) > 0.0)
        iv = partial_bounds(m)
        assert 0.0 <= float(iv.lower) <= float(iv.upper) <= 1.0


class TestCollapse:
    def test_mapping(self):
        m = PartialMediationMargins(y00=0.3, y01=0.8, y10=0.3, y11=0.8,
                                    m0=0.4, m1=0.7)
        cm = collapse_to_complete(m)
        assert float(cm.a) == 0.6
        assert float(cm.b) == 0.7
        assert float(cm.c) == 0.7
        assert float(cm.d) == 0.8

    def test_mapping_reads_the_unexposed_surface(self):
        # c and d come from y00 and y11 even when the claim does not hold.
        m = PartialMediationMargins(y00=0.3, y01=0.6, y10=0.5, y11=0.8,
                                    m0=0.4, m1=0.7)
        cm = collapse_to_complete(m)
        assert (float(cm.c), float(cm.d)) == (0.7, 0.8)

    @given(y0=probs, y1=probs, m0=probs, m1=probs)
    def test_complete_never_looser_within_its_model(self, y0, y1, m0, m1):
        m = PartialMediationMargins(y00=y0, y01=y1, y10=y0, y11=y1, m0=m0, m1=m1)
        d = derive_simple_from_partial(m)
        assume(float(d.p1) > 1e-9)
        cm = collapse_to_complete(m)
        upper_complete = float(complete_bounds(cm).upper)
        assert upper_complete <= float(partial_bounds(m).upper) + 1e-9
        assert upper_complete <= float(simple_bounds(d).upper) + 1e-9

    @given(y0=probs, y1=probs, m0=probs, m1=probs)
    def test_collapse_numerator_identity(self, y0, y1, m0, m1):
        # Starting from the partial side the two forms agree only up to
        # one rounding of 1 - (1 - m0), so this is not a bitwise check.
        m = PartialMediationMargins(y00=y0, y01=y1, y10=y0, y11=y1, m0=m0, m1=m1)
        _, t2, t3, _ = partial_upper_terms(m)
        assert float(complete_numerator(collapse_to_complete(m))) == pytest.approx(
            float(t2) + float(t3), abs=5e-16
        )

    @given(a=probs, b=probs, c=probs, d=probs)
    def test_collapse_numerator_identity_exact_from_complete_side(self, a, b, c, d):
        # Built from (a, b, c, d), both sides reduce to the same float
        # subexpressions, so the agreement is exact.
        m = PartialMediationMargins(
            y00=1.0 - c, y01=d, y10=1.0 - c, y11=d, m0=1.0 - a, m1=b
        )
        _, t2, t3, _ = partial_upper_terms(m)
        numerator = complete_numerator(collapse_to_complete(m))
        assert float(numerator) == float(t2) + float(t3)


class TestCompare:
    def test_example2_without_claim(self, example2_margins):
        rep = compare(example2_margins)
        assert rep.complete_interval is None
        assert float(rep.combined_interval.lower) == pytest.approx(
            0.5911431513903191, rel=1e-10
        )
        # The mediator-free upper wins for these margins.
        assert float(rep.combined_interval.upper) == float(rep.simple_interval.upper)
        assert float(rep.combined_interval.upper) == pytest.approx(
            0.8784757981462408, rel=1e-10
        )

    def test_combined_is_intersection(self, example1_margins):
        rep = compare(example1_margins)
        lowers = [float(rep.simple_interval.lower), float(rep.partial_interval.lower)]
        uppers = [float(rep.simple_interval.upper), float(rep.partial_interval.upper)]
        assert float(rep.combined_interval.lower) == max(lowers)
        assert float(rep.combined_interval.upper) == min(uppers)

    def test_complete_claim_rejected_when_direct_effect(self, example2_margins):
        with pytest.raises(AssumptionViolationError) as exc:
            compare(example2_margins, complete_claim=True)
        assert "M=0" in str(exc.value)
        assert "0.89" in str(exc.value)

    def test_complete_claim_names_other_stratum(self):
        m = PartialMediationMargins(y00=0.5, y01=0.2, y10=0.5, y11=0.9,
                                    m0=0.4, m1=0.6)
        with pytest.raises(AssumptionViolationError) as exc:
            compare(m, complete_claim=True)
        assert "M=1" in str(exc.value)

    def test_complete_claim_accepted_on_collapse_form(self):
        m = PartialMediationMargins(y00=0.3, y01=0.8, y10=0.3, y11=0.8,
                                    m0=0.4, m1=0.7)
        rep = compare(m, complete_claim=True)
        assert rep.complete_interval is not None
        expected = complete_bounds(collapse_to_complete(m))
        assert float(rep.complete_interval.upper) == float(expected.upper)
        assert float(rep.combined_interval.upper) <= float(
            rep.partial_interval.upper
        )

    def test_claim_tolerance_is_respected(self):
        m = PartialMediationMargins(y00=0.3, y01=0.8, y10=0.301, y11=0.8,
                                    m0=0.4, m1=0.7)
        with pytest.raises(AssumptionViolationError):
            compare(m, complete_claim=True)
        rep = compare(m, complete_claim=True, claim_tol=0.005)
        assert rep.complete_interval is not None

    def test_accepted_claim_with_disjoint_interval(self, example1_margins):
        with pytest.raises(InconsistentBoundsError) as exc:
            compare(example1_margins, complete_claim=True, claim_tol=1.0)
        simple_iv = simple_bounds(derive_simple_from_partial(example1_margins))
        partial_iv = partial_bounds(example1_margins)
        complete_iv = complete_bounds(collapse_to_complete(example1_margins))
        assert float(complete_iv.upper) < float(partial_iv.lower)
        assert str(exc.value) == (
            "complete-mediation claim accepted at claim_tol 1, but its interval "
            f"{complete_iv} is disjoint from {partial_iv}, where the simple "
            f"{simple_iv} and partial {partial_iv} intervals meet"
        )
        assert exc.value.__cause__ is None and exc.value.__suppress_context__

    def test_report_rejects_impossible_numerator_pair(self, example1_margins):
        rep = compare(example1_margins)
        with pytest.raises(InconsistentBoundsError):
            type(rep)(
                simple_interval=BoundInterval(0.0, 1.0),
                partial_interval=BoundInterval(0.0, 1.0),
                complete_interval=None,
                combined_interval=BoundInterval(0.0, 1.0),
                alpha=Probability(0.1),
                beta=Probability(0.1),
                gamma=Probability(0.1),
                delta=Probability(0.1),
                numerator_simple=Probability(0.2),
                numerator_partial=1.0,
            )


class TestSinglePassCompare:
    """``compare`` against the composition of public calls, bit for bit."""

    @given(partial_margin_sets(), st.booleans())
    def test_uniform_sets(self, m, claim):
        got = report_bits(compare, m, claim)
        assert got == report_bits(reference_compare, m, claim)

    @given(partial_margin_sets(grid), st.booleans())
    def test_grid_sets(self, m, claim):
        got = report_bits(compare, m, claim)
        assert got == report_bits(reference_compare, m, claim)

    @given(x_invariant_sets())
    def test_x_invariant_claimed_sets(self, m):
        assert report_bits(compare, m, True) == report_bits(reference_compare, m, True)

    @given(partial_margin_sets(grid), st.sampled_from([0.0, 0.3, 1.0]))
    def test_wide_claim_tolerances(self, m, tol):
        # Wide tolerances admit claims whose complete-mediation p1 is 0 or
        # whose intervals cross; both sides must fail the same way.
        assert report_bits(compare, m, True, tol) == report_bits(
            reference_compare, m, True, tol
        )

    @pytest.mark.parametrize(
        "values, claim",
        [
            ((0.2, 0.5, 0.0, 0.6, 0.3, 0.0), False),  # p1 = 0
            ((0.2, 0.5, 0.0, 0.6, 0.3, 0.0), True),  # claim fails at M=0
            ((0.2, 0.5, 0.2, 0.6, 0.3, 0.4), True),  # claim fails at M=1
            ((0.0, 0.0, 0.0, 0.0, 0.3, 0.4), True),  # claim holds, p1 = 0
        ],
    )
    def test_error_paths_raise_the_same(self, values, claim):
        m = PartialMediationMargins(*values)
        got = report_bits(compare, m, claim)
        assert isinstance(got, tuple) and issubclass(got[0], PcBoundsError)
        assert got == report_bits(reference_compare, m, claim)

    @given(partial_margin_sets())
    def test_numerators_match_their_checked_forms(self, m):
        assume(float(derive_simple_from_partial(m).p1) > 0.0)
        rep = compare(m)
        d = derive_simple_from_partial(m)
        assert abs(float(rep.alpha) + float(rep.beta) - (1.0 - float(d.p0))) <= 1e-12
        assert abs(float(rep.gamma) + float(rep.delta) - float(d.p1)) <= 1e-12
        assert rep.numerator_simple == simple_numerator_via_decomposition(m)
        assert rep.numerator_partial <= 2.0 * float(rep.numerator_simple) + STRUCT_TOL

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -1.0])
    @pytest.mark.parametrize("claim", [False, True])
    def test_claim_tol_must_be_nonnegative(self, tol, claim):
        # |y00 - y10| = 0.8: a NaN tolerance used to accept this claim.
        m = PartialMediationMargins(0.1, 0.2, 0.9, 0.8, 0.3, 0.4)
        with pytest.raises(InvalidInputError, match="claim_tol"):
            compare(m, complete_claim=claim, claim_tol=tol)


def test_margin_validation():
    with pytest.raises(InvalidInputError):
        PartialMediationMargins(y00=1.5, y01=0.0, y10=0.0, y11=0.0, m0=0.0, m1=0.0)
    with pytest.raises(InvalidInputError):
        CompleteMediationMargins(a=-0.2, b=0.5, c=0.5, d=0.5)


def test_example1_fixture_complements(example1_margins):
    assert float(example1_margins.y00) == pytest.approx(0.02, rel=1e-12)
    assert float(example1_margins.y11) == pytest.approx(0.857, rel=1e-12)
    assert float(example1_margins.m1) == pytest.approx(0.019, rel=1e-12)


@pytest.mark.parametrize("claim", [False, True])
def test_compare_words_an_undefined_pc_as_partial_bounds_does(claim):
    # y10 = y11 = 0 makes the derived p1 zero; the surface is x-invariant.
    m = PartialMediationMargins(0.0, 0.0, 0.0, 0.0, 0.3, 0.4)
    with pytest.raises(PcUndefinedError) as partial:
        partial_bounds(m)
    with pytest.raises(PcUndefinedError) as compared:
        compare(m, complete_claim=claim)
    assert str(compared.value) == str(partial.value) == (
        "derived P(Y=1 | X<-1) = 0: the probability of causation is undefined "
        "for these margins"
    )
