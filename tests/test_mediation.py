import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import pcbounds.cli as cli
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
    compare,
    complete_bounds,
    derive_simple_from_complete,
    derive_simple_from_partial,
    partial_bounds,
    simple_bounds,
)
from pcbounds.core import _unit
from pcbounds.mediation import (
    _collapsed_parts,
    _complete_parts,
    _fields,
    _partial_parts,
)
from pcbounds.simple import _interval, _simple_parts

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


SMALL_P1 = 2.0**-9  # below it, a kernel reruns on fractions (simple._parts)


def collapse(m):
    """The complete-mediation margins a claim makes of m, in floats."""
    return CompleteMediationMargins(1 - m.m0, m.m1, 1 - m.y00, m.y11)


def exact_interval(kernel, values):
    """The float of each endpoint of ``kernel``'s interval on fractions of values."""
    exact = kernel(*map(Fraction, values))[:3]
    return BoundInterval(*map(float, _interval(*exact, "")))


def simple_of_derived(m):
    """The simple bounds of m's derived rates: ``simple_bounds`` of the float
    rates, or, where p1 is below 2**-9, the float of each endpoint of the exact
    rates' interval."""
    if _partial_parts(*_fields(m))[0] < SMALL_P1:
        rates = _partial_parts(*map(Fraction, _fields(m)))[:2]
        return exact_interval(_simple_parts, rates)
    return simple_bounds(derive_simple_from_partial(m))


def collapsed_bounds(m):
    """The complete interval of m's collapse: ``complete_bounds`` of the float
    collapse, or, where its p1 is below 2**-9, the float of each endpoint of the
    collapse taken on fractions of the six margins."""
    if _collapsed_parts(*_fields(m))[0] < SMALL_P1:
        return exact_interval(_collapsed_parts, _fields(m))
    return complete_bounds(collapse(m))


def reference_compare(m, complete_claim=False, claim_tol=STRUCT_TOL):
    """``compare`` as the composition of public calls it was before it
    became a single pass, kept as the differential reference. The partial
    bounds go first, so p1 = 0 raises their message, as ``compare`` does.
    Where p1 > 0 but the collapsed margins' p1 is 0, the claim adds the
    vacuous complete interval [0, 1]. The split and the numerators come from
    the partial kernel, run on fractions where p1 is below 2**-9, as the rates
    are; the simple numerator is min(1 - p0, p1) of that run."""
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
    simple_iv = simple_of_derived(m)
    complete_iv = None
    if complete_claim:
        try:
            complete_iv = collapsed_bounds(m)
        except PcUndefinedError:
            complete_iv = BoundInterval(0.0, 1.0)

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

    p1, p0, numerator, split, _ = _partial_parts(*_fields(m))
    if p1 < SMALL_P1:
        p1, p0, numerator, split, _ = _partial_parts(*map(Fraction, _fields(m)))
        numerator, split = float(numerator), tuple(map(float, split))
    alpha, beta, gamma, delta = map(_unit, split)
    return ComparisonReport(
        simple_interval=simple_iv,
        partial_interval=partial_iv,
        complete_interval=complete_iv,
        combined_interval=combined,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        delta=delta,
        numerator_simple=float(min(1 - p0, p1)),
        numerator_partial=numerator,
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
        assert _complete_parts(m.a, m.b, m.c, m.d)[2] == 0.27

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
        assert _complete_parts(m.a, m.b, m.c, m.d)[2] == min_form

    @given(a=probs, b=probs, c=probs, d=probs)
    def test_numerator_never_exceeds_response_rate(self, a, b, c, d):
        m = CompleteMediationMargins(a, b, c, d)
        p1 = float(derive_simple_from_complete(m).p1)
        assert _complete_parts(m.a, m.b, m.c, m.d)[2] <= p1 + 1e-15

    def test_ties_fall_in_low_branch(self):
        m = CompleteMediationMargins(a=0.5, b=0.5, c=0.3, d=0.8)
        assert _complete_parts(m.a, m.b, m.c, m.d)[2] == 0.5 * 0.3 + 0.5 * (1.0 - 0.8)


class TestPartialTerms:
    def test_reference_terms(self, example1_margins):
        t1, t2, t3, t4 = _partial_parts(*_fields(example1_margins))[4]
        assert float(t1) == pytest.approx(0.50005, rel=1e-12)
        assert float(t2) == pytest.approx(0.016283, rel=1e-12)
        assert float(t3) == pytest.approx(0.04455, rel=1e-12)
        assert float(t4) == pytest.approx(0.003135, rel=1e-12)

    def test_reference_numerator(self, example1_margins):
        assert compare(example1_margins).numerator_partial == pytest.approx(
            0.564018, rel=1e-12
        )

    def test_numerator_is_plain_float_and_can_exceed_one(self):
        m = PartialMediationMargins(y00=0.0, y01=0.0, y10=1.0, y11=1.0,
                                    m0=0.5, m1=0.5)
        num = compare(m).numerator_partial
        assert type(num) is float
        assert num == 2.0
        # The bound itself is still a probability after division.
        assert float(partial_bounds(m).upper) == 1.0

    @given(partial_margin_sets())
    def test_terms_bounded_by_decomposition(self, m):
        # The kernel, not ``compare``: the draws include p1 = 0.
        _, _, _, split, (t1, t2, t3, t4) = _partial_parts(*_fields(m))
        alpha, beta, _, _ = map(_unit, split)
        assert t1 <= alpha
        assert t2 <= alpha
        assert t3 <= beta
        assert t4 <= beta

    @given(partial_margin_sets())
    def test_numerator_at_most_twice_simple(self, m):
        _, _, num, (alpha, beta, gamma, delta), _ = _partial_parts(*_fields(m))
        assert num <= 2.0 * min(alpha + beta, gamma + delta) + 1e-9


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
        rep = compare(example2_margins)
        assert float(rep.alpha) == pytest.approx(0.0392, rel=1e-12)
        assert float(rep.beta) == pytest.approx(0.6432, rel=1e-12)
        assert float(rep.gamma) == pytest.approx(0.2366, rel=1e-12)
        assert float(rep.delta) == pytest.approx(0.5402, rel=1e-12)

    @given(partial_margin_sets())
    def test_decomposition_partitions_arm_rates(self, m):
        alpha, beta, gamma, delta = map(_unit, _partial_parts(*_fields(m))[3])
        d = derive_simple_from_partial(m)
        assert float(alpha) + float(beta) == pytest.approx(
            1.0 - float(d.p0), abs=1e-12
        )
        assert float(gamma) + float(delta) == pytest.approx(float(d.p1), abs=1e-12)

    @given(partial_margin_sets())
    def test_simple_numerator_matches_direct_form(self, m):
        d = derive_simple_from_partial(m)
        direct = min(1.0 - float(d.p0), float(d.p1))
        alpha, beta, gamma, delta = _partial_parts(*_fields(m))[3]
        assert min(alpha + beta, gamma + delta) == pytest.approx(direct, abs=1e-12)


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
        assert float(partial_bounds(m).lower) == float(simple_of_derived(m).lower)

    @given(partial_margin_sets())
    def test_interval_well_formed(self, m):
        assume(float(derive_simple_from_partial(m).p1) > 0.0)
        iv = partial_bounds(m)
        assert 0.0 <= float(iv.lower) <= float(iv.upper) <= 1.0


class TestCollapse:
    def test_mapping(self):
        m = PartialMediationMargins(y00=0.3, y01=0.8, y10=0.3, y11=0.8,
                                    m0=0.4, m1=0.7)
        assert (1 - m.m0, m.m1, 1 - m.y00, m.y11) == (0.6, 0.7, 0.7, 0.8)
        assert _collapsed_parts(*_fields(m)) == _complete_parts(0.6, 0.7, 0.7, 0.8)

    def test_mapping_reads_the_unexposed_surface(self):
        # c and d come from y00 and y11 even when the claim does not hold.
        m = PartialMediationMargins(y00=0.3, y01=0.6, y10=0.5, y11=0.8,
                                    m0=0.4, m1=0.7)
        assert _collapsed_parts(*_fields(m)) == _complete_parts(0.6, 0.7, 0.7, 0.8)

    @given(y0=probs, y1=probs, m0=probs, m1=probs)
    def test_complete_never_looser_within_its_model(self, y0, y1, m0, m1):
        m = PartialMediationMargins(y00=y0, y01=y1, y10=y0, y11=y1, m0=m0, m1=m1)
        d = derive_simple_from_partial(m)
        assume(float(d.p1) > 1e-9)
        cm = collapse(m)
        upper_complete = float(complete_bounds(cm).upper)
        assert upper_complete <= float(partial_bounds(m).upper) + 1e-9
        assert upper_complete <= float(simple_bounds(d).upper) + 1e-9

    @given(y0=probs, y1=probs, m0=probs, m1=probs)
    def test_collapse_numerator_identity(self, y0, y1, m0, m1):
        # Starting from the partial side the two forms agree only up to
        # one rounding of 1 - (1 - m0), so this is not a bitwise check.
        m = PartialMediationMargins(y00=y0, y01=y1, y10=y0, y11=y1, m0=m0, m1=m1)
        _, t2, t3, _ = _partial_parts(*_fields(m))[4]
        assert _collapsed_parts(*_fields(m))[2] == pytest.approx(
            float(t2) + float(t3), abs=5e-16
        )

    @given(a=probs, b=probs, c=probs, d=probs)
    def test_collapse_numerator_identity_exact_from_complete_side(self, a, b, c, d):
        # Built from (a, b, c, d), both sides reduce to the same float
        # subexpressions, so the agreement is exact.
        m = PartialMediationMargins(
            y00=1.0 - c, y01=d, y10=1.0 - c, y11=d, m0=1.0 - a, m1=b
        )
        _, t2, t3, _ = _partial_parts(*_fields(m))[4]
        numerator = _collapsed_parts(*_fields(m))[2]
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
        expected = complete_bounds(collapse(m))
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
        complete_iv = complete_bounds(collapse(example1_margins))
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
        # Wide tolerances admit claims whose complete-mediation p1 is 0 (the
        # complete interval is then [0, 1]) or whose intervals cross; both
        # sides must answer, or fail, the same way.
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

    @pytest.mark.parametrize("values", [(1e-17, 0.0, 1e-17, 0.0, 0.0, 0.0),
                                        (1e-17, 0.3, 1e-17, 0.3, 0.0, 0.0)])
    def test_a_claim_keeps_a_pc_its_collapse_rounds_away(self, values):
        # 1 - y00 rounds to 1, so the float collapse's p1 is 0 while the partial
        # p1 is 1e-17. The collapse taken on fractions keeps p1 = 1e-17, and with
        # m0 = m1 = 0 the claim makes Y(0) = Y(1), so PC = 0.
        m = PartialMediationMargins(*values)
        with pytest.raises(PcUndefinedError):
            complete_bounds(collapse(m))
        assert _collapsed_parts(*map(Fraction, _fields(m)))[0] == Fraction(1e-17)
        free, claimed = compare(m), compare(m, complete_claim=True)
        assert free.combined_interval == BoundInterval(0.0, 1.0)
        assert claimed.complete_interval == BoundInterval(0.0, 0.0)
        assert claimed.combined_interval == BoundInterval(0.0, 0.0)
        assert report_bits(compare, m, True) == report_bits(reference_compare, m, True)

    def test_a_claim_whose_float_collapse_misses_takes_the_exact_one(self):
        # 1 - y00 rounds to 1, which leaves the float collapse's p1 only the
        # subnormal m1 y11 and its interval [0, 0], which misses the partial
        # [1, 1]. That p1 is below 2**-9, so compare takes the collapse on
        # fractions, as every kernel there, and its interval is [1, 1].
        y0, y1 = 1.941549899085741e-214, 2.225073858507203e-309
        m = PartialMediationMargins(y0, y1, y0, y1, 1.0, 0.5)
        assert complete_bounds(collapse(m)) == BoundInterval(0.0, 0.0)
        rep = compare(m, complete_claim=True)
        for iv in (rep.partial_interval, rep.complete_interval, rep.combined_interval):
            assert (type(iv.lower), iv.lower, type(iv.upper), iv.upper) == (
                float, 1.0, float, 1.0)
        assert report_bits(compare, m, True) == report_bits(reference_compare, m, True)

    @given(partial_margin_sets(st.sampled_from([0.0, 1e-17, 1e-10, 0.3, 1.0])),
           st.sampled_from([STRUCT_TOL, 1.0]))
    def test_a_claim_is_undefined_only_where_the_claim_free_call_is(self, m, tol):
        try:
            compare(m)
        except PcUndefinedError:
            return
        try:
            compare(m, complete_claim=True, claim_tol=tol)
        except (AssumptionViolationError, InconsistentBoundsError):
            pass

    @given(partial_margin_sets())
    @example(PartialMediationMargins(5e-324, 0.0, 5e-324, 0.0, 0.5, 0.0))
    def test_numerators_match_their_checked_forms(self, m):
        assume(float(derive_simple_from_partial(m).p1) > 0.0)
        rep = compare(m)
        d = derive_simple_from_partial(m)
        assert abs(float(rep.alpha) + float(rep.beta) - (1.0 - float(d.p0))) <= 1e-12
        assert abs(float(rep.gamma) + float(rep.delta) - float(d.p1)) <= 1e-12
        v = _fields(m)
        if _partial_parts(*v)[0] < SMALL_P1:  # the exact run's values
            v = tuple(map(Fraction, v))
        p1, p0, numerator, _, _ = _partial_parts(*v)
        assert rep.numerator_simple == float(min(1 - p0, p1))
        assert rep.numerator_partial == float(numerator)
        assert rep.numerator_partial <= 2.0 * float(rep.numerator_simple) + STRUCT_TOL

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -1.0, "0.1", None, True, False])
    @pytest.mark.parametrize("claim", [False, True])
    def test_claim_tol_must_be_nonnegative(self, tol, claim):
        # |y00 - y10| = 0.8: a NaN tolerance used to accept this claim.
        m = PartialMediationMargins(0.1, 0.2, 0.9, 0.8, 0.3, 0.4)
        with pytest.raises(InvalidInputError, match="claim_tol must be a nonnegative"):
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


class TestSubnormalRates:
    """A derived p1 below 2**-1022 loses the bounds to float products; below
    2**-9 the kernel reruns on fractions, and each endpoint is the float of the
    exact one. Both sets failed in floats: the partial one with a lower bound
    of 1 over an upper bound of 0, the complete one as [0, 0]."""

    PARTIAL = (5e-324, 0.0, 5e-324, 0.0, 0.5, 0.0)
    # x-invariant, and its collapse is (1 - 0.95, 1.0, 1.0, 5e-324)
    COLLAPSING = (0.0, 5e-324, 0.0, 5e-324, 0.95, 1.0)

    @staticmethod
    def _ends(iv):
        return type(iv.lower), iv.lower, type(iv.upper), iv.upper

    @pytest.mark.parametrize("claim", [False, True])
    def test_partial_set(self, claim):
        m = PartialMediationMargins(*self.PARTIAL)
        assert self._ends(partial_bounds(m)) == (float, 0.5, float, 1.0)
        rep = compare(m, complete_claim=claim)
        for iv in (rep.simple_interval, rep.partial_interval):
            assert self._ends(iv) == (float, 0.5, float, 1.0)
        # The float collapse rounds 1 - y00 to 1, so its p1 is 0; taken on
        # fractions it is 5e-324, and the complete interval is [0.5, 0.5].
        with pytest.raises(PcUndefinedError):
            complete_bounds(collapse(m))
        assert rep.complete_interval == (BoundInterval(0.5, 0.5) if claim else None)
        assert self._ends(rep.combined_interval) == (
            float, 0.5, float, 0.5 if claim else 1.0)

    def test_a_p1_floats_round_to_0_is_rerun(self):
        # p1 is two halves of 5e-324, which floats round to 0 each; p0 is 0.
        values = (0.0, 0.0, 5e-324, 5e-324, 0.3, 0.5)
        assert _partial_parts(*values)[0] == 0.0
        assert _partial_parts(*map(Fraction, values))[0] == Fraction(5e-324)
        m = PartialMediationMargins(*values)
        assert self._ends(partial_bounds(m)) == (float, 1.0, float, 1.0)
        rep = compare(m)
        for iv in (rep.simple_interval, rep.partial_interval, rep.combined_interval):
            assert self._ends(iv) == (float, 1.0, float, 1.0)
        # Both numerators come from the exact run; the split's floats sum to 0.
        assert (rep.gamma, rep.delta) == (0.0, 0.0)
        assert (rep.numerator_simple, rep.numerator_partial) == (5e-324, 1e-323)
        assert report_bits(compare, m) == report_bits(reference_compare, m)

    def test_complete_set(self):
        m = CompleteMediationMargins(0.05, 1.0, 1.0, 5e-324)
        assert self._ends(complete_bounds(m)) == (float, 0.05, float, 0.05)

    def test_complete_set_through_compare(self):
        m = PartialMediationMargins(*self.COLLAPSING)
        a = 1 - 0.95  # exact in floats
        assert collapse(m) == CompleteMediationMargins(a, 1.0, 1.0, 5e-324)
        assert self._ends(complete_bounds(collapse(m))) == (float, a, float, a)
        assert self._ends(partial_bounds(m)) == (float, a, float, 1.0)
        rep = compare(m, complete_claim=True)
        assert self._ends(rep.simple_interval) == (float, a, float, 1.0)
        assert self._ends(rep.partial_interval) == (float, a, float, 1.0)
        assert self._ends(rep.complete_interval) == (float, a, float, a)
        assert self._ends(rep.combined_interval) == (float, a, float, a)

    @pytest.mark.parametrize("values", [PARTIAL, COLLAPSING])
    def test_report_agrees_with_the_reference(self, values):
        m = PartialMediationMargins(*values)
        for claim in (False, True):
            got = report_bits(compare, m, claim)
            assert got == report_bits(reference_compare, m, claim)
            assert all(isinstance(v, tuple) for v in got.values() if v is not None)

    def test_split_and_numerators_come_from_the_exact_run(self):
        # Each half of the partial numerator is 2.5e-324, which floats round to 0.
        assert _partial_parts(*self.PARTIAL)[2] == 0.0
        exact = _partial_parts(*map(Fraction, self.PARTIAL))
        for claim in (False, True):
            rep = compare(PartialMediationMargins(*self.PARTIAL), complete_claim=claim)
            split = rep.alpha, rep.beta, rep.gamma, rep.delta
            assert split == tuple(map(float, exact[3])) == (0.5, 0.5, 5e-324, 0.0)
            assert rep.numerator_partial == float(exact[2]) == 5e-324
            assert rep.numerator_simple == 5e-324
            assert {type(v) for v in (*split, rep.numerator_partial)} == {float}

    @pytest.mark.parametrize("kind, values", [
        ("partial", PARTIAL),
        ("partial", COLLAPSING),
        # p0 is two halves of 5e-324: 0 in floats, 5e-324 exactly
        ("partial", (5e-324, 5e-324, 5e-324, 0.0, 0.5, 0.0)),
        ("complete", (0.05, 1.0, 1.0, 5e-324)),
    ])
    def test_derived_rates_are_the_floats_of_the_exact_ones(self, kind, values):
        cls, kernel, derive = {
            "partial": (PartialMediationMargins, _partial_parts,
                        derive_simple_from_partial),
            "complete": (CompleteMediationMargins, _complete_parts,
                         derive_simple_from_complete),
        }[kind]
        d = derive(cls(*values))
        assert (type(d.p1), type(d.p0)) == (float, float)
        assert (d.p1, d.p0) == tuple(map(float, kernel(*map(Fraction, values))[:2]))

    def test_derived_rates_can_miss_the_simple_interval(self, tmp_path, capsys):
        # p1 is 5e-324 and p0 is 0.7 of it, which floats round to 5e-324 too:
        # compare's exact run gives the closed form [m0, 1], the float rates [0, 1].
        values = (5e-324, 0.0, 5e-324, 0.0, 0.3, 0.0)
        m = PartialMediationMargins(*values)
        assert self._ends(compare(m).simple_interval) == (float, 0.3, float, 1.0)
        assert exact_interval(_simple_parts, _partial_parts(
            *map(Fraction, values))[:2]) == BoundInterval(0.3, 1.0)
        d = derive_simple_from_partial(m)
        assert (d.p1, d.p0) == (5e-324, 5e-324)
        assert self._ends(simple_bounds(d)) == (float, 0.0, float, 1.0)
        path = tmp_path / "margins.json"
        path.write_text('{"y00": 5e-324, "y01": 0, "y10": 5e-324, "y11": 0, '
                        '"m0": 0.3, "m1": 0}')
        assert cli.run(["compare", "--margins", str(path)]) == 0
        out = capsys.readouterr().out
        assert "derived arm rates: p1 = 4.94066e-324, p0 = 4.94066e-324" in out
        assert "simple interval [0.3, 1]" in out
