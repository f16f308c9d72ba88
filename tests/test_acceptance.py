"""Acceptance gate: one test per acceptance criterion.

Each test logs a single "[criterion N] PASS/FAIL" line through the
``acceptance_log`` fixture; the lines are replayed in the terminal
summary.

The two-decimal references of criteria 2 and 3 are the exact values
at the quoted inputs rounded half-up. The source quotes the example-1
partial upper bound as 0.81, but its quoted inputs give exactly
40287/49162 = 0.8195, which rounds to 0.82; no reading of the bound
formula gives 0.81 within 0.005. Criterion 2 therefore uses 0.82 and
checks every reference against an exact ``Fraction`` derivation from
the quoted rates. Why the source prints 0.81 stays open: a single
changed input would reproduce all six example-1 entries, either
y01_zero in [0.150, 0.154] instead of 0.165 or m1_zero in
[0.985, 0.992] instead of 0.981.
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import pcbounds.cli as cli
from couplings import coupling_sweep_simple
from pcbounds import (
    BoundInterval,
    CompleteMediationMargins,
    InconsistentBoundsError,
    InsufficientDataError,
    PartialMediationMargins,
    PcUndefinedError,
    PotentialOutcomeLaw,
    SimpleMargins,
    compare,
    complete_bounds,
    derive_simple_from_partial,
    estimate_partial,
    margins_from_count_table,
    partial_bounds,
    read_records_csv,
    risk_ratio,
    simple_bounds,
    simulate_trial,
    soundness_report,
)
from pcbounds.cli import run
from pcbounds.core import _unit
from pcbounds.mediation import _collapsed_parts, _fields, _partial_parts


def best_runtime(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# Example-1 rates exactly as quoted in the source (the same values as
# the ``example1_margins`` fixture).
EXAMPLE1_ZERO_RATES = {
    "y00_zero": "0.98",
    "y01_zero": "0.165",
    "y10_zero": "0.315",
    "y11_zero": "0.143",
    "m0_zero": "0.73",
    "m1_zero": "0.981",
}


def exact_example1_values():
    """Exact rationals for the criterion-2 entries at the quoted rates.

    Written out from the documented formulas without calling pcbounds,
    so a wrong reference entry is caught independently of the library.
    """
    q00, q01, q10, q11, m0_zero, m1_zero = map(
        Fraction, EXAMPLE1_ZERO_RATES.values()
    )
    y00, y01, y10, y11 = 1 - q00, 1 - q01, 1 - q10, 1 - q11
    m0, m1 = 1 - m0_zero, 1 - m1_zero
    p1 = y10 * (1 - m1) + y11 * m1
    p0 = y00 * (1 - m0) + y01 * m0
    # One Frechet cap per mediator trajectory (M(0), M(1)).
    numerator = (
        min(q00, y10) * min(1 - m0, 1 - m1)
        + min(q00, y11) * min(1 - m0, m1)
        + min(q01, y10) * min(m0, 1 - m1)
        + min(q01, y11) * min(m0, m1)
    )
    lower = max(Fraction(0), 1 - p0 / p1)
    return {
        "partial lower": lower,
        "partial upper": min(Fraction(1), numerator / p1),
        "simple lower": lower,
        "simple upper": min(1 - p0, p1) / p1,
        "derived p1": p1,
        "derived p0": p0,
    }


def round_half_up(value, places=2):
    scale = 10**places
    return Fraction(math.floor(value * scale + Fraction(1, 2)), scale)


def test_criterion_1_reference_counts(acceptance_log, reference_counts):
    margins = margins_from_count_table(reference_counts)
    rr = risk_ratio(margins)
    iv = simple_bounds(margins)
    runtime = best_runtime(
        lambda: simple_bounds(margins_from_count_table(reference_counts))
    )
    problems = []
    if rr != 2.5:
        problems.append(f"risk ratio {rr!r} != 2.5")
    if abs(float(iv.lower) - 0.60) > 1e-9:
        problems.append(f"lower {float(iv.lower)} not 0.60 within 1e-9")
    if abs(float(iv.upper) - 1.00) > 1e-9:
        problems.append(f"upper {float(iv.upper)} not 1.00 within 1e-9")
    if runtime >= 1e-3:
        problems.append(f"runtime {runtime * 1e3:.3f} ms")
    ok = not problems
    acceptance_log(
        1,
        ok,
        "counts (30/100, 12/100): RR = 2.5, simple bounds [0.60, 1.00], "
        f"{runtime * 1e6:.0f} us"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_2_worked_example_1(acceptance_log, example1_margins):
    iv = partial_bounds(example1_margins)
    derived = derive_simple_from_partial(example1_margins)
    simple_iv = simple_bounds(derived)
    runtime = best_runtime(lambda: partial_bounds(example1_margins))
    checks = [
        ("partial lower", float(iv.lower), 0.65),
        ("partial upper", float(iv.upper), 0.82),
        ("simple lower", float(simple_iv.lower), 0.65),
        ("simple upper", float(simple_iv.upper), 1.00),
        ("derived p1", float(derived.p1), 0.69),
        ("derived p0", float(derived.p0), 0.24),
    ]
    problems = [
        f"{name} {got:.6f} vs reference {want} (diff {abs(got - want):.4f} > 0.005)"
        for name, got, want in checks
        if abs(got - want) > 0.005
    ]
    exact = exact_example1_values()
    problems += [
        f"{name} reference {want} is not the exact {float(exact[name]):.6f} "
        f"rounded half-up ({float(round_half_up(exact[name])):.2f})"
        for name, _, want in checks
        if Fraction(str(want)) != round_half_up(exact[name])
    ]
    if runtime >= 1e-3:
        problems.append(f"runtime {runtime * 1e3:.3f} ms")
    ok = not problems
    acceptance_log(
        2,
        ok,
        "example 1 matches all reference two-decimal values"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_2_exact_values_from_quoted_inputs(example1_margins):
    # What the six quoted probabilities actually give, frozen to guard
    # the computation itself. The exact upper is 40287/49162 = 0.8195,
    # so the source's printed 0.81 is off by more than the 0.005
    # reporting tolerance; criterion 2 uses the half-up rounding 0.82.
    iv = partial_bounds(example1_margins)
    assert float(iv.lower) == pytest.approx(0.6512259759279816, rel=1e-12)
    assert float(iv.upper) == pytest.approx(0.8194743907896341, rel=1e-12)
    assert compare(example1_margins).numerator_partial == pytest.approx(
        0.564018, rel=1e-12
    )
    derived = derive_simple_from_partial(example1_margins)
    assert float(derived.p1) == pytest.approx(0.688268, rel=1e-12)
    assert float(derived.p0) == pytest.approx(0.24005, rel=1e-12)
    exact_upper = exact_example1_values()["partial upper"]
    assert exact_upper == Fraction(40287, 49162)
    assert float(iv.upper) == pytest.approx(float(exact_upper), rel=1e-12)
    assert abs(float(iv.upper) - 0.81) > 0.005


def test_criterion_3_worked_example_2(acceptance_log, example2_margins):
    iv = partial_bounds(example2_margins)
    derived = derive_simple_from_partial(example2_margins)
    simple_iv = simple_bounds(derived)
    rep = compare(example2_margins)
    checks = [
        ("partial lower", float(iv.lower), 0.59),
        ("partial upper", float(iv.upper), 0.95),
        ("simple lower", float(simple_iv.lower), 0.59),
        ("simple upper", float(simple_iv.upper), 0.88),
        ("combined lower", float(rep.combined_interval.lower), 0.59),
        ("combined upper", float(rep.combined_interval.upper), 0.88),
        ("derived p1", float(derived.p1), 0.78),
        ("derived p0", float(derived.p0), 0.32),
    ]
    problems = [
        f"{name} {got:.6f} vs reference {want} (diff {abs(got - want):.4f} > 0.005)"
        for name, got, want in checks
        if abs(got - want) > 0.005
    ]
    ok = not problems
    acceptance_log(
        3,
        ok,
        "example 2: partial [0.59, 0.95], simple and combined [0.59, 0.88], "
        "derived (0.78, 0.32), all within 0.005"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_4_oracle_soundness(acceptance_log, criterion_4_sets):
    t0 = time.perf_counter()
    partial_violations = 0
    simple_violations = 0
    for k, margins in enumerate(criterion_4_sets):
        rep = soundness_report(margins, n_laws=1000, seed=k)
        partial_violations += rep.violations
        simple_violations += rep.simple_violations
    elapsed = time.perf_counter() - t0
    problems = []
    if partial_violations:
        problems.append(
            f"{partial_violations} of 52000 sampled laws fell outside the "
            f"partial interval"
        )
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f} s >= 30 s")
    ok = not problems
    acceptance_log(
        4,
        ok,
        f"52 margin sets x 1000 laws: 0 violations at 1e-9, {elapsed:.1f} s"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems
    assert simple_violations == 0


def test_criterion_5_sweep_equivalence(acceptance_log):
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10000):
        p1, p0 = rng.random(2)
        m = SimpleMargins(p1, p0)
        try:
            closed = simple_bounds(m)
        except PcUndefinedError:
            continue
        swept = coupling_sweep_simple(m)
        worst = max(
            worst,
            abs(float(swept.lower) - float(closed.lower)),
            abs(float(swept.upper) - float(closed.upper)),
        )
    elapsed = time.perf_counter() - t0
    problems = []
    if worst > 1e-9:
        problems.append(f"worst sweep/closed-form gap {worst:.3g} > 1e-9")
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.1f} s >= 5 s")
    ok = not problems
    acceptance_log(
        5,
        ok,
        f"10000 margin pairs: sweep matches closed form, worst gap "
        f"{worst:.2g}, {elapsed:.1f} s"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def _partial_property_violations(m):
    """Count LOWER-EQUALITY, TWO-X, and TERMWISE violations for one set.

    Reads the partial kernel, not ``compare``: the grid includes p1 = 0."""
    violations = []
    _, _, numerator, split, (t1, t2, t3, t4) = _partial_parts(*_fields(m))
    alpha, beta, _, _ = map(_unit, split)
    if not (t1 <= alpha and t2 <= alpha and t3 <= beta and t4 <= beta):
        violations.append("TERMWISE")
    if numerator > 2.0 * min(split[0] + split[1], split[2] + split[3]) + 1e-9:
        violations.append("TWO-X")
    derived = derive_simple_from_partial(m)
    if float(derived.p1) > 0.0:
        if float(partial_bounds(m).lower) != float(simple_bounds(derived).lower):
            violations.append("LOWER-EQUALITY")
    return violations


def test_criterion_6_dominance_properties(acceptance_log):
    grid = np.round(np.arange(0.0, 1.0000001, 0.05), 2)
    counts = {
        "LOWER-EQUALITY": 0,
        "TWO-X": 0,
        "TERMWISE": 0,
        "COMPLETE-DOMINANCE": 0,
        "TABLE-2": 0,
    }
    checked = 0
    for a in grid:
        for b in grid:
            for c in grid:
                for d in grid:
                    checked += 1
                    pm = PartialMediationMargins(
                        y00=1.0 - c, y01=d, y10=1.0 - c, y11=d,
                        m0=1.0 - a, m1=b,
                    )
                    for name in _partial_property_violations(pm):
                        counts[name] += 1
                    _, t2, t3, _ = _partial_parts(*_fields(pm))[4]
                    if _collapsed_parts(*_fields(pm))[2] != float(t2) + float(t3):
                        counts["TABLE-2"] += 1
                    derived = derive_simple_from_partial(pm)
                    if float(derived.p1) > 0.0:
                        cm = CompleteMediationMargins(1.0 - pm.m0, pm.m1,
                                                      1.0 - pm.y00, pm.y11)
                        upper_c = float(complete_bounds(cm).upper)
                        if upper_c > float(partial_bounds(pm).upper) + 1e-9:
                            counts["COMPLETE-DOMINANCE"] += 1
                        if upper_c > float(simple_bounds(derived).upper) + 1e-9:
                            counts["COMPLETE-DOMINANCE"] += 1
    rng = np.random.default_rng(6)
    randoms = 10000
    for _ in range(randoms):
        y00, y01, y10, y11, m0, m1 = rng.random(6)
        pm = PartialMediationMargins(y00=y00, y01=y01, y10=y10, y11=y11,
                                     m0=m0, m1=m1)
        for name in _partial_property_violations(pm):
            counts[name] += 1
    total = sum(counts.values())
    ok = total == 0
    acceptance_log(
        6,
        ok,
        f"grid of {checked} complete-margin points plus {randoms} random "
        "partial sets: 0 property violations"
        if ok
        else "violations: "
        + ", ".join(f"{k}={v}" for k, v in counts.items() if v),
    )
    assert ok, counts


def test_criterion_7_simulation_round_trip(acceptance_log, example1_margins):
    t0 = time.perf_counter()
    law = PotentialOutcomeLaw.independent(example1_margins)
    n = 10**6
    dataset = simulate_trial(law, n, seed=11)
    est = estimate_partial(dataset)
    problems = []
    stratum_sizes = {
        "y00": dataset.stratum_counts(0, 0)[1],
        "y01": dataset.stratum_counts(0, 1)[1],
        "y10": dataset.stratum_counts(1, 0)[1],
        "y11": dataset.stratum_counts(1, 1)[1],
        "m0": n,
        "m1": n,
    }
    for name, size in stratum_sizes.items():
        truth = float(getattr(example1_margins, name))
        got = float(getattr(est, name))
        se = (truth * (1.0 - truth) / size) ** 0.5
        if abs(got - truth) > 4.0 * se:
            problems.append(
                f"{name}: estimate {got:.5f} is {abs(got - truth) / se:.1f} SE "
                f"from {truth:.5f}"
            )
    iv = partial_bounds(est)
    if abs(float(iv.lower) - 0.6512259759279816) > 0.01:
        problems.append(f"recomputed lower {float(iv.lower):.4f} off by > 0.01")
    if abs(float(iv.upper) - 0.8194743907896341) > 0.01:
        problems.append(f"recomputed upper {float(iv.upper):.4f} off by > 0.01")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f} s >= 60 s")
    ok = not problems
    acceptance_log(
        7,
        ok,
        f"10^6 per arm round trip: margins within 4 SE, bounds within 0.01, "
        f"{elapsed:.1f} s"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems


def test_criterion_8_error_paths(acceptance_log, tmp_path, monkeypatch, capsys):
    problems = []

    with pytest.raises(PcUndefinedError):
        simple_bounds(SimpleMargins(p1=0.0, p0=0.5))
    no_events = tmp_path / "zero.json"
    no_events.write_text(json.dumps({"p1": 0.0, "p0": 0.5}))
    code = run(["simple", "--margins", str(no_events)])
    if code != 2:
        problems.append(f"p1 = 0 exited {code}, wanted 2")

    thin = tmp_path / "thin.csv"
    thin.write_text("x,m,y\n0,0,0\n0,1,1\n1,1,1\n")
    with pytest.raises(InsufficientDataError):
        estimate_partial(read_records_csv(thin))
    code = run(["partial", "--records", str(thin)])
    if code != 2:
        problems.append(f"empty stratum exited {code}, wanted 2")

    with pytest.raises(InconsistentBoundsError):
        BoundInterval(0.7, 0.3)
    margins_file = tmp_path / "partial.json"
    margins_file.write_text(json.dumps({
        "y00": 0.02, "y01": 0.835, "y10": 0.685, "y11": 0.857,
        "m0": 0.27, "m1": 0.019,
    }))

    def inconsistent(m):
        raise InconsistentBoundsError("lower bound 0.7 exceeds upper bound 0.3")

    regime = dataclasses.replace(cli._REGIMES["partial"], bounds=inconsistent)
    monkeypatch.setitem(cli._REGIMES, "partial", regime)
    capsys.readouterr()
    code = run(["partial", "--margins", str(margins_file)])
    if code != 1:
        problems.append(f"inconsistent bounds exited {code}, wanted 1")
    err = capsys.readouterr().err
    if err != "error: lower bound 0.7 exceeds upper bound 0.3\n":
        problems.append(f"inconsistent bounds printed {err!r}")

    ok = not problems
    acceptance_log(
        8,
        ok,
        "p1 = 0 -> exit 2, empty stratum -> exit 2, lower > upper -> "
        "error and exit 1"
        if ok
        else "; ".join(problems),
    )
    assert ok, problems
