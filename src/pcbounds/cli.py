"""Command line interface.

Subcommands mirror the evidence regimes: ``simple`` (exposure and
outcome only), ``complete`` and ``partial`` (mediator-informed),
``compare`` (all applicable intervals intersected), ``verify`` (oracle
soundness check of the partial bounds), and ``simulate`` (draw trial
records from an explicit law). Every subcommand accepts ``--json`` for
a schema-stable machine report and ``--tol`` to override the reporting
tolerance used by consistency checks (a nonnegative number; NaN or a
negative value is invalid input).

Exit codes: 0 success, 1 invalid input, 2 inestimable (undefined PC or
missing strata), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .core import (
    REPORT_TOL,
    STRUCT_TOL,
    AssumptionViolationError,
    BoundInterval,
    CountTable,
    InconsistentBoundsError,
    InsufficientDataError,
    InvalidInputError,
    LawGenerationError,
    PcUndefinedError,
    RecordParseError,
)
from .estimate import (
    Dataset,
    estimate_complete,
    estimate_partial,
    margins_from_count_table,
    read_count_json,
    read_margins_json,
    read_records_csv,
    write_records_csv,
)
from .mediation import (
    CompleteMediationMargins,
    PartialMediationMargins,
    compare,
    complete_bounds,
    derive_simple_from_complete,
    derive_simple_from_partial,
    partial_bounds,
)
from .oracle import PotentialOutcomeLaw, simulate_trial, soundness_report
from .simple import SimpleMargins, risk_ratio, simple_bounds

__all__ = ["BoundsReport", "run", "main"]

_SIMPLE_TAGS = ["randomization", "exchangeability"]
_PARTIAL_TAGS = ["A1", "A2", "A3", "randomization", "exchangeability"]
_COMPLETE_TAGS = ["A1", "A2", "A3", "complete-mediation", "randomization",
                  "exchangeability"]
_MEDIATOR_NOTE = (
    "mediator response rates are read from exposure-randomized strata; the "
    "mediator itself is not randomized (response-surface identification assumed)"
)


@dataclass
class BoundsReport:
    """Everything a subcommand reports, in one schema-stable shape."""

    method: str
    interval: BoundInterval | None
    derived: SimpleMargins | None
    diagnostics: list[str] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    inputs_echo: dict = field(default_factory=dict)
    oracle: dict | None = None


def _sig12(x: float) -> float:
    """Round a float to 12 significant digits."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0 if x == 0.0 else x
    return float(f"{x:.12g}")


def _round_tree(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return obj


def report_to_dict(r: BoundsReport) -> dict:
    """Serialize a report with floats at 12 significant digits."""
    out = {
        "method": r.method,
        "interval": (
            None
            if r.interval is None
            else {"lower": float(r.interval.lower), "upper": float(r.interval.upper)}
        ),
        "derived": (
            None
            if r.derived is None
            else {"p1": float(r.derived.p1), "p0": float(r.derived.p0)}
        ),
        "diagnostics": list(r.diagnostics),
        "assumptions": list(r.assumptions),
        "inputs_echo": r.inputs_echo,
        "oracle": r.oracle,
    }
    return _round_tree(out)


def _print_report(r: BoundsReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report_to_dict(r), indent=2))
        return
    print(f"method: {r.method}")
    if r.interval is not None:
        print(
            f"interval: [{float(r.interval.lower):.2f}, "
            f"{float(r.interval.upper):.2f}]"
        )
    if r.derived is not None:
        print(
            f"derived: P(Y=1 | X<-1) = {float(r.derived.p1):.4f}, "
            f"P(Y=1 | X<-0) = {float(r.derived.p0):.4f}"
        )
    if r.assumptions:
        print("assumptions: " + ", ".join(r.assumptions))
    if r.diagnostics:
        print("diagnostics:")
        for line in r.diagnostics:
            print(f"  - {line}")


def _margins_values(m) -> dict:
    if isinstance(m, SimpleMargins):
        return {"p1": float(m.p1), "p0": float(m.p0)}
    if isinstance(m, CompleteMediationMargins):
        return {"a": float(m.a), "b": float(m.b), "c": float(m.c), "d": float(m.d)}
    return {
        "y00": float(m.y00),
        "y01": float(m.y01),
        "y10": float(m.y10),
        "y11": float(m.y11),
        "m0": float(m.m0),
        "m1": float(m.m1),
    }


_KIND_NAMES = {
    SimpleMargins: "simple margins {p0, p1}",
    CompleteMediationMargins: "complete-mediation margins {a, b, c, d}",
    PartialMediationMargins: "partial-mediation margins "
    "{y00, y01, y10, y11, m0, m1}",
}


def _read_margins_of(path: str, want: type, command: str):
    m = read_margins_json(path)
    if not isinstance(m, want):
        raise InvalidInputError(
            f"{path}: holds {_KIND_NAMES[type(m)]}, but '{command}' needs "
            f"{_KIND_NAMES[want]}"
        )
    return m


def _read_law_json(path: str | Path) -> PotentialOutcomeLaw:
    path = Path(path)
    try:
        with path.open() as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise RecordParseError(f"{path}:{e.lineno}: invalid JSON: {e.msg}") from None
    if not isinstance(data, dict) or set(data) != {"m_block", "y_block"}:
        raise InvalidInputError(
            f"{path}: law file must be an object with exactly the fields "
            f"'m_block' (4 cells) and 'y_block' (16 cells)"
        )
    for name, size in (("m_block", 4), ("y_block", 16)):
        block = data[name]
        if not isinstance(block, list) or len(block) != size or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in block
        ):
            raise InvalidInputError(
                f"{path}: field {name!r} must be a list of {size} numbers"
            )
    return PotentialOutcomeLaw(
        m_block=tuple(float(v) for v in data["m_block"]),
        y_block=tuple(float(v) for v in data["y_block"]),
    )


def _counts_cross_check(
    derived: SimpleMargins, counts_path: str, tol: float, diagnostics: list[str]
) -> None:
    """Flag disagreement between derived rates and an observed count table."""
    table = read_count_json(counts_path)
    observed = margins_from_count_table(table)
    div = max(
        abs(float(derived.p1) - float(observed.p1)),
        abs(float(derived.p0) - float(observed.p0)),
    )
    if div > tol:
        diagnostics.append(
            f"derived rates disagree with the count table {counts_path}: max "
            f"divergence {div:.4g} exceeds {tol:.4g}"
        )
    else:
        diagnostics.append(
            f"derived rates agree with the count table {counts_path} "
            f"(max divergence {div:.4g} <= {tol:.4g})"
        )


def _estimation_warnings(ws) -> list[str]:
    return [f"estimation warning: {w.message}" for w in ws]


def _cmd_simple(args) -> tuple[BoundsReport, int]:
    if args.counts:
        table = read_count_json(args.counts)
        margins = margins_from_count_table(table)
        echo = {
            "kind": "counts",
            "source": args.counts,
            "values": {
                "exposed_event": table.exposed_event,
                "exposed_total": table.exposed_total,
                "unexposed_event": table.unexposed_event,
                "unexposed_total": table.unexposed_total,
            },
        }
        derived = margins
    else:
        margins = _read_margins_of(args.margins, SimpleMargins, "simple")
        echo = {
            "kind": "simple-margins",
            "source": args.margins,
            "values": _margins_values(margins),
        }
        derived = None
    iv = simple_bounds(margins)
    rr = risk_ratio(margins)
    rr_text = "undefined (no events in either arm)" if math.isnan(rr) else f"{rr:.6g}"
    report = BoundsReport(
        method="simple",
        interval=iv,
        derived=derived,
        diagnostics=[f"risk ratio p1/p0 = {rr_text}"],
        assumptions=list(_SIMPLE_TAGS),
        inputs_echo=echo,
    )
    return report, 0


def _cmd_complete(args, tol: float) -> tuple[BoundsReport, int]:
    diagnostics: list[str] = []
    if args.records:
        dataset = read_records_csv(args.records)
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            margins = estimate_complete(dataset, tol=tol)
        diagnostics.extend(_estimation_warnings(ws))
        diagnostics.append(_MEDIATOR_NOTE)
        echo = {
            "kind": "records",
            "source": args.records,
            "n_records": len(dataset),
            "estimated_margins": _margins_values(margins),
        }
    else:
        margins = _read_margins_of(args.margins, CompleteMediationMargins, "complete")
        echo = {
            "kind": "complete-margins",
            "source": args.margins,
            "values": _margins_values(margins),
        }
    derived = derive_simple_from_complete(margins)
    diagnostics.insert(
        0,
        f"derived arm rates: p1 = {float(derived.p1):.6g}, "
        f"p0 = {float(derived.p0):.6g}",
    )
    if args.counts:
        _counts_cross_check(derived, args.counts, tol, diagnostics)
    iv = complete_bounds(margins)
    report = BoundsReport(
        method="complete",
        interval=iv,
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(_COMPLETE_TAGS),
        inputs_echo=echo,
    )
    return report, 0


def _cmd_partial(args, tol: float) -> tuple[BoundsReport, int]:
    diagnostics: list[str] = []
    if args.records:
        dataset = read_records_csv(args.records)
        margins = estimate_partial(dataset)
        diagnostics.append(_MEDIATOR_NOTE)
        echo = {
            "kind": "records",
            "source": args.records,
            "n_records": len(dataset),
            "estimated_margins": _margins_values(margins),
        }
    else:
        margins = _read_margins_of(args.margins, PartialMediationMargins, "partial")
        echo = {
            "kind": "partial-margins",
            "source": args.margins,
            "values": _margins_values(margins),
        }
    derived = derive_simple_from_partial(margins)
    diagnostics.insert(
        0,
        f"derived arm rates: p1 = {float(derived.p1):.6g}, "
        f"p0 = {float(derived.p0):.6g}",
    )
    if args.counts:
        _counts_cross_check(derived, args.counts, tol, diagnostics)
    iv = partial_bounds(margins)
    report = BoundsReport(
        method="partial",
        interval=iv,
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(_PARTIAL_TAGS),
        inputs_echo=echo,
    )
    return report, 0


def _cmd_compare(args, tol: float | None) -> tuple[BoundsReport, int]:
    margins = _read_margins_of(args.margins, PartialMediationMargins, "compare")
    claim_tol = STRUCT_TOL if tol is None else tol
    rep = compare(margins, complete_claim=args.complete, claim_tol=claim_tol)
    derived = derive_simple_from_partial(margins)
    diagnostics = [
        f"derived arm rates: p1 = {float(derived.p1):.6g}, "
        f"p0 = {float(derived.p0):.6g}",
        f"simple interval {rep.simple_interval}",
        f"partial interval {rep.partial_interval}",
    ]
    uppers = {
        "simple": float(rep.simple_interval.upper),
        "partial": float(rep.partial_interval.upper),
    }
    if rep.complete_interval is not None:
        diagnostics.append(f"complete interval {rep.complete_interval}")
        uppers["complete"] = float(rep.complete_interval.upper)
    winner = min(uppers, key=uppers.get)
    diagnostics.append(f"{winner} upper bound is smallest")
    diagnostics.append(
        f"decomposition: alpha = {float(rep.alpha):.6g}, beta = "
        f"{float(rep.beta):.6g}, gamma = {float(rep.gamma):.6g}, delta = "
        f"{float(rep.delta):.6g}"
    )
    diagnostics.append(
        f"upper-bound numerators: simple {float(rep.numerator_simple):.6g}, "
        f"partial {rep.numerator_partial:.6g} "
        f"(ratio {rep.numerator_partial / float(rep.numerator_simple):.4g} <= 2)"
        if float(rep.numerator_simple) > 0.0
        else f"upper-bound numerators: simple 0, partial {rep.numerator_partial:.6g}"
    )
    if args.counts:
        _counts_cross_check(
            derived, args.counts, REPORT_TOL if tol is None else tol, diagnostics
        )
    assumptions = list(_COMPLETE_TAGS if args.complete else _PARTIAL_TAGS)
    report = BoundsReport(
        method="compare",
        interval=rep.combined_interval,
        derived=derived,
        diagnostics=diagnostics,
        assumptions=assumptions,
        inputs_echo={
            "kind": "partial-margins",
            "source": args.margins,
            "values": _margins_values(margins),
            "complete_claim": bool(args.complete),
        },
    )
    return report, 0


def _cmd_verify(args) -> tuple[BoundsReport, int]:
    margins = _read_margins_of(args.margins, PartialMediationMargins, "verify")
    rep = soundness_report(
        margins, n_laws=args.samples, seed=args.seed, confounded=args.confounded
    )
    diagnostics = [
        f"sampled {rep.n_laws} laws at seed {rep.seed}; {rep.violations} fell "
        f"outside the partial interval, {rep.simple_violations} outside the "
        f"simple interval (tolerance {STRUCT_TOL:g})",
        f"sampled PC range [{rep.min_true_pc:.6g}, {rep.max_true_pc:.6g}]; "
        f"endpoint gaps {rep.lower_gap:.4g} / {rep.upper_gap:.4g} "
        f"(observed slack, not a sharpness proof)",
    ]
    if rep.confounded:
        diagnostics.append(
            "mediator margins were deliberately arm-dependent (no-confounding "
            "broken); violations here are expected and diagnostic only"
        )
    elif not rep.passed:
        diagnostics.append(
            f"worst violation {rep.worst_violation:.6g}: the closed-form "
            f"interval failed against the oracle"
        )
    else:
        diagnostics.append("all sampled laws fall inside both intervals")
    report = BoundsReport(
        method="verify",
        interval=rep.interval,
        derived=derive_simple_from_partial(margins),
        diagnostics=diagnostics,
        assumptions=list(_PARTIAL_TAGS),
        inputs_echo={
            "kind": "partial-margins",
            "source": args.margins,
            "values": _margins_values(margins),
            "samples": args.samples,
            "seed": args.seed,
            "confounded": bool(args.confounded),
        },
        oracle={
            "samples": rep.n_laws,
            "violations": rep.violations,
            "simple_violations": rep.simple_violations,
            "worst_violation": rep.worst_violation,
            "min_true_pc": rep.min_true_pc,
            "max_true_pc": rep.max_true_pc,
            "lower_gap": rep.lower_gap,
            "upper_gap": rep.upper_gap,
            "confounded": rep.confounded,
        },
    )
    code = 3 if (not rep.passed and not rep.confounded) else 0
    return report, code


def _cmd_simulate(args) -> tuple[BoundsReport, int]:
    law = _read_law_json(args.law)
    dataset = simulate_trial(law, n_per_arm=args.n, seed=args.seed)
    written = write_records_csv(dataset, args.out)
    diagnostics = [f"wrote {written} records to {args.out}"]
    for x in (0, 1):
        events, total = dataset.arm_counts(x)
        diagnostics.append(f"arm X={x}: {events} events in {total} records")
    report = BoundsReport(
        method="simulate",
        interval=None,
        derived=None,
        diagnostics=diagnostics,
        assumptions=[],
        inputs_echo={
            "kind": "law",
            "source": args.law,
            "n_per_arm": args.n,
            "seed": args.seed,
            "out": str(args.out),
        },
    )
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    shared.add_argument(
        "--tol",
        type=float,
        default=None,
        metavar="X",
        help="override the reporting tolerance used by consistency checks "
        f"(default {REPORT_TOL})",
    )
    parser = argparse.ArgumentParser(
        prog="pcbounds",
        description="Bounds on the probability of causation from experimental "
        "data, with optional mediator information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simple", parents=[shared], help="bounds from exposure and outcome alone"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--counts", metavar="FILE", help="count JSON file")
    src.add_argument("--margins", metavar="FILE", help="margins JSON file {p1, p0}")

    p = sub.add_parser(
        "complete", parents=[shared], help="bounds assuming complete mediation"
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--margins", metavar="FILE", help="margins JSON file {a, b, c, d}"
    )
    src.add_argument("--records", metavar="FILE", help="record CSV file (x,m,y)")
    p.add_argument(
        "--counts",
        metavar="FILE",
        help="optional count JSON cross-check of the derived arm rates",
    )

    p = sub.add_parser(
        "partial",
        parents=[shared],
        help="bounds using the mediator without the complete-mediation claim",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--margins",
        metavar="FILE",
        help="margins JSON file {y00, y01, y10, y11, m0, m1}",
    )
    src.add_argument("--records", metavar="FILE", help="record CSV file (x,m,y)")
    p.add_argument(
        "--counts",
        metavar="FILE",
        help="optional count JSON cross-check of the derived arm rates",
    )

    p = sub.add_parser(
        "compare", parents=[shared], help="all applicable intervals, intersected"
    )
    p.add_argument(
        "--margins",
        metavar="FILE",
        required=True,
        help="margins JSON file {y00, y01, y10, y11, m0, m1}",
    )
    p.add_argument(
        "--complete",
        action="store_true",
        help="also claim complete mediation (requires y00 = y10 and y01 = y11)",
    )
    p.add_argument(
        "--counts",
        metavar="FILE",
        help="optional count JSON cross-check of the derived arm rates",
    )

    p = sub.add_parser(
        "verify",
        parents=[shared],
        help="sample laws at the given margins and test the bounds against them",
    )
    p.add_argument(
        "--margins",
        metavar="FILE",
        required=True,
        help="margins JSON file {y00, y01, y10, y11, m0, m1}",
    )
    p.add_argument("--samples", type=int, default=1000, help="laws to sample")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--confounded",
        action="store_true",
        help="break the no-confounding assumption on purpose (diagnostic mode)",
    )

    p = sub.add_parser(
        "simulate", parents=[shared], help="draw trial records from a law file"
    )
    p.add_argument("--law", metavar="FILE", required=True, help="law JSON file")
    p.add_argument("--n", type=int, required=True, help="participants per arm")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", metavar="FILE", required=True, help="output record CSV")
    return parser


_HANDLERS = {
    "simple": lambda args, tol: _cmd_simple(args),
    "complete": lambda args, tol: _cmd_complete(args, REPORT_TOL if tol is None else tol),
    "partial": lambda args, tol: _cmd_partial(args, REPORT_TOL if tol is None else tol),
    "compare": _cmd_compare,
    "verify": lambda args, tol: _cmd_verify(args),
    "simulate": lambda args, tol: _cmd_simulate(args),
}


def run(argv: list[str] | None = None) -> int:
    """Parse argv (program name excluded), execute, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.tol is not None and not args.tol >= 0.0:
        print(f"error: --tol must be a nonnegative number, got {args.tol!r}",
              file=sys.stderr)
        return 1
    try:
        report, code = _HANDLERS[args.command](args, args.tol)
    except (InvalidInputError, AssumptionViolationError, InconsistentBoundsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (PcUndefinedError, InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except LawGenerationError as e:
        print(f"error: verification could not complete: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_report(report, args.json)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
