"""Command line interface.

Subcommands mirror the evidence regimes: ``simple`` (exposure and
outcome only), ``complete`` and ``partial`` (mediator-informed),
``compare`` (all applicable intervals intersected), ``verify`` (oracle
soundness check of the partial bounds), and ``simulate`` (draw trial
records from an explicit law). Every subcommand accepts ``--json`` for
a schema-stable machine report and ``--tol`` (a nonnegative number; NaN
or a negative value is invalid input), the reporting tolerance of the
consistency checks of ``complete``, ``partial`` and ``compare``; the
other subcommands accept it and ignore it.

``_REGIMES`` holds one record per evidence regime: its name, its margins
class, whose dataclass fields are the keys the help text, the input echo
and a wrong-kind error list, its assumption tags, and the bound,
derivation and estimator it runs. The margins reader, the parser and
the reports all read it, and ``complete`` and ``partial`` share one
handler that takes everything it calls from the record.

Exit codes: 0 success, 1 invalid input or a closed stdout, 2 inestimable
(undefined PC or missing strata), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

from .core import (
    REPORT_TOL,
    STRUCT_TOL,
    BoundInterval,
    InsufficientDataError,
    InvalidInputError,
    PcBoundsError,
    PcUndefinedError,
    _require_tol,
)
from .estimate import (
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
from .oracle import read_law_json, simulate_trial, soundness_report
from .simple import SimpleMargins, risk_ratio, simple_bounds

__all__ = ["BoundsReport", "run", "main"]


@dataclass(frozen=True)
class _Regime:
    """What defines one evidence regime for the CLI."""

    name: str
    margins: type
    tags: tuple[str, ...]
    bounds: Callable
    derive: Callable | None = None
    estimate: Callable | None = None  # (dataset, tol) -> margins

    @property
    def keys(self) -> str:
        return "{" + ", ".join(f.name for f in fields(self.margins)) + "}"

    @property
    def noun(self) -> str:
        mediation = "" if self.name == "simple" else "-mediation"
        return f"{self.name}{mediation} margins {self.keys}"


_BASE_TAGS = ("randomization", "exchangeability")
# Each lambda looks its function up when called, so a wrapper bound over it runs.
_REGIMES = {r.name: r for r in (
    _Regime("simple", SimpleMargins, _BASE_TAGS, lambda m: simple_bounds(m)),
    _Regime("complete", CompleteMediationMargins,
            ("A1", "A2", "A3", "complete-mediation", *_BASE_TAGS),
            lambda m: complete_bounds(m), lambda m: derive_simple_from_complete(m),
            lambda dataset, tol: estimate_complete(dataset, tol)),
    _Regime("partial", PartialMediationMargins, ("A1", "A2", "A3", *_BASE_TAGS),
            lambda m: partial_bounds(m), lambda m: derive_simple_from_partial(m),
            lambda dataset, tol: estimate_partial(dataset)),
)}
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
    return float(f"{x:.12g}") if x else 0.0


def _round_tree(obj):
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    return obj


def _print_report(r: BoundsReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_round_tree(asdict(r)), indent=2))
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


def _read_margins(path: str, regime: _Regime, command: str, **extra):
    """Read margins of the regime's kind; return them and the input echo."""
    m = read_margins_json(path)
    if not isinstance(m, regime.margins):
        held = next(r for r in _REGIMES.values() if type(m) is r.margins)
        raise InvalidInputError(
            f"{path}: holds {held.noun}, but '{command}' needs {regime.noun}"
        )
    echo = {"kind": f"{regime.name}-margins", "source": path, "values": asdict(m)}
    return m, {**echo, **extra}


def _counts_check(derived: SimpleMargins, counts_path: str, tol: float) -> str:
    """Say whether derived rates agree with an observed count table."""
    observed = margins_from_count_table(read_count_json(counts_path))
    pairs = zip((derived.p1, derived.p0), (observed.p1, observed.p0))
    div = max(abs(float(a) - float(b)) for a, b in pairs)
    if div > tol:
        return (
            f"derived rates disagree with the count table {counts_path}: max "
            f"divergence {div:.4g} exceeds {tol:.4g}"
        )
    return (
        f"derived rates agree with the count table {counts_path} "
        f"(max divergence {div:.4g} <= {tol:.4g})"
    )


def _rates_text(d: SimpleMargins) -> str:
    return f"derived arm rates: p1 = {float(d.p1):.6g}, p0 = {float(d.p0):.6g}"


def _cmd_simple(args, tol: float) -> tuple[BoundsReport, int]:
    if args.counts:
        table = read_count_json(args.counts)
        margins = derived = margins_from_count_table(table)
        echo = {"kind": "counts", "source": args.counts, "values": asdict(table)}
    else:
        margins, echo = _read_margins(args.margins, _REGIMES["simple"], "simple")
        derived = None
    rr = risk_ratio(margins)
    rr_text = "undefined (no events in either arm)" if math.isnan(rr) else f"{rr:.6g}"
    return BoundsReport(
        method="simple",
        interval=_REGIMES["simple"].bounds(margins),
        derived=derived,
        diagnostics=[f"risk ratio p1/p0 = {rr_text}"],
        assumptions=list(_REGIMES["simple"].tags),
        inputs_echo=echo,
    ), 0


def _cmd_mediated(args, tol: float) -> tuple[BoundsReport, int]:
    """``complete`` and ``partial``: margins or records in, one interval out."""
    regime = _REGIMES[args.command]
    notes: list[str] = []
    if args.records:
        dataset = read_records_csv(args.records)
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            margins = regime.estimate(dataset, tol)
        notes = [f"estimation warning: {w.message}" for w in ws] + [_MEDIATOR_NOTE]
        echo = {
            "kind": "records",
            "source": args.records,
            "n_records": len(dataset),
            "estimated_margins": asdict(margins),
        }
    else:
        margins, echo = _read_margins(args.margins, regime, args.command)
    derived = regime.derive(margins)
    diagnostics = [_rates_text(derived), *notes]
    if args.counts:
        diagnostics.append(_counts_check(derived, args.counts, tol))
    return BoundsReport(
        method=regime.name,
        interval=regime.bounds(margins),
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(regime.tags),
        inputs_echo=echo,
    ), 0


def _cmd_compare(args, tol: float) -> tuple[BoundsReport, int]:
    margins, echo = _read_margins(
        args.margins, _REGIMES["partial"], "compare", complete_claim=bool(args.complete)
    )
    claim_tol = STRUCT_TOL if args.tol is None else tol
    rep = compare(margins, complete_claim=args.complete, claim_tol=claim_tol)
    derived = derive_simple_from_partial(margins)
    intervals = {"simple": rep.simple_interval, "partial": rep.partial_interval}
    if rep.complete_interval is not None:
        intervals["complete"] = rep.complete_interval
    diagnostics = [_rates_text(derived)]
    diagnostics += [f"{name} interval {iv}" for name, iv in intervals.items()]
    winner = min(intervals, key=lambda name: float(intervals[name].upper))
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
        diagnostics.append(_counts_check(derived, args.counts, tol))
    regime = _REGIMES["complete" if args.complete else "partial"]
    return BoundsReport(
        method="compare",
        interval=rep.combined_interval,
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(regime.tags),
        inputs_echo=echo,
    ), 0


def _cmd_verify(args, tol: float) -> tuple[BoundsReport, int]:
    margins, echo = _read_margins(
        args.margins, _REGIMES["partial"], "verify",
        samples=args.samples, seed=args.seed, confounded=bool(args.confounded),
    )
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
    code = 3 if (not rep.passed and not rep.confounded) else 0
    names = [f.name for f in fields(rep)]
    return BoundsReport(
        method="verify",
        interval=rep.interval,
        derived=derive_simple_from_partial(margins),
        diagnostics=diagnostics,
        assumptions=list(_REGIMES["partial"].tags),
        inputs_echo=echo,
        # The report's fields after ``seed``, so a new field shows up here too.
        oracle={"samples": rep.n_laws, **{
            name: getattr(rep, name) for name in names[names.index("seed") + 1 :]
        }},
    ), code


def _cmd_simulate(args, tol: float) -> tuple[BoundsReport, int]:
    law = read_law_json(args.law)
    dataset = simulate_trial(law, n_per_arm=args.n, seed=args.seed)
    written = write_records_csv(dataset, args.out)
    diagnostics = [f"wrote {written} records to {args.out}"]
    for x in (0, 1):
        events, total = dataset.arm_counts(x)
        diagnostics.append(f"arm X={x}: {events} events in {total} records")
    return BoundsReport(
        method="simulate",
        interval=None,
        derived=None,
        diagnostics=diagnostics,
        inputs_echo={
            "kind": "law",
            "source": args.law,
            "n_per_arm": args.n,
            "seed": args.seed,
            "out": str(args.out),
        },
    ), 0


_COMMANDS = {
    "simple": (_cmd_simple, "bounds from exposure and outcome alone"),
    "complete": (_cmd_mediated, "bounds assuming complete mediation"),
    "partial": (
        _cmd_mediated,
        "bounds using the mediator without the complete-mediation claim",
    ),
    "compare": (_cmd_compare, "all applicable intervals, intersected"),
    "verify": (
        _cmd_verify,
        "sample laws at the given margins and test the bounds against them",
    ),
    "simulate": (_cmd_simulate, "draw trial records from a law file"),
}
_COUNTS_HELP = "optional count JSON cross-check of the derived arm rates"


def _add_margins(parser, regime: _Regime, **kwargs) -> None:
    parser.add_argument(
        "--margins", metavar="FILE", help=f"margins JSON file {regime.keys}", **kwargs
    )


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--json", action="store_true", help="emit the report as JSON on stdout"
    )
    shared.add_argument(
        "--tol",
        type=float,
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
    cmd = {
        name: sub.add_parser(name, parents=[shared], help=text)
        for name, (_, text) in _COMMANDS.items()
    }
    src = cmd["simple"].add_mutually_exclusive_group(required=True)
    src.add_argument("--counts", metavar="FILE", help="count JSON file")
    _add_margins(src, _REGIMES["simple"])
    for name in ("complete", "partial"):
        src = cmd[name].add_mutually_exclusive_group(required=True)
        _add_margins(src, _REGIMES[name])
        src.add_argument("--records", metavar="FILE", help="record CSV file (x,m,y)")
        cmd[name].add_argument("--counts", metavar="FILE", help=_COUNTS_HELP)

    p = cmd["compare"]
    _add_margins(p, _REGIMES["partial"], required=True)
    p.add_argument(
        "--complete",
        action="store_true",
        help="also claim complete mediation (requires y00 = y10 and y01 = y11)",
    )
    p.add_argument("--counts", metavar="FILE", help=_COUNTS_HELP)

    p = cmd["verify"]
    _add_margins(p, _REGIMES["partial"], required=True)
    p.add_argument("--samples", type=int, default=1000, help="laws to sample")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--confounded",
        action="store_true",
        help="break the no-confounding assumption on purpose (diagnostic mode)",
    )

    p = cmd["simulate"]
    p.add_argument("--law", metavar="FILE", required=True, help="law JSON file")
    p.add_argument("--n", type=int, required=True, help="participants per arm")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", metavar="FILE", required=True, help="output record CSV")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv (program name excluded), execute, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    tol = REPORT_TOL if args.tol is None else args.tol
    try:
        _require_tol("--tol", tol)
        report, code = _COMMANDS[args.command][0](args, tol)
    except (PcUndefinedError, InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PcBoundsError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_report(report, args.json)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed stdout (``| head``): the exit-time flush goes to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
