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

A report is a plain dict: each subcommand returns the keys it sets, ``run`` sets
``method`` to its name and takes the rest, and the order of all seven, from ``_REPORT``.
``--json`` prints it as the tree ``_round_tree`` makes of it.

``_REGIMES`` holds one record per evidence regime: its name, its margins
class, whose ``__match_args__`` are the keys the help text, the input echo
and a wrong-kind error list, its assumption tags, and the bound,
derivation and estimator it runs. The margins reader, the parser and
the reports all read it, and ``complete`` and ``partial`` share one
handler that takes everything it calls from the record. Every library
name is called as ``pb.<name>``, so the package alone decides which
names load numpy (only ``--records``, ``simulate`` and ``verify`` do).

Exit codes: 0 success, 1 invalid input, a closed stdout or numpy missing,
2 inestimable (undefined PC or missing strata), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from collections.abc import Callable

import pcbounds as pb

from .core import _frozen, _require_tol

__all__ = ["run", "main"]


@_frozen()
class _Regime:
    """What defines one evidence regime for the CLI."""

    name: str
    margins: type
    tags: tuple[str, ...]
    bounds: Callable
    derive: Callable | None
    estimate: Callable | None  # (dataset, tol) -> margins

    @property
    def keys(self) -> str:
        return "{" + ", ".join(self.margins.__match_args__) + "}"

    @property
    def noun(self) -> str:
        mediation = "" if self.name == "simple" else "-mediation"
        return f"{self.name}{mediation} margins {self.keys}"


_BASE_TAGS = ("randomization", "exchangeability")
# Each lambda looks its name up per call: a bound wrapper runs, numpy loads late.
_REGIMES = {r.name: r for r in (
    _Regime("simple", pb.SimpleMargins, _BASE_TAGS, lambda m: pb.simple_bounds(m),
            None, None),
    _Regime("complete", pb.CompleteMediationMargins,
            ("A1", "A2", "A3", "complete-mediation", *_BASE_TAGS),
            lambda m: pb.complete_bounds(m),
            lambda m: pb.derive_simple_from_complete(m),
            lambda dataset, tol: pb.estimate_complete(dataset, tol)),
    _Regime("partial", pb.PartialMediationMargins, ("A1", "A2", "A3", *_BASE_TAGS),
            lambda m: pb.partial_bounds(m), lambda m: pb.derive_simple_from_partial(m),
            lambda dataset, tol: pb.estimate_partial(dataset)),
)}
_MEDIATOR_NOTE = (
    "mediator response rates are read from exposure-randomized strata; the "
    "mediator itself is not randomized (response-surface identification assumed)"
)


_REPORT = {"method": None, "interval": None, "derived": None, "diagnostics": [],
           "assumptions": [], "inputs_echo": {}, "oracle": None}


def _sig12(x: float) -> float:
    """Round a float to 12 significant digits."""
    return float(f"{x:.12g}") if x else 0.0


def _round_tree(obj):
    """JSON of a report: floats to 12 digits, a frozen value as a dict of its fields."""
    if isinstance(obj, float):
        return _sig12(obj)
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(v) for v in obj]
    if hasattr(obj, "__match_args__"):
        return {k: _round_tree(getattr(obj, k)) for k in obj.__match_args__}
    return obj


def _print_report(r: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_round_tree(r), indent=2))
        return
    print(f"method: {r['method']}")
    if (interval := r["interval"]) is not None:
        print(f"interval: [{interval.lower:.2f}, {interval.upper:.2f}]")
    if (derived := r["derived"]) is not None:
        print(f"derived: P(Y=1 | X<-1) = {derived.p1:.4f}, "
              f"P(Y=1 | X<-0) = {derived.p0:.4f}")
    if r["assumptions"]:
        print("assumptions: " + ", ".join(r["assumptions"]))
    if r["diagnostics"]:
        print("diagnostics:")
        for line in r["diagnostics"]:
            print(f"  - {line}")


def _read_margins(path: str, regime: _Regime, command: str, **extra):
    """Read margins of the regime's kind; return them and the input echo."""
    m = pb.read_margins_json(path)
    if not isinstance(m, regime.margins):
        held = next(r for r in _REGIMES.values() if type(m) is r.margins)
        raise pb.InvalidInputError(
            f"{path}: holds {held.noun}, but '{command}' needs {regime.noun}"
        )
    return m, dict(kind=f"{regime.name}-margins", source=path, values=m, **extra)


def _counts_check(derived: pb.SimpleMargins, counts_path: str, tol: float) -> str:
    """Say whether derived rates agree with an observed count table."""
    observed = pb.margins_from_count_table(pb.read_count_json(counts_path))
    pairs = zip((derived.p1, derived.p0), (observed.p1, observed.p0))
    div = max(abs(a - b) for a, b in pairs)
    if div > tol:
        return (
            f"derived rates disagree with the count table {counts_path}: max "
            f"divergence {div:.4g} exceeds {tol:.4g}"
        )
    return (
        f"derived rates agree with the count table {counts_path} "
        f"(max divergence {div:.4g} <= {tol:.4g})"
    )


def _rates_text(d: pb.SimpleMargins) -> str:
    return f"derived arm rates: p1 = {d.p1:.6g}, p0 = {d.p0:.6g}"


def _cmd_simple(args, tol: float) -> tuple[dict, int]:
    if args.counts:
        table = pb.read_count_json(args.counts)
        margins = derived = pb.margins_from_count_table(table)
        echo = {"kind": "counts", "source": args.counts, "values": table}
    else:
        margins, echo = _read_margins(args.margins, _REGIMES["simple"], "simple")
        derived = None
    rr = pb.risk_ratio(margins)
    rr_text = "undefined (no events in either arm)" if math.isnan(rr) else f"{rr:.6g}"
    return dict(
        interval=_REGIMES["simple"].bounds(margins),
        derived=derived,
        diagnostics=[f"risk ratio p1/p0 = {rr_text}"],
        assumptions=list(_REGIMES["simple"].tags),
        inputs_echo=echo,
    ), 0


def _cmd_mediated(args, tol: float) -> tuple[dict, int]:
    """``complete`` and ``partial``: margins or records in, one interval out."""
    regime = _REGIMES[args.command]
    notes: list[str] = []
    if args.records:
        dataset = pb.read_records_csv(args.records)
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            margins = regime.estimate(dataset, tol)
        notes = [f"estimation warning: {w.message}" for w in ws] + [_MEDIATOR_NOTE]
        echo = {
            "kind": "records",
            "source": args.records,
            "n_records": len(dataset),
            "estimated_margins": margins,
        }
    else:
        margins, echo = _read_margins(args.margins, regime, args.command)
    derived = regime.derive(margins)
    diagnostics = [_rates_text(derived), *notes]
    if args.counts:
        diagnostics.append(_counts_check(derived, args.counts, tol))
    return dict(
        interval=regime.bounds(margins),
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(regime.tags),
        inputs_echo=echo,
    ), 0


def _cmd_compare(args, tol: float) -> tuple[dict, int]:
    margins, echo = _read_margins(
        args.margins, _REGIMES["partial"], "compare", complete_claim=bool(args.complete)
    )
    claim_tol = pb.STRUCT_TOL if args.tol is None else tol
    rep = pb.compare(margins, complete_claim=args.complete, claim_tol=claim_tol)
    derived = pb.derive_simple_from_partial(margins)
    intervals = {"simple": rep.simple_interval, "partial": rep.partial_interval}
    if rep.complete_interval is not None:
        intervals["complete"] = rep.complete_interval
    diagnostics = [_rates_text(derived)]
    diagnostics += [f"{name} interval {iv}" for name, iv in intervals.items()]
    winner = min(intervals, key=lambda name: intervals[name].upper)
    diagnostics.append(f"{winner} upper bound is smallest")
    diagnostics.append(f"decomposition: alpha = {rep.alpha:.6g}, beta = {rep.beta:.6g}"
                       f", gamma = {rep.gamma:.6g}, delta = {rep.delta:.6g}")
    diagnostics.append(
        f"upper-bound numerators: simple {rep.numerator_simple:.6g}, "
        f"partial {rep.numerator_partial:.6g} "
        f"(ratio {rep.numerator_partial / rep.numerator_simple:.4g} <= 2)"
        if rep.numerator_simple > 0.0
        else f"upper-bound numerators: simple 0, partial {rep.numerator_partial:.6g}"
    )
    if args.counts:
        diagnostics.append(_counts_check(derived, args.counts, tol))
    regime = _REGIMES["complete" if args.complete else "partial"]
    return dict(
        interval=rep.combined_interval,
        derived=derived,
        diagnostics=diagnostics,
        assumptions=list(regime.tags),
        inputs_echo=echo,
    ), 0


def _cmd_verify(args, tol: float) -> tuple[dict, int]:
    margins, echo = _read_margins(
        args.margins, _REGIMES["partial"], "verify",
        samples=args.samples, seed=args.seed, confounded=bool(args.confounded),
    )
    rep = pb.soundness_report(
        margins, n_laws=args.samples, seed=args.seed, confounded=args.confounded
    )
    diagnostics = [
        f"sampled {rep.n_laws} laws at seed {rep.seed}; {rep.violations} fell "
        f"outside the partial interval, {rep.simple_violations} outside the "
        f"simple interval (tolerance {pb.STRUCT_TOL:g})",
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
    names = rep.__match_args__
    return dict(
        interval=rep.interval,
        derived=pb.derive_simple_from_partial(margins),
        diagnostics=diagnostics,
        assumptions=list(_REGIMES["partial"].tags),
        inputs_echo=echo,
        # The report's fields after ``seed``, so a new field shows up here too.
        oracle={"samples": rep.n_laws, **{
            name: getattr(rep, name) for name in names[names.index("seed") + 1 :]
        }},
    ), code


def _cmd_simulate(args, tol: float) -> tuple[dict, int]:
    law = pb.read_law_json(args.law)
    dataset = pb.simulate_trial(law, n_per_arm=args.n, seed=args.seed)
    written = pb.write_records_csv(dataset, args.out)
    diagnostics = [f"wrote {written} records to {args.out}"]
    for x in (0, 1):
        events, total = dataset.arm_counts(x)
        diagnostics.append(f"arm X={x}: {events} events in {total} records")
    return dict(
        diagnostics=diagnostics,
        inputs_echo={"kind": "law", "source": args.law, "n_per_arm": args.n,
                     "seed": args.seed, "out": str(args.out)},
    ), 0


_COMMANDS = {
    "simple": (_cmd_simple, "bounds from exposure and outcome alone"),
    "complete": (_cmd_mediated, "bounds assuming complete mediation"),
    "partial": (_cmd_mediated,
                "bounds using the mediator without the complete-mediation claim"),
    "compare": (_cmd_compare, "all applicable intervals, intersected"),
    "verify": (_cmd_verify,
               "sample laws at the given margins and test the bounds against them"),
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
        f"(default {pb.REPORT_TOL})",
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
    p.add_argument("--complete", action="store_true", help="also claim complete "
                   "mediation (requires y00 = y10 and y01 = y11)")
    p.add_argument("--counts", metavar="FILE", help=_COUNTS_HELP)

    p = cmd["verify"]
    _add_margins(p, _REGIMES["partial"], required=True)
    p.add_argument("--samples", type=int, default=1000, help="laws to sample")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--confounded", action="store_true", help="break the "
                   "no-confounding assumption on purpose (diagnostic mode)")

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
    tol = pb.REPORT_TOL if args.tol is None else args.tol
    try:
        _require_tol("--tol", tol)
        report, code = _COMMANDS[args.command][0](args, tol)
    except (pb.PcUndefinedError, pb.InsufficientDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as e:
        print(f"error: {e}; install pcbounds[records] for numpy", file=sys.stderr)
        return 1
    except (pb.PcBoundsError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _print_report(_REPORT | {"method": args.command} | report, args.json)
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
