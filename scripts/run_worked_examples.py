#!/usr/bin/env python3
"""Run the four bundled worked analyses end to end and print the results.

Covers the same ground as the CLI quick start in the README, but through
the library API, so it doubles as a smoke test after edits:

  1. exposure-only counts (30/100 exposed vs 12/100 unexposed),
  2. a mediator that tightens the upper bound (example 1 margins),
  3. a closed-form partial bound that does not help (example 2 margins),
     where the claim gate also rejects the complete-mediation reading,
  4. a standalone complete-mediation analysis.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from pcbounds import (
    AssumptionViolationError,
    CompleteMediationMargins,
    compare,
    complete_bounds,
    decomposition,
    margins_from_count_table,
    read_count_json,
    read_margins_json,
    risk_ratio,
    simple_bounds,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def show_interval(label: str, iv) -> None:
    print(f"  {label:<28s} [{float(iv.lower):.4f}, {float(iv.upper):.4f}]")


def example_counts() -> None:
    counts = read_count_json(DATA_DIR / "reference_counts.json")
    m = margins_from_count_table(counts)
    print("1. exposure and outcome only")
    print(f"  exposed   {counts.exposed_event}/{counts.exposed_total}"
          f"  (p1 = {float(m.p1):.2f})")
    print(f"  unexposed {counts.unexposed_event}/{counts.unexposed_total}"
          f"  (p0 = {float(m.p0):.2f})")
    print(f"  risk ratio                   {risk_ratio(m):.2f}")
    show_interval("PC bounds", simple_bounds(m))
    print()


def example_partial() -> None:
    m = read_margins_json(DATA_DIR / "example1_margins.json")
    alpha, beta, gamma, delta = decomposition(m)
    print("2. partial mediation (example 1 margins)")
    print(f"  alpha={alpha:.4f} beta={beta:.4f} gamma={gamma:.4f} delta={delta:.4f}")
    cmp = compare(m)
    show_interval("exposure-only bounds", cmp.simple_interval)
    show_interval("mediator-informed bounds", cmp.partial_interval)
    gain = float(cmp.simple_interval.upper) - float(cmp.partial_interval.upper)
    print(f"  upper bound tightened by     {gain:.4f}")
    print()


def example_looser() -> None:
    m = read_margins_json(DATA_DIR / "example2_margins.json")
    print("3. a closed-form partial bound that does not help (example 2 margins)")
    cmp = compare(m)
    show_interval("exposure-only bounds", cmp.simple_interval)
    show_interval("partial-mediation bounds", cmp.partial_interval)
    show_interval("intersection", cmp.combined_interval)
    print("  the closed-form mediator terms come out looser here, so the intersection")
    print("  keeps the exposure-only upper bound")
    try:
        compare(m, complete_claim=True)
    except AssumptionViolationError as exc:
        print(f"  complete-mediation claim rejected: {exc}")
    print()


def example_complete() -> None:
    m = CompleteMediationMargins(a=0.7, b=0.6, c=0.4, d=0.9)
    print("4. complete mediation (exposure acts only through the mediator)")
    print(f"  a={float(m.a)} b={float(m.b)} c={float(m.c)} d={float(m.d)}")
    show_interval("PC bounds", complete_bounds(m))
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()
    example_counts()
    example_partial()
    example_looser()
    example_complete()


if __name__ == "__main__":
    main()
