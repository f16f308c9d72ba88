#!/usr/bin/env python3
"""Stress the mediator-informed bounds against brute-force enumeration.

For each margin set (the two bundled examples plus randomly drawn ones)
the sweep draws joint laws matching the margins, computes the true PC of
every law by enumeration, and counts laws that escape the claimed
interval. Any violation is a bug in the bounds. The gap columns report
how close the sampled laws came to each endpoint; small gaps are
evidence the bounds are tight in practice, not a proof.

Typical run:

    python3 scripts/run_soundness_sweep.py --sets 20 --laws 500 --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from pcbounds import PartialMediationMargins, read_margins_json, soundness_report

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def random_margins(rng: np.random.Generator) -> PartialMediationMargins:
    y00, y01, y10, y11, m0, m1 = rng.uniform(0.0, 1.0, size=6)
    return PartialMediationMargins(y00=y00, y01=y01, y10=y10, y11=y11, m0=m0, m1=m1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=20,
                        help="number of random margin sets (default 20)")
    parser.add_argument("--laws", type=int, default=500,
                        help="laws drawn per margin set (default 500)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--confounded", action="store_true",
                        help="also run one deliberately broken sweep to "
                             "show the detector firing")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    named = [
        ("example 1", read_margins_json(DATA_DIR / "example1_margins.json")),
        ("example 2", read_margins_json(DATA_DIR / "example2_margins.json")),
    ]
    cases = named + [(f"random {k}", random_margins(rng)) for k in range(args.sets)]

    header = (f"{'margins':<12s} {'laws':>5s} {'viol':>5s} "
              f"{'lower gap':>10s} {'upper gap':>10s}")
    print(header)
    print("-" * len(header))
    start = time.perf_counter()
    total_viol = 0
    for k, (name, m) in enumerate(cases):
        rep = soundness_report(m, n_laws=args.laws, seed=args.seed + k)
        viol = rep.violations + rep.simple_violations
        total_viol += viol
        print(f"{name:<12s} {rep.n_laws:>5d} {viol:>5d}"
              f" {rep.lower_gap:>10.3g} {rep.upper_gap:>10.3g}")
    elapsed = time.perf_counter() - start

    print(f"\n{len(cases)} margin sets, {args.laws} laws each, {elapsed:.1f}s")
    if total_viol:
        print(f"FAILED: {total_viol} laws escaped their interval")
        return 1
    print("no violations")

    if args.confounded:
        rep = soundness_report(named[0][1], n_laws=args.laws, seed=args.seed,
                               confounded=True)
        print(f"\nconfounded control: {rep.violations} of {rep.n_laws} laws "
              f"escaped (worst {rep.worst_violation:.3g}); the detector fires "
              "when margins come from a broken design")
    return 0


if __name__ == "__main__":
    sys.exit(main())
