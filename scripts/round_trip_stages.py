#!/usr/bin/env python3
"""Time each stage of the record round trip, in process, against a parent commit.

    python3 scripts/round_trip_stages.py --parent REV [--rounds 10] [--reps 200]
                                         [--n 1000] [--out FILE]

The round trip is ``benchmark/workloads.py``'s ``round_trip`` on example 1's
law at ``--n`` records per arm (the benchmark's 10^3 by default), cut into
five stages: ``simulate`` (``simulate_trial``), ``write``
(``write_records_csv``), ``read`` (``read_records_csv``), ``estimate``
(``estimate_partial`` and ``estimate_complete``) and ``bounds`` (``compare``
and ``complete_bounds``); ``total`` is the whole op. The parent
(``git archive REV``), a second copy of it and the working tree are built,
and removed after, by ``scripts/bench_ab.py``'s ``with_trees``. Each round
starts one fresh interpreter per tree, the order rotating from round to
round; it warms up with one op, then times ``--reps`` ops with
``perf_counter`` around each stage and keeps each stage's fastest. The
summary gives each stage's best over all rounds, in microseconds, for every
tree, the change / parent and copy / parent ratios, and the A/A spread, the
largest per-round |copy / parent - 1|; the copy is an A/A control for the
tree's directory alone. A child that fails or prints no result stops the
script with exit code 2.
``--out FILE`` writes the summary and every round as JSON.

The per-layer trace of ``benchmark/run.py`` cannot resolve changes under
about 40%; a best-of-N stage timing can, because each stage here is a few
to a few hundred microseconds of deterministic work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench_ab import run_json, with_trees

STAGES = ("simulate", "write", "read", "estimate", "bounds", "total")
SIDES = ("parent", "copy", "change")

# Run as ``python -c CHILD N REPS LAW`` with the tree's src first on the path.
CHILD = """
import json, os, shutil, sys, tempfile, time, warnings
import pcbounds as pb

n, reps, law = int(sys.argv[1]), int(sys.argv[2]), pb.read_law_json(sys.argv[3])
warnings.simplefilter("ignore", pb.DirectEffectWarning)  # example 1 has a direct effect
workdir = tempfile.mkdtemp(prefix="round_trip_stages-")
path = os.path.join(workdir, "round_trip.csv")
clock = time.perf_counter
best = [float("inf")] * 6
try:
    for rep in range(reps + 1):  # rep 0 warms up and is not kept
        t0 = clock()
        records = pb.simulate_trial(law, n, seed=1)
        t1 = clock()
        pb.write_records_csv(records, path)
        t2 = clock()
        data = pb.read_records_csv(path)
        t3 = clock()
        partial, complete = pb.estimate_partial(data), pb.estimate_complete(data)
        t4 = clock()
        pb.compare(partial), pb.complete_bounds(complete)
        t5 = clock()
        if rep:
            times = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t5 - t0)
            best = [min(b, t) for b, t in zip(best, times)]
finally:
    shutil.rmtree(workdir)
print(json.dumps([b * 1e6 for b in best]))
"""


def run_child(tree: str, n: int, reps: int) -> dict:
    """One fresh interpreter in ``tree``: each stage's best over ``reps`` ops, in us."""
    law = os.path.join(tree, "data", "example1_law.json")
    cmd = [sys.executable, "-c", CHILD, str(n), str(reps), law]
    return dict(zip(STAGES, run_json(tree, cmd, f"stage child in {tree}",
                                     PYTHONPATH=os.path.join(tree, "src"))))


def measure(trees: dict, rounds: int, n: int, reps: int) -> list:
    """``rounds`` rounds, each one child per tree; round k starts at tree k mod 3."""
    runs = []
    for k in range(rounds):
        order = SIDES[k % 3:] + SIDES[: k % 3]
        runs.append({side: run_child(trees[side], n, reps) for side in order})
        print(f"  round {k + 1}/{rounds}: " + ", ".join(
            f"{side} {runs[-1][side]['total']:.1f} us" for side in SIDES), flush=True)
    return runs


def summarize(runs: list) -> dict:
    """Per stage, each tree's best over the rounds, the ratios to the parent and
    the A/A spread, the largest per-round |copy / parent - 1|."""
    summary = {}
    for stage in STAGES:
        best = {side: min(r[side][stage] for r in runs) for side in SIDES}
        ratios = {f"{side}_over_parent": round(best[side] / best["parent"], 4)
                  for side in ("change", "copy")}
        times = {f"{side}_us": round(v, 2) for side, v in best.items()}
        spread = max(abs(r["copy"][stage] / r["parent"][stage] - 1) for r in runs)
        summary[stage] = times | ratios | {"aa_spread": round(spread, 4)}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--reps", type=int, default=200, help="timed ops per child")
    p.add_argument("--n", type=int, default=1000, help="records per arm")
    p.add_argument("--out", metavar="FILE")
    args = p.parse_args(argv)
    if min(args.rounds, args.reps, args.n) < 1:
        p.error("--rounds, --reps and --n must be positive")
    runs = with_trees(args.parent,
                      lambda trees: measure(trees, args.rounds, args.n, args.reps))
    if runs is None:
        return 2
    summary = summarize(runs)
    print(f"{'stage':9s} {'parent':>10s} {'copy':>10s} {'change':>10s} "
          f"{'change/parent':>14s} {'copy/parent':>12s} {'A/A':>6s}"
          f"   (best of {args.rounds}, us)")
    for stage, row in summary.items():
        print(f"{stage:9s} {row['parent_us']:10.1f} {row['copy_us']:10.1f} "
              f"{row['change_us']:10.1f} {row['change_over_parent']:14.3f} "
              f"{row['copy_over_parent']:12.3f} {row['aa_spread']:6.3f}")
    if args.out:
        report = {"parent": args.parent, "rounds": args.rounds, "reps": args.reps,
                  "n_per_arm": args.n, "summary": summary, "runs": runs}
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
