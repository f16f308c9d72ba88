#!/usr/bin/env python3
"""Benchmark the working tree against a parent commit, in alternating pairs.

    python3 scripts/bench_ab.py --parent REV [--pairs 10] [--out FILE] [--smoke]
    python3 scripts/bench_ab.py --parent REV --cold-start N [--out FILE]

Three trees are built side by side in a scratch directory: the parent
commit twice (``git archive REV``) and the working tree once (its tracked
files and its untracked, not ignored, ones, as they are on disk). For each
workload in ``BENCHMARK.json``, pair k (k = 1, 2, ...) runs
``benchmark/run.py --seed k --trace 0`` in the parent and in the change, for
the ``run_seconds`` of ``BENCHMARK.json``, the parent first in odd pairs and
the change first in even ones. One A/A pair then runs the parent against
its second copy (seed 1), so that the spread the tree's directory alone
causes is printed next to each ratio. Then ``HELD_OUT_PAIRS`` pairs, k = 1
to 4, run at the held-out seed 4242, which no pair above uses, and are
summarized like the paired seeds, apart from them. Last, each workload runs
``benchmark/run.py --trace 1`` at seed 1, as pair 1, and at seed 2, as pair
2, and each per-layer metric of ``BENCHMARK.json`` is printed for each side.
Every run has ``PYTHONDONTWRITEBYTECODE=1``, no ``PYTHONPATH``, and starts
with every ``__pycache__`` of the three trees removed.

For each end-to-end metric a summary gives both sides' medians, the
parent's quartiles, the paired ratio (the median over pairs of change /
parent), the pairs the change won, whether the change's median is better
than the parent's by more than the parent's interquartile distance, and the
A/A spread |copy / parent - 1|. ``--out FILE`` writes every run, the
summary, the held-out pairs' summary (as ``held_out_seed_4242``, with the
summary's rows) and the per-layer values (as ``per_layer``) as JSON.
``--smoke`` passes ``--smoke`` to ``run.py`` and runs for 1 s. The exit
code is 1 when any op failed, 2 when a run could not run at all.

``--cold-start N`` times cold starts instead of the workloads: each command
of ``COLD_STARTS`` (``import pcbounds`` and the CLI's ``compare`` on example
1's margins, as text and as ``--json``, each with ``-S`` and without) runs
as a fresh interpreter in the root of the parent and of the change, with
``PYTHONPATH`` set to the tree's ``src``. One round writes the bytecode
caches and is not kept; then N rounds run every command on both sides, the
parent first in odd rounds and the change first in even ones. The summary
gives each side's best and median wall time in milliseconds, and the change /
parent ratio of each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 4242
HELD_OUT_PAIRS = 4
PER_LAYER_SEEDS = (1, 2)  # the parent first at the odd seed, the change at the even


def _quartiles(values: list) -> tuple:
    """(q1, q3) by linear interpolation, as ``numpy.percentile`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: dict, aa: dict, declared: list) -> dict:
    """Per workload and declared end-to-end metric, the paired comparison.

    ``pairs[workload]`` is a list of (parent, change) pairs of ``run.py``
    results; ``aa[workload]`` is a list of one (parent, copy) pair of the
    parent with itself; ``declared`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    summary = {}
    for workload, runs in pairs.items():
        rows = {}
        for metric in declared:
            name, higher = metric["name"], metric["better"] == "higher"
            a, b = ([r["metrics"][name]["value"] for r in side] for side in zip(*runs))
            ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
            q1, q3 = _quartiles(a)
            gain = statistics.median(b) - statistics.median(a)
            base, copy = (r["metrics"][name]["value"] for r in aa[workload][0])
            rows[name] = {
                "parent_median": statistics.median(a),
                "parent_q1": q1,
                "parent_q3": q3,
                "change_median": statistics.median(b),
                "ratio": statistics.median(ratios),
                "change_wins": sum(y > x if higher else y < x for x, y in zip(a, b)),
                "pairs": len(runs),
                "beyond_parent_iqr": (gain if higher else -gain) > q3 - q1,
                "aa_spread": abs(copy / base - 1) if base else float("nan"),
            }
        summary[workload] = rows
    return summary


def summarize_per_layer(per_layer: dict, declared: list) -> dict:
    """Per workload, each declared per-layer metric's and the failed ops' values on
    each side, in the order of the traced pairs ``per_layer[workload]``, a list of
    (parent, change) pairs of results as ``run.py`` prints them.

    ``declared`` is ``BENCHMARK.json``'s ``per_layer`` list.
    """
    names = [metric["name"] for metric in declared]
    summary = {}
    for w, pairs in per_layer.items():
        sides = list(zip(*pairs))  # the parent's results, then the change's
        rows = {name: {side: [r["metrics"][name]["value"] for r in results]
                       for side, results in zip(("parent", "change"), sides)}
                for name in names}
        rows["failed"] = {side: [r["failed"] for r in results]
                          for side, results in zip(("parent", "change"), sides)}
        summary[w] = rows
    return summary


def format_per_layer(per_layer: dict) -> str:
    seeds = ", ".join(map(str, PER_LAYER_SEEDS))
    lines = [f"per layer (--trace 1), seeds {seeds} on each side"]
    for workload, rows in per_layer.items():
        lines.append(f"{workload:40s} {'parent':>25s} {'change':>25s}")
        lines += [f"  {name:38s} " + " ".join(f"{v:12.6g}" for side in
                                               ("parent", "change") for v in r[side])
                  for name, r in rows.items()]
    return "\n".join(lines)


def format_summary(summary: dict) -> str:
    lines = []
    for workload, rows in summary.items():
        lines.append(f"{workload:16s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
                     f"{'won':>6s} {'>IQR':>5s} {'A/A':>7s}")
        for name, r in rows.items():
            lines.append(
                f"  {name:14s} {r['parent_median']:12.6g} {r['change_median']:12.6g} "
                f"{r['ratio']:7.4f} {r['change_wins']:>3d}/{r['pairs']:<2d} "
                f"{'yes' if r['beyond_parent_iqr'] else 'no':>5s} {r['aa_spread']:7.4f}"
            )
    return "\n".join(lines)


# The cold-start commands: the arguments of a fresh interpreter run in a tree.
_COMPARE = ["-m", "pcbounds.cli", "compare", "--margins", "data/example1_margins.json"]
COLD_STARTS = {
    "import -S": ["-S", "-c", "import pcbounds"],
    "import": ["-c", "import pcbounds"],
    "compare -S": ["-S", *_COMPARE],
    "compare": _COMPARE,
    "compare --json -S": ["-S", *_COMPARE, "--json"],
    "compare --json": [*_COMPARE, "--json"],
}


def summarize_cold(times: dict) -> dict:
    """Per command, each side's best and median milliseconds, and change / parent.

    ``times[command]`` maps ``"parent"`` and ``"change"`` to the wall times of
    their runs, in milliseconds.
    """
    summary = {}
    for command, sides in times.items():
        row = {side: {"best_ms": min(runs), "median_ms": statistics.median(runs)}
               for side, runs in sides.items()}
        for stat in ("best", "median"):
            row[f"{stat}_ratio"] = (row["change"][f"{stat}_ms"]
                                    / row["parent"][f"{stat}_ms"])
        summary[command] = row
    return summary


def format_cold(summary: dict) -> str:
    lines = [f"{'cold start (ms)':19s} {'parent best':>11s} {'median':>8s} "
             f"{'change best':>11s} {'median':>8s} {'best x':>7s} {'median x':>8s}"]
    for command, r in summary.items():
        lines.append(
            f"  {command:17s} {r['parent']['best_ms']:11.1f} "
            f"{r['parent']['median_ms']:8.1f} {r['change']['best_ms']:11.1f} "
            f"{r['change']['median_ms']:8.1f} {r['best_ratio']:7.3f} "
            f"{r['median_ratio']:8.3f}")
    return "\n".join(lines)


def _git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, **kwargs)


def build_trees(rev: str, scratch: str) -> dict:
    """The parent twice and the working tree once, under ``scratch``."""
    trees = {side: os.path.join(scratch, side) for side in ("parent", "copy", "change")}
    archive = os.path.join(scratch, "parent.tar")
    _git("archive", "--format=tar", "-o", archive, rev)
    for side in ("parent", "copy"):
        shutil.unpack_archive(archive, trees[side], "tar")
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard",
                  capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src, dst = os.path.join(ROOT, rel), os.path.join(trees["change"], rel)
        if os.path.isfile(src):  # a tracked file deleted on disk is left out
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst)
    return trees


class RunFailed(Exception):
    """A benchmark run could not run; nothing was measured."""


def run_json(tree: str, cmd: list, what: str, codes=(0,), **env):
    """The JSON on the last line ``cmd`` prints in ``tree``, run with ``env``, no
    other ``PYTHONPATH`` and ``PYTHONDONTWRITEBYTECODE=1``; RunFailed, naming
    ``what`` and the stderr, if it exits with a code not in ``codes`` or prints
    no JSON."""
    env = ({k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
           | {"PYTHONDONTWRITEBYTECODE": "1"} | env)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    why = f"exit {proc.returncode}"
    if proc.returncode in codes:
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            why = "no JSON result"
    raise RunFailed(f"{what}: {why}: {proc.stderr.strip()}")


def run_once(tree: str, trees: dict, workload: str, seed: int, args,
             trace: int = 0) -> dict:
    """One ``benchmark/run.py --trace TRACE`` in ``tree``: its last JSON line."""
    for top in trees.values():
        for path, dirs, _ in os.walk(top):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(path, "__pycache__"))
                dirs.remove("__pycache__")
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    result = run_json(tree, cmd + ["--smoke"] * args.smoke,
                      f"{workload} seed {seed} in {tree}", codes=(0, 1))
    print(f"  {os.path.basename(tree):6s} {workload} seed {seed} trace {trace}: "
          f"{result['failed']}/{result['attempted']} ops failed", flush=True)
    return result


def with_trees(rev: str, measure):
    """``measure(trees)`` on trees built in a scratch directory that is removed
    after; None, with the error printed, when a run could not run at all."""
    scratch = tempfile.mkdtemp(prefix="bench_ab-")
    try:
        return measure(build_trees(rev, scratch))
    except (RunFailed, subprocess.CalledProcessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_pair(trees: dict, workload: str, seed: int, k: int, args, trace=0) -> tuple:
    """(parent, change) at ``seed`` as pair ``k``: the parent runs first at an odd k."""
    order = ("parent", "change") if k % 2 else ("change", "parent")
    done = {s: run_once(trees[s], trees, workload, seed, args, trace) for s in order}
    return done["parent"], done["change"]


def run_pairs(trees: dict, workloads: list, args) -> dict:
    """The alternating pairs of every workload, then its A/A, held-out and
    per-layer pairs: per group and workload, a list of pairs of results."""
    runs = {"pairs": {}, "aa": {}, "held_out": {}, "per_layer": {}}
    for w in workloads:
        runs["pairs"][w] = [run_pair(trees, w, k, k, args)
                            for k in range(1, args.pairs + 1)]
        runs["aa"][w] = [tuple(run_once(trees[s], trees, w, 1, args)
                               for s in ("parent", "copy"))]
        runs["held_out"][w] = [run_pair(trees, w, HELD_OUT_SEED, k, args)
                               for k in range(1, HELD_OUT_PAIRS + 1)]
        runs["per_layer"][w] = [run_pair(trees, w, k, k, args, trace=1)
                                for k in PER_LAYER_SEEDS]
    return runs


def cold_start(trees: dict, rounds: int) -> dict:
    """Wall milliseconds of each side's runs of every cold-start command."""
    times = {command: {"parent": [], "change": []} for command in COLD_STARTS}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    for k in range(rounds + 1):  # round 0 writes the bytecode caches
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for command, args in COLD_STARTS.items():
            for side in order:
                env["PYTHONPATH"] = os.path.join(trees[side], "src")
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, *args], cwd=trees[side],
                                      env=env, capture_output=True, text=True)
                elapsed = (time.perf_counter() - start) * 1e3
                if proc.returncode:
                    raise RunFailed(f"{command} in {trees[side]}: exit "
                                    f"{proc.returncode}: {proc.stderr.strip()}")
                if k:
                    times[command][side].append(elapsed)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--smoke", action="store_true",
                   help="run.py --smoke, 1 s per run: a check that the script runs")
    p.add_argument("--out", help="write every run and the summary to this JSON file")
    p.add_argument("--cold-start", type=int, metavar="N",
                   help="time N rounds of fresh cold starts instead of the workloads")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.cold_start is not None:
        if args.cold_start < 1:
            p.error("--cold-start must be at least 1")
        return main_cold(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    args.seconds = 1 if args.smoke else declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    runs = with_trees(args.parent, lambda trees: run_pairs(trees, workloads, args))
    if runs is None:
        return 2
    summary, held_out = (summarize(runs[key], runs["aa"], declared["end_to_end"])
                         for key in ("pairs", "held_out"))
    per_layer = summarize_per_layer(runs["per_layer"], declared["per_layer"])
    print(format_summary(summary))
    print(f"held-out seed {HELD_OUT_SEED}: not in the medians above")
    print(format_summary(held_out))
    print(format_per_layer(per_layer))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": args.parent, "seconds": args.seconds,
                       "smoke": args.smoke, "runs": runs, "summary": summary,
                       f"held_out_seed_{HELD_OUT_SEED}": held_out,
                       "per_layer": per_layer}, fh, indent=1)
    return 1 if any(r["failed"] for group in runs.values() for pairs in group.values()
                    for pair in pairs for r in pair) else 0


def main_cold(args) -> int:
    """``--cold-start N``: the cold-start rounds, their summary and ``--out``."""
    times = with_trees(args.parent, lambda trees: cold_start(trees, args.cold_start))
    if times is None:
        return 2
    summary = summarize_cold(times)
    print(format_cold(summary))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": args.parent, "cold_start_rounds": args.cold_start,
                       "commands": {c: [sys.executable, *a] for c, a in
                                    COLD_STARTS.items()},
                       "times_ms": times, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
