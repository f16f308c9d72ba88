"""Run one pcbounds benchmark workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it finds the repository from its own location and
puts ``src/`` on the path of every process it starts. With ``--trace 0``
it prints the end-to-end metrics, with ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object; the lines
before it repeat the metrics for people. The exit code is 0 when every
op's answer was correct, 1 when any op failed, and 2 when the benchmark
could not run at all (nothing is measured and no result is printed).

``--smoke`` shrinks every input so a run takes seconds; the benchmark's
own tests use it. ``--expected`` names the JSON file of frozen expected
values (default ``benchmark/expected.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("bounds_batch", "records_round_trip")
# setup_s is the median over this many fresh processes: the measuring one,
# the peak-memory one, and set-up-only ones, half of them started before
# the measuring process and half after it, so that they sample the whole
# run. cli.import_ms and cli.interpreter_ms are medians over IMPORT_REPS.
SETUP_REPS = 15
IMPORT_REPS = 5
RUN_BUDGET_S = 170.0
REQUIRED = (
    "BENCHMARK.json",
    "src/pcbounds/__init__.py",
    "data/example1_margins.json",
    "data/example2_margins.json",
    "data/example1_law.json",
    "data/reference_counts.json",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.out_dir = HERE / "out"
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return left

    def worker(self, mode: str) -> dict:
        a = self.args
        workdir = tempfile.mkdtemp(prefix=f"{a.workload}-", dir=self.out_dir)
        cmd = [
            sys.executable, str(HERE / "worker.py"), mode, a.workload, str(a.seed),
            str(a.seconds), "1" if a.smoke else "0", str(a.expected), workdir,
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=self.timeout())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker timed out") from None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def interpreter_s(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                       timeout=self.timeout())
        return time.perf_counter() - t0

    def end_to_end(self):
        before = [self.worker("setup") for _ in range((SETUP_REPS - 2) // 2)]
        meas = self.worker("measure")
        peak = self.worker("peak")
        after = [self.worker("setup") for _ in range(SETUP_REPS - 2 - len(before))]
        runs = [*before, meas, peak, *after]
        digests = {r["digest"] for r in runs}
        if len(digests) != 1:
            raise BenchError("workers generated different inputs from one seed")
        metrics = {
            "items_per_s": meas["items_per_s"],
            "op_p50_ms": meas["op_p50_ms"],
            "op_p90_ms": meas["op_p90_ms"],
            "peak_rss_mib": peak["peak_rss_mib"],
            "setup_s": statistics.median(r["import_s"] + r["warmup_s"] for r in runs),
        }
        item = meas["item"]
        notes = [
            f"items_per_s is {item}_per_s: {meas['items_per_s']:.6g} {item}/s",
            f"op samples: {meas['ops']} ops, best of {meas['repeats']} repeats "
            f"of each input",
            f"setup_s samples: {SETUP_REPS} fresh processes "
            f"(import pcbounds + warm-up op)",
            f"peak_rss_mib: a fresh process running {peak['attempted'] - 1} peak-size ops",
        ]
        return runs, metrics, notes

    def per_layer(self):
        imports = [self.worker("import")["import_s"] for _ in range(IMPORT_REPS)]
        interp = [self.interpreter_s() for _ in range(IMPORT_REPS)]
        traced = self.worker("trace")
        metrics = dict(traced["metrics"])
        metrics["cli.import_ms"] = statistics.median(imports) * 1e3
        metrics["cli.interpreter_ms"] = statistics.median(interp) * 1e3
        shares = ", ".join(f"{k} {v:.3g}%" for k, v in traced["self_pct"].items())
        notes = [
            f"ops: {traced['ops_untraced']} untraced, {traced['ops_traced']} traced",
            f"self-time shares of the traced ops: {shares}",
            f"spans: {traced['spans']} written to "
            f"{os.path.relpath(traced['spans_file'], ROOT)}",
        ]
        return [traced], metrics, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--expected", type=Path, default=HERE / "expected.json")
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 60:
        p.error("--seconds must be in (0, 60]")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a pcbounds checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    runner = Runner(args)
    runner.out_dir.mkdir(exist_ok=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    try:
        runs, metrics, notes = runner.per_layer() if args.trace else runner.end_to_end()
        if set(metrics) != set(units):
            raise BenchError(
                f"measured metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
        unmeasured = sorted(k for k, v in metrics.items() if not math.isfinite(v))
        if unmeasured:
            raise BenchError(f"no measurement for {unmeasured}")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {err}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}, inputs sha256 {runs[-1]['digest']}")
    for name in units:
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
    print(f"  {'failed_ratio':40s} {failed / attempted:14.6g} ({failed}/{attempted} ops)")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
