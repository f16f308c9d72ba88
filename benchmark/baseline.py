"""Measure the seed baseline into benchmark/baseline.json.

    python3 benchmark/baseline.py [--seeds 1-10]

Runs every workload of BENCHMARK.json once per seed with tracing off, one
run at a time, and records each end-to-end metric's median, quartiles and
spread (interquartile range over median), with the environment it was
measured in. The file's other keys (held-out seed, predictions) are kept.
Exits 1, writing nothing, if any run fails.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
        "date": datetime.date.today().isoformat(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    results = {}
    for name in names:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            run = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in run["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in run["metrics"].items()), flush=True)
        results[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            results[name][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals,
            }
            print(f"  {name} {metric}: median {med:.6g}, spread {(q3 - q1) / med:.4f}")
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text()) if path.exists() else {}
    baseline.update(environment=environment(), seeds=args.seeds,
                    run_seconds=declared["run_seconds"])
    baseline["workloads"] = results
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
