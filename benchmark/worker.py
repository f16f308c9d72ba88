"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

    python3 benchmark/worker.py MODE WORKLOAD SEED SECONDS SMOKE EXPECTED_JSON WORKDIR

MODE is ``import`` (time ``import pcbounds`` only), ``setup`` (also run
the warm-up op), ``measure`` (then the untraced closed loop), ``peak``
(then the workload's peak-size ops, and report the process's peak RSS)
or ``trace`` (an untraced half, a traced half, and the layer probe). The
import is timed before the benchmark imports anything else of its own.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
_t0 = time.perf_counter()
import pcbounds  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402
from array import array  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_ERRORS = 5
# Layers whose self-time share is a declared metric: those both workloads
# call. The other layers' shares are reported alongside, undeclared.
SELF_PCT_LAYERS = ("core", "simple", "mediation", "bench")
# A timed loop changes CPU this often. On a shared 2-vCPU virtual machine,
# one vCPU at a time ran 40-50% slower for tens of seconds; a loop that
# stays on one vCPU can spend a whole run in such a spell (bounds_batch:
# 3 of 10 runs at about half speed), while one that alternates keeps
# running on the other vCPU too, and each input's best time comes from it.
ROTATE_S = 0.25


class Loop:
    """Ops, time and failures of one closed loop, and each input's best time.

    Only the best time per input is kept, so the loop's memory does not grow
    with the number of ops it runs.
    """

    def __init__(self, entries):
        self.best = array("d", [math.inf] * entries)
        self.ops = 0
        self.total = 0.0
        self.failed = 0
        self.errors = []

    def record(self, i, seconds):
        self.ops += 1
        self.total += seconds
        e = (i - 1) % len(self.best) if i else 0
        if seconds < self.best[e]:
            self.best[e] = seconds

    def fail(self, i, message):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"op {i}: {message}")


def run_op(wl, i, loop, run=None):
    """Time op i, then check it; an exception is a failed op."""
    run = run or wl.run
    clock = time.perf_counter
    t0 = clock()
    try:
        result = run(i)
    except Exception as e:  # a failed op is counted, the loop goes on
        loop.record(i, clock() - t0)
        loop.fail(i, f"{type(e).__name__}: {e}")
        return
    loop.record(i, clock() - t0)
    try:
        err = wl.check(i, result)
    except Exception as e:
        err = f"check raised {type(e).__name__}: {e}"
    if err:
        loop.fail(i, err)


def closed_loop(wl, seconds, first_op, tracer=None):
    """Run ops first_op, first_op + 1, ... until ``seconds`` have passed.

    The loop moves itself to the next CPU it may use every ``ROTATE_S``
    seconds (see there).
    """
    loop = Loop(wl.entries)
    run = None
    if tracer is not None:
        run = tracer.wrap("bench.op", wl.run)
    cpus = sorted(os.sched_getaffinity(0))
    now = time.perf_counter()
    deadline = now + seconds
    switch_at = now
    i = first_op
    try:
        while True:
            if len(cpus) > 1 and now >= switch_at:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                switch_at = now + ROTATE_S
            if tracer is not None:
                tracer.op = i
            run_op(wl, i, loop, run)
            i += 1
            now = time.perf_counter()
            if now >= deadline:
                break
            if tracer is not None and tracer.room_left() < spans.PROBE_RESERVE:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return loop, i


def loop_stats(wl, loop):
    """Throughput and latency percentiles over each input's best time.

    The machine's speed drifts by 10-20% over seconds; the best of an
    input's repeats is the figure that drift disturbs least.
    """
    best = [b for b in loop.best if b < math.inf]
    p90 = statistics.quantiles(best, n=10, method="inclusive")[-1] if len(best) > 1 else best[0]
    return {
        "ops": loop.ops,
        "repeats": loop.ops // wl.entries,
        "items_per_s": wl.items_per_op * len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": p90 * 1e3,
    }


def tally(out, *loops):
    """Add the ops, failures and first errors of ``loops`` to ``out``."""
    out.update(
        attempted=sum(loop.ops for loop in loops),
        failed=sum(loop.failed for loop in loops),
        errors=[e for loop in loops for e in loop.errors][:MAX_ERRORS],
    )
    return out


def warm_up(wl):
    loop = Loop(1)
    run_op(wl, 0, loop)
    return loop.total, loop


def median_or_nan(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(tracer, wl, probe_rep, probe_rt, probe_rows, overhead):
    """Per-layer numbers from the spans of the traced half and the probe."""
    recorded = tracer.spans
    own = spans.self_times(recorded)
    by_name = {}
    for s in recorded:
        by_name.setdefault(s[0], []).append(s)

    def dur(name):
        return [s[2] - s[1] for s in by_name.get(name, ())]

    def rows_of(op):
        if op == workloads.PROBE_RECORDS:
            return probe_rows
        return wl.rows if isinstance(op, int) else 0

    def per_row_us(name):
        return median_or_nan(
            (s[2] - s[1]) / rows_of(s[4]) / 1e3 for s in by_name.get(name, ()) if rows_of(s[4])
        )

    estimate_ns = {}
    for name in ("estimate.estimate_partial", "estimate.estimate_complete"):
        for s in by_name.get(name, ()):
            estimate_ns[s[4]] = estimate_ns.get(s[4], 0) + s[2] - s[1]

    m = {
        "core.validate_us": median_or_nan(dur("core.validate")) / 1e3,
        "simple.simple_bounds_us": median_or_nan(dur("simple.simple_bounds")) / 1e3,
        "mediation.partial_bounds_us": median_or_nan(dur("mediation.partial_bounds")) / 1e3,
        "mediation.complete_bounds_us": median_or_nan(dur("mediation.complete_bounds")) / 1e3,
        "mediation.compare_us": median_or_nan(dur("mediation.compare")) / 1e3,
        "oracle.soundness_report_ms": median_or_nan(dur("oracle.soundness_report")) / 1e6,
        "oracle.sample_laws_ms": median_or_nan(dur("oracle.sample_laws")) / 1e6,
        "oracle.laws_checked": probe_rep.n_laws,
        "oracle.simulate_trial_us_per_record": per_row_us("oracle.simulate_trial"),
        "estimate.write_records_csv_us_per_row": per_row_us("estimate.write_records_csv"),
        "estimate.read_records_csv_us_per_row": per_row_us("estimate.read_records_csv"),
        "estimate.estimate_ms": median_or_nan(estimate_ns.values()) / 1e6,
        "estimate.csv_bytes": median_or_nan(getattr(wl, "csv_bytes", []) + [probe_rt.csv_bytes]),
    }
    for key in workloads.CLI_KEYS:
        m[f"cli.run_ms.{key}"] = median_or_nan(
            s[2] - s[1] for s in by_name.get("cli.run", ()) if s[4] == f"cli:{key}"
        ) / 1e6
    # Self-time shares over the traced half's ops (the probe is excluded).
    in_loop = [k for k, s in enumerate(recorded) if isinstance(s[4], int)]
    total = sum(recorded[k][2] - recorded[k][1] for k in in_loop if recorded[k][0] == "bench.op")
    shares = dict.fromkeys((*spans.LAYERS, "bench"), 0)
    for k in in_loop:
        shares[spans.layer_of(recorded[k][0])] += own[k]
    self_pct = {layer: 100.0 * ns / total for layer, ns in shares.items()}
    for layer in SELF_PCT_LAYERS:
        m[f"{layer}.self_pct"] = self_pct[layer]
    m.update(overhead)
    return m, self_pct


def read_peak_mib(path):
    """Peak traced allocation of one read_records_csv call, in MiB."""
    tracemalloc.start()
    try:
        pcbounds.read_records_csv(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv):
    mode, name, seed, seconds, smoke, expected_path, workdir = argv
    if mode == "import":
        return {"import_s": IMPORT_S}
    with open(expected_path) as fh:
        expected = json.load(fh)
    ctx = workloads.Context(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        int(seed), smoke == "1", expected, workdir,
    )
    wl = workloads.WORKLOADS[name](ctx)
    warmup_s, warm = warm_up(wl)
    out = {"import_s": IMPORT_S, "warmup_s": warmup_s, "digest": wl.inputs_digest(),
           "item": wl.item}
    if mode == "setup":
        return tally(out, warm)
    seconds = float(seconds)
    if mode == "measure":
        loop, _ = closed_loop(wl, seconds, 1)
        out.update(loop_stats(wl, loop))
        return tally(out, warm, loop)
    if mode == "peak":
        loop = Loop(1)
        for i in range(1, wl.entries + 1):
            run_op(wl, i, loop, wl.run_peak)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return tally(out, warm, loop)

    # trace: untraced half, traced half, then the probe, all in one process
    plain, next_op = closed_loop(wl, seconds / 2, 1)
    tracer = spans.Tracer()
    cli = workloads.CliMix(ctx)
    tracer.install()
    wl.instrument(tracer)
    traced, _ = closed_loop(wl, seconds / 2, next_op, tracer)
    probe_rep, probe_rt, probe_errors = workloads.probe(ctx, tracer, cli)
    tracer.uninstall()
    probe_rows = 2 * ctx.size["probe_records_n"]
    peak = read_peak_mib(os.path.join(workdir, "probe.csv"))
    mean_plain = plain.total / plain.ops
    mean_traced = traced.total / traced.ops
    overhead = {
        "trace.overhead_ms": (mean_traced - mean_plain) * 1e3,
        "trace.overhead_pct": 100.0 * (mean_traced - mean_plain) / mean_plain,
    }
    metrics, self_pct = layer_metrics(tracer, wl, probe_rep, probe_rt, probe_rows, overhead)
    metrics["estimate.read_tracemalloc_peak_mib"] = peak
    trace_path = os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.json")
    tracer.write(trace_path)
    failures = [f"probe {op}: {err}" for op, err in probe_errors if err]
    out.update(
        metrics=metrics,
        self_pct=self_pct,
        spans=len(tracer.spans),
        spans_file=trace_path,
        ops_untraced=plain.ops,
        ops_traced=traced.ops,
        attempted=1 + plain.ops + traced.ops + len(probe_errors),
        failed=warm.failed + plain.failed + traced.failed + len(failures),
        errors=(warm.errors + plain.errors + traced.errors + failures)[:MAX_ERRORS],
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
