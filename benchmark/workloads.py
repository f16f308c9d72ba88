"""The benchmark workloads: seeded inputs, one op each, and its checks.

An op is one unit of user work. ``run(i)`` does op ``i`` and returns
what it produced; ``check(i, result)`` returns ``None`` or a message
naming what was wrong, and is kept out of the timed region. Op 0 is the
warm-up op: its input is fixed (a bundled example), so that the set-up
time a run reports does not depend on the workload seed. Ops 1, 2, ...
take their inputs from the seed; the library only ever sees those
generated inputs. ``run_peak(i)`` is op ``i`` at the size whose peak
memory a run reports; the peak-memory process runs it once per input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import warnings
from collections import namedtuple

import pcbounds as pb
import pcbounds.cli

SIZES = {
    "full": {
        "bounds_pool": 4096,
        "n_laws": 1000,
        "records_n": 1_000,
        "peak_records_n": 100_000,
        "cli_csv_n": 2_000,
        "cli_verify_samples": 200,
        "probe_reps": 100,
        "probe_records_n": 10_000,
    },
    "smoke": {
        "bounds_pool": 64,
        "n_laws": 50,
        "records_n": 200,
        "peak_records_n": 2_000,
        "cli_csv_n": 200,
        "cli_verify_samples": 20,
        "probe_reps": 5,
        "probe_records_n": 500,
    },
}

MARGIN_FIELDS = ("y00", "y01", "y10", "y11", "m0", "m1")

# An x-invariant set (y00 = y10, y01 = y11), for the complete-mediation path.
INVARIANT = (0.3, 0.6, 0.3, 0.6, 0.4, 0.7)

PROBE = "probe"
PROBE_RECORDS = "probe:records"

CLI_KEYS = ("simple_counts", "partial_json", "complete", "compare", "verify",
            "partial_records")


class Context:
    """What every workload needs: paths, seed, sizes and expected values."""

    def __init__(self, root, seed, smoke, expected, workdir):
        self.root = root
        self.seed = seed
        self.size = SIZES["smoke" if smoke else "full"]
        self.expected = expected
        self.workdir = workdir
        self.example1 = _margin_floats(self.data("example1_margins.json"))
        self.example2 = _margin_floats(self.data("example2_margins.json"))

    def data(self, name):
        return os.path.join(self.root, "data", name)


def _margin_floats(path):
    with open(path) as fh:
        values = json.load(fh)
    return tuple(float(values[k]) for k in MARGIN_FIELDS)


def load_law(path):
    with open(path) as fh:
        blocks = json.load(fh)
    return pb.PotentialOutcomeLaw(
        m_block=tuple(blocks["m_block"]), y_block=tuple(blocks["y_block"])
    )


def digest(obj) -> str:
    """sha256 of a JSON rendering of generated inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- checks shared by several workloads ------------------------------------


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


def check_interval(iv, expected: dict, label: str):
    lo, hi = expected["interval"]
    rel = expected["rel"]
    if _close(float(iv.lower), lo, rel) and _close(float(iv.upper), hi, rel):
        return None
    return (
        f"{label}: got [{float(iv.lower)!r}, {float(iv.upper)!r}], "
        f"want [{lo!r}, {hi!r}] (rel {rel:g})"
    )


def check_report(rep, claim: bool):
    """Combined interval inside every regime's; partial lower = simple lower.

    Containment allows ``CLAMP_TOL``: the complete-mediation lower endpoint
    is computed from rates derived along another route, and can exceed an
    equal simple upper endpoint by an ulp, which the library documents as
    float noise and collapses to a point interval.
    """
    regimes = [("simple", rep.simple_interval), ("partial", rep.partial_interval)]
    if claim:
        regimes.append(("complete", rep.complete_interval))
    c = rep.combined_interval
    tol = pb.CLAMP_TOL
    for name, iv in regimes:
        if iv is None:
            return f"{name} interval missing"
        if c.lower < iv.lower - tol or c.upper > iv.upper + tol:
            return f"combined {c!r} not within {name} {iv!r}"
    if rep.partial_interval.lower != rep.simple_interval.lower:
        return (
            f"partial lower {float(rep.partial_interval.lower)!r} != simple lower "
            f"{float(rep.simple_interval.lower)!r}"
        )
    return None


def check_simple(rep, floats):
    """The simple interval against the closed form recomputed from raw floats."""
    y00, y01, y10, y11, m0, m1 = floats
    p1 = y10 * (1.0 - m1) + y11 * m1
    p0 = y00 * (1.0 - m0) + y01 * m0
    lo = max(0.0, 1.0 - p0 / p1)
    hi = min(1.0 - p0, p1) / p1
    iv = rep.simple_interval
    if abs(float(iv.lower) - lo) > 1e-12 or abs(float(iv.upper) - hi) > 1e-12:
        return f"simple interval {iv} != recomputed [{lo!r}, {hi!r}]"
    return None


# --- workloads --------------------------------------------------------------


class Workload:
    """Base. Op i >= 1 repeats input ``(i - 1) % entries``, the same work each
    time, so that the loop can take every input's best time."""

    name = ""
    item = ""
    items_per_op = 1
    entries = 1
    rows = 0  # record rows per op, for per-row layer metrics

    def run_peak(self, i):
        return self.run(i)

    def instrument(self, tracer) -> None:
        """Wrap the benchmark's own layer calls for the traced run."""


def _bounds_set(rng: random.Random, k: int):
    """Six raw margins for pool slot k, and whether to claim complete mediation.

    Slots k % 8 in (3, 7) are x-invariant and claimed (a quarter of the
    pool); slots in (1, 5, 7) sit on the 0.05 grid, with ties and 0/1
    endpoints. Draws whose derived P(Y=1 | X<-1) is 0 are redrawn.
    """
    kind = k % 8
    claim = kind in (3, 7)
    grid = kind in (1, 5, 7)
    while True:
        v = [rng.randrange(21) / 20 if grid else rng.random() for _ in range(6)]
        if claim:
            v[2], v[3] = v[0], v[1]
        if v[2] * (1.0 - v[5]) + v[3] * v[5] > 0.0:
            return tuple(v), claim


class BoundsBatch(Workload):
    name = "bounds_batch"
    item = "sets"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = random.Random(f"bounds_batch:{ctx.seed}")
        self.pool = [(ctx.example1, False), (ctx.example2, False)] + [
            _bounds_set(rng, k) for k in range(2, ctx.size["bounds_pool"])
        ]
        self.entries = len(self.pool)
        self.validate = pb.PartialMediationMargins

    def input(self, i):
        return self.pool[(i - 1) % self.entries if i else 0]

    def inputs_digest(self):
        return digest(self.pool)

    def instrument(self, tracer):
        self.validate = tracer.wrap("core.validate", pb.PartialMediationMargins)

    def run(self, i):
        floats, claim = self.input(i)
        return pb.compare(self.validate(*floats), complete_claim=claim)

    def check(self, i, rep):
        floats, claim = self.input(i)
        err = check_report(rep, claim) or check_simple(rep, floats)
        if err is None and floats is self.ctx.example1:
            err = check_interval(
                rep.partial_interval, self.ctx.expected["example1_partial"], "example 1"
            )
        if err is None and floats is self.ctx.example2:
            err = check_interval(
                rep.combined_interval, self.ctx.expected["example2_combined"], "example 2"
            )
        return err


RoundTrip = namedtuple("RoundTrip", "n_per_arm written data partial report complete csv_bytes")


def round_trip(law, n_per_arm: int, seed: int, path: str) -> RoundTrip:
    """simulate -> write CSV -> read CSV -> estimate both regimes -> bounds."""
    records = pb.simulate_trial(law, n_per_arm, seed=seed)
    written = pb.write_records_csv(records, path)
    data = pb.read_records_csv(path)
    partial = pb.estimate_partial(data)
    with warnings.catch_warnings():
        # example 1 has a direct effect; the warning is the expected diagnostic
        warnings.simplefilter("ignore", pb.DirectEffectWarning)
        complete = pb.estimate_complete(data)
    return RoundTrip(
        n_per_arm, written, data, partial, pb.compare(partial), pb.complete_bounds(complete),
        os.path.getsize(path),
    )


def check_round_trip(rt: RoundTrip, truth, max_se: float):
    n_per_arm = rt.n_per_arm
    if rt.written != 2 * n_per_arm or len(rt.data) != 2 * n_per_arm:
        return f"wrote {rt.written} rows, read {len(rt.data)}, want {2 * n_per_arm}"
    for x in (0, 1):
        if rt.data.arm_counts(x)[1] != n_per_arm:
            return f"arm X={x} read back {rt.data.arm_counts(x)[1]} rows"
    for name in MARGIN_FIELDS:
        p = float(getattr(truth, name))
        if name.startswith("y"):
            n = rt.data.stratum_counts(int(name[1]), int(name[2]))[1]
        else:
            n = n_per_arm
        se = math.sqrt(p * (1.0 - p) / n)
        got = float(getattr(rt.partial, name))
        if abs(got - p) > max_se * se + 1e-12:
            return f"{name} = {got!r} is more than {max_se} SE ({se:.3g}) from {p!r}"
    return check_report(rt.report, False)


class RecordsRoundTrip(Workload):
    """One input per run: the simulate seed is the workload seed.

    Every op is the same work, so the run's op percentiles coincide. More
    simulate seeds per run would not spread the latency, and each adds a
    chance of about 4e-4 that correct code lands beyond the 4-SE check.
    The peak-memory op is the same round trip at ``peak_records_n`` per arm.
    """

    name = "records_round_trip"
    item = "records"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.n = ctx.size["records_n"]
        self.peak_n = ctx.size["peak_records_n"]
        self.items_per_op = self.rows = 2 * self.n
        self.law = load_law(ctx.data("example1_law.json"))
        self.truth = self.law.margins()
        self.csv = os.path.join(ctx.workdir, "round_trip.csv")
        self.csv_bytes = []

    def op_seed(self, i):
        return 0 if i == 0 else self.ctx.seed

    def inputs_digest(self):
        return digest([self.law.m_block, self.law.y_block, self.n, self.peak_n, self.op_seed(1)])

    def run(self, i):
        return round_trip(self.law, self.n, self.op_seed(i), self.csv)

    def run_peak(self, i):
        return round_trip(self.law, self.peak_n, self.op_seed(i), self.csv)

    def check(self, i, rt):
        self.csv_bytes.append(rt.csv_bytes)
        return check_round_trip(rt, self.truth, self.ctx.expected["round_trip_max_se"])


def _interval_line(stdout: str):
    for line in stdout.splitlines():
        if line.startswith("interval: "):
            return line
    return None


def _text_check(lo, hi, extra=None):
    want = f"interval: [{lo:.2f}, {hi:.2f}]"

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        got = _interval_line(stdout)
        if got != want:
            return f"printed {got!r}, want {want!r}"
        if extra is not None and extra not in stdout:
            return f"output lacks {extra!r}"
        return None

    return check


def _json_check(lo, hi, sig_digits):
    want = [float(f"{v:.{sig_digits}g}") for v in (lo, hi)]

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        try:
            got = json.loads(stdout)["interval"]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable JSON report: {e}"
        if [got["lower"], got["upper"]] != want:
            return f"JSON interval {got}, want {want}"
        return None

    return check


class CliMix:
    """The CLI subcommand mix, run in process by the probe.

    Its two generated inputs (a complete-margins file and a small record
    CSV) are written at set-up from the seed, and the library's answers
    for them are computed then; the bundled examples are compared with the
    frozen expected values.
    """

    def __init__(self, ctx: Context):
        size = ctx.size
        rng = random.Random(f"cli:{ctx.seed}")
        complete_path = os.path.join(ctx.workdir, "complete_margins.json")
        with open(complete_path, "w") as fh:
            json.dump({k: 0.05 + 0.9 * rng.random() for k in "abcd"}, fh)
        csv_path = os.path.join(ctx.workdir, "small.csv")
        law = load_law(ctx.data("example1_law.json"))
        pb.write_records_csv(pb.simulate_trial(law, size["cli_csv_n"], seed=ctx.seed), csv_path)

        def library(iv):
            return float(iv.lower), float(iv.upper)

        ex1 = ctx.expected["example1_partial"]["interval"]
        ex2 = ctx.expected["example2_combined"]["interval"]
        counts = ctx.data("reference_counts.json")
        self.mix = {
            "simple_counts": (
                ["simple", "--counts", counts],
                _text_check(*library(pb.simple_bounds(pb.margins_from_count_table(
                    pb.read_count_json(counts))))),
            ),
            "partial_json": (
                ["partial", "--margins", ctx.data("example1_margins.json"), "--json"],
                _json_check(*ex1, ctx.expected["cli_json_sig_digits"]),
            ),
            "complete": (
                ["complete", "--margins", complete_path],
                _text_check(*library(pb.complete_bounds(pb.read_margins_json(complete_path)))),
            ),
            "compare": (
                ["compare", "--margins", ctx.data("example2_margins.json")],
                _text_check(*ex2),
            ),
            "verify": (
                ["verify", "--margins", ctx.data("example1_margins.json"),
                 "--samples", str(size["cli_verify_samples"]), "--seed", "0"],
                _text_check(*ex1, "all sampled laws fall inside both intervals"),
            ),
            "partial_records": (
                ["partial", "--records", csv_path],
                _text_check(*library(pb.partial_bounds(pb.estimate_partial(
                    pb.read_records_csv(csv_path))))),
            ),
        }

    def run_in_process(self, key):
        """``cli.run`` on mix entry ``key`` in this process, stdout captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pb.cli.run(list(self.mix[key][0]))
        return code, out.getvalue()

    def check(self, key, result):
        return self.mix[key][1](*result)


WORKLOADS = {cls.name: cls for cls in (BoundsBatch, RecordsRoundTrip)}


def probe(ctx: Context, tracer, cli: CliMix):
    """Call every layer at fixed inputs under the tracer.

    The per-layer metrics are emitted on every workload's traced run; this
    supplies spans for the layers that workload does not call itself
    (``oracle.soundness_report`` and ``oracle.sample_laws``, at the same
    margins and seed, and ``cli.run`` on every mix entry). Each
    part runs under its own op id. Returns the soundness report, the round
    trip and a list of (op id, error or None), one per checked call.
    """
    size = ctx.size
    errors = []
    validate = tracer.wrap("core.validate", pb.PartialMediationMargins)
    tracer.op = PROBE
    for _ in range(size["probe_reps"]):
        for floats, claim in ((ctx.example1, False), (ctx.example2, False), (INVARIANT, True)):
            rep = pb.compare(validate(*floats), complete_claim=claim)
            errors.append((PROBE, check_report(rep, claim) or check_simple(rep, floats)))
    ex1 = pb.PartialMediationMargins(*ctx.example1)
    rep = pb.soundness_report(ex1, n_laws=size["n_laws"], seed=0)
    pb.sample_laws(ex1, size["n_laws"], seed=0)
    errors.append((PROBE, None if rep.passed else f"{rep.violations} violations"))

    tracer.op = PROBE_RECORDS
    law = load_law(ctx.data("example1_law.json"))
    n = size["probe_records_n"]
    rt = round_trip(law, n, 0, os.path.join(ctx.workdir, "probe.csv"))
    errors.append((tracer.op, check_round_trip(rt, law.margins(),
                                                ctx.expected["round_trip_max_se"])))
    for key in CLI_KEYS:
        tracer.op = f"cli:{key}"
        for _ in range(3):
            errors.append((tracer.op, cli.check(key, cli.run_in_process(key))))
    tracer.op = None
    return rep, rt, errors
