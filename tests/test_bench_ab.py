"""``scripts/bench_ab.py`` and ``scripts/round_trip_stages.py`` on made-up runs."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import bench_ab  # noqa: E402
import round_trip_stages  # noqa: E402

DECLARED = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _result(metrics, failed=0):
    """A result as ``benchmark/run.py`` prints it, with these metric values."""
    return {"failed": failed, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def _pair(parent_items, change_items, parent_ms, change_ms):
    return (_result({"items_per_s": parent_items, "op_p50_ms": parent_ms}),
            _result({"items_per_s": change_items, "op_p50_ms": change_ms}))


def test_medians_quartiles_ratio_wins_and_aa_spread():
    pairs = {"w": [_pair(100.0, 150.0, 0.010, 0.006),
                   _pair(110.0, 150.0, 0.009, 0.007),
                   _pair(90.0, 80.0, 0.011, 0.012),
                   _pair(100.0, 160.0, 0.010, 0.006),
                   _pair(120.0, 170.0, 0.008, 0.005)]}
    aa = {"w": [_pair(100.0, 95.0, 0.010, 0.011)]}
    items = bench_ab.summarize(pairs, aa, DECLARED)["w"]["items_per_s"]
    assert items["parent_median"] == 100.0 and items["change_median"] == 150.0
    # numpy.percentile([90, 100, 100, 110, 120], [25, 75]) is [100, 110]
    assert (items["parent_q1"], items["parent_q3"]) == (100.0, 110.0)
    # the median of 1.5, 150/110, 80/90, 1.6 and 170/120
    assert items["ratio"] == pytest.approx(170 / 120)
    assert (items["change_wins"], items["pairs"]) == (4, 5)
    assert items["beyond_parent_iqr"]  # 50 more than the parent's IQR of 10
    assert items["aa_spread"] == pytest.approx(0.05)
    latency = bench_ab.summarize(pairs, aa, DECLARED)["w"]["op_p50_ms"]
    # lower is better: the change wins where its latency is smaller
    assert latency["change_wins"] == 4
    assert latency["change_median"] == 0.006
    assert latency["ratio"] == pytest.approx(0.625)  # of .6, 7/9, 12/11, .6, .625
    assert latency["beyond_parent_iqr"]
    assert latency["aa_spread"] == pytest.approx(0.1)


def test_a_gain_inside_the_parents_spread_is_not_beyond_it():
    pairs = {"w": [_pair(100.0, 104.0, 0.010, 0.010),
                   _pair(90.0, 94.0, 0.010, 0.010),
                   _pair(110.0, 114.0, 0.010, 0.010)]}
    aa = {"w": pairs["w"][:1]}
    rows = bench_ab.summarize(pairs, aa, DECLARED)["w"]
    assert rows["items_per_s"]["change_wins"] == 3
    # quartiles 95 and 105: a gain of 4 is inside the parent's IQR of 10
    assert not rows["items_per_s"]["beyond_parent_iqr"]
    assert rows["op_p50_ms"]["change_wins"] == 0  # a tie is not a win
    assert rows["op_p50_ms"]["ratio"] == 1.0


def test_one_pair_and_a_zero_parent():
    pairs = {"w": [_pair(0.0, 5.0, 0.010, 0.020)]}
    aa = {"w": pairs["w"][:1]}
    rows = bench_ab.summarize(pairs, aa, DECLARED)["w"]
    assert math.isnan(rows["items_per_s"]["ratio"])
    assert rows["items_per_s"]["parent_q1"] == rows["items_per_s"]["parent_q3"] == 0.0
    assert math.isnan(rows["items_per_s"]["aa_spread"])
    assert rows["op_p50_ms"]["ratio"] == 2.0 and rows["op_p50_ms"]["change_wins"] == 0
    text = bench_ab.format_summary(bench_ab.summarize(pairs, aa, DECLARED))
    assert text.splitlines()[1].split()[0] == "items_per_s"


def test_cold_start_best_median_and_ratios():
    times = {"import -S": {"parent": [40.0, 44.0, 41.0, 60.0],
                           "change": [30.0, 28.0, 29.0, 35.0]},
             "compare": {"parent": [70.0], "change": [77.0]}}
    summary = bench_ab.summarize_cold(times)
    row = summary["import -S"]
    assert row["parent"] == {"best_ms": 40.0, "median_ms": 42.5}
    assert row["change"] == {"best_ms": 28.0, "median_ms": 29.5}
    assert row["best_ratio"] == pytest.approx(0.7)
    assert row["median_ratio"] == pytest.approx(29.5 / 42.5)
    # one round: best and median are that run, and a slower change shows > 1
    assert summary["compare"]["best_ratio"] == pytest.approx(1.1)
    assert summary["compare"]["median_ratio"] == pytest.approx(1.1)
    lines = bench_ab.format_cold(summary).splitlines()
    assert [line.split()[:2] for line in lines[1:]] == [["import", "-S"],
                                                        ["compare", "70.0"]]
    assert lines[1].split()[2:] == ["40.0", "42.5", "28.0", "29.5", "0.700", "0.694"]


def test_cold_start_commands_are_the_import_and_the_cli_compare():
    commands = bench_ab.COLD_STARTS
    assert set(commands) == {"import -S", "import", "compare -S", "compare",
                             "compare --json -S", "compare --json"}
    assert commands["import -S"] == ["-S", "-c", "import pcbounds"]
    assert commands["compare -S"] == ["-S"] + commands["compare"]
    assert commands["compare"][-2:] == ["--margins", "data/example1_margins.json"]
    assert commands["compare --json"] == commands["compare"] + ["--json"]
    assert commands["compare --json -S"] == ["-S"] + commands["compare --json"]


def test_per_layer_is_each_metric_of_both_sides_in_seed_order():
    declared = [{"name": "core.validate_us", "unit": "us", "better": "lower"},
                {"name": "cli.import_ms", "unit": "ms", "better": "lower"}]

    def result(validate, failed=0):
        return _result({"core.validate_us": validate, "cli.import_ms": 9.0,
                        "undeclared": 1.0}, failed)
    pairs = [(result(1.3), result(1.7)), (result(1.2), result(1.4, failed=1))]
    rows = bench_ab.summarize_per_layer({"w": pairs}, declared)["w"]
    assert rows == {"core.validate_us": {"parent": [1.3, 1.2], "change": [1.7, 1.4]},
                    "cli.import_ms": {"parent": [9.0, 9.0], "change": [9.0, 9.0]},
                    "failed": {"parent": [0, 0], "change": [0, 1]}}
    lines = bench_ab.format_per_layer({"w": rows}).splitlines()
    assert "--trace 1" in lines[0] and lines[1].split() == ["w", "parent", "change"]
    assert [line.split() for line in lines[2:]] == [
        ["core.validate_us", "1.3", "1.2", "1.7", "1.4"],
        ["cli.import_ms", "9", "9", "9", "9"],
        ["failed", "0", "0", "0", "1"]]


TREES = {side: side for side in round_trip_stages.SIDES}


def test_held_out_pairs_alternate_share_the_summary_and_count_failed_ops(
        monkeypatch, tmp_path):
    calls, fail = [], [0]  # each run's (tree, seed, trace); the run that fails an op
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]]

    def run_once(tree, trees, workload, seed, args, trace=0):
        calls.append((tree, seed, trace))
        return _result(dict.fromkeys(names, 1.0), failed=int(len(calls) == fail[0]))
    monkeypatch.setattr(bench_ab, "build_trees", lambda rev, scratch: TREES)
    monkeypatch.setattr(bench_ab, "run_once", run_once)
    argv = ["--parent", "HEAD", "--pairs", "2", "--out", str(tmp_path / "ab.json")]
    assert bench_ab.main(argv) == 0
    report = json.loads((tmp_path / "ab.json").read_text())
    p, c, seed = "parent", "change", bench_ab.HELD_OUT_SEED
    workload = ([(p, 1, 0), (c, 1, 0), (c, 2, 0), (p, 2, 0), (p, 1, 0), ("copy", 1, 0)]
                + [(side, seed, 0) for side in (p, c, c, p) * 2]
                + [(p, 1, 1), (c, 1, 1), (c, 2, 1), (p, 2, 1)])
    assert calls == workload * len(report["summary"])
    # every run reads the same, so the rows differ only in their number of pairs
    assert report[f"held_out_seed_{seed}"] == {
        w: {name: r | {"pairs": bench_ab.HELD_OUT_PAIRS} for name, r in rows.items()}
        for w, rows in report["summary"].items()}
    for run in range(7, 15):  # a failed op in any held-out run of the first workload
        calls[:], fail[0] = [], run
        assert bench_ab.main(argv) == 1 and calls[run - 1][1] == seed


@pytest.mark.parametrize("stdout", ["", "Traceback (most recent call last):\n"])
@pytest.mark.parametrize("script", [bench_ab, round_trip_stages])
def test_no_json_result_exits_2_naming_the_run(script, stdout, monkeypatch, capsys):
    monkeypatch.setattr(bench_ab, "build_trees", lambda rev, scratch: TREES)
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 0, stdout, "the cause"))
    assert script.main(["--parent", "HEAD"]) == 2
    assert capsys.readouterr().err.endswith(" in parent: no JSON result: the cause\n")


def test_stage_aa_spread_is_the_largest_per_round_copy_parent_gap():
    def side(us):
        return dict.fromkeys(round_trip_stages.STAGES, us)
    runs = [{"parent": side(100.0), "copy": side(104.0), "change": side(90.0)},
            {"parent": side(110.0), "copy": side(99.0), "change": side(95.0)}]
    row = round_trip_stages.summarize(runs)["write"]
    # bests 100, 99 and 90; copy / parent is 1.04 in round 1 and 0.9 in round 2
    assert (row["copy_over_parent"], row["change_over_parent"]) == (0.99, 0.9)
    assert row["aa_spread"] == 0.1
