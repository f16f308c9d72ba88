"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest benchmark -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    printed = proc.stdout.splitlines()[:-1]
    for m in [*declared, {"name": "failed_ratio"}]:
        assert any(line.split()[:1] == [m["name"]] for line in printed), m["name"]


def test_corrupted_expected_value_fails_the_op(tmp_path):
    expected = json.loads(json.dumps(EXPECTED))
    expected["example1_partial"]["interval"][1] += 1e-9
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = bench("--workload", "bounds_batch", "--seed", "3", "--smoke",
                 "--expected", str(path))
    assert proc.returncode == 1
    res = result(proc)
    assert not res["correct"] and res["failed"] >= 1
    assert "example 1" in proc.stderr


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def inputs_digest(seed, sub):
        workdir = tmp_path / sub
        workdir.mkdir()
        ctx = workloads.Context(str(ROOT), seed, True, EXPECTED, str(workdir))
        return workloads.WORKLOADS[name](ctx).inputs_digest()

    first = inputs_digest(5, "a")
    assert inputs_digest(5, "b") == first
    assert inputs_digest(6, "c") != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "bounds_batch", "--seed", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
