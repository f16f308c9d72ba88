"""Regenerate ``tests/cli_golden.json``, the frozen CLI transcript.

Runs a fixed matrix of ``pcbounds`` invocations in-process, in a fresh
temporary directory holding the input files under relative names, with
``COLUMNS=80``, and records each one's stdout, stderr and exit code
(plus the sha256 of any file it writes). ``tests/test_cli_golden.py``
replays the file and requires every byte to match.

Regenerate only from a commit whose CLI output is known good, since the
file is the reference the CLI is held to:

    PYTHONPATH=src python tests/make_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"


def _records_csv() -> str:
    """Example-1 records, 300 per arm, as the CLI's simulate writes them."""
    from pcbounds import PotentialOutcomeLaw, simulate_trial, write_records_csv

    law_path = Path(__file__).resolve().parent.parent / "data" / "example1_law.json"
    law = json.loads(law_path.read_text())
    dataset = simulate_trial(
        PotentialOutcomeLaw(tuple(law["m_block"]), tuple(law["y_block"])),
        n_per_arm=300,
        seed=3,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rec.csv"
        write_records_csv(dataset, out)
        return out.read_bytes().decode()


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def input_files() -> dict[str, str]:
    data = Path(__file__).resolve().parent.parent / "data"
    return {
        "ex1.json": (data / "example1_margins.json").read_text(),
        "ex2.json": (data / "example2_margins.json").read_text(),
        "law.json": (data / "example1_law.json").read_text(),
        "counts.json": (data / "reference_counts.json").read_text(),
        "xinv.json": _dump({"y00": 0.2, "y01": 0.8, "y10": 0.2, "y11": 0.8,
                            "m0": 0.3, "m1": 0.7}),
        "complete.json": _dump({"a": 0.7, "b": 0.6, "c": 0.4, "d": 0.9}),
        "simple.json": _dump({"p1": 0.3, "p0": 0.12}),
        "simple_p0zero.json": _dump({"p1": 0.4, "p0": 0.0}),
        "simple_p1zero.json": _dump({"p1": 0.0, "p0": 0.0}),
        "partial_p1zero.json": _dump({"y00": 0.1, "y01": 0.2, "y10": 0.0,
                                      "y11": 0.0, "m0": 0.3, "m1": 0.4}),
        "complete_p1zero.json": _dump({"a": 0.5, "b": 1.0, "c": 0.5, "d": 0.0}),
        "counts_far.json": _dump({"exposed_event": 90, "exposed_total": 100,
                                  "unexposed_event": 1, "unexposed_total": 100}),
        "counts_unknown.json": _dump({"exposed_event": 3, "exposed_total": 10,
                                      "unexposed_event": 1, "unexposed_total": 10,
                                      "extra": 1}),
        "counts_over.json": _dump({"exposed_event": 30, "exposed_total": 10,
                                   "unexposed_event": 1, "unexposed_total": 10}),
        "counts_float.json": _dump({"exposed_event": 3.0, "exposed_total": 10,
                                    "unexposed_event": 1, "unexposed_total": 10}),
        "counts_bool.json": _dump({"exposed_event": True, "exposed_total": 10,
                                   "unexposed_event": 1, "unexposed_total": 10}),
        "bad.json": '{"p1": 0.3,\n  "p0": }\n',
        "list.json": "[0.3, 0.12]\n",
        "keys.json": _dump({"p1": 0.3}),
        "nonnum.json": _dump({"p1": "0.3", "p0": 0.12}),
        "bool.json": _dump({"p1": True, "p0": 0.12}),
        "range.json": _dump({"p1": 1.5, "p0": 0.12}),
        "nan.json": '{"p1": NaN, "p0": 0.12}\n',
        "law_fields.json": _dump({"m_block": [1.0, 0.0, 0.0, 0.0]}),
        "law_short.json": _dump({"m_block": [1.0, 0.0, 0.0],
                                 "y_block": [1.0] + [0.0] * 15}),
        "law_sum.json": _dump({"m_block": [0.5, 0.0, 0.0, 0.0],
                               "y_block": [1.0] + [0.0] * 15}),
        "law_bool.json": _dump({"m_block": [True, 0.0, 0.0, 0.0],
                                "y_block": [1.0] + [0.0] * 15}),
        "law_string.json": _dump({"m_block": "1000",
                                  "y_block": [1.0] + [0.0] * 15}),
        "law_list.json": _dump([[1.0, 0.0, 0.0, 0.0], [1.0] + [0.0] * 15]),
        "counts_missing.json": _dump({"exposed_event": 3, "exposed_total": 10,
                                      "unexposed_event": 1}),
        "law_extra.json": _dump({"m_block": [1.0, 0.0, 0.0, 0.0],
                                 "y_block": [1.0] + [0.0] * 15, "extra": 1}),
        "null.json": _dump({"p1": None, "p0": 0.12}),
        "law_true.json": _dump({"m_block": True, "y_block": [1.0] + [0.0] * 15}),
        # json.dumps cannot repeat a key, so these three are written out.
        "dup.json": '{"p1": 0.9, "p1": 0.3, "p0": 0.12}\n',
        "counts_dup.json": '{"exposed_event": 90, "exposed_total": 100, '
                           '"unexposed_event": 1, "unexposed_total": 100, '
                           '"exposed_event": 3}\n',
        "law_dup.json": '{"m_block": [1, 0, 0, 0], "y_block": [1' + ', 0' * 15
                        + '], "m_block": [0, 0, 0, 1]}\n',
        "rec.csv": _records_csv(),
        "rec_xy.csv": "x,y\n0,0\n0,1\n1,1\n1,0\n",
        "rec_nostratum.csv": "x,m,y\n0,0,0\n0,0,1\n1,0,1\n1,0,0\n",
        "rec_onearm.csv": "x,m,y\n0,0,0\n0,1,1\n0,0,1\n",
        "rec_token.csv": "x,m,y\n0,0,0\n1,2,1\n",
        "rec_header.csv": "a,b,c\n0,0,0\n",
    }


def _with_json(argvs: list[list[str]]) -> list[list[str]]:
    out = []
    for argv in argvs:
        out.append(argv)
        out.append(argv + ["--json"])
    return out


def matrix() -> list[tuple[list[str], bool]]:
    """Every invocation, paired with whether argparse formats its output."""
    simple = [
        ["simple", "--counts", "counts.json"],
        ["simple", "--margins", "simple.json"],
        ["simple", "--margins", "simple_p0zero.json"],
        ["simple", "--margins", "simple_p1zero.json"],
        ["simple", "--counts", "counts.json", "--tol", "0.1"],
        ["simple", "--counts", "counts.json", "--tol", "nan"],
        ["simple", "--margins", "ex1.json"],
        ["simple", "--margins", "complete.json"],
        ["simple", "--counts", "counts_unknown.json"],
        ["simple", "--counts", "counts_over.json"],
        ["simple", "--counts", "counts_float.json"],
        ["simple", "--counts", "bad.json"],
        ["simple", "--counts", "list.json"],
        ["simple", "--counts", "missing.json"],
        ["simple", "--margins", "keys.json"],
        ["simple", "--margins", "nonnum.json"],
        ["simple", "--margins", "bool.json"],
        ["simple", "--margins", "range.json"],
        ["simple", "--margins", "nan.json"],
    ]
    complete = [
        ["complete", "--margins", "complete.json"],
        ["complete", "--records", "rec.csv"],
        ["complete", "--records", "rec.csv", "--tol", "0.5"],
        ["complete", "--records", "rec.csv", "--tol", "0"],
        ["complete", "--records", "rec.csv", "--counts", "counts.json"],
        ["complete", "--margins", "complete.json", "--counts", "counts_far.json"],
        ["complete", "--margins", "complete.json", "--counts", "counts_far.json",
         "--tol", "1"],
        ["complete", "--margins", "complete_p1zero.json"],
        ["complete", "--margins", "ex1.json"],
        ["complete", "--margins", "simple.json"],
        ["complete", "--records", "rec_xy.csv"],
        ["complete", "--records", "rec_nostratum.csv"],
        ["complete", "--records", "rec_onearm.csv"],
        ["complete", "--records", "rec_token.csv"],
        ["complete", "--records", "missing.csv"],
        ["complete", "--margins", "complete.json", "--tol", "nan"],
        ["complete", "--margins", "complete.json", "--tol", "-1"],
    ]
    partial = [
        ["partial", "--margins", "ex1.json"],
        ["partial", "--margins", "ex2.json"],
        ["partial", "--records", "rec.csv"],
        ["partial", "--records", "rec.csv", "--counts", "counts.json"],
        ["partial", "--records", "rec.csv", "--counts", "counts.json",
         "--tol", "0.5"],
        ["partial", "--margins", "ex1.json", "--counts", "counts_far.json"],
        ["partial", "--margins", "partial_p1zero.json"],
        ["partial", "--margins", "complete.json"],
        ["partial", "--margins", "simple.json"],
        ["partial", "--records", "rec_nostratum.csv"],
        ["partial", "--records", "rec_onearm.csv"],
        ["partial", "--records", "rec_xy.csv"],
        ["partial", "--records", "rec_header.csv"],
        ["partial", "--margins", "ex1.json", "--counts", "missing.json"],
        ["partial", "--margins", "ex1.json", "--tol", "nan"],
    ]
    compare = [
        ["compare", "--margins", "ex1.json"],
        ["compare", "--margins", "ex2.json"],
        ["compare", "--margins", "xinv.json", "--complete"],
        ["compare", "--margins", "xinv.json", "--complete", "--tol", "0"],
        ["compare", "--margins", "ex1.json", "--complete"],
        ["compare", "--margins", "ex1.json", "--complete", "--tol", "1"],
        ["compare", "--margins", "ex2.json", "--counts", "counts.json"],
        ["compare", "--margins", "ex1.json", "--counts", "counts_far.json",
         "--tol", "0.5"],
        ["compare", "--margins", "partial_p1zero.json"],
        ["compare", "--margins", "simple.json"],
        ["compare", "--margins", "complete.json"],
        ["compare", "--margins", "ex1.json", "--tol", "nan"],
    ]
    verify = [
        ["verify", "--margins", "ex1.json", "--samples", "100"],
        ["verify", "--margins", "ex2.json", "--samples", "100", "--seed", "4"],
        ["verify", "--margins", "ex1.json", "--samples", "100", "--confounded"],
        ["verify", "--margins", "ex1.json", "--samples", "50", "--tol", "0.1"],
        ["verify", "--margins", "ex1.json", "--samples", "0"],
        ["verify", "--margins", "partial_p1zero.json", "--samples", "10"],
        ["verify", "--margins", "simple.json"],
        ["verify", "--margins", "missing.json"],
    ]
    simulate = [
        ["simulate", "--law", "law.json", "--n", "100", "--seed", "7",
         "--out", "sim_a.csv"],
        ["simulate", "--law", "law.json", "--n", "40", "--out", "sim_b.csv"],
        ["simulate", "--law", "law_fields.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "law_short.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "law_sum.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "bad.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "missing.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "law.json", "--n", "10", "--out", "nodir/x.csv"],
    ]
    argparse_formatted = [
        ["--help"],
        *([name, "--help"] for name in ("simple", "complete", "partial",
                                        "compare", "verify", "simulate")),
        [],
        ["nonsense"],
        ["compare"],
        ["simple", "--counts", "counts.json", "--margins", "simple.json"],
        ["partial", "--margins", "ex1.json", "--tol", "abc"],
    ]
    # A test id carries its entry's index, so a new case goes here, after
    # every earlier entry, and leaves the ids before it as they were.
    appended = [
        ["simple", "--counts", "counts_bool.json"],
        ["simulate", "--law", "law_bool.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "law_string.json", "--n", "10", "--out", "x.csv"],
        ["simulate", "--law", "law_list.json", "--n", "10", "--out", "x.csv"],
        ["simple", "--counts", "counts_missing.json"],
        ["simulate", "--law", "law_extra.json", "--n", "10", "--out", "x.csv"],
        ["simple", "--margins", "null.json"],
        ["simulate", "--law", "law_true.json", "--n", "10", "--out", "x.csv"],
        ["simple", "--margins", "dup.json"],
        ["simple", "--counts", "counts_dup.json"],
        ["simulate", "--law", "law_dup.json", "--n", "10", "--out", "x.csv"],
    ]
    plain = _with_json(simple + complete + partial + compare + verify + simulate)
    return ([(a, False) for a in plain] + [(a, True) for a in argparse_formatted]
            + [(a, False) for a in _with_json(appended)])


def invoke(argv: list[str]) -> tuple[str, str, int]:
    """Run the CLI in-process and capture what it prints."""
    from pcbounds.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return out.getvalue(), err.getvalue(), code


def written_files(cwd: Path, before: set[str]) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(cwd.iterdir())
        if p.name not in before
    }


def main() -> int:
    files = input_files()
    entries = []
    old_cwd = os.getcwd()
    os.environ["COLUMNS"] = "80"
    try:
        for argv, help_entry in matrix():
            with tempfile.TemporaryDirectory() as tmp:
                cwd = Path(tmp)
                for name, text in files.items():
                    (cwd / name).write_text(text)
                os.chdir(cwd)
                try:
                    stdout, stderr, code = invoke(argv)
                finally:
                    os.chdir(old_cwd)
                entries.append({
                    "argv": argv,
                    "help": help_entry,
                    "stdout": stdout,
                    "stderr": stderr,
                    "code": code,
                    "written": written_files(cwd, set(files)),
                })
    finally:
        os.chdir(old_cwd)
    GOLDEN.write_text(
        json.dumps({"files": files, "entries": entries}, indent=1) + "\n"
    )
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
