import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcbounds
import pcbounds.cli as cli
import pcbounds.oracle as oracle_mod
from pcbounds import (
    InconsistentBoundsError,
    PartialMediationMargins,
    partial_bounds,
    read_records_csv,
)
from pcbounds.cli import run


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({
        "exposed_event": 30, "exposed_total": 100,
        "unexposed_event": 12, "unexposed_total": 100,
    }))
    return str(path)


@pytest.fixture
def partial_file(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({
        "y00": 0.02, "y01": 0.835, "y10": 0.685, "y11": 0.857,
        "m0": 0.27, "m1": 0.019,
    }))
    return str(path)


@pytest.fixture
def complete_file(tmp_path):
    path = tmp_path / "complete.json"
    path.write_text(json.dumps({"a": 0.7, "b": 0.6, "c": 0.4, "d": 0.9}))
    return str(path)


@pytest.fixture
def law_file(tmp_path, example1_margins):
    from pcbounds import PotentialOutcomeLaw

    law = PotentialOutcomeLaw.independent(example1_margins)
    path = tmp_path / "law.json"
    path.write_text(json.dumps({
        "m_block": list(law.m_block), "y_block": list(law.y_block),
    }))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


REPORT_KEYS = ["method", "interval", "derived", "diagnostics", "assumptions",
               "inputs_echo", "oracle"]


class TestSimpleCommand:
    def test_counts_json_report(self, capsys, counts_file):
        code, rep = run_json(capsys, ["simple", "--counts", counts_file, "--json"])
        assert code == 0
        assert list(rep.keys()) == REPORT_KEYS
        assert rep["method"] == "simple"
        assert rep["interval"] == {"lower": 0.6, "upper": 1.0}
        assert rep["derived"] == {"p1": 0.3, "p0": 0.12}
        assert rep["oracle"] is None
        assert rep["assumptions"] == ["randomization", "exchangeability"]
        assert rep["inputs_echo"]["values"]["exposed_event"] == 30

    def test_margins_route_has_no_derived(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": 0.3, "p0": 0.12}))
        code, rep = run_json(capsys, ["simple", "--margins", str(path), "--json"])
        assert code == 0
        assert rep["derived"] is None

    def test_human_output(self, capsys, counts_file):
        assert run(["simple", "--counts", counts_file]) == 0
        out = capsys.readouterr().out
        assert "interval: [0.60, 1.00]" in out
        assert "risk ratio p1/p0 = 2.5" in out

    def test_undefined_pc_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"p1": 0.0, "p0": 0.12}))
        assert run(["simple", "--margins", str(path)]) == 2
        assert "undefined" in capsys.readouterr().err

    def test_wrong_margins_kind_exits_1(self, capsys, partial_file):
        assert run(["simple", "--margins", partial_file]) == 1
        err = capsys.readouterr().err
        assert "simple" in err and "partial" in err

    def test_missing_file_exits_1(self, capsys):
        assert run(["simple", "--margins", "/no/such/file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_error_names_the_path_the_json_echo_names(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("range.json").write_text(json.dumps({"p1": 0.3, "p0": 0.12}))
        _, rep = run_json(capsys, ["simple", "--margins", "./range.json", "--json"])
        assert rep["inputs_echo"]["source"] == "./range.json"
        Path("range.json").write_text(json.dumps({"p1": 1.5, "p0": 0.12}))
        assert run(["simple", "--margins", "./range.json"]) == 1
        assert capsys.readouterr().err == (
            "error: ./range.json: field 'p1': probability 1.5 outside [0, 1]\n")


class TestMediationCommands:
    def test_partial_report(self, capsys, partial_file):
        code, rep = run_json(capsys, ["partial", "--margins", partial_file, "--json"])
        assert code == 0
        assert rep["interval"] == {"lower": 0.651225975928, "upper": 0.81947439079}
        assert rep["derived"] == {"p1": 0.688268, "p0": 0.24005}
        assert rep["assumptions"] == ["A1", "A2", "A3", "randomization",
                                      "exchangeability"]

    def test_complete_report(self, capsys, complete_file):
        code, rep = run_json(capsys, ["complete", "--margins", complete_file,
                                      "--json"])
        assert code == 0
        assert rep["derived"]["p1"] == 0.78
        assert "complete-mediation" in rep["assumptions"]

    def test_complete_rejects_partial_margins(self, capsys, partial_file):
        assert run(["complete", "--margins", partial_file]) == 1

    def test_records_route(self, capsys, tmp_path, law_file):
        out_csv = tmp_path / "records.csv"
        assert run(["simulate", "--law", law_file, "--n", "2000",
                    "--seed", "3", "--out", str(out_csv)]) == 0
        capsys.readouterr()
        code, rep = run_json(capsys, ["partial", "--records", str(out_csv),
                                      "--json"])
        assert code == 0
        assert rep["inputs_echo"]["kind"] == "records"
        assert rep["inputs_echo"]["n_records"] == 4000
        assert set(rep["inputs_echo"]["estimated_margins"]) == {
            "y00", "y01", "y10", "y11", "m0", "m1"
        }

    def test_counts_cross_check_diagnostic(self, capsys, partial_file, counts_file):
        code, rep = run_json(capsys, ["partial", "--margins", partial_file,
                                      "--counts", counts_file, "--json"])
        assert code == 0
        assert any("disagree" in line for line in rep["diagnostics"])

    def test_empty_stratum_exits_2(self, capsys, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("x,m,y\n0,0,0\n0,1,1\n1,1,1\n")
        assert run(["partial", "--records", str(path)]) == 2
        assert "(x=1, m=0)" in capsys.readouterr().err

    def test_a_p1_floats_round_to_0_exits_0_with_the_exact_interval(self, capsys,
                                                                   tmp_path):
        # p1 is two halves of 5e-324, each 0 in floats: undefined, exit 2, before
        # the kernel reran on fractions wherever its float p1 is below 2**-9.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 0.0, "y01": 0.0, "y10": 5e-324, "y11": 5e-324,
            "m0": 0.3, "m1": 0.5,
        }))
        code, rep = run_json(capsys, ["partial", "--margins", str(path), "--json"])
        assert code == 0
        assert rep["interval"] == {"lower": 1.0, "upper": 1.0}


class TestCompareCommand:
    def test_intersection(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 0.02, "y01": 0.33, "y10": 0.91, "y11": 0.73,
            "m0": 0.96, "m1": 0.74,
        }))
        code, rep = run_json(capsys, ["compare", "--margins", str(path), "--json"])
        assert code == 0
        assert rep["interval"] == {"lower": 0.59114315139, "upper": 0.878475798146}
        assert any("simple upper bound is smallest" in s
                   for s in rep["diagnostics"])

    def test_subnormal_rates_exit_0_with_the_exact_interval(self, capsys, tmp_path):
        # In floats the lower bound came out 1 and the upper 0: an error, exit 1.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 5e-324, "y01": 0.0, "y10": 5e-324, "y11": 0.0,
            "m0": 0.5, "m1": 0.0,
        }))
        code, rep = run_json(capsys, ["compare", "--margins", str(path), "--json"])
        assert code == 0
        assert rep["interval"] == {"lower": 0.5, "upper": 1.0}
        assert "simple interval [0.5, 1]" in rep["diagnostics"]
        assert run(["compare", "--margins", str(path)]) == 0
        assert "interval: [0.50, 1.00]\n" in capsys.readouterr().out

    def test_subnormal_rates_print_the_numerators_of_the_exact_run(self, capsys,
                                                                   tmp_path):
        # The float kernel rounds the partial numerator, two halves of 5e-324, to 0.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 5e-324, "y01": 0.0, "y10": 5e-324, "y11": 0.0,
            "m0": 0.5, "m1": 0.0,
        }))
        assert run(["compare", "--margins", str(path)]) == 0
        assert ("  - upper-bound numerators: simple 4.94066e-324, partial "
                "4.94066e-324 (ratio 1 <= 2)\n") in capsys.readouterr().out

    def test_complete_claim_violation_exits_1(self, capsys, partial_file):
        assert run(["compare", "--margins", partial_file, "--complete"]) == 1
        assert "complete-mediation claim fails" in capsys.readouterr().err

    def test_accepted_claim_with_disjoint_interval_names_both(self, capsys):
        # A tolerance of 1 accepts any claim; example 1's complete-mediation
        # interval then misses the simple and partial ones.
        margins = str(Path(__file__).parent.parent / "data" / "example1_margins.json")
        assert run(["compare", "--margins", margins, "--complete", "--tol", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: complete-mediation claim accepted at claim_tol 1, but its "
            "interval [0, 0.603933] is disjoint from [0.651226, 0.819474], where "
            "the simple [0.651226, 1] and partial [0.651226, 0.819474] intervals "
            "meet\n"
        )

    def test_complete_claim_accepted(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "y00": 0.3, "y01": 0.8, "y10": 0.3, "y11": 0.8,
            "m0": 0.4, "m1": 0.7,
        }))
        code, rep = run_json(capsys, ["compare", "--margins", str(path),
                                      "--complete", "--json"])
        assert code == 0
        assert any("complete interval" in s for s in rep["diagnostics"])
        assert "complete-mediation" in rep["assumptions"]


class TestVerifyCommand:
    def test_passing_run(self, capsys, partial_file):
        code, rep = run_json(capsys, ["verify", "--margins", partial_file,
                                      "--samples", "50", "--json"])
        assert code == 0
        assert rep["oracle"]["violations"] == 0
        assert rep["oracle"]["samples"] == 50
        assert rep["oracle"]["confounded"] is False
        assert rep["interval"]["lower"] == 0.651225975928

    def test_confounded_run_exits_0(self, capsys, partial_file):
        code, rep = run_json(capsys, ["verify", "--margins", partial_file,
                                      "--samples", "50", "--confounded",
                                      "--json"])
        assert code == 0
        assert rep["oracle"]["confounded"] is True
        assert rep["oracle"]["violations"] > 0

    def test_genuine_failure_exits_3(self, capsys, partial_file, monkeypatch):
        real = oracle_mod.soundness_report

        def broken(m, n_laws=1000, seed=0, confounded=False):
            rep = real(m, n_laws=n_laws, seed=seed, confounded=True)
            object.__setattr__(rep, "confounded", False)
            return rep

        monkeypatch.setattr(pcbounds, "soundness_report", broken)
        assert run(["verify", "--margins", partial_file, "--samples", "20"]) == 3

    def test_seed_changes_draws(self, capsys, partial_file):
        _, rep_a = run_json(capsys, ["verify", "--margins", partial_file,
                                     "--samples", "20", "--seed", "1", "--json"])
        _, rep_b = run_json(capsys, ["verify", "--margins", partial_file,
                                     "--samples", "20", "--seed", "2", "--json"])
        assert rep_a["oracle"]["min_true_pc"] != rep_b["oracle"]["min_true_pc"]


class TestNegativeSeed:
    """A negative seed is invalid input (exit 1), not a numpy traceback."""

    def test_verify(self, capsys, partial_file):
        assert run(["verify", "--margins", partial_file, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"

    def test_simulate_writes_nothing(self, capsys, tmp_path, law_file):
        out_csv = tmp_path / "sim.csv"
        assert run(["simulate", "--law", law_file, "--n", "10", "--seed", "-1",
                    "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be a nonnegative integer, got -1\n"
        )
        assert not out_csv.exists()


class TestOversizedSize:
    """A size numpy cannot draw is invalid input (exit 1), not a numpy traceback.

    10^18 is refused before anything is allocated; an allocation that fails is
    only ever faked here, never attempted at a size that could succeed.
    """

    def test_verify(self, capsys, partial_file):
        assert run(["verify", "--margins", partial_file,
                    "--samples", str(10**18)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_laws = {10**18} is too large to draw\n"

    def test_simulate_writes_nothing(self, capsys, tmp_path, law_file):
        out_csv = tmp_path / "sim.csv"
        assert run(["simulate", "--law", law_file, "--n", str(10**18),
                    "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == (
            f"error: n_per_arm = {10**18} is too large to draw\n"
        )
        assert not out_csv.exists()

    def test_failed_allocation_exits_1(self, capsys, tmp_path, law_file, monkeypatch):
        def empty(shape, dtype):
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(oracle_mod.np, "empty", empty)
        out_csv = tmp_path / "sim.csv"
        assert run(["simulate", "--law", law_file, "--n", str(10**16),
                    "--out", str(out_csv)]) == 1
        assert capsys.readouterr().err == (
            f"error: Unable to allocate an array with shape (2, {10**16})\n"
        )
        assert not out_csv.exists()


class TestSimulateCommand:
    def test_writes_records(self, capsys, tmp_path, law_file):
        out_csv = tmp_path / "sim.csv"
        code, rep = run_json(capsys, ["simulate", "--law", law_file, "--n", "100",
                                      "--seed", "1", "--out", str(out_csv),
                                      "--json"])
        assert code == 0
        assert rep["interval"] is None
        assert rep["derived"] is None
        d = read_records_csv(out_csv)
        assert len(d) == 200

    def test_deterministic(self, capsys, tmp_path, law_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--law", law_file, "--n", "50", "--seed", "4",
             "--out", str(a)])
        run(["simulate", "--law", law_file, "--n", "50", "--seed", "4",
             "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_bundled_law_bytes_pinned(self, capsys, tmp_path):
        law = Path(__file__).resolve().parent.parent / "data" / "example1_law.json"
        out_csv = tmp_path / "sim.csv"
        assert run(["simulate", "--law", str(law), "--n", "1000", "--seed", "7",
                    "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        data = out_csv.read_bytes()
        assert len(data) == 14007
        assert hashlib.sha256(data).hexdigest() == (
            "f5fd95f8bc18f7dcdd02d03855c3a16ed2631cc82e8154de4658afe4d317ba1f"
        )
        assert "arm X=0: 232 events in 1000 records" in out
        assert "arm X=1: 702 events in 1000 records" in out

    def test_bad_law_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"m_block": [1.0, 0.0, 0.0]}))
        assert run(["simulate", "--law", str(path), "--n", "10",
                    "--out", str(tmp_path / "o.csv")]) == 1

    def test_law_block_sum_checked(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({
            "m_block": [0.5, 0.0, 0.0, 0.0],
            "y_block": [1.0] + [0.0] * 15,
        }))
        assert run(["simulate", "--law", str(path), "--n", "10",
                    "--out", str(tmp_path / "o.csv")]) == 1


    def test_bad_law_cell_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps({
            "m_block": [1.0, 0.0, 0.0, 0.0],
            "y_block": [1.5] + [0.0] * 15,
        }))
        assert run(["simulate", "--law", str(path), "--n", "10",
                    "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: y_block[0] = 1.5 is not a probability\n"
        )

class TestHarness:
    def test_usage_error_exits_1(self, capsys):
        assert run(["nonsense"]) == 1

    def test_missing_required_exits_1(self, capsys):
        assert run(["compare"]) == 1

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0

    def test_mutually_exclusive_sources(self, capsys, counts_file, partial_file):
        assert run(["simple", "--counts", counts_file,
                    "--margins", partial_file]) == 1

    def test_inconsistent_bounds_exit_1(self, capsys, partial_file, monkeypatch):
        def angry(m):
            raise InconsistentBoundsError("lower bound 0.7 exceeds upper bound 0.3")

        regime = dataclasses.replace(cli._REGIMES["partial"], bounds=angry)
        monkeypatch.setitem(cli._REGIMES, "partial", regime)
        assert run(["partial", "--margins", partial_file]) == 1
        assert capsys.readouterr().err == (
            "error: lower bound 0.7 exceeds upper bound 0.3\n"
        )

    def test_report_roundtrip_recomputes_identically(self, capsys, partial_file):
        code, rep = run_json(capsys, ["partial", "--margins", partial_file,
                                      "--json"])
        values = rep["inputs_echo"]["values"]
        m = PartialMediationMargins(**values)
        iv = partial_bounds(m)
        assert cli._sig12(float(iv.lower)) == rep["interval"]["lower"]
        assert cli._sig12(float(iv.upper)) == rep["interval"]["upper"]

    @pytest.mark.parametrize("tol", ["nan", "-0.1"])
    @pytest.mark.parametrize(
        "command",
        [["compare", "--complete"], ["partial"], ["partial", "--counts", None]],
    )
    def test_invalid_tol_exits_1(self, capsys, partial_file, counts_file, command, tol):
        # A NaN tolerance would accept any complete-mediation claim and
        # switch the counts cross-check off; a negative one rejects all.
        argv = [counts_file if a is None else a for a in command]
        assert run([*argv, "--margins", partial_file, f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --tol must be a nonnegative number, got {float(tol)!r}\n"
        )

    def test_zero_tol_accepted(self, capsys, partial_file):
        assert run(["partial", "--margins", partial_file, "--tol", "0"]) == 0

    def test_twelve_digit_rounding(self):
        assert cli._sig12(0.6512259759279816) == 0.651225975928
        assert cli._sig12(1 / 3) == 0.333333333333
        assert cli._sig12(0.0) == 0.0
        assert cli._sig12(2.0) == 2.0


class TestClosedStdout:
    """A reader that leaves early (``pcbounds ... | head -1``) gets exit 1 and
    no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["partial", "--margins", "example1_margins.json"],
            ["compare", "--margins", "example1_margins.json", "--json"],
            ["simple", "--counts", "reference_counts.json"],
        ],
        ids=["partial", "compare-json", "simple"],
    )
    def test_exits_1_without_a_traceback(self, argv):
        root = Path(__file__).resolve().parent.parent
        src = Path(cli.__file__).resolve().parents[1]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pcbounds.cli", *argv], cwd=root / "data",
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                env={**os.environ, "PYTHONPATH": str(src)},
            )
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == ""
        assert proc.returncode == 1


class TestMalformedJsonExits:
    """JSON that fails to decode or convert ends in one error line, exit 1."""

    BIG_INT = "1" * 5000
    HUGE_INT = "1" + "0" * 400
    LAW_TAIL = ', 0, 0, 0], "y_block": [1' + ", 0" * 15 + "]}"
    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize(
        "command, text",
        [
            (["simple", "--margins"], '{"p1": ' + BIG_INT + ', "p0": 0.1}'),
            (["simple", "--counts"], '{"exposed_event": ' + BIG_INT + "}"),
            (["simulate", "--n", "5", "--out", "o.csv", "--law"],
             '{"m_block": [' + BIG_INT + LAW_TAIL),
            (["simple", "--margins"], '{"p1": ' + HUGE_INT + ', "p0": 0.1}'),
            (["partial", "--margins"],
             '{"y00": 0.1, "y01": 0.1, "y10": 0.1, "y11": 0.1, "m0": 0.1, '
             '"m1": ' + HUGE_INT + "}"),
            (["simulate", "--n", "5", "--out", "o.csv", "--law"],
             '{"m_block": [' + HUGE_INT + LAW_TAIL),
            (["partial", "--margins"], DEEP),
            (["simple", "--counts"], DEEP),
            (["simulate", "--n", "5", "--out", "o.csv", "--law"], DEEP),
        ],
        ids=["margins-digits", "counts-digits", "law-digits", "simple-overflow",
             "partial-overflow", "law-overflow", "margins-deep", "counts-deep",
             "law-deep"],
    )
    def test_exits_1_with_one_error_line(
        self, capsys, tmp_path, monkeypatch, command, text
    ):
        monkeypatch.chdir(tmp_path)
        Path("in.json").write_text(text)
        assert run(command + ["in.json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not Path("o.csv").exists()

    def test_messages_name_the_cause(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text('{"p1": ' + self.BIG_INT + ', "p0": 0.1}')
        Path("law.json").write_text('{"m_block": [' + self.HUGE_INT + self.LAW_TAIL)
        run(["simple", "--margins", "big.json"])
        assert capsys.readouterr().err.startswith("error: big.json: invalid JSON: ")
        run(["simulate", "--law", "law.json", "--n", "5", "--out", "o.csv"])
        assert capsys.readouterr().err == (
            "error: law.json: m_block holds a number too large for a float\n"
        )
        Path("deep.json").write_text(self.DEEP)
        run(["partial", "--margins", "deep.json"])
        assert capsys.readouterr().err.startswith(
            "error: deep.json: invalid JSON: maximum recursion depth exceeded"
        )
