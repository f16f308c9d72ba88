"""The package's public surface: the names ``pcbounds`` exports."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pcbounds
from pcbounds import core, estimate, mediation, oracle, simple

EXPORTED = [
    "AssumptionViolationError",
    "BoundInterval",
    "CLAMP_TOL",
    "ComparisonReport",
    "CompleteMediationMargins",
    "CountTable",
    "Dataset",
    "DirectEffectWarning",
    "InconsistentBoundsError",
    "InsufficientDataError",
    "InvalidInputError",
    "PartialMediationMargins",
    "PcBoundsError",
    "PcUndefinedError",
    "PotentialOutcomeLaw",
    "Probability",
    "REPORT_TOL",
    "RecordParseError",
    "STRUCT_TOL",
    "SimpleMargins",
    "SoundnessReport",
    "compare",
    "complete_bounds",
    "derive_simple_from_complete",
    "derive_simple_from_partial",
    "estimate_complete",
    "estimate_partial",
    "estimate_simple",
    "margins_from_count_table",
    "partial_bounds",
    "read_count_json",
    "read_law_json",
    "read_margins_json",
    "read_records_csv",
    "risk_ratio",
    "sample_laws",
    "simple_bounds",
    "simulate_trial",
    "soundness_report",
    "true_pc",
    "write_records_csv",
]
MODULES = (core, estimate, mediation, oracle, simple)
NUMPY_MODULES = ["numpy", "pcbounds.estimate", "pcbounds.oracle"]

# Bounds on example 1 through every regime, then a first numpy-backed name.
FIRST_USE = f"""
import json, sys
import pcbounds as pb
pm = pb.PartialMediationMargins(0.02, 0.835, 0.685, 0.857, 0.27, 0.019)
pb.simple_bounds(pb.derive_simple_from_partial(pm))
pb.complete_bounds(pb.CompleteMediationMargins(1 - pm.m0, pm.m1, 1 - pm.y00, pm.y11))
pb.partial_bounds(pm)
pb.compare(pm)
before = [m for m in {NUMPY_MODULES!r} if m in sys.modules]
public = sorted(n for n in dir(pb) if not n.startswith("_"))
pb.Dataset
after = [m for m in {NUMPY_MODULES!r} if m in sys.modules]
try:
    pb.no_such_name
except AttributeError as exc:
    error = str(exc)
print(json.dumps({{"before": before, "public": public, "after": after,
                  "bound": sorted(vars(pb)), "error": error}}))
"""


def test_all_is_the_frozen_sorted_list():
    assert len(EXPORTED) == 41
    assert pcbounds.__all__ == EXPORTED


def test_each_name_is_its_defining_modules_object():
    defined = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in defined, f"{name} is public in two modules"
            defined[name] = module
    assert sorted(defined) == EXPORTED
    for name, module in defined.items():
        assert getattr(pcbounds, name) is getattr(module, name), name


def run_fresh(code: str, *flags: str):
    """Run code in a fresh interpreter with ``flags``; return its JSON stdout."""
    src = Path(pcbounds.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bounds_import_no_numpy_until_a_numpy_name_is_used():
    out = run_fresh(FIRST_USE)
    assert out["before"] == []
    eager = (core, mediation, simple)
    names = [n for module in eager for n in module.__all__]
    assert out["public"] == sorted(names + ["core", "mediation", "simple"])
    assert out["after"] == NUMPY_MODULES
    assert set(EXPORTED) | {"__all__"} <= set(out["bound"])
    assert "__getattr__" not in out["bound"]
    assert out["error"] == "module 'pcbounds' has no attribute 'no_such_name'"


def test_fractions_load_only_for_a_subnormal_derived_rate():
    # The exact rerun imports fractions, about 18 ms, in its own branch.
    loaded = run_fresh("""
import json, sys
import pcbounds as pb
pm = pb.PartialMediationMargins(0.02, 0.835, 0.685, 0.857, 0.27, 0.019)
pb.compare(pm, complete_claim=False)
pb.partial_bounds(pm)
pb.complete_bounds(pb.CompleteMediationMargins(0.7, 0.6, 0.4, 0.9))
loaded = ["fractions" in sys.modules]
pb.compare(pb.PartialMediationMargins(5e-324, 0.0, 5e-324, 0.0, 0.5, 0.0))
print(json.dumps(loaded + ["fractions" in sys.modules]))
""", "-S")
    assert loaded == [False, True]


def test_bounds_and_value_types_never_load_dataclasses():
    # core._frozen builds the frozen types itself; dataclasses, and inspect with
    # it, load only for a dataclasses helper or a FrozenInstanceError.
    loaded = run_fresh("""
import json, pickle, sys
import pcbounds as pb
pm = pb.PartialMediationMargins(0.02, 0.835, 0.685, 0.857, 0.27, 0.019)
x_invariant = pb.PartialMediationMargins(0.3, 0.6, 0.3, 0.6, 0.2, 0.7)
pb.simple_bounds(pb.SimpleMargins(0.3, 0.12))
pb.complete_bounds(pb.CompleteMediationMargins(0.7, 0.6, 0.4, 0.9))
pb.partial_bounds(pm)
pb.compare(pm)
reports = [pb.compare(x_invariant), pb.compare(x_invariant, complete_claim=True)]
for obj in reports + [pm, pb.CountTable(30, 100, 12, 100)]:
    assert pickle.loads(pickle.dumps(obj)) == obj
    hash(obj), repr(obj)
    match obj:
        case pb.ComparisonReport(simple, partial):
            assert simple.lower == partial.lower
before = [m in sys.modules for m in ("dataclasses", "inspect")]
import dataclasses
dataclasses.fields(pm)
print(json.dumps(before + ["inspect" in sys.modules]))
""", "-S")
    assert loaded == [False, False, True]


DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def cli_inputs(tmp_path):
    """The CLI's margins and counts routes, and an eight-row record CSV."""
    partial, counts = DATA / "example1_margins.json", DATA / "reference_counts.json"
    simple, complete = tmp_path / "simple.json", tmp_path / "complete.json"
    simple.write_text(json.dumps({"p1": 0.3, "p0": 0.12}))
    complete.write_text(json.dumps({"a": 0.7, "b": 0.6, "c": 0.4, "d": 0.9}))
    records = tmp_path / "records.csv"
    records.write_text("x,m,y\n" + "".join(f"{c >> 2},{c >> 1 & 1},{c & 1}\n"
                                           for c in range(8)))
    routes = [
        ["simple", "--margins", simple],
        ["simple", "--counts", counts],
        ["complete", "--margins", complete],
        ["partial", "--margins", partial, "--counts", counts],
        ["compare", "--margins", partial, "--counts", counts],
    ]
    return routes, records


def test_cli_reads_margins_and_counts_without_numpy(cli_inputs):
    routes, records = cli_inputs
    routes = routes + [["partial", "--records", records]]
    codes, loaded = run_fresh(f"""
import contextlib, io, json, sys
from pcbounds.cli import run
codes, loaded = [], []
for argv in {[[str(a) for a in argv] for argv in routes]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
    loaded.append([m for m in {NUMPY_MODULES!r} if m in sys.modules])
print(json.dumps([codes, loaded]))
""")
    assert codes == [0] * len(routes)
    assert loaded == [[]] * (len(routes) - 1) + [NUMPY_MODULES]


def test_cli_margins_and_counts_routes_load_no_pathlib_dataclasses_or_inspect(
    cli_inputs,
):
    # -S keeps site's .pth files, which may import pathlib, out of the run;
    # numpy is not importable under -S, so the records route stays out too.
    # Each route runs as text, then with --json.
    routes, _ = cli_inputs
    routes = [[str(a) for a in argv] + flag for flag in ([], ["--json"])
              for argv in routes]
    codes, loaded = run_fresh(f"""
import contextlib, io, json, sys
from pcbounds.cli import run
codes, loaded = [], []
for argv in {routes!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(run(argv))
    loaded.append([m for m in ("pathlib", "dataclasses", "inspect")
                   if m in sys.modules])
print(json.dumps([codes, loaded]))
""", "-S")
    assert codes == [0] * len(routes)
    assert loaded == [[]] * len(routes)


def _probability_calls(tree: ast.AST) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "Probability"]


def test_probability_is_called_only_in_unit_and_pathlib_is_never_imported():
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(pcbounds.__file__).parent.glob("*.py")}
    counts = {name: len(_probability_calls(tree)) for name, tree in trees.items()}
    assert counts == {name: int(name == "core") for name in trees}
    (unit,) = [node for node in ast.walk(trees["core"])
               if isinstance(node, ast.FunctionDef) and node.name == "_unit"]
    assert len(_probability_calls(unit)) == 1
    modules = [alias.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert "dataclasses" in modules
    assert [m for m in modules if m.partition(".")[0] == "pathlib"] == []


def test_cli_without_numpy_exits_1_on_the_numpy_routes(cli_inputs, tmp_path):
    routes, records = cli_inputs
    out = tmp_path / "simulated.csv"
    numpy_routes = [
        ["partial", "--records", records],
        ["simulate", "--law", DATA / "example1_law.json", "--n", "5", "--out", out],
        ["verify", "--margins", DATA / "example1_margins.json", "--samples", "5"],
    ]
    results = run_fresh(f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
from pcbounds.cli import run
results = []
for argv in {[[str(a) for a in argv] for argv in routes + numpy_routes]!r}:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    results.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(results))
""")
    assert [code for code, _, _ in results[: len(routes)]] == [0] * len(routes)
    for code, stdout, stderr in results[len(routes) :]:
        assert (code, stdout) == (1, "")
        assert stderr.startswith("error:") and stderr.count("\n") == 1
        assert "numpy" in stderr and "pcbounds[records]" in stderr
    assert not out.exists()


def test_submodule_import_as_first_statement():
    margins = DATA / "example1_margins.json"
    for name in ("oracle", "cli"):
        out = run_fresh(f"""
from pcbounds import {name}
import contextlib, io, json, sys
loaded = [[m for m in {NUMPY_MODULES!r} if m in sys.modules]]
if {name!r} == "cli":
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["compare", "--margins", {str(margins)!r}]) == 0
    loaded.append([m for m in {NUMPY_MODULES!r} if m in sys.modules])
print(json.dumps([{name} is sys.modules["pcbounds.{name}"], loaded]))
""")
        assert out[0] is True, name
        if name == "cli":
            assert out[1] == [[], []], "from pcbounds import cli loaded numpy"


def test_star_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from pcbounds import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTED
    for name, value in namespace.items():
        assert value is getattr(pcbounds, name)


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_version_matches_pyproject():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert not re.search(r"^version\s*=\s*[\"']", pyproject.read_text(), re.M)
    config = read_configuration(pyproject, expand=True)
    assert config["project"]["version"] == pcbounds.__version__
