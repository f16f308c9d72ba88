"""The package's public surface: the names ``pcbounds`` exports."""

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
    "collapse_to_complete",
    "compare",
    "complete_bounds",
    "complete_coupling_sweep",
    "complete_numerator",
    "coupling_sweep_simple",
    "decomposition",
    "derive_simple_from_complete",
    "derive_simple_from_partial",
    "estimate_complete",
    "estimate_partial",
    "estimate_simple",
    "frechet",
    "margins_from_count_table",
    "partial_bounds",
    "partial_upper_numerator",
    "partial_upper_terms",
    "read_count_json",
    "read_law_json",
    "read_margins_json",
    "read_records_csv",
    "risk_ratio",
    "sample_laws",
    "simple_bounds",
    "simple_numerator_via_decomposition",
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
pb.complete_bounds(pb.collapse_to_complete(pm))
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
    assert len(EXPORTED) == 50
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


def run_fresh(code: str):
    """Run code in a fresh interpreter and return its JSON stdout."""
    src = Path(pcbounds.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
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


def test_submodule_import_as_first_statement():
    out = run_fresh(
        "from pcbounds import oracle\n"
        "import json, sys\n"
        "print(json.dumps(oracle is sys.modules['pcbounds.oracle']))"
    )
    assert out is True


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
