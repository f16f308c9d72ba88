"""The package's public surface: the names ``pcbounds`` exports."""

import re
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
