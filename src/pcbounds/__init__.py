"""Bounds on the probability of causation for an individual case.

Given experimental data on a binary exposure and outcome, and optionally
a binary mediator on the causal path, this package computes an interval
for the probability that the exposure caused the outcome in a responding
exposed case, and verifies the interval against brute-force enumeration
over explicit joint laws of the potential outcomes. The interval from
exposure and outcome alone is sharp. The mediator intervals are sound
closed forms that are not always sharp under the oracle's law model: at
example 1 the partial-mediation form gives [0.6512, 0.8195] while the
sharp range is [0.7059, 0.7960].
"""

from .core import (
    CLAMP_TOL,
    REPORT_TOL,
    STRUCT_TOL,
    AssumptionViolationError,
    BoundInterval,
    CountTable,
    InconsistentBoundsError,
    InsufficientDataError,
    InvalidInputError,
    LawGenerationError,
    PcBoundsError,
    PcUndefinedError,
    Probability,
    RecordParseError,
    interval,
    prob_from_counts,
)
from .estimate import (
    Dataset,
    DirectEffectWarning,
    TrialRecord,
    estimate_complete,
    estimate_partial,
    estimate_simple,
    margins_from_count_table,
    read_count_json,
    read_margins_json,
    read_records_csv,
    write_records_csv,
)
from .mediation import (
    ComparisonReport,
    CompleteMediationMargins,
    PartialMediationMargins,
    collapse_to_complete,
    compare,
    complete_bounds,
    complete_numerator,
    decomposition,
    derive_simple_from_complete,
    derive_simple_from_partial,
    partial_bounds,
    partial_upper_numerator,
    partial_upper_terms,
    simple_numerator_via_decomposition,
)
from .oracle import (
    PotentialOutcomeLaw,
    SoundnessReport,
    coupling_sweep_simple,
    complete_coupling_sweep,
    frechet,
    sample_laws,
    simulate_trial,
    soundness_report,
    true_pc,
)
from .simple import SimpleMargins, risk_ratio, simple_bounds

__version__ = "0.1.0"

__all__ = [
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
    "LawGenerationError",
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
    "TrialRecord",
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
    "interval",
    "margins_from_count_table",
    "partial_bounds",
    "partial_upper_numerator",
    "partial_upper_terms",
    "prob_from_counts",
    "read_count_json",
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
