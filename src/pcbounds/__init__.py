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

from . import core, estimate, mediation, oracle, simple
from .core import *  # noqa: F403
from .estimate import *  # noqa: F403
from .mediation import *  # noqa: F403
from .oracle import *  # noqa: F403
from .simple import *  # noqa: F403

__version__ = "0.5.3"

__all__ = sorted(
    name
    for module in (core, estimate, mediation, oracle, simple)
    for name in module.__all__
)
