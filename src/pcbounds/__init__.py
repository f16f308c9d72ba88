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

The bounds in ``core``, ``simple`` and ``mediation`` need only the
standard library. The ``estimate`` and ``oracle`` names need numpy; they
load, with ``__all__``, when any of them is first used.
"""

from importlib import import_module as _import_module

from . import core, mediation, simple
from .core import *  # noqa: F403
from .mediation import *  # noqa: F403
from .simple import *  # noqa: F403

__version__ = "0.5.5"


def __getattr__(name):
    # Binds every name once, then removes itself so later lookups take the
    # fast path. ``from . import estimate`` would recurse here (via hasattr).
    namespace = globals()
    lazy = [_import_module(f"{__name__}.{m}") for m in ("estimate", "oracle")]
    for module in lazy:
        namespace.update((n, getattr(module, n)) for n in module.__all__)
    namespace["__all__"] = sorted(
        n for module in (core, mediation, simple, *lazy) for n in module.__all__
    )
    namespace.pop("__getattr__", None)
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
