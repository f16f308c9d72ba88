"""In-memory span recorder for the traced benchmark run.

Every public function of the six ``pcbounds`` modules is wrapped from
outside: the wrapper is bound in place of the original in each module
namespace that holds it, so calls the library makes to itself are
recorded too, and nothing under ``src/`` changes. One span is kept per
call as ``(name, start_ns, end_ns, parent_index, op_id)``; spans stay in
memory until :meth:`Tracer.write` is called at the end of the run.

A span's name is ``<layer>.<function>``. The layer is the module the
function is defined in; the benchmark's own spans use the layer
``bench`` (one per op) or name the layer they time (``core.validate``).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("core", "simple", "mediation", "oracle", "estimate", "cli")

# Spans kept per traced run: about 20 MiB of tuples. The traced loop stops
# early once it would leave less than PROBE_RESERVE of them for the probe.
SPAN_CAP = 100_000
PROBE_RESERVE = 20_000


class Tracer:
    """Records nested call spans; ``op`` tags each span with the op running."""

    def __init__(self, cap: int = SPAN_CAP) -> None:
        self.cap = cap
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        cap = self.cap

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(spans) >= cap:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return traced

    def room_left(self) -> int:
        return self.cap - len(self.spans)

    def install(self) -> None:
        """Bind a traced wrapper over every public pcbounds function."""
        namespaces = [
            vars(mod)
            for name, mod in sorted(sys.modules.items())
            if name == "pcbounds" or name.startswith("pcbounds.")
        ]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"pcbounds.{layer}")
            if mod is None:
                continue
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, key, value))
                    ns[key] = hit[1]

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._patches):
            ns[key] = value
        self._patches.clear()

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "fields": ["name", "start_ns", "end_ns",
                                                  "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
