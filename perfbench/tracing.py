"""Spans and counters recorded around calls into sinklab's public functions.

The benchmark changes no file of the program: it replaces each traced
function by a wrapper in every sinklab module that binds it (for example
both ``sinklab.verify.sink_profile`` and ``sinklab.engel.sink_profile``), so
calls made inside the library are seen too, and restores the originals
afterwards.

Two passes are kept apart so that the cost of one does not inflate the other:

* ``Tracer`` records a span per call: name, start, end and parent. A span's
  self time is its duration minus the time its child spans cover.
* ``Counters`` counts the hot table primitives ``GroupTable.comm`` and
  ``GroupTable.comm_step`` (millions of calls per pass) and, when asked,
  records the tracemalloc peak inside each outermost ``families.build`` call.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter

# Public functions wrapped in spans, as "<module>.<function>" under sinklab.
SPANNED = (
    "group.close_generators",
    "group.direct_product",
    "group.semidirect_product",
    "group.validate_table",
    "group.quotient",
    "group.is_normal",
    "group.is_subgroup",
    "group.subgroup_closure",
    "group.subgroup_table",
    "families.build",
    "engel.gamma_values",
    "engel.sinks",
    "engel.sink_profile",
    "engel.is_left_engel",
    "structure.lower_central_series",
    "structure.nilpotent_residual",
    "structure.fitting_subgroup",
    "structure.is_nilpotent",
    "verify.scan_row",
    "specfile.parse_spec_file",
    "specfile.build_spec",
    "report.scan_csv",
)

# Which end-to-end metric, on which workload, each per-layer metric should
# move. ".s" is self time per traced pass, ".calls" a call count per pass,
# ".peak_mb" the largest tracemalloc peak inside one cap build.
#
#   group.close_generators.s, group.direct_product.s,
#   group.semidirect_product.s, group.validate_table.s   wall_s, peak_rss_mb · build_cap
#   group.build.peak_mb                                  peak_rss_mb · build_cap
#   group.quotient.s, group.is_normal.s,
#   group.is_subgroup.s, group.subgroup_closure.s,
#   group.subgroup_table.s, group.comm.calls             wall_s · corpus_scan
#   group.comm_step.calls                                wall_s · sink_profile, corpus_scan
#   engel.gamma_values.s, engel.gamma_values.size,
#   engel.sinks.s, engel.sinks.walks (directions x targets)  wall_s · sink_profile
#   engel.is_left_engel.s, engel.is_left_engel.calls     wall_s · corpus_scan
#   structure.lower_central_series.s,
#   structure.nilpotent_residual.s,
#   structure.fitting_subgroup.s                         wall_s · corpus_scan
#   verify.scan_row.s                                    wall_s · corpus_scan
#   specfile.parse_spec_file.s, specfile.build_spec.s,
#   report.scan_csv.s                                    wall_s · corpus_scan
#   trace.wall_s: traced wall time per pass; the self times above sum to no more.
#   trace.overhead_frac: spans per pass times the cost of one span, over the
#     untraced wall_s of the same run.
#
# Wasted work shows as calls per scan_row: group.is_normal.calls,
# structure.lower_central_series.calls and structure.is_nilpotent.calls,
# over verify.scan_row.calls.


def _bindings(original):
    """(module, attribute) pairs under sinklab that are bound to ``original``."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "sinklab" or mod_name.startswith("sinklab.")):
            continue
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
    return found


class _Patch:
    """Replace functions in every module that binds them; undo on exit."""

    def __init__(self):
        self._undo = []

    def function(self, qualname: str, make_wrapper) -> None:
        mod_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"sinklab.{mod_name}"], attr)
        wrapper = make_wrapper(original)
        for mod, name in _bindings(original):
            setattr(mod, name, wrapper)
            self._undo.append((mod, name, original))

    def attribute(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


class Tracer:
    """In-memory spans. Each span is (name, start_ns, end_ns, parent index)."""

    def __init__(self):
        self.spans: list = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list = []  # [span index, ns covered by children]

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent)

    def _wrapper(self, name: str):
        def make(original):
            def traced(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                if name == "engel.gamma_values":
                    self.work["engel.gamma_values.size"] += len(result)
                elif name == "engel.sinks":
                    self.work["engel.sinks.walks"] += args[0].n * len(result)
                return result

            return traced

        return make

    def installed(self) -> _Patch:
        patch = _Patch()
        for name in SPANNED:
            patch.function(name, self._wrapper(name))
        return patch

    @staticmethod
    def span_cost_s(calls: int = 2000, rounds: int = 15) -> float:
        """Seconds that one span adds to a call: a no-op function called
        through a span wrapper, less the bare call, fastest of ``rounds``."""

        def noop():
            return None

        wrapped = Tracer()._wrapper("noop")(noop)

        def fastest(fn) -> float:
            best = float("inf")
            for _ in range(rounds):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best

        return max(0.0, fastest(wrapped) - fastest(noop)) / calls


class Counters:
    """Call counts of the hot primitives, and tracemalloc peaks of builds."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.build_peak_bytes = 0
        self._build_depth = 0

    def _count(self, name: str):
        def make(original):
            def counted(*args, **kwargs):
                self.calls[name] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _build_peak(self, original):
        def measured(*args, **kwargs):
            self._build_depth += 1
            if self._build_depth == 1:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self._build_depth -= 1
                if self._build_depth == 0:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.build_peak_bytes = max(self.build_peak_bytes, peak)

        return measured

    def installed(self) -> _Patch:
        """Count ``GroupTable.comm`` and ``GroupTable.comm_step`` calls."""
        from sinklab.group import GroupTable

        patch = _Patch()
        patch.attribute(GroupTable, "comm", self._count("group.comm"))
        patch.attribute(GroupTable, "comm_step", self._count("group.comm_step"))
        return patch

    def build_peaks(self) -> _Patch:
        """Record the tracemalloc peak inside each outermost ``families.build``
        call; tracemalloc must be running."""
        patch = _Patch()
        patch.function("families.build", self._build_peak)
        return patch
