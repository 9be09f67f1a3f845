"""Layer spans recorded from outside the package, for the traced run only.

Each layer entry point is wrapped by replacing the module attribute through
which its callers reach it, including the names that modules import
directly from another module (``from .roots import solve_exp_linear``).
A wrapper records one span (layer, function, calling module, parent span,
start, end, result size) and forwards the call unchanged.  Spans stay in
memory and are aggregated, and written out, when the run ends.

A layer's self time is its span minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

# (span name, defining module, function, modules whose binding is wrapped).
# A binding is wrapped in every module that calls the function through its
# own global name; calls inside the defining module go through that
# module's attribute as well.
ENTRY_POINTS = (
    ("roots.kernel", "roots", "solve_exp_linear", ("roots", "nash", "best_response", "limits")),
    ("nash.inner", "nash", "_inner_log_ratios", ("nash",)),
    ("nash.solve", "nash", "solve_nash", ("nash", "limits", "cli")),
    ("arrow_debreu.solve", "arrow_debreu", "solve_arrow_debreu",
     ("arrow_debreu", "nash", "bundle", "limits", "cli")),
    ("best_response.solve", "best_response", "solve_best_response",
     ("best_response", "bundle", "cli")),
    ("diagnostics.compute", "diagnostics", "compute_diagnostics",
     ("diagnostics", "bundle", "cli")),
    ("bundle.ledger", "bundle", "nash_ledger", ("bundle", "cli")),
    ("bundle.write", "bundle", "write_bundle", ("bundle", "cli")),
    ("bundle.read", "bundle", "read_bundle", ("bundle", "cli")),
    ("bundle.verify", "bundle", "verify_bundle", ("bundle", "cli")),
    ("scenario.build", "scenario", "build_market", ("scenario", "cli")),
    # The CLI is the only caller of the limit reports; wrapping the limits
    # module's own bindings would nest one_agent_limit_report's internal
    # call to limiting_gains inside itself.
    ("limits.report", "limits", "one_agent_limit_report", ("cli",)),
    ("limits.report", "limits", "limiting_gains", ("cli",)),
    ("limits.report", "limits", "both_limit_check", ("cli",)),
)


class TraceError(RuntimeError):
    """A layer entry point is missing, so the trace would read zero."""


def _size(name, args, kwargs, result):
    """Work measure of one call: elements solved, roots found, bytes written."""
    if name == "roots.kernel":
        return int(result.size)
    if name == "nash.solve":
        return len(result.all_roots)
    if name == "bundle.write":
        return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
    return 0


class Tracer:
    """In-memory span recorder; install() wraps the layers, remove() undoes it."""

    def __init__(self):
        self.spans = []  # [op, name, via, parent, t0, t1, size]
        self._stack = []
        self._saved = []
        self.op = None

    def _record(self, name, via, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [self.op, name, via, parent, time.perf_counter(), None, 0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._stack.pop()
        span[6] = _size(name, args, kwargs, result)
        return result

    @contextmanager
    def span(self, name, op):
        """Root span for one benchmark op; layer spans nest under it."""
        self.op = op
        self.spans.append([op, name, "bench", -1, time.perf_counter(), None, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][5] = time.perf_counter()
            self._stack.pop()

    def install(self):
        """Wrap every entry point; nothing is wrapped if one is missing."""
        if self._saved:
            raise TraceError("tracer is already installed")
        # Every module is imported before any attribute is replaced, so a
        # module imported here binds the original function, not a wrapper.
        plan = []
        for name, home, func, bindings in ENTRY_POINTS:
            original = getattr(importlib.import_module(f"risksharing.{home}"), func, None)
            if original is None:
                raise TraceError(
                    f"layer entry point risksharing.{home}.{func} no longer exists; "
                    "update ENTRY_POINTS in perfbench/spans.py"
                )
            for via in bindings:
                mod = importlib.import_module(f"risksharing.{via}")
                if getattr(mod, func, None) is not original:
                    raise TraceError(
                        f"risksharing.{via} no longer reaches {home}.{func} through the "
                        f"name {func!r}; update ENTRY_POINTS in perfbench/spans.py"
                    )
                plan.append((mod, func, self._wrap(name, via, original), original))
        for mod, func, wrapper, original in plan:
            setattr(mod, func, wrapper)
            self._saved.append((mod, func, original))

    def _wrap(self, name, via, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, via, fn, args, kwargs)

        return wrapper

    def remove(self):
        while self._saved:
            mod, func, original = self._saved.pop()
            setattr(mod, func, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def aggregate(self):
        """Per span name: calls, total and self seconds, summed sizes, and by caller."""
        child_time = [0.0] * len(self.spans)
        for op, name, via, parent, t0, t1, size in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for k, (op, name, via, parent, t0, t1, size) in enumerate(self.spans):
            rec = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0, "calls_by_caller": {}}
            )
            rec["calls"] += 1
            rec["total_s"] += t1 - t0
            rec["self_s"] += (t1 - t0) - child_time[k]
            rec["size"] += size
            callers = rec["calls_by_caller"]
            callers[via] = callers.get(via, 0) + 1
        return out

    def child_calls(self, child, parent_name):
        """Number of ``child`` spans whose parent span is a ``parent_name`` span."""
        return sum(
            1
            for op, name, via, parent, t0, t1, size in self.spans
            if name == child and parent >= 0 and self.spans[parent][1] == parent_name
        )
