"""The benchmark's tracer still finds every package binding it wraps.

``perfbench/spans.py`` wraps layer entry points through the module-level
names their callers use, and refuses to trace when one has gone.  A
refactor that drops such a name fails here in under a second, instead of
in the long work-count self-test.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    out = {}
    for _, home, func, vias in spans.ENTRY_POINTS:
        for via in vias:
            mod = importlib.import_module(f"risksharing.{via}")
            out[(via, func)] = getattr(mod, func)
    return out


def test_tracer_installs_and_removes_cleanly():
    spans = _load_spans()
    before = _bindings(spans)
    with spans.Tracer().installed():
        during = _bindings(spans)
        assert all(during[key] is not fn for key, fn in before.items())
    after = _bindings(spans)
    assert all(after[key] is fn for key, fn in before.items())
