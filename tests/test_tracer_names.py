"""The benchmark's tracer wraps functions by name; each name must still exist.

A name that no longer resolves makes ``Tracer.install`` raise, so every
traced benchmark run would fail.  The tracer is loaded from its file; nothing is traced.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"focalrisk.{mod}"), name, None))]
    assert tracer.TRACED and not missing
