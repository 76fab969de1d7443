"""The benchmark reaches the package by name; each name must still exist.

A name in the tracer's ``TRACED`` that no longer resolves makes ``Tracer.install``
raise, so every traced benchmark run would fail; a name that the workloads' checks or
the runner call fails a run as incorrect output.  The benchmark's files are loaded or
parsed, never run; nothing is traced.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"focalrisk.{mod}"), name, None))]
    assert tracer.TRACED and not missing


def _package_names(source: str) -> set[str]:
    """Dotted focalrisk paths that source imports, or reaches by attribute from an import."""
    tree, bound = ast.parse(source), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "focalrisk":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in (a for a in node.names if a.name.split(".")[0] == "focalrisk"):
                bound[alias.asname or "focalrisk"] = alias.name if alias.asname else "focalrisk"
    names = set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def _resolves(path: str) -> bool:
    """Whether path is a module, or an attribute chain from its longest module prefix."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    return False


def test_every_name_the_benchmark_calls_resolves():
    names = set().union(*(_package_names((PERFBENCH / f).read_text())
                          for f in ("workloads.py", "run.py")))
    missing = sorted(n for n in names if not _resolves(n))
    assert "focalrisk.risk.upper_risk_general" in names and not missing, missing
