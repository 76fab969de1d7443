"""Only ``conformal.focal_sets`` builds a focal system.

A ``FocalSystem`` is a table of pieces along y that tiles its support, and its lookup,
its prediction region and its support ends read that order directly.  One author keeps
the invariant in one place.  This reads each module's syntax tree and lists the
functions that call ``FocalSystem(...)``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"


def builders(source: str) -> list[str]:
    """The enclosing function of each ``FocalSystem(...)`` call in the module, sorted;
    "<module>" for a call outside any function."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        f = node.func if isinstance(node, ast.Call) else None
        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "FocalSystem":
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return sorted(visit(ast.parse(source), "<module>"))


def test_the_check_finds_a_call():
    source = (PACKAGE / "risk.py").read_text()
    assert builders(source) == []
    source += ("\n\ndef _flip(f):\n    return conformal.FocalSystem(f.index[::-1], f.lo, f.hi, 2)\n"
               "\n\nEMPTY = FocalSystem([], [], [], 1)\n")
    assert builders(source) == ["<module>", "_flip"]


def test_only_focal_sets_builds_a_focal_system():
    found = {path.stem: builders(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("conformal") == ["focal_sets", "focal_sets"]
    assert {module: names for module, names in found.items() if names} == {}
