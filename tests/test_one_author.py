"""One author per invariant: only ``conformal.focal_sets`` builds a focal system, and
only ``consistency`` sizes a Monte Carlo check of the bounds.

A ``FocalSystem`` is a table of pieces along y that tiles its support, and its lookup,
its prediction region and its support ends read that order directly.  The sample sizes
of ``verify-bounds`` (the threshold n and the uniform witness n) decide which runs it
refuses before the first draw.  One author keeps each in one place.  This reads each
module's syntax tree and lists the functions that call a given name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"
SAMPLE_SIZE_RULE = ("uniform_n", "witness_uniform", "min_sample_size")


def builders(source: str, callee: str = "FocalSystem") -> list[str]:
    """The enclosing function of each ``callee(...)`` call in the module, by plain or
    attribute name, sorted; "<module>" for a call outside any function."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        f = node.func if isinstance(node, ast.Call) else None
        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == callee:
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return sorted(visit(ast.parse(source), "<module>"))


def _callers(callee: str) -> dict[str, list[str]]:
    """Per module of the package that calls ``callee``, its calling functions."""
    found = {path.stem: builders(path.read_text(), callee) for path in sorted(PACKAGE.glob("*.py"))}
    return {module: names for module, names in found.items() if names}


def test_the_check_finds_a_call():
    source = (PACKAGE / "risk.py").read_text()
    assert builders(source) == []
    source += ("\n\ndef _flip(f):\n    return conformal.FocalSystem(f.index[::-1], f.lo, f.hi, 2)\n"
               "\n\nEMPTY = FocalSystem([], [], [], 1)\n")
    assert builders(source) == ["<module>", "_flip"]


def test_only_focal_sets_builds_a_focal_system():
    found = _callers("FocalSystem")
    assert found.pop("conformal") == ["focal_sets", "focal_sets"]
    assert found == {}


def test_the_check_finds_a_sample_size_call():
    source = (PACKAGE / "risk.py").read_text()
    assert [builders(source, callee) for callee in SAMPLE_SIZE_RULE] == [[], [], []]
    source += ("\n\ndef _plan(loss, grid, eps):\n"
               "    return consistency.uniform_n(loss, (-3, 3), grid, eps, 0.05)\n")
    assert builders(source, "uniform_n") == ["_plan"]


def test_only_consistency_sizes_the_bound_checks():
    for callee in SAMPLE_SIZE_RULE:
        assert set(_callers(callee)) <= {"consistency"}, callee
