"""Every private module-level name of the package is referenced by some module of it.

A helper left behind when its last caller goes (a density, a constant, a one-point
view) still imports and still passes its own tests, so only a reference count finds
it.  This reads each module's syntax tree: a name counts as referenced where a module
loads it, reaches it as an attribute, or imports it by name.  Tests and the benchmark
do not count, since a name only they use is not part of the package's own work.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"


def _private_definitions(tree: ast.Module) -> set[str]:
    """Names with one leading underscore that the module's own statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Names the module loads, reaches as attributes, or imports by name."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name no module references, sorted."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = set().union(*map(_references, trees.values()))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) - refs)


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_check_finds_a_left_over_helper():
    sources = _package_sources()
    sources["data_model"] += ("\n\ndef _std_normal_pdf(y):\n"
                              "    return np.exp(-0.5 * y**2) / _SQRT_2PI\n")
    assert unreferenced(sources) == ["data_model._std_normal_pdf"]
    # a name referenced from another module counts, by attribute or by import
    sources["risk"] += "\n_STRAY = data_model._std_normal_pdf\nprint(_STRAY)\n"
    assert unreferenced(sources) == []


def test_every_private_name_is_referenced():
    assert unreferenced(_package_sources()) == []
