"""Each module of the package uses every name it imports.

No linter ships with the test extras, so this reads each module's syntax tree: an
imported name counts as used where it appears as a name, the root of an attribute
chain included, or inside a quoted annotation.  ``__init__.py`` is skipped: its imports
are the package's public surface.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never uses, sorted."""
    tree, imported, used = ast.parse(source), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation, such as "TrueModel"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return sorted(imported - used)


def test_the_check_finds_what_it_should():
    source = ("import os\nimport numpy as np\nfrom typing import Callable, Sequence\n"
              "from dataclasses import dataclass, field\n"
              "def f(x: 'Sequence') -> int:\n    return np.size(x)\n"
              "@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == ["Callable", "field", "os"]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
