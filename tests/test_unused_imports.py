"""Each module of the package uses every name it imports.

No linter ships with the test extras, so this reads each module's syntax tree: an
imported name counts as used where it appears as a name, the root of an attribute
chain included, or inside a quoted annotation.  An import inside a function must be
used inside that function, so a dead import in one command is not excused by another
command that uses the same name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope: ast.AST) -> set[str]:
    """The names that scope's own statements import, not those of functions inside it."""
    stack, names = list(ast.iter_child_nodes(scope)), set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _uses(scope: ast.AST) -> set[str]:
    """The names used anywhere inside scope, nested functions included."""
    used = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation, such as "ThetaGrid"
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
            except SyntaxError:
                pass
    return used


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never uses in the importing scope, sorted."""
    tree = ast.parse(source)
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]
    return sorted(set().union(*(_imports(s) - _uses(s) for s in scopes)))


def test_the_check_finds_what_it_should():
    source = ("import os\nimport numpy as np\nfrom typing import Callable, Sequence\n"
              "from dataclasses import dataclass, field\n"
              "def f(x: 'Sequence') -> int:\n    return np.size(x)\n"
              "@dataclass\nclass A:\n    pass\n"
              "def g():\n    import json\n    return 1\n"
              "def h():\n    import json\n    return json.dumps(1)\n")
    assert unused_imports(source) == ["Callable", "field", "json", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
