"""Only the command line writes files: every other module of the package returns text.

``cli.main`` writes a run's files once every one of them is built, so a run refused at
any step leaves its output directory untouched.  A write anywhere else would come before
some later step that can still refuse.  This reads each module's syntax tree and lists
its calls that open, create or write a file.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "focalrisk"
WRITERS = {"write_text", "write_bytes", "open", "mkdir", "touch"}


def writes(source: str) -> list[str]:
    """The names of the module's file-writing calls, sorted."""
    calls = (node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call))
    names = (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None) for f in calls)
    return sorted(name for name in names if name in WRITERS)


def test_the_check_finds_a_write():
    source = (PACKAGE / "risk.py").read_text()
    assert writes(source) == []
    source += "\n\ndef _dump(path, text):\n    Path(path).write_text(text)\n    open(path).close()\n"
    assert writes(source) == ["open", "write_text"]


def test_only_the_command_line_writes():
    found = {path.stem: writes(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("cli") == ["mkdir", "write_text"]
    assert {module: names for module, names in found.items() if names} == {}
