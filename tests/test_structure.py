"""Module boundaries: no module of the package imports another's private name."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "tracerecon"


def _private_imports(path):
    """``module: name`` for each ``_``-prefixed name ``path`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "tracerecon":
            found += [f"{path.name}: {'.' * node.level}{module}.{alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    assert [name for path in paths for name in _private_imports(path)] == []
