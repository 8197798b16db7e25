"""Module boundaries: no module of the package imports another's private name,
and only the simulator reads the layout of its ground truth."""

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


def test_only_the_simulator_reads_the_ground_truth_layout():
    # GroundTruth.written is one (order, values) pair per instance; the
    # simulator writes truth.json and checks the oracle from it, so no
    # other module needs to know that layout.
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "simulator"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "written"
    ]
    assert readers == []
