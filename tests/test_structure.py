"""Module boundaries: no module of the package imports another's private name,
only the simulator reads the layout of its ground truth, one function writes
to stderr, no module imports logging, dataclasses or typing, the package
exports its names lazily, and importing the CLI loads only what ``scan``
runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracerecon

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


def test_one_function_writes_to_stderr_and_no_module_logs():
    # Diagnostics, scan's count and errors all leave by one path, so a
    # process with no stderr drops them in one place and none lands on stdout.
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    writers = [
        f"{name}: {function.name}"
        for name, tree in modules.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    ]
    assert writers == ["bodyfile.py: write_stderr"]
    assert "logging" not in _imported_packages()


def test_no_module_imports_dataclasses():
    # The value types are named tuples; dataclasses alone would load inspect,
    # ast and dis, a fifth of what importing the CLI costs.
    assert "dataclasses" not in _imported_packages()


def test_no_module_imports_typing():
    # Annotations are never evaluated, so collections.abc, io and contextlib
    # name every type they use, and importing the CLI skips loading typing.
    assert "typing" not in _imported_packages()


def _imported_packages():
    """The top-level name of every module that a module of the package imports."""
    return {
        (alias.name if isinstance(node, ast.Import) else node.module or "").split(".")[0]
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


# What ``scan`` never runs: importing the CLI must not load these.
NOT_FOR_SCAN = ("tracerecon.simulator", "tracerecon.calibration", "statistics",
                "importlib.resources", "logging", "dataclasses", "inspect", "typing",
                "datetime")


def test_importing_the_cli_loads_nothing_scan_does_not_run():
    # -S skips site, whose .pth files may import importlib.resources first.
    probe = f"import sys, tracerecon.cli; print(sorted(set({NOT_FOR_SCAN!r}) & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


EXPORTS = [
    "ActionInstanceApproximation", "CalibrationError", "ConfidenceNote", "IngestError",
    "InstanceRank", "ObjectRecord", "ParseDiagnostic", "ScenarioError", "SignatureError",
    "SignaturePack", "SimulationError", "ThresholdEstimate", "TimeInterval", "TimestampKind",
    "TraceCategory", "TraceState", "derive_signatures", "estimate_threshold", "load_metadata",
    "match_pack", "merge_packs", "oracle_check", "parse_bodyfile", "parse_scenario",
    "parse_signature_pack", "reconstruct", "simulate", "threshold_from_stats", "write_bodyfile",
]


def test_star_import_binds_exactly_the_exports_each_from_its_submodule():
    assert tracerecon.__all__ == EXPORTS
    namespace = {}
    exec("from tracerecon import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    for name in EXPORTS:
        value = namespace[name]
        assert (value.__name__, value.__module__.split(".")[0]) == (name, "tracerecon")
        assert getattr(sys.modules[value.__module__], name) is value


def test_the_package_lists_its_exports_and_rejects_unknown_names():
    assert set(EXPORTS) <= set(dir(tracerecon))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tracerecon.no_such_name


def test_errors_the_cli_maps_are_one_class_each_wherever_imported():
    from tracerecon import calibration, model, simulator

    assert simulator.SimulationError is tracerecon.SimulationError is model.SimulationError
    assert calibration.CalibrationError is tracerecon.CalibrationError is model.CalibrationError
