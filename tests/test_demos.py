"""Every demo script runs to completion against the source tree and prints
the bytes recorded in ``tests/fixtures/demos/<name>.out``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0_with_empty_stderr(demo):
    python_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": python_path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    golden = ROOT / "tests" / "fixtures" / "demos" / f"{demo.stem}.out"
    assert result.stdout == golden.read_text(encoding="utf-8")
