"""Repository-level checks: the demos run, and modules share no private names."""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvskew

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mvskew.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_five_demos():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # demos write files next to themselves, so each runs from a copy
    shutil.copytree(ROOT / "data", tmp_path / "data")
    (tmp_path / "demos").mkdir()
    script = shutil.copy(demo, tmp_path / "demos")
    result = subprocess.run(
        [sys.executable, script], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_no_module_imports_a_private_name_from_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: from {'.' * node.level}{node.module} "
                              f"import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
