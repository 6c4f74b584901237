"""Repository-level checks: the demos run, modules share no private names,
and the public surface is the pinned list below."""

import ast
import importlib
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


# Adding a public name means adding it here.
PUBLIC = [
    "BootstrapResult", "DataError", "DataMatrix", "PreconditionError",
    "ProjectionBasis", "SingularityError", "SkewnessReport", "SpdMatrix",
    "ThirdMomentMatrix", "block", "chi2_sf", "covariance",
    "cumulant_from_moments", "directional_skewness", "fisher_skew", "inv_sqrt",
    "load_csv", "load_third_moment", "mardia_skewness", "max_skew", "min_skew",
    "mori_vector", "partial_skewness", "residual_skewness", "save_third_moment",
    "skew_boot", "standardize", "third_moment", "transform_third",
]


def test_public_surface_is_pinned():
    assert sorted(mvskew.__all__) == PUBLIC


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from mvskew import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("[!_]*.py")))
def test_submodule_all_names_exist(module):
    module = importlib.import_module(f"mvskew.{module}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
