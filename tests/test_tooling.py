"""Repository-level checks: the demos run, cached layouts are read-only,
modules share no private names, the public surface is the pinned list below,
every function the benchmark traces exists, and the benchmark's small job
scripts pass its oracle."""

import ast
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mvskew
from mvskew import cli

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


def test_each_test_has_its_own_cache_home(tmp_path, cache_home, monkeypatch):
    # conftest points XDG_CACHE_HOME into this test's tmp_path, and the
    # subprocesses a test starts inherit it
    assert os.environ["XDG_CACHE_HOME"] == str(cache_home)
    assert cache_home.parent == tmp_path
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.environ['XDG_CACHE_HOME'])"],
        capture_output=True, text=True, check=True)
    assert child.stdout.strip() == str(cache_home)
    monkeypatch.setattr(mvskew.data, "CACHE_BYTES", 0)
    mvskew.load_csv(ROOT / "data" / "iris.csv")
    assert len(list((cache_home / "mvskew").glob("*.npy"))) == 1


def test_import_builds_no_format_table():
    # format_matrix builds its digit table on first use, so import stays cheap
    code = "import mvskew; print(mvskew.data._digit_table.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


@pytest.mark.parametrize("d", range(1, 7))
def test_cached_layouts_are_read_only(d):
    # every caller gets the same cached arrays, so none may write to them
    arrays = (*mvskew.moments.pair_layout(d), *mvskew.moments.triple_layout(d),
              *mvskew.data._digit_table())
    assert len(arrays) == 9
    assert [array.flags.writeable for array in arrays] == [False] * 9


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
    "ProjectionBasis", "SingularityError", "SkewnessReport",
    "ThirdMomentMatrix", "block", "chi2_sf", "covariance",
    "cumulant_from_moments", "directional_skewness", "fisher_skew", "inv_sqrt",
    "load_csv", "load_third_moment", "mardia_skewness", "max_skew", "min_skew",
    "partial_skewness", "residual_skewness", "save_third_moment", "skew_boot",
    "standardize", "third_moment", "transform_third",
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


def _bench_targets() -> dict:
    """The TARGETS table of perfbench/spans.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]]
    return ast.literal_eval(table)


def test_bench_traced_functions_exist():
    # the bench wraps these by name; a rename must fail here, not in a traced run
    missing = [f"{short}.{name}" for short, names in _bench_targets().items()
               for name in names
               if not callable(getattr(importlib.import_module(f"mvskew.{short}"), name, None))]
    assert missing == []


def _bench_module(name: str):
    """A module of perfbench/, loaded by file path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = [w["name"] for w in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCH_WORKLOADS)
def test_bench_small_workload_passes_its_oracle(name, tmp_path):
    # the bench's small job script, run in-process as the bench runs it in
    # a subprocess; a broken output file fails here, not in a timed run
    oracle = _bench_module("oracle")
    workload = _bench_module("workloads").workloads(small=True)[name]
    seed = 1
    csv = workload.input_file(ROOT, tmp_path, seed)
    reference = oracle.Oracle(csv, range(workload.d), iris=workload.n == 0)
    for job in workload.jobs:
        out = tmp_path / job.kind
        argv = [job.args[0], str(csv), *job.args[1:],
                "--output-dir", str(out), "--precision", "15"]
        if job.args[0] == "boot":
            argv += ["--seed", str(seed)]
        assert cli.main(argv) == 0, job
        assert reference.check(job.kind, out, job.args) == [], job
