import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvskew
from mvskew import load_third_moment
from mvskew.cli import main


def run_cli(args, tmp_path, monkeypatch=None):
    return main([*args, "--output-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# skew
# ---------------------------------------------------------------------------

def test_skew_mardia_report(tmp_path, iris_path, capsys):
    code = main(["skew", str(iris_path), "--measure", "mardia",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "skew_mardia.csv").read_text()
    assert "2.69722" in text
    assert "4.758e-07" in text
    out = capsys.readouterr().out
    assert "2.69722" in out


def test_skew_all_writes_three_reports(tmp_path, iris_path):
    code = main(["skew", str(iris_path), "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    for name in ("fisher", "mardia", "partial"):
        assert (tmp_path / f"skew_{name}.csv").exists()


def test_skew_json_format(tmp_path, iris_path):
    code = main(["skew", str(iris_path), "--measure", "partial",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "skew_partial.json").read_text())
    assert abs(payload["value"] - 0.8098) < 5e-4
    assert len(payload["vector"]) == 4


def test_skew_fisher_json_equals_library(tmp_path, iris_path, iris):
    code = main(["skew", str(iris_path), "--measure", "fisher",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "skew_fisher.json").read_text())
    assert set(payload) == {"measure", "value", "variables"}
    assert payload["measure"] == "fisher"
    assert payload["variables"] == list(iris.names)
    # JSON round-trips floats, so the written values are the library's exactly
    assert np.array_equal(payload["value"], mvskew.fisher_skew(iris))


def test_skew_rows_selection(tmp_path, iris_path):
    code = main(["skew", str(iris_path), "--measure", "fisher",
                 "--columns", "1-4", "--rows", "1-50",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "skew_fisher.csv").read_text()
    assert "1.2159" in text  # setosa petal width skewness


# ---------------------------------------------------------------------------
# third
# ---------------------------------------------------------------------------

def test_third_raw_matrix(tmp_path, iris_path):
    code = main(["third", str(iris_path), "--kind", "raw",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 0
    loaded = load_third_moment(tmp_path / "third_raw.csv")
    assert loaded.values.shape == (16, 4)
    assert abs(loaded.values[0, 0] - 211.6333) < 5e-4
    assert loaded.kind == "raw"


def test_third_roundtrip_symmetry(tmp_path, iris_path):
    # re-reading the written file passes the index-symmetry validation that
    # ThirdMomentMatrix construction enforces
    for kind in ("raw", "central", "standardized"):
        code = main(["third", str(iris_path), "--kind", kind,
                     "--columns", "1-4", "--output-dir", str(tmp_path)])
        assert code == 0
        loaded = load_third_moment(tmp_path / f"third_{kind}.csv")
        tensor = loaded.tensor()
        assert np.array_equal(tensor, np.swapaxes(tensor, 0, 1))
        assert np.array_equal(tensor, np.swapaxes(tensor, 1, 2))


def test_third_json(tmp_path, iris_path):
    code = main(["third", str(iris_path), "--kind", "central",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "third_central.json").read_text())
    assert payload["kind"] == "central"
    assert abs(payload["values"][0][0] - 0.1752) < 5e-4


# ---------------------------------------------------------------------------
# maxskew / minskew
# ---------------------------------------------------------------------------

def test_maxskew_outputs(tmp_path, iris_path):
    code = main(["maxskew", str(iris_path), "--iterations", "50",
                 "--components", "2", "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    directions = np.loadtxt(tmp_path / "maxskew_directions.csv", delimiter=",")
    projections = np.loadtxt(tmp_path / "maxskew_projections.csv", delimiter=",")
    skewness = np.loadtxt(tmp_path / "maxskew_skewness.csv", delimiter=",")
    assert directions.shape == (4, 2)
    assert projections.shape == (150, 2)
    assert skewness.shape == (2,)
    scatter = (tmp_path / "maxskew_scatter.csv").read_text().splitlines()
    assert scatter[0] == "proj1,proj2"
    assert len(scatter) == 151


def test_maxskew_json_carries_search_diagnostics(tmp_path, iris_path):
    code = main(["maxskew", str(iris_path), "--components", "2",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "maxskew.json").read_text())
    assert payload["restarts"] == [4 * 4 + 8, 3 * 3 + 8]
    assert all(0 <= c <= r for c, r in zip(payload["converged"], payload["restarts"]))


def test_maxskew_component_bound_exit_2(tmp_path, iris_path, capsys):
    code = main(["maxskew", str(iris_path), "--components", "5",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "components must be" in err and "smaller than the number of variables" in err


def test_maxskew_iterations_exit_2(tmp_path, iris_path, capsys):
    code = main(["maxskew", str(iris_path), "--iterations", "0",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "mvskew: iterations must be >= 1, got 0" in capsys.readouterr().err


def test_minskew_outputs(tmp_path, iris_path):
    code = main(["minskew", str(iris_path), "--dimension", "2",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 0
    linear = np.loadtxt(tmp_path / "minskew_linear.csv", delimiter=",")
    projections = np.loadtxt(tmp_path / "minskew_projections.csv", delimiter=",")
    assert linear.shape == (4, 2)
    assert projections.shape == (150, 2)


def test_minskew_json_equals_library(tmp_path, iris_path, iris):
    code = main(["minskew", str(iris_path), "--dimension", "2",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "minskew.json").read_text())
    basis = mvskew.min_skew(iris, dimension=2)
    expected = {"linear": basis.directions,
                "standardized_directions": basis.standardized_directions,
                "skewness": basis.skewness,
                "projections": basis.projected}
    assert set(payload) == set(expected)
    for key, array in expected.items():
        assert np.array_equal(payload[key], array), key


def test_minskew_dimension_bound_exit_2(tmp_path, iris_path, capsys):
    code = main(["minskew", str(iris_path), "--dimension", "1",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "dimension" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# boot
# ---------------------------------------------------------------------------

def test_boot_outputs_and_determinism(tmp_path, iris_path):
    args = ["boot", str(iris_path), "--measure", "Mardia", "--replicates", "10",
            "--units", "11", "--seed", "101", "--columns", "1-4"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main([*args, "--output-dir", str(first)]) == 0
    assert main([*args, "--output-dir", str(second)]) == 0
    for name in ("boot_replicates.csv", "boot_histogram.csv", "boot_summary.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    summary = dict(
        line.split(",", 1) for line in
        (first / "boot_summary.csv").read_text().splitlines()
    )
    pvalue = float(summary["pvalue"])
    assert abs(pvalue * 11 - round(pvalue * 11)) < 1e-9


def test_boot_units_constraint_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Partial",
                 "--replicates", "5", "--units", "5", "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "units must be greater than 5" in capsys.readouterr().err


def test_boot_replicates_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "0", "--units", "11", "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "mvskew: replicates must be >= 1, got 0" in capsys.readouterr().err


def test_boot_unknown_measure_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Bogus",
                 "--replicates", "5", "--units", "11", "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert ("mvskew: measure must be one of ('Directional', 'Partial', "
            "'Mardia'), got 'Bogus'") in capsys.readouterr().err


def test_boot_directional_one_column_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Directional",
                 "--replicates", "5", "--units", "11", "--columns", "1",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert ("mvskew: the Directional measure needs at least 2 variables, "
            "got 1") in capsys.readouterr().err


def test_boot_json(tmp_path, iris_path):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "5", "--units", "10", "--seed", "1",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "boot.json").read_text())
    assert payload["measure"] == "Mardia"
    assert len(payload["replicates"]) == 5
    assert sum(h[2] for h in payload["histogram"]) == 5


# ---------------------------------------------------------------------------
# error handling, environment, formatting
# ---------------------------------------------------------------------------

def test_missing_file_exit_1(tmp_path, capsys):
    code = main(["skew", str(tmp_path / "absent.csv"),
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err


def test_non_numeric_cell_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3,oops\n")
    code = main(["skew", str(bad), "--columns", "1-2",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "oops" in capsys.readouterr().err


def test_singular_data_exit_1(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("1,2\n1,2\n1,2\n")
    code = main(["skew", str(path), "--measure", "mardia",
                 "--output-dir", str(tmp_path)])
    assert code == 1
    assert "singular" in capsys.readouterr().err


def test_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes("a,b,name\n1,2,caf\xe9\n3,5,x\n4,1,y\n".encode("latin-1"))
    code = main(["skew", str(path), "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"mvskew: {path}: not UTF-8 text: byte 0xe9 at byte offset 16\n")


def test_columns_by_name(tmp_path, iris_path):
    # the README's example selection
    code = main(["skew", str(iris_path), "--measure", "fisher",
                 "--columns", "sepal_length,petal_width",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    keys = [line.split(",")[0] for line in
            (tmp_path / "skew_fisher.csv").read_text().splitlines()]
    assert keys == ["measure", "value.sepal_length", "value.petal_width"]


@pytest.mark.parametrize("option, value, message", [
    ("--columns", "0", "column index 0 out of range 1..5"),
    ("--columns", "6", "column index 6 out of range 1..5"),
    ("--columns", "sepal", "no column named 'sepal'"),
    ("--columns", "3-1", "bad range '3-1' in selection"),
    ("--columns", ",", "empty selection ','"),
    ("--rows", "a", "row selection must be numeric, got 'a'"),
    ("--rows", "0", "row 0 out of range 1..150"),
    ("--rows", "151", "row 151 out of range 1..150"),
])
def test_selection_errors_exit_2(tmp_path, iris_path, capsys, option, value, message):
    code = main(["skew", str(iris_path), "--measure", "fisher", option, value,
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"mvskew: {message}\n"
    assert not list(tmp_path.iterdir())


def test_bad_subcommand_exit_2(tmp_path):
    assert main(["frobnicate", "x.csv"]) == 2


def test_precision_flag(tmp_path, iris_path):
    code = main(["skew", str(iris_path), "--measure", "mardia",
                 "--columns", "1-4", "--precision", "12",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "skew_mardia.csv").read_text()
    assert "2.69722035112" in text


def test_precision_out_of_range(tmp_path, iris_path, capsys):
    code = main(["skew", str(iris_path), "--precision", "16",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "precision" in capsys.readouterr().err


def test_output_dir_from_environment(tmp_path, iris_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("MVSKEW_OUTPUT_DIR", str(target))
    code = main(["skew", str(iris_path), "--measure", "mardia",
                 "--columns", "1-4"])
    assert code == 0
    assert (target / "skew_mardia.csv").exists()


def test_console_entry_point(tmp_path, iris_path):
    result = subprocess.run(
        [sys.executable, "-m", "mvskew.cli", "skew", str(iris_path),
         "--measure", "mardia", "--columns", "1-4",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "2.69722" in result.stdout


# every job of an iris session, each as CLI argv after the input file
SESSION_JOBS = (
    ("third", "--kind", "standardized"),
    ("skew", "--measure", "all"),
    ("maxskew", "--iterations", "50", "--components", "2"),
    ("minskew", "--dimension", "2"),
    ("boot", "--measure", "Directional", "--replicates", "20", "--units", "150"),
    ("boot", "--measure", "Mardia", "--replicates", "50", "--units", "150"),
)

SESSION_SCRIPT = """
import json, sys
from mvskew.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_outputs_independent_of_blas_threads(tmp_path, iris_path):
    # BLAS reads its thread count at load time, so each count needs its own
    # process; every output file must match byte for byte at full precision
    src = str(Path(mvskew.__file__).resolve().parents[1])
    trees = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        argvs = [[job[0], str(iris_path), *job[1:], "--columns", "1-4",
                  "--precision", "15", "--output-dir", str(root / str(k))]
                 for k, job in enumerate(SESSION_JOBS)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", SESSION_SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        trees[threads] = {path.relative_to(root): path.read_bytes()
                          for path in sorted(root.rglob("*")) if path.is_file()}
    assert len(trees["1"]) == 17
    assert trees["1"] == trees["2"]
