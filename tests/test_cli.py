import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvskew
from mvskew import load_csv, load_third_moment, max_skew
from mvskew.cli import main
from mvskew.data import format_matrix


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


def test_skew_partial_summary_line(tmp_path, iris_path, capsys):
    code = main(["skew", str(iris_path), "--measure", "partial",
                 "--columns", "1-4", "--precision", "4",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "measure=partial, value=0.8098, vector=0.5301 0.4355 0.4105 0.4131, "
        "statistic=10.12, dof=4, pvalue=0.0384",
        f"wrote {tmp_path / 'skew_partial.csv'}",
    ]


def test_skew_rows_selection(tmp_path, iris_path):
    code = main(["skew", str(iris_path), "--measure", "fisher",
                 "--columns", "1-4", "--rows", "1-50",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "skew_fisher.csv").read_text()
    assert "1.2159" in text  # setosa petal width skewness


def test_key_value_files_quote_labels(tmp_path, iris):
    # a label holding a comma or a quote stays one cell of its row
    source = tmp_path / "labels.csv"
    source.write_text('"a,b","say ""hi"""\n'
                      + "".join(f"{x},{y}\n" for x, y in iris.values[:, :2]))
    assert main(["skew", str(source), "--measure", "fisher",
                 "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / "skew_fisher.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [2, 2, 2]
    assert [row[0] for row in rows] == ["measure", "value.a,b", 'value.say "hi"']
    assert [row[1] for row in rows[1:]] == [
        "%.6g" % v for v in mvskew.fisher_skew(iris.values[:, :2])]


def test_summary_line_quotes_labels(tmp_path, iris, capsys):
    # a label holding a comma, a quote or = is quoted as a CSV field, so the
    # stdout line splits back into its key=value pairs
    source = tmp_path / "labels.csv"
    source.write_text('"a,b","say ""hi""",x=y\n'
                      + "".join(f"{x},{y},{z}\n" for x, y, z in iris.values[:, :3]))
    assert main(["skew", str(source), "--measure", "fisher",
                 "--output-dir", str(tmp_path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    values = ["%.6g" % v for v in mvskew.fisher_skew(iris.values[:, :3])]
    assert line == (f'measure=fisher, "value.a,b"={values[0]}, '
                    f'"value.say ""hi"""={values[1]}, "value.x=y"={values[2]}')
    pairs = re.findall(r'("(?:[^"]|"")*"|[^",=]*)=([^,]*)(?:, |$)', line)
    assert [(key[1:-1].replace('""', '"') if key.startswith('"') else key, value)
            for key, value in pairs] == [
        ("measure", "fisher"), ("value.a,b", values[0]), ('value.say "hi"', values[1]),
        ("value.x=y", values[2])]


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
    iris = load_csv(iris_path, columns=[1, 2, 3, 4])
    assert payload["winners"] == list(max_skew(iris, 50, 2).winners)


def test_maxskew_component_bound_exit_2(tmp_path, iris_path, capsys):
    code = main(["maxskew", str(iris_path), "--components", "5",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "mvskew: components must be from 1 to 3, got 5\n"


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
    assert capsys.readouterr().err == (
        "mvskew: units for the Partial measure on 4 variables must be >= 6, got 5\n")


def test_boot_replicates_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "0", "--units", "11", "--columns", "1-4",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "mvskew: replicates must be >= 1, got 0" in capsys.readouterr().err


def test_boot_negative_seed_exit_2(tmp_path, iris_path, capsys):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "2", "--units", "11", "--seed", "-1",
                 "--columns", "1-4", "--output-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "mvskew: seed must be >= 0, got -1\n")


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


def test_boot_json(tmp_path, iris_path, iris):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "5", "--units", "10", "--seed", "1",
                 "--columns", "1-4", "--format", "json",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "boot.json").read_text())
    assert payload["measure"] == "Mardia"
    assert len(payload["replicates"]) == 5
    assert sum(h[2] for h in payload["histogram"]) == 5
    # JSON round-trips floats, so the written values are the library's exactly
    result = mvskew.skew_boot(iris, replicates=5, units=10, measure="Mardia", seed=1)
    assert payload == {"measure": result.measure, "observed": result.observed,
                       "pvalue": result.pvalue,
                       "replicates": result.replicates.tolist(),
                       "histogram": [list(row) for row in result.histogram],
                       "units": 10, "seed": 1, "redraws": result.redraws}


def test_boot_histogram_counts_are_integers(tmp_path, iris_path):
    code = main(["boot", str(iris_path), "--measure", "Mardia",
                 "--replicates", "100", "--units", "150", "--columns", "1-4",
                 "--precision", "1", "--output-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "boot_histogram.csv").read_text().splitlines()
    assert lines[0] == "lower,upper,count"
    counts = [line.split(",")[2] for line in lines[1:]]
    assert all(count.isdigit() for count in counts), counts
    assert max(map(int, counts)) >= 10
    assert sum(map(int, counts)) == 100


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


@pytest.mark.parametrize("scale, measure", [(1e160, "all"), (1e110, "fisher")])
def test_overflowing_moments_exit_1(tmp_path, capsys, scale, measure):
    path = tmp_path / "huge.csv"
    values = np.random.default_rng(0).gamma(2, size=(1000, 2)) * [scale, 1]
    path.write_text("a,b\n" + format_matrix(values, 17))
    code = main(["skew", str(path), "--measure", measure, "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "mvskew: the moments of column 1 overflow a double; rescale the column\n")
    assert not (tmp_path / "out").exists()


def test_non_utf8_file_exit_1(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes("a,b,name\n1,2,caf\xe9\n3,5,x\n4,1,y\n".encode("latin-1"))
    code = main(["skew", str(path), "--output-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"mvskew: {path}: not UTF-8 text: byte 0xe9 at byte offset 16\n")


def test_input_directory_exit_1(tmp_path, capsys):
    code = main(["skew", str(tmp_path), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("mvskew: ") and err.count("\n") == 1, err
    assert str(tmp_path) in err
    assert not (tmp_path / "out").exists()


def test_output_dir_naming_a_file_exit_1(tmp_path, iris_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["skew", str(iris_path), "--measure", "mardia",
                 "--columns", "1-4", "--output-dir", str(taken)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("mvskew: ") and err.count("\n") == 1, err
    assert str(taken) in err
    assert taken.read_text() == ""


# files each subcommand writes per --format, as listed in the README
OUTPUT_FILES = {
    ("third", "--kind", "standardized"): {
        "csv": ["third_standardized.csv"], "json": ["third_standardized.json"]},
    ("skew",): {
        "csv": ["skew_fisher.csv", "skew_mardia.csv", "skew_partial.csv"],
        "json": ["skew_fisher.json", "skew_mardia.json", "skew_partial.json"]},
    ("maxskew", "--components", "2"): {
        "csv": ["maxskew_directions.csv", "maxskew_skewness.csv",
                "maxskew_projections.csv", "maxskew_scatter.csv"],
        "json": ["maxskew.json", "maxskew_scatter.csv"]},
    ("minskew", "--dimension", "2"): {
        "csv": ["minskew_linear.csv", "minskew_skewness.csv",
                "minskew_projections.csv"],
        "json": ["minskew.json"]},
    ("boot", "--measure", "Mardia", "--replicates", "5", "--units", "10"): {
        "csv": ["boot_replicates.csv", "boot_histogram.csv", "boot_summary.csv"],
        "json": ["boot.json"]},
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("job", OUTPUT_FILES, ids=lambda job: job[0])
def test_written_files(tmp_path, iris_path, capsys, job, fmt):
    out = tmp_path / "out"
    code = main([job[0], str(iris_path), *job[1:], "--columns", "1-4",
                 "--format", fmt, "--output-dir", str(out)])
    assert code == 0
    names = OUTPUT_FILES[job][fmt]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {out / name}" for name in names]


def test_columns_by_name(tmp_path, iris_path):
    # the README's example selection
    code = main(["skew", str(iris_path), "--measure", "fisher",
                 "--columns", "sepal_length,petal_width",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    keys = [line.split(",")[0] for line in
            (tmp_path / "skew_fisher.csv").read_text().splitlines()]
    assert keys == ["measure", "value.sepal_length", "value.petal_width"]


def test_hyphenated_tokens_are_labels(tmp_path):
    # a token is a range only when both halves are digits
    path = tmp_path / "hyphens.csv"
    rows = np.random.default_rng(5).gamma(2.0, size=(20, 4))
    path.write_text("-abc,a-b,--,-5\n" + format_matrix(rows, 6))
    code = main(["skew", str(path), "--measure", "fisher", "--columns=-5,--,a-b,-abc",
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0
    keys = [line.split(",")[0] for line in
            (tmp_path / "out" / "skew_fisher.csv").read_text().splitlines()]
    assert keys == ["measure", "value.-5", "value.--", "value.a-b", "value.-abc"]


@pytest.mark.parametrize("option, value, message", [
    ("--columns", "0", "column must be from 1 to 5, got 0"),
    ("--columns", "a-b", "no column named 'a-b'"),
    ("--columns", "6", "column must be from 1 to 5, got 6"),
    ("--columns", "sepal", "no column named 'sepal'"),
    ("--columns", "3-1", "bad range '3-1' in selection"),
    ("--columns", ",", "empty selection ','"),
    ("--rows", "a", "row must be an integer, got 'a'"),
    ("--rows", "0", "row must be from 1 to 150, got 0"),
    ("--rows", "151", "row must be from 1 to 150, got 151"),
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
    assert capsys.readouterr().err == "mvskew: precision must be from 1 to 15, got 16\n"


def test_console_entry_point(tmp_path, iris_path):
    result = subprocess.run(
        [sys.executable, "-m", "mvskew.cli", "skew", str(iris_path),
         "--measure", "mardia", "--columns", "1-4",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(mvskew.__file__).resolve().parents[1])),
    )
    assert result.returncode == 0, result.stderr
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


# a wide session: at d = 32, BLAS splits the moment's and the search's
# products between threads
WIDE_JOBS = (
    ("third", "--kind", "standardized"),
    ("skew", "--measure", "all"),
    ("maxskew", "--iterations", "50", "--components", "2"),
    ("minskew", "--dimension", "16"),
    ("boot", "--measure", "Directional", "--replicates", "2", "--units", "200"),
    ("boot", "--measure", "Mardia", "--replicates", "10", "--units", "200"),
)

# at d = 96 BLAS splits the moment's products and the search's K C, for one
# cumulant and for the Directional bootstrap's stack, between threads; minskew
# is left out, because its SVD changes bits with the BLAS thread count from d = 80 on
WIDER_JOBS = (
    ("third", "--kind", "standardized"),
    ("skew", "--measure", "all"),
    ("maxskew", "--iterations", "5", "--components", "2"),
    ("boot", "--measure", "Directional", "--replicates", "2", "--units", "200"),
)


def _gamma_mixed_file(path: Path, d: int) -> Path:
    """A seeded 2000 x d gamma-mixed CSV file with a header line."""
    rng = np.random.default_rng(d)
    values = (rng.gamma(2.0, size=(2000, d)) @ rng.standard_normal((d, d))
              + 0.1 * rng.standard_normal((2000, d)))
    np.savetxt(path, values, fmt="%.9g", delimiter=",", comments="",
               header=",".join(f"x{j + 1}" for j in range(d)))
    return path


def _session_trees(root: Path, input_path: Path, jobs, options) -> dict:
    """Every output file of a session at 1 and 2 BLAS threads, by relative path.

    BLAS reads its thread count at load time, so each count needs its own
    process; each job writes at full precision into its own directory.
    """
    src = str(Path(mvskew.__file__).resolve().parents[1])
    trees = {}
    for threads in ("1", "2"):
        out = root / f"threads{threads}"
        argvs = [[job[0], str(input_path), *job[1:], *options,
                  "--precision", "15", "--output-dir", str(out / str(k))]
                 for k, job in enumerate(jobs)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", SESSION_SCRIPT, json.dumps(argvs)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        trees[threads] = {path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()}
    return trees


def test_outputs_independent_of_blas_threads(tmp_path, iris_path):
    # every output file must match byte for byte at full precision
    trees = _session_trees(tmp_path / "iris", iris_path, SESSION_JOBS, ("--columns", "1-4"))
    assert len(trees["1"]) == 17
    assert trees["1"] == trees["2"]

    wide = _gamma_mixed_file(tmp_path / "wide.csv", 32)
    trees = _session_trees(tmp_path / "wide", wide, WIDE_JOBS, ())
    assert len(trees["1"]) == 17
    assert trees["1"] == trees["2"]

    wider = _gamma_mixed_file(tmp_path / "wider.csv", 96)
    trees = _session_trees(tmp_path / "wider", wider, WIDER_JOBS, ())
    assert len(trees["1"]) == 11
    assert trees["1"] == trees["2"]
