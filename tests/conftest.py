from pathlib import Path

import numpy as np
import pytest

from mvskew import DataMatrix, load_csv
from mvskew.data import format_slices

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# rows of the pairwise Gram matrix formed at a time by the Mardia reference
GRAM_BLOCK = 1024

# outcome of each acceptance criterion test, for the terminal summary
_acceptance: dict[str, str] = {}


def matrix_text(matrix, precision: int) -> str:
    """The CSV text data.format_slices writes for a matrix, in one string."""
    return b"".join(format_slices(matrix, precision)).decode("ascii")


@pytest.fixture(autouse=True)
def cache_home(tmp_path, monkeypatch) -> Path:
    """This test's own XDG_CACHE_HOME, which the CLI and demo subprocesses
    it starts inherit: no test writes load_csv's cache to the real home, and
    no test reads another test's entries."""
    home = tmp_path / "cache-home"
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture(scope="session")
def iris_path() -> Path:
    return DATA_DIR / "iris.csv"


@pytest.fixture(scope="session")
def iris(iris_path) -> DataMatrix:
    return load_csv(iris_path, columns=[1, 2, 3, 4])


@pytest.fixture(scope="session")
def setosa(iris) -> DataMatrix:
    return iris.select_rows(range(50))


@pytest.fixture(scope="session")
def mardia_pairwise():
    """Mardia's skewness by the double sum over observation pairs.

    (1/n^2) sum_{a,b} [(x_a - mean)' S^{-1} (x_b - mean)]^3 with the 1/n
    covariance S: a route to the value that shares no code with mvskew (no
    whitening, no third-moment matrix). The Gram matrix is formed a block of
    rows at a time, so memory stays O(GRAM_BLOCK * n).
    """
    def reference(data) -> float:
        x = np.asarray(getattr(data, "values", data), dtype=float)
        centered = x - x.mean(axis=0)
        n = len(centered)
        solved = np.linalg.solve(centered.T @ centered / n, centered.T)
        total = sum(float(((centered[i:i + GRAM_BLOCK] @ solved) ** 3).sum())
                    for i in range(0, n, GRAM_BLOCK))
        return total / n**2

    return reference


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py::test_criterion_" in report.nodeid:
        _acceptance[report.nodeid.split("::")[-1]] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        outcome = _acceptance[name].upper()
        terminalreporter.write_line(f"{name}: {outcome}")
