import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvskew import (
    DataError,
    DataMatrix,
    PreconditionError,
    SingularityError,
    block,
    chi2_sf,
    covariance,
    directional_skewness,
    fisher_skew,
    inv_sqrt,
    load_csv,
    mardia_skewness,
    max_skew,
    min_skew,
    partial_skewness,
    skew_boot,
    standardize,
    third_moment,
)
from mvskew.data import as_data_matrix, centered, format_slices
from mvskew.measures import _mori


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_iris_columns(iris):
    assert (iris.n, iris.d) == (150, 4)
    assert iris.names == ("sepal_length", "sepal_width", "petal_length", "petal_width")


def test_load_by_name(iris_path):
    data = load_csv(iris_path, columns=["petal_width", "sepal_length"])
    assert data.names == ("petal_width", "sepal_length")
    assert data.values[0, 0] == 0.2 and data.values[0, 1] == 5.1


def test_load_bare_string_is_one_label(iris_path):
    one = load_csv(iris_path, columns="sepal_length")
    listed = load_csv(iris_path, columns=["sepal_length"])
    assert one.names == listed.names == ("sepal_length",)
    assert one.values.tobytes() == listed.values.tobytes()


@pytest.mark.parametrize("column", [2, np.int64(2)], ids=["int", "numpy-int"])
def test_load_a_bare_int_is_one_position(iris_path, column):
    # as a bare str is one label, a bare int is one 1-based position
    one, listed = load_csv(iris_path, columns=column), load_csv(iris_path, columns=[2])
    assert one.names == listed.names == ("sepal_width",)
    assert one.values.tobytes() == listed.values.tobytes()


def test_load_drops_label_column_by_default(iris_path):
    # no selection: non-numeric species column is excluded automatically
    data = load_csv(iris_path)
    assert data.d == 4


def test_load_single_column(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.5\n2.5\n3.5\n")
    data = load_csv(path)
    assert (data.n, data.d) == (3, 1)
    assert_allclose(data.values[:, 0], [1.5, 2.5, 3.5])


def test_load_setosa_subset(iris):
    setosa = iris.select_rows(range(50))
    assert (setosa.n, setosa.d) == (50, 4)
    assert_allclose(setosa.values[0], [5.1, 3.5, 1.4, 0.2])


def test_load_explicit_header_flags(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert load_csv(path, header=True).names == ("a", "b")
    bare = tmp_path / "bare.csv"
    bare.write_text("1,2\n3,4\n")
    assert load_csv(bare, header=False).names == ("x1", "x2")


def test_load_non_numeric_cell_reports_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(DataError, match=r"row 3, column 2"):
        load_csv(path, columns=[1, 2])


def test_load_duplicate_labels(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,a\n1,2\n3,4\n")
    with pytest.raises(DataError, match="duplicate"):
        load_csv(path)
    path.write_text("a,a,b\n1,2,3\n4,5,6\n")
    with pytest.raises(PreconditionError, match="^column label 'a' names 2 columns$"):
        load_csv(path, columns=["a"])
    with pytest.raises(DataError, match="duplicate column labels: a$"):
        load_csv(path, columns=[1, 2])


@pytest.mark.parametrize("text,columns,kept", [
    ("a,b,note,note\n1,2,x,y\n3,5,z,w\n", None, ("a", "b")),
    ("a,b,note,note\n1,2,x,y\n3,5,z,w\n", ["a", "b"], ("a", "b")),
    ("a,a,b\n1,2,3\n4,5,7\n", ["b"], ("b",)),
])
def test_load_unkept_labels_may_repeat(tmp_path, text, columns, kept):
    path = tmp_path / "dup.csv"
    path.write_text(text)
    assert load_csv(path, columns=columns).names == kept


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv")


def test_load_empty_selection(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, columns=[])


def test_load_bad_index(iris_path):
    with pytest.raises(PreconditionError, match="^column must be from 1 to 5, got 9$"):
        load_csv(iris_path, columns=[9])


def test_load_selection_errors_are_preconditions(iris_path):
    for columns, message in (([0], "column must be from 1 to 5, got 0"),
                             (["nope"], "no column named 'nope'"),
                             ([], "empty column selection"),
                             ([True, 2], "column must be an integer, got True"),
                             ([1, np.False_], "column must be an integer, got np.False_"),
                             ([1.5], "column must be an integer, got 1.5"),
                             ([2.0], "column must be an integer, got 2.0")):
        with pytest.raises(PreconditionError, match=rf"^{message}$"):
            load_csv(iris_path, columns=columns)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(DataError, match=r"file is empty$"):
        load_csv(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("a,b\n")
    with pytest.raises(DataError, match=r"no data rows$"):
        load_csv(path)


LATIN_ROW = "4,5,caf\xe9\n".encode("latin-1")


@pytest.mark.parametrize("columns", [None, [1, 2]])
@pytest.mark.parametrize("head", [
    b"a,b,name\n",
    b"a,b,name\n" + b"1,2,x\n" * 3000,
    b"a,b,name\n1,2\n" + b"1,2,x\n" * 3000,
], ids=["data-row-1", "past-8-KiB", "after-a-ragged-row"])
def test_load_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, head, columns):
    path = tmp_path / "latin.csv"
    path.write_bytes(head + LATIN_ROW)
    offset = len(head) + LATIN_ROW.index(b"\xe9")
    with pytest.raises(DataError, match=rf"not UTF-8 text: byte 0xe9 at byte offset {offset}$"):
        load_csv(path, columns=columns)


def test_load_na_cell_in_numeric_column_is_named(tmp_path):
    # with no selection, one NA cell must not drop its whole column
    path = tmp_path / "na.csv"
    path.write_text("a,b,c\n1,2,3\n4,NA,6\n7,8,9\n")
    with pytest.raises(DataError, match=r"non-numeric cell 'NA' at row 3, column 2$"):
        load_csv(path)


def test_load_label_rule(tmp_path):
    # a column with no number is a label column and drops out; one number
    # makes it numeric, and then its first text cell is the fault
    path = tmp_path / "labels.csv"
    path.write_text("a,kind\n1,x\n2,y\n3,x\n")
    assert load_csv(path).names == ("a",)
    path.write_text("a,kind\n1,x\n2,y\n3,4\n")
    with pytest.raises(DataError, match=r"'x' at row 2, column 2$"):
        load_csv(path)
    path.write_text("a,kind\nx,y\nz,w\n")
    with pytest.raises(DataError, match="no numeric columns found"):
        load_csv(path)


def test_load_drops_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffa,b\n1,2\n3,5\n".encode())
    assert load_csv(path).names == ("a", "b")
    path.write_bytes("\ufeff1,2\n3,5\n".encode())
    data = load_csv(path)
    assert data.names == ("x1", "x2")
    assert data.values.tolist() == [[1.0, 2.0], [3.0, 5.0]]


@pytest.mark.parametrize("columns", [None, [1, 2], ["b"]])
@pytest.mark.parametrize("text, row, cells", [
    ("a,b\n1,2\n3\n5,6\n", 3, 1),
    ("a,b\n1,2\n3,4,5\n5,6\n", 3, 3),
    ("a,b\n1\n3,4\n", 2, 1),
    ("a,b\n1,2,3\n4,5,6\n", 2, 3),
    ("a,b\n\n1,2\n\n3,4,\n", 3, 3),
])
def test_load_ragged_row_is_named(tmp_path, text, row, cells, columns):
    # rows count the non-blank rows, header included
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=rf"row {row} has {cells} cells, expected 2$"):
        load_csv(path, columns=columns)


# ---------------------------------------------------------------------------
# DataMatrix invariants
# ---------------------------------------------------------------------------

def test_data_matrix_rejects_nan():
    with pytest.raises(DataError, match="non-finite"):
        as_data_matrix([[1.0, np.nan], [2.0, 3.0]])


def test_data_matrix_rejects_single_row():
    with pytest.raises(DataError):
        as_data_matrix([[1.0, 2.0]])


def test_data_matrix_rejects_a_3d_array():
    with pytest.raises(DataError, match=r"^expected a 2-d array, got ndim=3$"):
        DataMatrix(np.ones((3, 2, 2)), ("a", "b"))


def test_a_1d_input_is_one_column():
    data = as_data_matrix([1, 2, 5])
    assert data.names == ("x1",)
    assert data.values.tolist() == [[1.0], [2.0], [5.0]]
    assert fisher_skew([1, 2, 5]).tolist() == fisher_skew([[1], [2], [5]]).tolist()


def test_data_matrix_rejects_duplicate_names():
    with pytest.raises(DataError, match="duplicate"):
        DataMatrix(np.eye(2), ("a", "a"))


def test_data_matrix_reads_a_bare_string_as_one_label():
    assert DataMatrix(np.eye(2)[:, :1], "income").names == ("income",)
    with pytest.raises(DataError, match=r"^1 labels for 2 columns$"):
        DataMatrix(np.eye(2), "xy")


def test_data_matrix_is_immutable(iris):
    with pytest.raises(ValueError):
        iris.values[0, 0] = 99.0


def test_select_rows_takes_integer_indices(iris):
    rows = iris.select_rows([149, 0, 0])
    assert np.array_equal(rows.values, iris.values[[149, 0, 0]])
    for indices in (np.array([2, 5], np.uint8), range(2), (np.int64(3), 4)):
        assert np.array_equal(iris.select_rows(indices).values, iris.values[list(indices)])


@pytest.mark.parametrize("indices, message", [
    ([-1, -2, 0], "row must be from 0 to 149, got -2"),
    ([0, 150], "row must be from 0 to 149, got 150"),
    (np.array([3, -1]), "row must be from 0 to 149, got -1"),
    ([True, False], "row indices must be integers, got dtype bool"),
    ([0.0, 1.0], "row indices must be integers, got dtype float64"),
    (["0", "1"], "row indices must be integers, got dtype <U1"),
    ([0, None], "row indices must be integers, got dtype object"),
], ids=["negative", "past-the-end", "array", "bool", "float", "str", "object"])
def test_select_rows_refuses_a_bad_index(iris, indices, message):
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        iris.select_rows(indices)


def test_select_rows_of_nothing_is_a_data_error(iris):
    with pytest.raises(DataError, match=r"^need at least 2 rows and 1 column, got 0x4$") as error:
        iris.select_rows([])
    assert not isinstance(error.value, PreconditionError)


# ---------------------------------------------------------------------------
# row reductions: the bits of the numpy expressions they replaced
# ---------------------------------------------------------------------------

def _reference_centered(x):
    return x - x.mean(axis=-2, keepdims=True)


def _reference_fisher(x):
    centered = x - x.mean(axis=0)
    squared = centered * centered
    return (squared * centered).mean(axis=0) / squared.mean(axis=0) ** 1.5


def _reference_mori(z):
    return ((z**2).sum(axis=-1)[..., None] * z).mean(axis=-2)


def _assert_reductions_are_the_reference(x):
    x.setflags(write=False)
    rows, means = centered(x)
    assert np.array_equal(rows, _reference_centered(x))
    assert np.array_equal(means, x.mean(axis=-2))
    assert np.array_equal(_mori(x), _reference_mori(x))
    for one in x.reshape((-1,) + x.shape[-2:]):
        assert np.array_equal(fisher_skew(one), _reference_fisher(one))


@pytest.mark.parametrize("d", range(1, 65))
def test_row_reductions_are_the_numpy_expressions_bit_for_bit(d):
    # einsum adds the rows in numpy's order for d >= 2; d = 1 keeps numpy's
    # pairwise sum. A numpy that changes either order fails here.
    rng = np.random.default_rng(d)
    for _ in range(3):
        n = int(np.exp(rng.uniform(np.log(2), np.log(5000))))
        sets = int(rng.integers(0, 4))  # 0: one plain (n, d) set
        shape = (n, d) if sets == 0 else (sets, n, d)
        scale = 10.0 ** rng.uniform(-3, 3, size=d)
        x = (rng.gamma(2.0, size=shape) - rng.uniform(-5, 5, size=d)) * scale
        _assert_reductions_are_the_reference(x)


def test_row_reductions_of_a_tall_set_are_the_numpy_expressions():
    rng = np.random.default_rng(8)
    _assert_reductions_are_the_reference(rng.gamma(2.0, size=(200_000, 8)) @ rng.normal(size=(8, 8)))


@pytest.mark.parametrize("value", [0.0, 0.1, 0.3, -7.7, 1e-300, 3e100])
@pytest.mark.parametrize("n", [2, 7, 1000, 4096])
def test_a_constant_column_is_singular_at_any_value(value, n):
    # the mean of n copies of 0.1 or 0.3 does not round to the value: the
    # centered column is a tiny nonzero constant, which must not read as
    # spread; at d = 1 the relative eigenvalue test cannot see it
    column = np.full(n, value)
    for x in (column[:, None], np.column_stack([column, np.arange(n) % 5]),
              np.column_stack([column, -column])):
        with pytest.raises(SingularityError):
            covariance(x)
        for measure in (mardia_skewness, partial_skewness):
            with pytest.raises(SingularityError):
                measure(x)
        with pytest.raises(SingularityError, match="'x1' has zero variance"):
            fisher_skew(x)


def test_a_constant_resample_is_redrawn_at_any_value():
    # the same resamples are singular whether the repeated value is 0.0 or
    # 0.1, so the same ones are redrawn and Mardia, affine invariant, agrees
    tenth = np.vstack([np.full((30, 1), 0.1), [[1.1]]])
    zero = np.vstack([np.full((30, 1), 0.0), [[1.0]]])
    results = [skew_boot(x, 300, 6, "Mardia", seed=2) for x in (tenth, zero)]
    assert results[0].redraws == results[1].redraws > 0
    assert_allclose(results[0].replicates, results[1].replicates, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_covariance_univariate_one_over_n():
    cov = covariance(np.array([[-1.0], [0.0], [1.0]]))
    assert_allclose(cov, [[2.0 / 3.0]], rtol=0, atol=1e-15)


def test_covariance_duplicated_rows_singular():
    data = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(SingularityError):
        covariance(data)


def test_covariance_singularity_names_direction():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(30)
    data = DataMatrix(np.column_stack([x, 2.0 * x]), ("a", "b"))
    with pytest.raises(SingularityError, match=r"\*(a|b)"):
        covariance(data)


@pytest.mark.parametrize("noise", [0.0, 1e-7])
@pytest.mark.parametrize("route", [covariance, lambda data: data.whitening],
                         ids=["covariance", "whitening"])
def test_covariance_near_singular_message(route, noise):
    # exactly rank deficient, and positive definite below EIG_RTOL: both
    # name the direction with the same wording, on the covariance and on
    # the whitening every measure reads
    rng = np.random.default_rng(4)
    x = rng.standard_normal(40)
    y = 2.0 * x + noise * rng.standard_normal(40)
    data = DataMatrix(np.column_stack([x, y]), ("a", "b"))
    for _ in range(2):  # a failed whitening is not cached: it raises again
        with pytest.raises(SingularityError,
                           match=r"^covariance is singular along [-+]0\.894\*a "
                                 r"[-+]0\.447\*b \(eigenvalue -?\d\.\d{3}e[-+]\d+\)$"):
            route(data)


def test_covariance_exactly_symmetric(iris):
    cov = covariance(iris)
    assert np.array_equal(cov, cov.T)
    assert not cov.flags.writeable


def test_covariance_iris_calibrates_fisher(iris):
    # variance convention check: 1/n variance and third moment of column 1
    # must reproduce the known per-variable skewness 0.3118
    col = iris.values[:, 0]
    var = covariance(iris)[0, 0]
    m3 = ((col - col.mean()) ** 3).mean()
    assert abs(m3 / var**1.5 - 0.3118) < 5e-4


# ---------------------------------------------------------------------------
# inv_sqrt
# ---------------------------------------------------------------------------

def test_inv_sqrt_identity():
    assert_allclose(inv_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_inv_sqrt_diagonal():
    assert_allclose(inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]),
                    atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inv_sqrt_random_spd(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    spd = a @ a.T + 6 * np.eye(6)
    root = inv_sqrt(spd)
    assert_allclose(root, root.T, atol=0)
    assert np.abs(root @ spd @ root - np.eye(6)).max() < 1e-10
    assert np.linalg.eigvalsh(root)[0] > 0


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), (0, 0)])
def test_inv_sqrt_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(DataError, match=re.escape(f"expected a square matrix, got shape {shape}")):
        inv_sqrt(np.ones(shape))


def test_inv_sqrt_near_singular():
    with pytest.raises(SingularityError):
        inv_sqrt(np.diag([1.0, 1e-12]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inv_sqrt_names_the_first_non_finite_entry(bad):
    matrix = np.eye(3)
    matrix[1, 2] = matrix[2, 1] = bad
    with pytest.raises(DataError, match=r"^non-finite entry at row 2, column 3$"):
        inv_sqrt(matrix)
    with pytest.raises(DataError, match=r"^non-finite entry at row 1, column 1$"):
        inv_sqrt([[bad, 0.0], [0.0, 1.0]])


def test_spd_rejects_asymmetric():
    with pytest.raises(DataError, match="symmetric"):
        inv_sqrt(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_spd_rejects_indefinite():
    with pytest.raises(SingularityError):
        inv_sqrt(np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_spd_rejects_numerically_singular():
    # the one singularity test: min eigenvalue <= EIG_RTOL * max eigenvalue
    with pytest.raises(SingularityError, match="singular"):
        inv_sqrt(np.diag([1.0, 1e-12]))
    assert_allclose(inv_sqrt(np.diag([1.0, 1e-9])), np.diag([1.0, 1e-9 ** -0.5]),
                    rtol=1e-15)


# ---------------------------------------------------------------------------
# standardize
# ---------------------------------------------------------------------------

def test_whitening_runs_once_per_data_matrix(iris, monkeypatch):
    # one whitening costs one symmetric eigensolve: whiten solves it once,
    # for its singularity test and its inverse root alike
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(_solver.__name__)
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    fresh = DataMatrix(iris.values, iris.names)
    mardia_skewness(fresh)
    partial_skewness(fresh)
    third_moment(fresh, "standardized")
    min_skew(fresh, dimension=2)
    assert len(calls) <= 1, calls


def test_standardize_moments(iris):
    z = standardize(iris)
    assert np.abs(z.values.mean(axis=0)).max() < 1e-10
    cov = z.values.T @ z.values / z.n
    assert np.abs(cov - np.eye(4)).max() < 1e-8


def test_standardize_idempotent(iris):
    once = standardize(iris)
    twice = standardize(once)
    assert np.abs(twice.values - once.values).max() < 1e-8


def test_standardize_already_standardized_is_identity_map(iris):
    z = standardize(iris)
    again = standardize(z)
    assert np.abs(again.values - z.values).max() < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_standardize_affine_input(seed, iris):
    rng = np.random.default_rng(seed)
    while True:
        a = rng.standard_normal((4, 4))
        if abs(np.linalg.det(a)) > 0.1:
            break
    b = rng.standard_normal(4)
    transformed = iris.values @ a.T + b
    z = standardize(transformed)
    cov = z.values.T @ z.values / len(z.values)
    assert np.abs(cov - np.eye(4)).max() < 1e-8


# ---------------------------------------------------------------------------
# the argument rule: a bad count, index or name is a PreconditionError
# ---------------------------------------------------------------------------

ARGUMENT_CASES = {
    "max_skew-iterations": (lambda x, path: max_skew(x, 0, 1), "iterations must be >= 1, got 0"),
    "max_skew-components": (lambda x, path: max_skew(x, 5, 4),
                            "components must be from 1 to 3, got 4"),
    "min_skew-dimension": (lambda x, path: min_skew(x, 2.0),
                           "dimension must be an integer, got 2.0"),
    "skew_boot-units": (lambda x, path: skew_boot(x, 2, 4, "Mardia"),
                        "units for the Mardia measure on 4 variables must be >= 5, got 4"),
    "skew_boot-replicates": (lambda x, path: skew_boot(x, True, 11, "Mardia"),
                             "replicates must be an integer, got True"),
    "skew_boot-seed": (lambda x, path: skew_boot(x, 2, 11, "Mardia", seed=-3),
                       "seed must be >= 0, got -3"),
    "skew_boot-measure": (lambda x, path: skew_boot(x, 2, 11, "Kurtosis"),
                          "measure must be one of ('Directional', 'Partial', 'Mardia'), "
                          "got 'Kurtosis'"),
    "format_matrix-precision": (lambda x, path: format_slices(x.values, 18),
                                "precision must be from 0 to 17, got 18"),
    "block-i": (lambda x, path: block(third_moment(x, "raw"), np.int64(5)),
                "i must be from 1 to 4, got 5"),
    "third_moment-kind": (lambda x, path: third_moment(x, "bogus"),
                          "kind must be one of ('raw', 'central', 'standardized'), got 'bogus'"),
    "chi2_sf-dof": (lambda x, path: chi2_sf(1.0, -2), "dof must be >= 1, got -2"),
    "chi2_sf-bool-dof": (lambda x, path: chi2_sf(3.0, True), "dof must be an integer, got True"),
    "directional_skewness-iterations": (lambda x, path: directional_skewness(x, 0.5),
                                        "iterations must be an integer, got 0.5"),
    "select_rows": (lambda x, path: x.select_rows(range(-1, 3)),
                    "row must be from 0 to 149, got -1"),
    "select_rows-bool-in-list": (lambda x, path: x.select_rows([0, True]),
                                 "row must be an integer, got True"),
    "max_skew-one-variable": (lambda x, path: max_skew(x.values[:50, :1], 5, 1),
                              "max_skew needs at least 2 variables, got 1"),
    "min_skew-one-variable": (lambda x, path: min_skew(x.values[:50, :1], 2),
                              "min_skew needs at least 2 variables, got 1"),
    "load_csv-column": (lambda x, path: load_csv(path, columns=[2, 6]),
                        "column must be from 1 to 5, got 6"),
    "load_csv-column-bool": (lambda x, path: load_csv(path, columns=[np.True_]),
                             "column must be an integer, got np.True_"),
    "load_csv-bare-bool": (lambda x, path: load_csv(path, columns=True),
                           "column must be an integer, got True"),
    "load_csv-bare-numpy-bool": (lambda x, path: load_csv(path, columns=np.True_),
                                 "column must be an integer, got np.True_"),
    "load_csv-bare-float": (lambda x, path: load_csv(path, columns=2.0),
                            "column must be an integer, got 2.0"),
}


@pytest.mark.parametrize("case", ARGUMENT_CASES)
def test_a_bad_argument_is_a_precondition_error(iris, iris_path, case):
    call, message = ARGUMENT_CASES[case]
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        call(iris, iris_path)

