import re
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvskew import (
    DataError,
    DataMatrix,
    ThirdMomentMatrix,
    block,
    cumulant_from_moments,
    load_third_moment,
    save_third_moment,
    standardize,
    third_moment,
    transform_third,
)
from mvskew.moments import SYMMETRY_RTOL


def pooled_with_reflection(values: np.ndarray) -> np.ndarray:
    """A sample unioned with its reflection through its mean: centrally symmetric."""
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


# ---------------------------------------------------------------------------
# construction and paper-anchored corner values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,first,last", [
    ("raw", 211.6333, 3.7570),
    ("central", 0.1752, -0.0447),
    ("standardized", 0.2988, 0.8259),
])
def test_iris_corner_entries(iris, kind, first, last):
    # reference: R MultiSkew::Third(iris.m[,1:4], type) console listing
    m3 = third_moment(iris, kind)
    assert m3.values.shape == (16, 4)
    assert abs(m3.values[0, 0] - first) < 5e-4
    assert abs(m3.values[15, 3] - last) < 5e-4


def test_central_third_moment_of_pooled_reflection_is_null(iris):
    pooled = pooled_with_reflection(iris.values)
    m3 = third_moment(pooled, "central")
    assert np.abs(m3.values).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_permutation_symmetry_exact(d):
    rng = np.random.default_rng(d)
    data = rng.gamma(2.0, size=(40, d))  # skewed on purpose
    tensor = third_moment(data, "central").tensor()
    for i in range(d):
        for j in range(d):
            for h in range(d):
                reference = tensor[i, j, h]
                for perm in permutations((i, j, h)):
                    assert tensor[perm] == reference  # exact, not approximate


def test_summation_order_stability(iris):
    # row order must not change the result beyond 1e-13
    forward = third_moment(iris, "central").values
    backward = third_moment(iris.values[::-1], "central").values
    assert np.abs(forward - backward).max() < 1e-13


def test_rejects_asymmetric_matrix():
    values = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError, match="symmetry"):
        ThirdMomentMatrix(values, "raw")


def test_canonical_keeps_the_sorted_index_value():
    # each entry takes the value at its sorted index triple, also when the
    # input is only symmetric to within SYMMETRY_RTOL
    d = 5
    rng = np.random.default_rng(5)
    symmetric = third_moment(rng.gamma(1.5, size=(40, d)), "central").tensor()
    v = symmetric * (1 + 0.1 * SYMMETRY_RTOL * rng.uniform(-1, 1, symmetric.shape))
    expected = np.empty_like(v)
    for idx in np.ndindex(v.shape):
        expected[idx] = v[tuple(sorted(idx))]
    assert np.array_equal(ThirdMomentMatrix(v.reshape(d * d, d), "raw").tensor(),
                          expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejects_empty_matrix():
    with pytest.raises(DataError, match=r"d >= 1, got \(0, 0\)"):
        ThirdMomentMatrix(np.zeros((0, 0)), "raw")


def test_standardized_equals_raw_of_standardized(iris):
    direct = third_moment(iris, "standardized")
    via_raw = third_moment(standardize(iris), "raw")
    assert np.abs(direct.values - via_raw.values).max() < 1e-10


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def test_block_univariate():
    data = np.array([[1.0], [2.0], [4.0]])
    m3 = third_moment(data, "raw")
    expected = (1.0 + 8.0 + 64.0) / 3.0
    assert_allclose(block(m3, 1), [[expected]])


def test_block_iris_raw(iris):
    b1 = block(third_moment(iris, "raw"), 1)
    assert b1.shape == (4, 4)
    assert abs(b1[0, 0] - 211.6333) < 5e-4
    assert np.array_equal(b1, b1.T)


def test_block_cross_symmetry(iris):
    m3 = third_moment(iris, "central")
    for i in range(1, 5):
        for j in range(1, 5):
            assert np.array_equal(block(m3, i)[j - 1], block(m3, j)[i - 1])


def test_block_out_of_range(iris):
    m3 = third_moment(iris, "raw")
    with pytest.raises(IndexError):
        block(m3, 0)
    with pytest.raises(IndexError):
        block(m3, 5)


# ---------------------------------------------------------------------------
# cumulant identity
# ---------------------------------------------------------------------------

def test_cumulant_identity_zero_mean():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((60, 3)) ** 3
    data -= data.mean(axis=0)  # exactly mean-centered input
    m3 = third_moment(data, "raw")
    m2 = data.T @ data / len(data)
    out = cumulant_from_moments(m3, m2, np.zeros(3))
    assert np.abs(out.values - m3.values).max() < 1e-12


def test_cumulant_identity_matches_central_path(iris):
    m3 = third_moment(iris, "raw")
    m2 = iris.values.T @ iris.values / iris.n
    out = cumulant_from_moments(m3, m2, iris.values.mean(axis=0))
    expected = third_moment(iris, "central")
    assert np.abs(out.values - expected.values).max() < 1e-10
    assert out.kind == "central"


def test_cumulant_identity_symmetric_univariate():
    data = np.array([[0.0], [1.0], [2.0]])
    m3 = third_moment(data, "raw")
    m2 = data.T @ data / 3
    out = cumulant_from_moments(m3, m2, data.mean(axis=0))
    assert np.abs(out.values).max() < 1e-14


def test_cumulant_identity_requires_raw(iris):
    central = third_moment(iris, "central")
    with pytest.raises(DataError, match="raw"):
        cumulant_from_moments(central, np.eye(4), np.zeros(4))


# ---------------------------------------------------------------------------
# transform_third
# ---------------------------------------------------------------------------

def test_transform_identity(iris):
    m3 = third_moment(iris, "central")
    out = transform_third(m3, np.eye(4))
    assert np.abs(out.values - m3.values).max() < 1e-12
    assert out.kind == "central"


def test_transform_single_direction(iris):
    m3 = third_moment(iris, "central")
    c = np.array([0.5, 0.5, 0.5, 0.5])
    out = transform_third(m3, c.reshape(1, -1))
    expected = np.kron(c, c) @ m3.values @ c
    assert out.values.shape == (1, 1)
    assert_allclose(out.values[0, 0], expected, atol=1e-12)
    # two-path: third central moment of the explicitly projected data
    centered = iris.values - iris.values.mean(axis=0)
    projected = centered @ c
    assert_allclose(out.values[0, 0], (projected**3).mean(), atol=1e-10)


def test_transform_matches_projected_data(iris):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 4))
    via_transform = transform_third(third_moment(iris, "central"), a)
    via_projection = third_moment(iris.values @ a.T, "central")
    assert np.abs(via_transform.values - via_projection.values).max() < 1e-10


def test_transform_functoriality(iris):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 4))
    c = rng.standard_normal((2, 3))
    m3 = third_moment(iris, "central")
    two_steps = transform_third(transform_third(m3, a), c)
    one_step = transform_third(m3, c @ a)
    assert np.abs(two_steps.values - one_step.values).max() < 1e-10


def test_transform_kind_handling(iris):
    m3z = third_moment(iris, "standardized")
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)))[0].T
    assert transform_third(m3z, q).kind == "standardized"
    assert transform_third(m3z, 2.0 * q).kind == "central"


def test_transform_dimension_mismatch(iris):
    with pytest.raises(DataError, match="columns"):
        transform_third(third_moment(iris, "central"), np.eye(3))


# ---------------------------------------------------------------------------
# structure and serialization
# ---------------------------------------------------------------------------

def test_left_singular_vectors_reshape_symmetric(iris):
    k3 = third_moment(iris, "central")
    u, s, _ = np.linalg.svd(k3.values)
    for j in range(4):
        if s[j] <= 1e-12:
            continue
        mat = u[:, j].reshape(4, 4)
        assert np.abs(mat - mat.T).max() < 1e-8


def test_save_load_roundtrip(tmp_path, iris):
    m3 = third_moment(iris, "standardized")
    path = tmp_path / "third.csv"
    save_third_moment(m3, path)
    loaded = load_third_moment(path)
    assert loaded.kind == "standardized"
    assert np.array_equal(loaded.values, m3.values)
    assert path.read_text().startswith("# kind=standardized\n")


def test_load_requires_kind_header(tmp_path):
    path = tmp_path / "nokind.csv"
    path.write_text("1.0\n")
    with pytest.raises(DataError, match="kind"):
        load_third_moment(path)


def test_load_names_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kind=raw\n1.0\n\nx\n")
    message = f"{path}: line 4: could not convert string to float: 'x'"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cell", ["1e999", "nan"])
def test_load_rejects_a_non_finite_entry(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"# kind=raw\n{cell}\n")
    with pytest.raises(DataError, match=r"^non-finite entry at row 1, column 1$"):
        load_third_moment(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_names_a_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# kind=raw\n1\n2,3\n")
    message = f"{path}: line 3: 2 cells, expected 1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)
