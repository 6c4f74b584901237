import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from mvskew import (
    DataError,
    DataMatrix,
    PreconditionError,
    mardia_skewness,
    max_skew,
    min_skew,
    residual_skewness,
    third_moment,
)


def pooled_with_reflection(values):
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


def product_sample_with_symmetric_block(seed=0, n_skew=20, n_sym=5):
    """4-column sample whose third cumulant vanishes on a 2-dim subspace.

    Cartesian product of a skewed 2-d sample with a centrally symmetric 2-d
    sample: empirical independence makes every mixed third cumulant with a
    symmetric-block index exactly zero, so the sample cumulant has a genuine
    2-dim null space.
    """
    rng = np.random.default_rng(seed)
    skewed = np.column_stack([rng.gamma(1.0, size=n_skew),
                              rng.gamma(2.0, size=n_skew)])
    base = rng.standard_normal((n_sym, 2))
    symmetric = pooled_with_reflection(base)
    rows = [np.concatenate([a, b]) for a in skewed for b in symmetric]
    return np.array(rows)


# ---------------------------------------------------------------------------
# min_skew
# ---------------------------------------------------------------------------

def test_min_skew_iris_residual_cumulant_small(iris):
    # reference: R console listing of Third(Projections, "standardized") after
    # MinSkew(iris.m[,1:4], 2): all entries close to zero, max |entry| 0.0963
    basis = min_skew(iris, dimension=2)
    m3 = third_moment(basis.projected, "standardized").values
    assert np.abs(m3).max() <= 0.12


def test_min_skew_output_contracts(iris):
    basis = min_skew(iris, dimension=2)
    s = basis.standardized_directions
    assert np.abs(s.T @ s - np.eye(2)).max() < 1e-10
    assert np.abs(basis.projected.mean(axis=0)).max() < 1e-10
    cov = basis.projected.T @ basis.projected / len(basis.projected)
    assert np.abs(cov - np.eye(2)).max() < 1e-8
    centered = iris.values - iris.values.mean(axis=0)
    assert np.abs(centered @ basis.directions - basis.projected).max() < 1e-8


def test_min_skew_selects_smallest_singular_values(iris):
    k3z = third_moment(iris, "standardized").values
    singular_values = np.linalg.svd(k3z, compute_uv=False)
    basis = min_skew(iris, dimension=2)
    assert np.allclose(basis.skewness, singular_values[-2:], atol=1e-12)
    # non-increasing magnitudes, mirroring the max_skew layout
    assert basis.skewness[0] >= basis.skewness[1]
    # Frobenius identity: total squared singular values = Mardia value
    assert abs((singular_values**2).sum() - mardia_skewness(iris).value) < 1e-10


def test_min_skew_exact_null_space():
    data = product_sample_with_symmetric_block()
    basis = min_skew(data, dimension=2)
    residual = third_moment(basis.projected, "central").values
    assert np.abs(residual).max() < 1e-8


def test_min_skew_pooled_symmetric_input(iris):
    pooled = pooled_with_reflection(iris.values)
    basis = min_skew(pooled, dimension=3)
    residual = third_moment(basis.projected, "standardized").values
    assert np.abs(residual).max() < 1e-10


def test_min_skew_affine_equivariance(iris):
    base = min_skew(iris, dimension=2)
    rng = np.random.default_rng(17)
    while True:
        a = rng.standard_normal((4, 4))
        if abs(np.linalg.det(a)) > 0.1:
            break
    transformed = iris.values @ a.T + rng.standard_normal(4)
    other = min_skew(transformed, dimension=2)
    for j in range(2):
        delta = min(np.abs(other.projected[:, j] - base.projected[:, j]).max(),
                    np.abs(other.projected[:, j] + base.projected[:, j]).max())
        assert delta < 1e-6


def test_min_skew_sign_canonicalization(iris):
    basis = min_skew(iris, dimension=3)
    for j in range(3):
        column = basis.standardized_directions[:, j]
        assert column[np.argmax(np.abs(column))] > 0


def test_min_skew_never_holds_the_left_singular_vectors():
    # the full d^2 x d^2 U of a 2000 x 32 sample's cumulant is 8.4 MB
    rng = np.random.default_rng(32)
    x = rng.gamma(2.0, size=(2000, 32)) @ rng.standard_normal((32, 32))
    data = DataMatrix(x, tuple(f"x{j + 1}" for j in range(32)))
    # the whitening and the per-d index layouts are built once, before the
    # measured call
    min_skew(data, 2)
    tracemalloc.start()
    try:
        min_skew(data, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_min_skew_dimension_bounds(iris):
    with pytest.raises(PreconditionError, match="dimension"):
        min_skew(iris, dimension=1)
    with pytest.raises(PreconditionError, match="dimension"):
        min_skew(iris, dimension=5)
    with pytest.raises(PreconditionError, match="^dimension must be an integer, got 2.5$"):
        min_skew(iris, dimension=2.5)


# ---------------------------------------------------------------------------
# residual_skewness
# ---------------------------------------------------------------------------

def test_residual_below_every_column_pair(iris):
    basis = min_skew(iris, dimension=2)
    residual = residual_skewness(basis, iris).value
    for i, j in combinations(range(4), 2):
        pair = iris.values[:, [i, j]]
        assert residual < mardia_skewness(pair).value


def test_residual_symmetric_input(iris):
    pooled = DataMatrix(pooled_with_reflection(iris.values), iris.names)
    basis = min_skew(pooled, dimension=2)
    assert residual_skewness(basis, pooled).value < 1e-12


def test_residual_ordering_max_vs_min(iris):
    min_basis = min_skew(iris, dimension=2)
    max_basis = max_skew(iris, iterations=50, components=2)
    assert (residual_skewness(max_basis, iris).value
            > residual_skewness(min_basis, iris).value)


def test_residual_dimension_mismatch(iris):
    basis = min_skew(iris, dimension=2)
    with pytest.raises(DataError, match="variables"):
        residual_skewness(basis, iris.values[:, :3])
