import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import mvskew
from mvskew import (
    SingularityError,
    chi2_sf,
    directional_skewness,
    fisher_skew,
    mardia_skewness,
    mori_vector,
    partial_skewness,
    skew_boot,
    standardize,
    third_moment,
)
from mvskew import measures


def pooled_with_reflection(values):
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


def random_invertible(rng, d):
    while True:
        a = rng.standard_normal((d, d))
        if abs(np.linalg.det(a)) > 0.1:
            return a


def grid_max_beta1(values, step_deg=1.0):
    """Brute-force directional skewness for d=2 over the unit circle."""
    best = 0.0
    centered = values - values.mean(axis=0)
    for theta in np.arange(0.0, 180.0, step_deg):
        c = np.array([np.cos(np.radians(theta)), np.sin(np.radians(theta))])
        y = centered @ c
        g = (y**3).mean() / (y**2).mean() ** 1.5
        best = max(best, g * g)
    return best


# ---------------------------------------------------------------------------
# fisher_skew
# ---------------------------------------------------------------------------

def test_fisher_iris(iris):
    # reference: R MultiSkew::FisherSkew(iris.m[,1:4]) tab
    assert_allclose(fisher_skew(iris), [0.3118, 0.3158, -0.2721, -0.1019],
                    atol=5e-4)


def test_fisher_setosa(setosa):
    assert_allclose(fisher_skew(setosa), [0.1165, 0.0399, 0.1032, 1.2159],
                    atol=5e-4)


def test_fisher_symmetric_column():
    data = np.array([[-1.0, 2.0], [0.0, 4.0], [1.0, 8.0]])
    assert fisher_skew(data)[0] == 0.0


def test_fisher_zero_variance_column():
    data = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    with pytest.raises(SingularityError, match="zero variance"):
        fisher_skew(data)


# ---------------------------------------------------------------------------
# mardia_skewness
# ---------------------------------------------------------------------------

def test_mardia_iris(iris):
    # reference: R MultiSkew::SkewMardia(iris.m[,1:4])
    report = mardia_skewness(iris)
    assert abs(report.value - 2.69722) < 1e-4
    assert abs(report.pvalue - 4.757998e-07) / 4.757998e-07 < 0.05
    assert report.dof == 20
    assert_allclose(report.statistic, 150 * report.value / 6.0)


def test_mardia_setosa_two_columns(iris):
    data = iris.select_rows(range(50))
    sub = np.column_stack([data.values[:, 0], data.values[:, 3]])
    report = mardia_skewness(sub)
    assert abs(report.value - 1.641217) < 1e-4
    assert abs(report.pvalue - 0.008401288) / 0.008401288 < 0.05
    assert report.dof == 4


def test_mardia_pooled_reflection_is_zero(iris):
    report = mardia_skewness(pooled_with_reflection(iris.values))
    assert report.value < 1e-12
    assert report.pvalue == 1.0


def test_mardia_two_paths_agree(iris, mardia_pairwise):
    assert abs(mardia_skewness(iris).value - mardia_pairwise(iris)) < 1e-9
    rng = np.random.default_rng(5)
    for _ in range(3):
        data = rng.gamma(1.5, size=(80, 3))
        assert abs(mardia_skewness(data).value - mardia_pairwise(data)) < 1e-9


def test_mardia_frobenius_identity(iris):
    # the value is the squared Frobenius norm of the standardized cumulant
    k3z = third_moment(iris, "standardized").values
    assert abs(mardia_skewness(iris).value - (k3z**2).sum()) < 1e-12


# ---------------------------------------------------------------------------
# mori_vector / partial_skewness
# ---------------------------------------------------------------------------

def test_mori_iris(iris):
    # reference: R MultiSkew::PartialSkew(iris.m[,1:4]) Vector
    assert_allclose(mori_vector(iris), [0.5301, 0.4355, 0.4105, 0.4131],
                    atol=5e-4)


def test_mori_equals_cumulant_contraction(iris):
    # second path: K3z' vec(I) through the public moments API
    k3z = third_moment(iris, "standardized").values
    expected = k3z.T @ np.eye(4).reshape(-1, order="F")
    assert np.abs(mori_vector(iris) - expected).max() < 1e-10


def test_mori_pooled_reflection_zero(iris):
    assert np.abs(mori_vector(pooled_with_reflection(iris.values))).max() < 1e-12


def test_mori_univariate_is_fisher(iris):
    col = iris.values[:, [3]]
    assert_allclose(mori_vector(col), fisher_skew(col), atol=1e-12)


def test_partial_iris(iris):
    report = partial_skewness(iris)
    assert abs(report.value - 0.8098) < 5e-4
    assert abs(report.pvalue - 0.0384) < 5e-3
    assert report.dof == 4
    assert_allclose(report.statistic, 150 * report.value / 12.0)


def test_partial_value_is_squared_vector_norm(iris):
    report = partial_skewness(iris)
    assert abs(report.value - report.vector @ report.vector) < 1e-10


def test_partial_statistic_scaling():
    # frozen scaling check: 150 * 0.8098 / (2 * 6) = 10.1225 and its tail
    statistic = 150 * 0.8098 / (2 * (4 + 2))
    assert abs(statistic - 10.1225) < 1e-10
    assert abs(chi2_sf(statistic, 4) - 0.0384) < 5e-4


def test_partial_pooled_reflection(iris):
    report = partial_skewness(pooled_with_reflection(iris.values))
    assert report.value < 1e-12
    assert report.pvalue == 1.0


def test_partial_bounded_by_scaled_mardia(iris):
    # the universal bound is partial <= d * mardia (Cauchy-Schwarz with
    # vec(I)); the unscaled comparison is not a theorem -- near-rank-one
    # cumulants aligned with vec(I) violate it -- so it is only checked on
    # iris, where it is known to hold
    rng = np.random.default_rng(9)
    datasets = [iris.values] + [rng.gamma(1.0, size=(60, 3)) for _ in range(3)]
    for data in datasets:
        partial = partial_skewness(data).value
        mardia = mardia_skewness(data).value
        assert partial <= data.shape[1] * mardia + 1e-12
    assert partial_skewness(iris).value <= mardia_skewness(iris).value


# ---------------------------------------------------------------------------
# directional_skewness
# ---------------------------------------------------------------------------

def test_directional_single_skewed_coordinate():
    rng = np.random.default_rng(42)
    skewed = rng.gamma(1.0, size=400)
    symmetric = rng.standard_normal(400)
    data = np.column_stack([skewed, symmetric])
    report = directional_skewness(data, iterations=100)
    oracle = grid_max_beta1(data)
    assert report.value >= oracle - 1e-6
    # the best direction is essentially the skewed coordinate axis
    g = fisher_skew(data)[0]
    assert abs(report.value - g * g) < 0.05 * max(g * g, 1.0)


def test_directional_pooled_reflection(iris):
    report = directional_skewness(pooled_with_reflection(iris.values[:, :2]),
                                  iterations=30)
    assert report.value < 1e-12


def test_directional_dominates_coordinates(iris):
    report = directional_skewness(iris, iterations=50)
    assert report.value >= (fisher_skew(iris) ** 2).max() - 1e-10
    assert report.pvalue is None and report.statistic is None


def test_pvalue_computed_on_first_read(iris, monkeypatch):
    calls = []

    def counted(x, dof, _real=measures.chi2_sf):
        calls.append(dof)
        return _real(x, dof)

    monkeypatch.setattr(measures, "chi2_sf", counted)
    report = mardia_skewness(iris)
    skew_boot(iris, replicates=5, units=20, measure="Mardia", seed=1)
    assert calls == []
    assert report.pvalue == report.pvalue == chi2_sf(report.statistic, 20)
    assert calls == [20]


# ---------------------------------------------------------------------------
# chi2_sf
# ---------------------------------------------------------------------------

def test_chi2_sf_at_zero():
    for dof in (1, 4, 20, 200):
        assert chi2_sf(0.0, dof) == 1.0


def test_chi2_sf_at_infinity():
    for dof in (1, 4, 20, 200):
        assert chi2_sf(float("inf"), dof) == 0.0


def test_chi2_sf_against_mpmath_oracle():
    # dof 816 and 5984 are Mardia's at d = 16 and d = 32
    mpmath.mp.dps = 30
    for x in (0.5, 3.2, 10.1225, 67.4305, 150.0, 260.0, 900.0, 6000.0, 4e4):
        for dof in (1, 2, 4, 20, 111, 200, 816, 5984):
            oracle = float(mpmath.gammainc(dof / 2.0, a=x / 2.0, regularized=True))
            value = chi2_sf(x, dof)
            assert abs(value - oracle) <= 1e-10 * max(oracle, 1e-300)


def test_chi2_sf_paper_anchors():
    # these two tails reproduce the published Mardia/partial p-values
    assert abs(chi2_sf(67.4305, 20) - 4.758e-07) / 4.758e-07 < 1e-3
    assert abs(chi2_sf(10.1225, 4) - 0.0384) < 5e-5


def test_chi2_sf_rejects_bad_input():
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 4)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError, match="integer"):
        chi2_sf(1.0, 2.5)


def test_import_leaves_scipy_out():
    src = str(Path(mvskew.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", "import sys, mvskew; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# cross-measure invariants
# ---------------------------------------------------------------------------

def test_affine_invariance_mardia_partial(iris):
    rng = np.random.default_rng(123)
    base_mardia = mardia_skewness(iris).value
    base_partial = partial_skewness(iris).value
    for _ in range(5):
        a = random_invertible(rng, 4)
        b = rng.standard_normal(4)
        transformed = iris.values @ a.T + b
        assert abs(mardia_skewness(transformed).value - base_mardia) < 1e-6
        assert abs(partial_skewness(transformed).value - base_partial) < 1e-6


def test_affine_invariance_directional():
    rng = np.random.default_rng(77)
    data = np.column_stack([rng.gamma(1.0, size=150),
                            rng.standard_normal(150),
                            rng.gamma(3.0, size=150)])
    base = directional_skewness(data, iterations=100).value
    for _ in range(3):
        a = random_invertible(rng, 3)
        b = rng.standard_normal(3)
        value = directional_skewness(data @ a.T + b, iterations=100).value
        assert abs(value - base) < 1e-3
