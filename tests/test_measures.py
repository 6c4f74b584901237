import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mvskew
from mvskew import (
    DataError,
    DataMatrix,
    PreconditionError,
    SingularityError,
    chi2_sf,
    directional_skewness,
    fisher_skew,
    mardia_skewness,
    max_skew,
    partial_skewness,
    skew_boot,
    standardize,
    third_moment,
)
from mvskew import measures
from mvskew.data import whiten
from mvskew.measures import mardia_values


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


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("scale", [1e160, 1e110])
def test_overflowing_moments_are_a_named_error(scale, column):
    # finite values whose squares (1e160) or cubes (1e110) pass the largest
    # double: a named error, not inf or NaN
    x = np.random.default_rng(0).gamma(2, size=(1000, 2))
    x[:, column] *= scale
    message = f"^the moments of column {column + 1} overflow a double; rescale the column$"
    calls = [fisher_skew]
    if scale == 1e160:
        calls += [mvskew.covariance, mardia_skewness, partial_skewness,
                  lambda x: directional_skewness(x, 5), lambda x: whiten(x[None])]
    for call in calls:
        with pytest.raises(DataError, match=message):
            call(x)


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
    # with 4n > d^2 the value is, to the bit, the squared Frobenius norm of
    # the standardized cumulant as numpy sums it
    rng = np.random.default_rng(5)
    samples = [iris.values] + [rng.gamma(2.0, size=(n, d))
                               for d in (2, 3, 5, 8, 16) for n in (80, 200, 1000)]
    for x in samples:
        assert not measures.gram_route(*x.shape)
        k3z = third_moment(x, "standardized").values
        assert mardia_skewness(x).value == (k3z**2).sum()


def _whitened(rng, shape):
    return whiten(rng.gamma(2.0, size=shape))[0]


@pytest.mark.parametrize("d", [8, 16, 32, 64])
@pytest.mark.parametrize("ratio, gram", [(4, True), (2, False)],
                         ids=["gram-side", "moment-side"])
def test_mardia_routes_agree_on_both_sides_of_the_rule(d, ratio, gram, monkeypatch,
                                                       mardia_pairwise):
    n = d * d // ratio
    assert measures.gram_route(n, d) is gram
    x = np.random.default_rng(d + ratio).gamma(2.0, size=(n, d))
    public = mardia_skewness(x).value
    z = DataMatrix(x, tuple(map(str, range(d)))).whitening[0][None]
    routes = {}
    for name, rule in (("gram", 0), ("moment", n + d * d)):
        monkeypatch.setattr(measures, "GRAM_RATIO", rule)
        routes[name] = float(mardia_values(z)[0])
    assert routes["gram" if gram else "moment"] == public
    reference = mardia_pairwise(x)
    for value in (routes["moment"], reference):
        assert abs(routes["gram"] - value) <= 1e-13 * value


def test_gram_route_slices_keep_their_own_bits():
    # n = 200 spans two row blocks of the Gram matrix, n = 40 is one; stacks
    # of none, one and two row sets, and of 19, 20 and 21
    assert measures.GRAM_ELEMENTS // 200 < 200
    rng = np.random.default_rng(3)
    for n, d, counts in ((200, 32, (0, 1, 2)), (40, 16, (19, 20, 21))):
        assert measures.gram_route(n, d)
        for count in counts:
            z = _whitened(rng, (count, n, d))
            stacked = mardia_values(z)
            assert stacked.shape == (count,)
            for k in range(count):
                assert stacked[k].tobytes() == mardia_values(z[k][None])[0].tobytes()
                assert stacked[k].tobytes() == mardia_values(z[k]).tobytes()


def test_gram_route_memory_stays_in_row_blocks():
    # an n x n Gram matrix of 1024 rows would take 8 MB; blocks of 32 rows
    # take 256 KB each
    z = _whitened(np.random.default_rng(4), (1, 1024, 64))
    assert measures.gram_route(1024, 64)
    tracemalloc.start()
    try:
        mardia_values(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gram_route_holds_two_blocks_at_most():
    # each 32 x 1024 block takes 256 KB: the block being formed and its cubes
    # may be live with the previous block's cubes, but not three blocks
    z = _whitened(np.random.default_rng(4), (1, 1024, 64))
    block = measures.GRAM_ELEMENTS // 1024 * 1024 * z.itemsize
    expected = mardia_values(z)
    tracemalloc.start()
    try:
        value = mardia_values(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.tobytes() == expected.tobytes()
    assert peak < 2.5 * block


def test_a_gram_stack_holds_two_blocks_at_most():
    # the bound holds over the stack: each product is of one row set, where
    # 16 row sets at once would make 16 x 260 KB of cubes
    z = _whitened(np.random.default_rng(6), (16, 200, 32))
    block = measures.GRAM_ELEMENTS * z.itemsize
    expected = mardia_values(z)
    tracemalloc.start()
    try:
        value = mardia_values(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.tobytes() == expected.tobytes()
    assert peak < 2.5 * block


# ---------------------------------------------------------------------------
# partial_skewness and its Mori-Rohatgi-Szekely vector
# ---------------------------------------------------------------------------

def test_mori_iris(iris):
    # reference: R MultiSkew::PartialSkew(iris.m[,1:4]) Vector
    assert_allclose(partial_skewness(iris).vector, [0.5301, 0.4355, 0.4105, 0.4131],
                    atol=5e-4)


def test_mori_equals_cumulant_contraction(iris):
    # second path: K3z' vec(I) through the public moments API
    k3z = third_moment(iris, "standardized").values
    expected = k3z.T @ np.eye(4).reshape(-1, order="F")
    assert np.abs(partial_skewness(iris).vector - expected).max() < 1e-10


def test_mori_pooled_reflection_zero(iris):
    assert np.abs(partial_skewness(pooled_with_reflection(iris.values)).vector).max() < 1e-12


def test_mori_univariate_is_fisher(iris):
    col = iris.values[:, [3]]
    assert_allclose(partial_skewness(col).vector, fisher_skew(col), atol=1e-12)


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


@pytest.mark.parametrize("case", ["iris", "gamma-d8"])
def test_directional_is_the_squared_first_max_skew(iris, case):
    # two routes to one search: directional_values on a stack of one, and
    # max_skew's first component; the bootstrap's observed value is the first
    data = iris if case == "iris" else np.random.default_rng(8).gamma(2.0, size=(300, 8))
    for iterations in (5, 50):
        value = directional_skewness(data, iterations).value
        assert value == max_skew(data, iterations, 1).skewness[0] ** 2


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


def _mardia_dof(d):
    return d * (d + 1) * (d + 2) // 6


def test_chi2_sf_against_mpmath_oracle():
    # dof 816 and 5984 are Mardia's at d = 16 and d = 32; from d = 64 to 160
    # each dof takes statistics across the centre and both tails
    mpmath.mp.dps = 30
    cases = [(x, dof) for x in (0.5, 3.2, 10.1225, 67.4305, 150.0, 260.0, 900.0, 6000.0, 4e4)
             for dof in (1, 2, 4, 20, 111, 200, 816, 5984)]
    cases += [(scale * dof, dof) for dof in map(_mardia_dof, (64, 96, 128, 160))
              for scale in (0.95, 0.99, 0.995, 0.999, 1.0, 1.001, 1.005, 1.01, 1.02, 1.05)]
    # the continued fraction's side of y = a + 1 at small and moderate dof
    cases += [(2 * (dof / 2 + 1) * scale, dof)
              for dof in (1, 3, 5, 10, 20, 35, 56, 84, 120, 165, 199)
              for scale in (1.0001, 1.1, 2, 10)]
    for x, dof in cases:
        oracle = float(mpmath.gammainc(dof / 2.0, a=x / 2.0, regularized=True))
        value = chi2_sf(x, dof)
        assert abs(value - oracle) <= 1e-12 * max(oracle, 1e-300), (x, dof)


@settings(max_examples=300, deadline=None)
@given(dof=st.one_of(st.integers(1, 400), st.integers(1, 10**6)),
       scale=st.floats(0.0, 3.0), step=st.floats(1e-9, 1.0))
def test_chi2_sf_is_a_tail_probability(dof, scale, step):
    # in [0, 1] and non-increasing in x at fixed dof, on both sides of the
    # series/continued-fraction switch at y = dof/2 + 1
    x = scale * dof
    upper = chi2_sf(x, dof)
    assert 0.0 <= chi2_sf(x * (1.0 + step), dof) <= upper <= 1.0


@pytest.mark.parametrize("f", [0.5, 1.0, 2.0])
def test_chi2_sf_rises_by_2e_14_at_most_between_neighbouring_doubles(f):
    # the 41 doubles around x = f * 2(a + 1); at f = 1 the series below the
    # switch and the continued fraction above it meet, and rounding makes the
    # tail rise by up to 1.2e-14 relative there (dof 27)
    for dof in range(1, 401):
        xs = [f * (dof + 2.0)]
        for _ in range(20):
            xs = [math.nextafter(xs[0], 0.0), *xs, math.nextafter(xs[-1], math.inf)]
        tails = [chi2_sf(x, dof) for x in xs]
        for upper, lower in zip(tails, tails[1:]):
            assert lower - upper <= 2e-14 * upper, (dof, f)


def test_chi2_sf_stays_at_most_one_at_large_dof():
    # the closed form's dof * eps error read these as 1.0000000000366653
    # and 1.0000000000052518
    assert chi2_sf(321984, _mardia_dof(128)) <= 1.0
    report = mardia_skewness(np.random.default_rng(2).standard_normal((66, 64)))
    assert report.dof == _mardia_dof(64)
    assert report.pvalue <= 1.0


def test_chi2_sf_paper_anchors():
    # these two tails reproduce the published Mardia/partial p-values
    assert abs(chi2_sf(67.4305, 20) - 4.758e-07) / 4.758e-07 < 1e-3
    assert abs(chi2_sf(10.1225, 4) - 0.0384) < 5e-5


def test_chi2_sf_rejects_bad_input():
    with pytest.raises(PreconditionError, match="^chi-square statistic must be >= 0, got -1.0$"):
        chi2_sf(-1.0, 4)
    with pytest.raises(PreconditionError, match="^chi-square statistic must be >= 0, got nan$"):
        chi2_sf(float("nan"), 4)
    with pytest.raises(PreconditionError, match="^dof must be >= 1, got 0$"):
        chi2_sf(1.0, 0)
    with pytest.raises(PreconditionError, match="^dof must be an integer, got 2.5$"):
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
