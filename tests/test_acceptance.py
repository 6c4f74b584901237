"""Acceptance suite: one test per release criterion, at its stated tolerance.

Reference values come from the published R console sessions of the MaxSkew
and MultiSkew packages run on the iris data (150 flowers, 4 measurements).
Each criterion below prints a PASS/FAIL line in the terminal summary (see
conftest.pytest_terminal_summary).

Criterion 6 is the one place where a published number is not the
reference. The projected rows printed for MaxSkew(iris, 50, 2) are not the
most skewed projection of iris under any whitening, centering, scale or
column order: every affine functional that takes the printed column-1
values on rows 1-3 reaches |skewness| 0.9855 at best, while max_skew
attains 1.0194 and 10,000 random directions already reach about 1.006.
test_criterion_06_projection_fixture therefore checks max_skew's rows
against an independent numpy search of the sphere, and keeps the printed
rows only to assert that argument.
"""

import time
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvskew import (
    cumulant_from_moments,
    fisher_skew,
    mardia_skewness,
    max_skew,
    min_skew,
    partial_skewness,
    residual_skewness,
    skew_boot,
    standardize,
    third_moment,
)

# --- published 16x4 third moment listings for iris (4 variables) -----------

IRIS_THIRD_RAW = np.array([
    [211.6333, 106.0231, 145.8113, 47.7868],
    [106.0231,  55.4270,  69.1059, 22.3144],
    [145.8113,  69.1059, 109.9328, 37.1797],
    [ 47.7868,  22.3144,  37.1797, 12.9610],
    [106.0231,  55.4270,  69.1059, 22.3144],
    [ 55.4270,  30.3345,  33.7011, 10.6390],
    [ 69.1059,  33.7011,  50.7745, 17.1259],
    [ 22.3144,  10.6390,  17.1259,  5.9822],
    [145.8113,  69.1059, 109.9328, 37.1797],
    [ 69.1059,  33.7011,  50.7745, 17.1259],
    [109.9328,  50.7745,  86.4892, 29.6938],
    [ 37.1797,  17.1259,  29.6938, 10.4469],
    [ 47.7868,  22.3144,  37.1797, 12.9610],
    [ 22.3144,  10.6390,  17.1259,  5.9822],
    [ 37.1797,  17.1259,  29.6938, 10.4469],
    [ 12.9610,   5.9822,  10.4469,  3.7570],
])

IRIS_THIRD_CENTRAL = np.array([
    [ 0.1752,  0.0420,  0.1432,  0.0259],
    [ 0.0420, -0.0373,  0.1710,  0.0770],
    [ 0.1432,  0.1710, -0.1920, -0.1223],
    [ 0.0259,  0.0770, -0.1223, -0.0466],
    [ 0.0420, -0.0373,  0.1710,  0.0770],
    [-0.0373,  0.0259, -0.1329, -0.0591],
    [ 0.1710, -0.1329,  0.5943,  0.2583],
    [ 0.0770, -0.0591,  0.2583,  0.1099],
    [ 0.1432,  0.1710, -0.1920, -0.1223],
    [ 0.1710, -0.1329,  0.5943,  0.2583],
    [-0.1920,  0.5943, -1.4821, -0.6292],
    [-0.1223,  0.2583, -0.6292, -0.2145],
    [ 0.0259,  0.0770, -0.1223, -0.0466],
    [ 0.0770, -0.0591,  0.2583,  0.1099],
    [-0.1223,  0.2583, -0.6292, -0.2145],
    [-0.0466,  0.1099, -0.2145, -0.0447],
])

IRIS_THIRD_STANDARDIZED = np.array([
    [ 0.2988, -0.0484,  0.3257,  0.0034],
    [-0.0484,  0.0927, -0.0358, -0.0444],
    [ 0.3257, -0.0358,  0.0788, -0.2221],
    [ 0.0034, -0.0444, -0.2221,  0.0598],
    [-0.0484,  0.0927, -0.0358, -0.0444],
    [ 0.0927, -0.0331, -0.1166, -0.0844],
    [-0.0358, -0.1166,  0.2894,  0.1572],
    [-0.0444, -0.0844,  0.1572,  0.2276],
    [ 0.3257, -0.0358,  0.0788, -0.2221],
    [-0.0358, -0.1166,  0.2894,  0.1572],
    [ 0.0788,  0.2894, -0.0995, -0.3317],
    [-0.2221,  0.1572, -0.3317,  0.3009],
    [ 0.0034, -0.0444, -0.2221,  0.0598],
    [-0.0444, -0.0844,  0.1572,  0.2276],
    [-0.2221,  0.1572, -0.3317,  0.3009],
    [ 0.0598,  0.2276,  0.3009,  0.8259],
])

# published first three rows of MaxSkew(iris, 50, 2) projections
IRIS_MAXSKEW_ROWS = np.array([
    [-2.631244186, -0.817635353],
    [-2.620071890, -1.033692782],
    [-2.376652037, -1.311616693],
])


def pooled_with_reflection(values):
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


# ---------------------------------------------------------------------------
# criterion 1: iris Mardia skewness and parametric p-value, under 1 second
# ---------------------------------------------------------------------------

def test_criterion_01_mardia_iris(iris):
    start = time.perf_counter()
    report = mardia_skewness(iris)
    elapsed = time.perf_counter() - start
    assert abs(report.value - 2.69722) < 1e-4
    assert abs(report.pvalue - 4.758e-07) / 4.758e-07 < 0.05
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: iris partial skewness vector, scalar, p-value
# ---------------------------------------------------------------------------

def test_criterion_02_partial_iris(iris):
    report = partial_skewness(iris)
    assert_allclose(report.vector, [0.5301, 0.4355, 0.4105, 0.4131], atol=5e-4)
    assert abs(report.value - 0.8098) < 5e-4
    assert abs(report.pvalue - 0.0384) < 5e-3


# ---------------------------------------------------------------------------
# criterion 3: Fisher skewness, full data and setosa subset
# ---------------------------------------------------------------------------

def test_criterion_03_fisher(iris, setosa):
    assert_allclose(fisher_skew(iris), [0.3118, 0.3158, -0.2721, -0.1019],
                    atol=5e-4)
    assert_allclose(fisher_skew(setosa), [0.1165, 0.0399, 0.1032, 1.2159],
                    atol=5e-4)


# ---------------------------------------------------------------------------
# criterion 4: setosa {sepal length, petal width} Mardia
# ---------------------------------------------------------------------------

def test_criterion_04_mardia_setosa_pair(setosa):
    pair = setosa.values[:, [0, 3]]
    report = mardia_skewness(pair)
    assert abs(report.value - 1.641217) < 1e-4
    assert abs(report.pvalue - 0.008401) / 0.008401 < 0.05


# ---------------------------------------------------------------------------
# criterion 5: the three 16x4 third moment listings, entrywise
# ---------------------------------------------------------------------------

def test_criterion_05_third_moment_listings(iris):
    for kind, reference in (("raw", IRIS_THIRD_RAW),
                            ("central", IRIS_THIRD_CENTRAL),
                            ("standardized", IRIS_THIRD_STANDARDIZED)):
        computed = third_moment(iris, kind).values
        assert np.abs(computed - reference).max() < 5e-4, kind


# ---------------------------------------------------------------------------
# criterion 6: MaxSkew on iris -- projected rows and dominance clause
# ---------------------------------------------------------------------------

def whiten(values):
    """Centered rows times the symmetric inverse root of the 1/n covariance."""
    centered = values - values.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(centered))
    return centered @ (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


def column_skewness(y):
    """Signed Fisher-Pearson skewness of each column, 1/n weights."""
    centered = y - y.mean(axis=0)
    return (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5


def complement(u):
    """Orthonormal basis (as columns) of the hyperplane orthogonal to u."""
    return np.linalg.svd(u.reshape(1, -1))[2][1:].T


def ascend_on_sphere(z, u):
    """Gradient ascent of the skewness of z @ u over unit u.

    z holds mean-zero rows. Each accepted step strictly raises the
    skewness; the step length halves on failure and doubles on success.
    """
    gamma, step = column_skewness(z @ u), 1.0
    for _ in range(500):
        y = z @ u
        m2, m3 = (y**2).mean(), (y**3).mean()
        grad = 3 * (y**2 @ z) / len(z) / m2**1.5 - 3 * m3 * (y @ z) / len(z) / m2**2.5
        grad -= (grad @ u) * u
        if np.linalg.norm(grad) < 1e-12:
            break
        while step > 1e-14:
            trial = u + step * grad
            trial /= np.linalg.norm(trial)
            trial_gamma = column_skewness(z @ trial)
            if trial_gamma > gamma:
                break
            step /= 2
        else:
            break
        u, gamma, step = trial, trial_gamma, 2 * step
    return u, gamma


def most_skewed(z):
    """Unit u maximising the signed skewness of z @ u, and that skewness.

    Scores 4000 seeded unit directions, then refines the best 16 of them
    by ascent on the sphere.
    """
    rng = np.random.default_rng(6)
    starts = rng.standard_normal((z.shape[1], 4000))
    starts /= np.linalg.norm(starts, axis=0)
    top = np.argsort(column_skewness(z @ starts))[-16:]
    return max((ascend_on_sphere(z, starts[:, j]) for j in top),
               key=lambda found: found[1])


def test_criterion_06_projection_fixture(iris):
    """Projected rows 1-3 of max_skew(iris, 50, 2), signed, within 5e-3.

    The reference is an oracle that uses numpy only: it whitens iris
    itself, searches the sphere for the most skewed direction, then
    searches again inside the orthogonal complement of that direction.

    The rows printed in the published R session are not the reference,
    because they cannot be the first MaxSkew projection under any
    convention. Let Z be the whitened iris and p the printed column 1.
    The least-norm c with Z[:3] c = p has |c| = 1.870, and the rows'
    Mahalanobis norms are only 1.47, 1.69 and 1.45, so no unit-variance
    projection takes these values. Allowing any centering, scale,
    whitening or column order, a functional s * Z u + o matches p on rows
    1-3 only if u is orthogonal to g = Z[:3]' (p x 1). Over that
    hyperplane the largest |skewness| is 0.9855, below the 1.0194 that
    max_skew attains and the ~1.006 that random directions reach in the
    dominance test below. Column 2 is defined relative to column 1, so it
    falls with it. The second half of this test asserts that argument.
    """
    basis = max_skew(iris, iterations=50, components=2)
    z = whiten(iris.values)
    first, _ = most_skewed(z)
    rest = complement(first)
    second, _ = most_skewed(z @ rest)
    reference = z[:3] @ np.column_stack([first, rest @ second])
    deviation = np.abs(basis.projected[:3] - reference).max(axis=0)
    assert (deviation < 5e-3).all(), f"max deviation per column: {deviation}"

    published = IRIS_MAXSKEW_ROWS[:, 0]
    least_norm = np.linalg.lstsq(z[:3], published, rcond=None)[0]
    assert np.linalg.norm(least_norm) > 1.0
    normal = z[:3].T @ np.cross(published, np.ones(3))
    _, compatible = most_skewed(z @ complement(normal))
    assert compatible < basis.skewness[0], (
        f"a direction matching the published column 1 reaches {compatible:.4f}"
    )


def test_criterion_06_monte_carlo_dominance(iris):
    basis = max_skew(iris, iterations=50, components=2)
    rng = np.random.default_rng(2024)
    directions = rng.standard_normal((10_000, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    z = standardize(iris).values
    projections = z @ directions.T
    centered = projections - projections.mean(axis=0)
    gammas = (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5
    assert abs(basis.skewness[0]) >= np.abs(gammas).max()


# ---------------------------------------------------------------------------
# criterion 7: MinSkew on iris
# ---------------------------------------------------------------------------

def test_criterion_07_minskew(iris):
    min_basis = min_skew(iris, dimension=2)
    residual = third_moment(min_basis.projected, "standardized").values
    assert np.abs(residual).max() <= 0.12
    max_basis = max_skew(iris, iterations=50, components=2)
    assert (residual_skewness(min_basis, iris).value
            < residual_skewness(max_basis, iris).value)


# ---------------------------------------------------------------------------
# criterion 8: bootstrap p-value structure and determinism
# ---------------------------------------------------------------------------

def test_criterion_08_bootstrap(iris):
    result = skew_boot(iris, replicates=10, units=11, measure="Directional",
                       seed=101)
    scaled = result.pvalue * 11
    assert abs(scaled - round(scaled)) < 1e-9
    assert 1 <= round(scaled) <= 11
    repeat = skew_boot(iris, replicates=10, units=11, measure="Directional",
                       seed=101)
    assert np.array_equal(result.replicates, repeat.replicates)
    assert result.pvalue == repeat.pvalue
    assert result.histogram == repeat.histogram
    # exact published p-values are not reproducible (original RNG unknown);
    # the denominator structure above is the testable part


# ---------------------------------------------------------------------------
# criterion 9: property suite, no fixture numbers
# ---------------------------------------------------------------------------

def test_criterion_09a_permutation_symmetry():
    rng = np.random.default_rng(90)
    for d in range(2, 7):
        tensor = third_moment(rng.gamma(1.5, size=(30, d)), "central").tensor()
        for i in range(d):
            for j in range(d):
                for h in range(d):
                    for perm in permutations((i, j, h)):
                        assert tensor[perm] == tensor[i, j, h]


def test_criterion_09b_cumulant_identity(iris):
    m3 = third_moment(iris, "raw")
    m2 = iris.values.T @ iris.values / iris.n
    derived = cumulant_from_moments(m3, m2, iris.values.mean(axis=0))
    direct = third_moment(iris, "central")
    assert np.abs(derived.values - direct.values).max() < 1e-10


def test_criterion_09c_mardia_double_sum(iris, mardia_pairwise):
    assert abs(mardia_skewness(iris).value - mardia_pairwise(iris)) < 1e-9


def test_criterion_09d_affine_invariance(iris):
    rng = np.random.default_rng(91)
    base_mardia = mardia_skewness(iris).value
    base_partial = partial_skewness(iris).value
    done = 0
    while done < 20:
        a = rng.standard_normal((4, 4))
        if abs(np.linalg.det(a)) < 0.1:
            continue
        transformed = iris.values @ a.T + rng.standard_normal(4)
        assert abs(mardia_skewness(transformed).value - base_mardia) < 1e-6
        assert abs(partial_skewness(transformed).value - base_partial) < 1e-6
        done += 1


def test_criterion_09e_central_symmetry_zeroes(iris):
    pooled = pooled_with_reflection(iris.values)
    assert mardia_skewness(pooled).value < 1e-12
    assert partial_skewness(pooled).value < 1e-12
    basis = max_skew(pooled, iterations=20, components=1)
    assert basis.skewness[0] ** 2 < 1e-12


def test_criterion_09f_directional_grid_oracle():
    rng = np.random.default_rng(92)
    for trial in range(10):
        data = np.column_stack([
            rng.gamma(0.5 + trial * 0.3, size=200),
            rng.standard_normal(200) * (1.0 + trial * 0.2),
        ])
        basis = max_skew(data, iterations=100, components=1)
        best_theta, best_gamma = None, -1.0
        centered = data - data.mean(axis=0)
        for theta in np.arange(0.0, 180.0, 1.0):
            c = np.array([np.cos(np.radians(theta)), np.sin(np.radians(theta))])
            y = centered @ c
            g = abs((y**3).mean() / (y**2).mean() ** 1.5)
            if g > best_gamma:
                best_gamma, best_theta = g, theta
        w = basis.directions[:, 0]
        w = w / np.linalg.norm(w)
        grid_dir = np.array([np.cos(np.radians(best_theta)),
                             np.sin(np.radians(best_theta))])
        angle = np.degrees(np.arccos(min(1.0, abs(w @ grid_dir))))
        assert angle < 2.0, f"trial {trial}: {angle:.2f} degrees off the grid optimum"
        assert abs(basis.skewness[0]) >= best_gamma - 1e-9
