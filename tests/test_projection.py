import itertools

import numpy as np
import pytest

from mvskew import (
    PreconditionError,
    max_skew,
    standardize,
    third_moment,
)
from mvskew import projection


def gamma_mixed(seed, n, d):
    """x = G A + noise: iid Gamma(2) columns mixed by a random d x d matrix."""
    rng = np.random.default_rng(seed)
    return (rng.gamma(2.0, size=(n, d)) @ rng.standard_normal((d, d))
            + 0.1 * rng.standard_normal((n, d)))


def scalar_max_skew(values, iterations, components):
    """numpy-only reference for max_skew, one restart at a time.

    Whitens with its own eigh, rebuilds the third cumulant from the projected
    rows for every component, runs each restart's power iteration alone
    (the same starts, tolerance and stopping rules) and scores it by the
    sample skewness of the projected rows; the first largest |skewness|
    wins. Returns the whitened directions and their skewness.
    """
    centered = values - values.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(values))
    z = centered @ (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    basis = np.eye(values.shape[1])
    columns, gammas = [], []
    for _ in range(components):
        rows = z @ basis
        m = rows.shape[1]
        k3 = np.einsum("ni,nj,nh->ijh", rows, rows, rows) / len(rows)
        norms = [np.linalg.norm(k3[i]) for i in range(m)]
        starts = [np.linalg.eigh(k3[i])[1][:, j]
                  for i in sorted(range(m), key=lambda i: -norms[i])
                  for j in range(m)]
        rng = np.random.default_rng(20240611)
        starts += [v / np.linalg.norm(v) for v in
                   (rng.standard_normal(m) for _ in range(8))]
        best = None
        for c in starts:
            for _ in range(iterations):
                step = np.einsum("ijh,i,j->h", k3, c, c)
                if np.linalg.norm(step) == 0.0:
                    break
                step = step / np.linalg.norm(step)
                converged = np.linalg.norm(step - c) < 1e-12
                c = step
                if converged:
                    break
            y = rows @ c
            y = y - y.mean()
            gamma = (y**3).mean() / (y**2).mean() ** 1.5
            if best is None or abs(gamma) > abs(best[1]):
                best = (c, gamma)
        c, gamma = best if best[1] >= 0 else (-best[0], -best[1])
        columns.append(basis @ c)
        gammas.append(gamma)
        basis = basis @ np.linalg.qr(c.reshape(-1, 1), mode="complete")[0][:, 1:]
    return np.column_stack(columns), np.array(gammas)


def pooled_with_reflection(values):
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


def grid_best_direction(values, step_deg=1.0):
    """1-degree brute force over the unit circle; d=2 oracle."""
    centered = values - values.mean(axis=0)
    best_theta, best = None, -1.0
    for theta in np.arange(0.0, 180.0, step_deg):
        c = np.array([np.cos(np.radians(theta)), np.sin(np.radians(theta))])
        y = centered @ c
        g = abs((y**3).mean() / (y**2).mean() ** 1.5)
        if g > best:
            best, best_theta = g, theta
    return best_theta, best


# ---------------------------------------------------------------------------
# max_skew
# ---------------------------------------------------------------------------

def test_max_skew_output_contracts(iris):
    basis = max_skew(iris, iterations=50, components=2)
    s = basis.standardized_directions
    assert np.abs(s.T @ s - np.eye(2)).max() < 1e-10
    projected = basis.projected
    cov = (projected - projected.mean(0)).T @ (projected - projected.mean(0)) / len(projected)
    assert np.abs(cov - np.eye(2)).max() < 1e-8
    # projected = centered data @ directions
    centered = iris.values - iris.values.mean(axis=0)
    assert np.abs(centered @ basis.directions - projected).max() < 1e-8
    # positive, non-increasing attained skewness
    assert np.all(basis.skewness >= 0)
    assert np.all(np.diff(np.abs(basis.skewness)) <= 1e-12)


def test_max_skew_monte_carlo_dominance(iris):
    basis = max_skew(iris, iterations=50, components=1)
    rng = np.random.default_rng(99)
    directions = rng.standard_normal((10_000, 4))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    z = standardize(iris).values
    projections = z @ directions.T
    centered = projections - projections.mean(axis=0)
    gammas = (centered**3).mean(axis=0) / (centered**2).mean(axis=0) ** 1.5
    assert abs(basis.skewness[0]) >= np.abs(gammas).max()


def test_max_skew_cubic_form_representation(iris):
    # attained skewness equals the cubic form of the standardized cumulant
    basis = max_skew(iris, iterations=50, components=2)
    k3z = third_moment(iris, "standardized").values
    for j in range(2):
        c = basis.standardized_directions[:, j]
        form = np.kron(c, c) @ k3z @ c
        assert abs(basis.skewness[j] ** 2 - form**2) < 1e-10


def test_max_skew_grid_oracle_d2():
    rng = np.random.default_rng(4)
    data = np.column_stack([rng.gamma(1.0, size=300),
                            rng.standard_normal(300)])
    basis = max_skew(data, iterations=100, components=1)
    theta, best = grid_best_direction(data)
    assert abs(basis.skewness[0]) >= best - 1e-9
    # direction within 2 degrees of the grid optimum, in original coordinates
    w = basis.directions[:, 0]
    w = w / np.linalg.norm(w)
    grid_dir = np.array([np.cos(np.radians(theta)), np.sin(np.radians(theta))])
    angle = np.degrees(np.arccos(min(1.0, abs(w @ grid_dir))))
    assert angle < 2.0


def test_max_skew_skewed_coordinate_axis():
    rng = np.random.default_rng(8)
    data = np.column_stack([rng.standard_normal(500),
                            rng.gamma(0.7, size=500)])
    basis = max_skew(data, iterations=100, components=1)
    w = basis.directions[:, 0]
    w = w / np.linalg.norm(w)
    angle = np.degrees(np.arccos(min(1.0, abs(w[1]))))
    assert angle < 2.0


def test_max_skew_setosa_projection_pattern(setosa):
    # reference: R console listing of Third(MaxSkew(setosa, 50, 2), "standardized"):
    # dominant corner entries 1.2345 and 0.5936, the signature of skewed
    # near-independent projections
    basis = max_skew(setosa, iterations=50, components=2)
    m3 = third_moment(basis.projected, "standardized").values
    assert abs(abs(m3[0, 0]) - 1.2345) < 5e-2
    assert abs(abs(m3[3, 1]) - 0.5936) < 5e-2


def test_max_skew_affine_invariance(iris):
    # iteration budget large enough for both runs to reach their fixed points;
    # at 1e-6 score agreement a half-converged iterate would show
    base = max_skew(iris, iterations=500, components=2)
    rng = np.random.default_rng(31)
    while True:
        a = rng.standard_normal((4, 4))
        if abs(np.linalg.det(a)) > 0.1:
            break
    transformed = iris.values @ a.T + rng.standard_normal(4)
    other = max_skew(transformed, iterations=500, components=2)
    for j in range(2):
        col_base = base.projected[:, j]
        col_other = other.projected[:, j]
        delta = min(np.abs(col_other - col_base).max(),
                    np.abs(col_other + col_base).max())
        assert delta < 1e-6


def test_max_skew_projections_uncorrelated(iris):
    basis = max_skew(iris, iterations=50, components=3)
    projected = basis.projected - basis.projected.mean(axis=0)
    cov = projected.T @ projected / len(projected)
    off_diagonal = cov - np.diag(np.diag(cov))
    assert np.abs(off_diagonal).max() < 1e-8


def test_max_skew_deterministic(iris):
    a = max_skew(iris, iterations=50, components=2)
    b = max_skew(iris, iterations=50, components=2)
    assert np.array_equal(a.projected, b.projected)
    assert np.array_equal(a.skewness, b.skewness)


def test_max_skew_symmetric_data_near_zero(iris):
    pooled = pooled_with_reflection(iris.values)
    basis = max_skew(pooled, iterations=30, components=1)
    assert abs(basis.skewness[0]) < 1e-6


@pytest.mark.parametrize("iterations", [1, 5, 50])
def test_max_skew_matches_scalar_reference(iterations):
    values = gamma_mixed(20240611, 300, 10)
    basis = max_skew(values, iterations=iterations, components=3)
    directions, gammas = scalar_max_skew(values, iterations, 3)
    assert np.abs(basis.standardized_directions - directions).max() < 1e-8
    assert np.abs(basis.skewness - gammas).max() < 1e-8


def test_max_skew_search_diagnostics():
    basis = max_skew(gamma_mixed(5, 300, 6), iterations=50, components=3)
    assert basis.restarts == (6 * 6 + 8, 5 * 5 + 8, 4 * 4 + 8)
    assert all(0 <= c <= r for c, r in zip(basis.converged, basis.restarts))


@pytest.mark.parametrize("components", [1, 2, 3])
def test_max_skew_searches_component_1_on_k_itself(components, monkeypatch):
    shapes = []

    def counted(m3, a, _real=projection.transform_third):
        shapes.append(a.shape)
        return _real(m3, a)

    monkeypatch.setattr(projection, "transform_third", counted)
    max_skew(gamma_mixed(6, 200, 5), iterations=20, components=components)
    assert shapes == [(5 - j, 5) for j in range(1, components)]


def test_max_skew_zero_cumulant_cube():
    # the 8 vertices of the +-1 cube: every third cumulant entry is exactly
    # 0, so every restart's first step is zero and freezes its start
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    basis = max_skew(cube, iterations=50, components=1)
    assert basis.skewness[0] == 0.0
    c = basis.standardized_directions[:, 0]
    assert np.all(np.isfinite(c)) and abs(np.linalg.norm(c) - 1.0) < 1e-12
    assert basis.converged == basis.restarts == (3 * 3 + 8,)


def test_max_skew_preconditions(iris):
    with pytest.raises(PreconditionError, match="components"):
        max_skew(iris, iterations=10, components=4)
    with pytest.raises(PreconditionError, match="components"):
        max_skew(iris, iterations=10, components=0)
    with pytest.raises(PreconditionError, match="iterations"):
        max_skew(iris, iterations=0, components=1)
