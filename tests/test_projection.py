import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvskew import (
    PreconditionError,
    max_skew,
    standardize,
    third_moment,
)
from mvskew import projection
from mvskew.data import whiten
from mvskew.moments import moment_stack


def gamma_mixed(seed, n, d):
    """x = G A + noise: iid Gamma(2) columns mixed by a random d x d matrix."""
    rng = np.random.default_rng(seed)
    return (rng.gamma(2.0, size=(n, d)) @ rng.standard_normal((d, d))
            + 0.1 * rng.standard_normal((n, d)))


def scalar_max_skew(values, iterations, components, blocks=4):
    """numpy-only reference for max_skew, one restart at a time.

    Whitens with its own eigh, rebuilds the third cumulant from the projected
    rows for every component, runs each restart's power iteration alone
    (the same starts, tolerance and stopping rules) and scores it by the
    sample skewness of the projected rows; the first largest |skewness|
    wins. The starts are the eigenvectors of the ``blocks`` blocks of
    largest norm (``None``: of every block), then 8 seeded random vectors.
    Returns the whitened directions and their skewness.
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
                  for i in sorted(range(m), key=lambda i: -norms[i])[:blocks]
                  for j in range(m)]
        rng = np.random.default_rng(20240611)
        starts += [v / np.linalg.norm(v) for v in
                   (rng.standard_normal(m) for _ in range(8))]
        best = None
        for c in starts:
            for _ in range(iterations):
                step = c @ (c @ k3)  # sum over i, j of k3[i, j, :] c_i c_j
                norm = np.linalg.norm(step)
                if norm == 0.0:
                    break
                step = step / norm
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
    # the eigenvectors of 4 blocks, then 8 random starts, per component
    assert basis.restarts == (4 * 6 + 8, 4 * 5 + 8, 4 * 4 + 8)
    assert all(0 <= c <= r for c, r in zip(basis.converged, basis.restarts))
    assert all(0 <= w < r for w, r in zip(basis.winners, basis.restarts))


def test_max_skew_winner_is_the_restart_that_attains_the_value(monkeypatch):
    values = gamma_mixed(20240611, 300, 10)
    basis = max_skew(values, iterations=50, components=1)
    (winner,) = basis.winners

    def winner_only(cumulant, _real=projection._restart_directions):
        return _real(cumulant)[:, :, winner:winner + 1]

    monkeypatch.setattr(projection, "_restart_directions", winner_only)
    alone = max_skew(values, iterations=50, components=1)
    assert abs(alone.skewness[0] - basis.skewness[0]) <= 1e-12 * basis.skewness[0]


@pytest.mark.parametrize("law", ["gamma", "lognormal", "exponential"])
def test_restart_budget_attains_the_full_search(law):
    # the eigenvectors of the 4 dominant blocks reach what every block's
    # eigenvectors reach (m^2 + 8 starts, through the scalar reference)
    for d in (5, 8, 12, 16):
        rng = np.random.default_rng([20240611, d])
        sources = {"gamma": lambda: rng.gamma(2.0, size=(300, d)),
                   "lognormal": lambda: rng.lognormal(0.0, 0.5, size=(300, d)),
                   "exponential": lambda: rng.exponential(size=(300, d))}[law]()
        values = sources @ rng.standard_normal((d, d)) + 0.1 * rng.standard_normal((300, d))
        budgeted = max_skew(values, iterations=50, components=3).skewness
        full = scalar_max_skew(values, 50, 3, blocks=None)[1]
        assert np.abs(budgeted - full).max() <= 1e-9 * np.abs(full).max(), d


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_restarts_at_m_up_to_4_start_from_every_block(m):
    rng = np.random.default_rng(m)
    stack = moment_stack(rng.gamma(2.0, size=(2, 40, m)))
    starts = projection._restart_directions(stack)
    assert starts.shape == (2, m, m * m + projection.N_RANDOM_RESTARTS)
    for k in range(2):
        blocks = stack[k].reshape(m, m, m)
        order = np.argsort(-np.linalg.norm(blocks, axis=(1, 2)), kind="stable")
        every = np.hstack([np.linalg.eigh(blocks[i])[1] for i in order])
        assert starts[k, :, :m * m].tobytes() == every.tobytes()


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
    with pytest.raises(PreconditionError, match="^components must be from 1 to 3, got 4$"):
        max_skew(iris, iterations=10, components=4)
    with pytest.raises(PreconditionError, match="^components must be from 1 to 3, got 0$"):
        max_skew(iris, iterations=10, components=0)
    with pytest.raises(PreconditionError, match="^iterations must be >= 1, got 0$"):
        max_skew(iris, iterations=0, components=1)
    with pytest.raises(PreconditionError, match="^iterations must be an integer, got True$"):
        max_skew(iris, iterations=True, components=1)
    with pytest.raises(PreconditionError, match="^components must be an integer, got 1.5$"):
        max_skew(iris, iterations=5, components=1.5)
    # numpy integers are counts too
    assert max_skew(iris, iterations=np.int64(5), components=np.int32(1)).restarts == (24,)


def small_sets():
    # the zero-cumulant cube stops every restart at step 1; at 50 iterations
    # the gamma-mixed sets stop 16 and 6 of their 16 survivors, so a restart
    # the stack still steps has stopped in some slices
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    sets = [cube, gamma_mixed(1, 8, 3), gamma_mixed(2, 8, 3)]
    return moment_stack(np.stack([standardize(x).values for x in sets]))


def seed_125_sets():
    # six 100 x 12 sets whitened as a stack: over 200 iterations they stop
    # restarts at different steps, and slice 4's winner hangs on the last bits
    sets = []
    for k in range(6):
        rng = np.random.default_rng([125, k])
        sets.append(rng.gamma(1.5, size=(100, 12)) @ rng.standard_normal((12, 12)))
    return moment_stack(whiten(np.stack(sets))[0])


@pytest.mark.parametrize("stack,iterations,restarts,converged", [
    (small_sets, 5, 3 * 3 + 8, None),
    (small_sets, 50, 3 * 3 + 8, [17, 16, 6]),
    (seed_125_sets, 200, 4 * 12 + 8, [16, 16, 16, 16, 16, 16]),
], ids=["5", "50", "200"])
def test_stacked_search_is_each_slice_alone(stack, iterations, restarts, converged):
    stack = stack()
    directions, values, tried, settled, winners = projection._search(stack, iterations)
    assert tried == restarts
    if converged is not None:
        assert settled.tolist() == converged
    for k in range(len(stack)):
        alone = projection._search(stack[k:k + 1], iterations)
        assert directions[k].tobytes() == alone[0][0].tobytes()
        assert values[k:k + 1].tobytes() == alone[1].tobytes()
        assert settled[k] == alone[3][0]
        assert winners[k] == alone[4][0]


def test_search_of_an_empty_stack_is_empty():
    directions, values, restarts, converged, winners = projection._search(np.zeros((0, 9, 3)), 5)
    assert directions.shape == (0, 3)
    assert values.shape == converged.shape == winners.shape == (0,)


def test_max_skew_search_column_work_is_pinned(monkeypatch):
    # every restart column is stepped for SCREEN_STEPS steps, then the 16
    # survivors while any runs: masking, not compacting
    widths = []

    def counted(cumulant, c, _real=projection._step):
        widths.append(c.shape[-1])
        return _real(cumulant, c)

    monkeypatch.setattr(projection, "_step", counted)
    max_skew(gamma_mixed(5, 300, 6), iterations=50, components=3)
    assert (len(widths), sum(widths)) == (125, 2144)


@pytest.mark.parametrize("d", [32, 64])
@pytest.mark.parametrize("law", ["gamma", "lognormal", "exponential"])
def test_screened_search_attains_the_unscreened_one(law, d, monkeypatch):
    rng = np.random.default_rng([20240611, d])
    sources = {"gamma": lambda: rng.gamma(2.0, size=(300, d)),
               "lognormal": lambda: rng.lognormal(0.0, 0.5, size=(300, d)),
               "exponential": lambda: rng.exponential(size=(300, d))}[law]()
    values = sources @ rng.standard_normal((d, d)) + 0.1 * rng.standard_normal((300, d))
    screened = max_skew(values, iterations=200, components=3).skewness
    # the unscreened reference climbs every restart
    monkeypatch.setattr(projection, "SURVIVORS", 4 * d + 8)
    full = max_skew(values, iterations=200, components=3).skewness
    assert np.abs(screened - full).max() <= 1e-9 * np.abs(full).max()


@pytest.mark.parametrize("iterations", [1, 2, projection.SCREEN_STEPS])
def test_search_within_the_screen_steps_is_unscreened(iterations, monkeypatch):
    stack = seed_125_sets()
    screened = projection._search(stack, iterations)
    monkeypatch.setattr(projection, "SURVIVORS", 4 * 12 + 8)
    full = projection._search(stack, iterations)
    for a, b in zip(screened, full):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_a_slice_stopped_before_the_cut_still_passes_it(monkeypatch):
    # every restart of the zero-cumulant cube stops at step 1; alone, it is
    # still cut to 16 at step 4, as in a stack where another slice runs
    widths = []

    def counted(cumulant, c, _real=projection._step):
        widths.append(c.shape[-1])
        return _real(cumulant, c)

    stack = small_sets()
    monkeypatch.setattr(projection, "_step", counted)
    alone = projection._search(stack[:1], 50)
    assert widths == [17, 17, projection.SURVIVORS]
    widths.clear()
    projection._search(stack[:1], projection.SCREEN_STEPS)
    assert widths == [17, 17]
    stacked = projection._search(stack[:2], 50)
    assert stacked[0][0].tobytes() == alone[0][0].tobytes()
    assert stacked[1][:1].tobytes() == alone[1].tobytes()
    assert (stacked[3][0], stacked[4][0]) == (alone[3][0], alone[4][0]) == (17, 0)


@pytest.mark.parametrize("m,r", [(3, 5), (8, 1), (8, 910), (8, 2000), (31, 17), (31, 969)])
def test_step_applies_each_cumulant_to_each_pair(m, r):
    # from one column to thousands, against the full d^2 pair products
    rng = np.random.default_rng(m * r)
    cumulant = moment_stack(rng.gamma(2.0, size=(2, 50, m)))
    c = rng.standard_normal((2, m, r))
    pairs = (c[:, :, None, :] * c[:, None, :, :]).reshape(2, m * m, r)
    reference = cumulant.transpose(0, 2, 1) @ pairs
    step = projection._step(cumulant, c)
    assert np.abs(step - reference).max() <= 1e-13 * np.abs(reference).max()


@pytest.mark.parametrize("m", [4, 32, 64, 96])
def test_step_products_contract_over_m(m, monkeypatch):
    # the step's BLAS products contract over m, as the moment's and the
    # whitening's do; one over the m(m+1)/2 distinct pairs, which changed its
    # bits with the BLAS thread count at m = 32 and 96, fails here even
    # where BLAS has one thread
    products = []
    matmul = np.matmul

    def recorded(a, b, **kwargs):
        products.append((a.shape, b.shape))
        return matmul(a, b, **kwargs)

    rng = np.random.default_rng(m)
    cumulant = rng.standard_normal((2, m * m, m))
    c = rng.standard_normal((2, m, min(m, 4) * m + 8))
    monkeypatch.setattr(np, "matmul", recorded)
    projection._step(cumulant, c)
    assert products
    assert sum(np.prod(b[:-2]) * b[-1] for _, b in products) == 2 * c.shape[2]
    for a, b in products:
        assert a[-1] == b[-2] == m


@pytest.mark.parametrize("m", [3, 4, 7, 8, 31, 32, 47, 63, 64, 95, 96])
def test_step_of_a_column_subset_is_that_subset_of_the_full_step(m):
    # the second climb steps only the 16 kept columns of the first climb's
    # starts, so a kept column's step must not depend on which others the
    # product holds. Only columns the full product covers in whole groups of
    # 8 are drawn: its last r % 8 columns (r = 4m + 8 is 4 mod 8 at odd m)
    # go through BLAS's edge kernel, and at m = 47, 63 and 95 they change
    # bits in a 16-column product (ROADMAP item 15)
    rng = np.random.default_rng([31, m])
    cumulant = moment_stack(whiten(rng.gamma(2.0, size=(2, 400, m)))[0])
    c = projection._restart_directions(cumulant)
    r = c.shape[2]
    c = projection._climb(cumulant, c, np.ones((2, r), dtype=bool), projection.SCREEN_STEPS)[0]
    full = projection._step(cumulant, c)
    whole = r - r % 8
    survivors = np.sort(np.argsort(rng.random((2, whole)), axis=1)[:, :projection.SURVIVORS])
    for kept in survivors, np.arange(16), np.arange(whole - 16, whole):
        kept = np.broadcast_to(kept, (2, 16))
        part = np.take_along_axis(c, kept[:, None], axis=2)
        expected = np.take_along_axis(full, kept[:, None], axis=2)
        assert projection._step(cumulant, part).tobytes() == expected.tobytes()


STEP_SCRIPT = """
import hashlib
import numpy as np
from mvskew import projection
from mvskew.moments import moment_stack
for m in (64, 128):
    rng = np.random.default_rng(m)
    cumulant = moment_stack(rng.gamma(2.0, size=(1, 300, m)))
    for r in (4 * m + 8, 16):
        step = projection._step(cumulant, rng.standard_normal((1, m, r)))
        print(hashlib.sha256(step.tobytes()).hexdigest())
"""


def test_step_bits_do_not_depend_on_blas_threads():
    # BLAS reads its thread count at load time, so each count needs its own process
    src = str(Path(projection.__file__).resolve().parents[1])
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", STEP_SCRIPT],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests[threads] = result.stdout.split()
    assert len(digests["1"]) == 4
    assert digests["1"] == digests["2"]
