"""Orthogonal data projections of maximal skewness.

The search runs in the standardized (whitened) space, where the sample
skewness of a unit-direction projection is the cubic form c -> (c (x) c)' K c
on the third cumulant K of the whitened rows. Each direction is found by
tensor power iteration, c <- normalize(K' (c (x) c)), restarted from the
eigenvectors of the dominant cumulant block plus fixed-seed random unit
vectors; subsequent directions repeat the search inside the orthogonal
complement of those already found (deflation), which keeps the projections
exactly uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError, PreconditionError, as_data_matrix
from .moments import _third_products

__all__ = ["ProjectionBasis", "max_skew", "skewness_of_projection"]

# fixed seed for the random restarts: results are deterministic by contract
RESTART_SEED = 20240611
N_RANDOM_RESTARTS = 8

# stop power iteration early once successive iterates are this close
CONVERGENCE_TOL = 1e-12


@dataclass(frozen=True)
class ProjectionBasis:
    """A set of k projection directions and the projected data.

    ``standardized_directions`` has orthonormal columns (directions in the
    whitened space); ``directions`` are the same directions mapped back to
    original-variable coefficients, so that
    ``projected == (data - mean) @ directions``. ``skewness`` holds the
    per-column attained values: signed sample skewness for max_skew output,
    singular values of the standardized cumulant for min_skew output, with
    non-increasing magnitudes either way.
    """

    directions: np.ndarray
    standardized_directions: np.ndarray
    skewness: np.ndarray
    projected: np.ndarray


def _sample_skewness(y: np.ndarray) -> float:
    """Fisher-Pearson skewness of a sample, 1/n weights."""
    centered = y - y.mean()
    m2 = (centered**2).mean()
    if m2 <= 0:
        raise DataError("projection has zero variance")
    return float((centered**3).mean() / m2**1.5)


def skewness_of_projection(data, c) -> float:
    """Signed sample skewness of the projection of the data onto c.

    Scale invariant in c; c and 2c give identical output.
    """
    data = as_data_matrix(data)
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape[0] != data.d:
        raise DataError(f"direction length {c.shape[0]} does not match d={data.d}")
    if not np.any(c):
        raise DataError("direction must be nonzero")
    return _sample_skewness(data.values @ c)


def _restart_directions(cumulant: np.ndarray, m: int) -> list[np.ndarray]:
    """Eigenvectors of every cumulant block plus fixed random starts.

    Blocks are ordered by decreasing Frobenius norm so the dominant block's
    eigenvectors come first; small-basin optima are often reachable only
    from the weaker blocks' eigenvectors.
    """
    blocks = sorted(
        (cumulant[i * m : (i + 1) * m] for i in range(m)),
        key=lambda b: -float(np.linalg.norm(b)),
    )
    starts = []
    for matrix in blocks:
        _, eigvecs = np.linalg.eigh(matrix)
        starts.extend(eigvecs[:, j].copy() for j in range(m))
    rng = np.random.default_rng(RESTART_SEED)
    for _ in range(N_RANDOM_RESTARTS):
        v = rng.standard_normal(m)
        starts.append(v / np.linalg.norm(v))
    return starts


def _power_iterate(cumulant: np.ndarray, start: np.ndarray, iterations: int) -> np.ndarray:
    c = start / np.linalg.norm(start)
    for _ in range(iterations):
        step = cumulant.T @ np.kron(c, c)
        norm = np.linalg.norm(step)
        if norm == 0.0:
            break  # exactly symmetric data: every direction is stationary
        step /= norm
        if np.linalg.norm(step - c) < CONVERGENCE_TOL:
            return step
        c = step
    return c


def _best_direction(rows: np.ndarray, iterations: int) -> tuple[np.ndarray, float]:
    """Most-skewed unit direction of mean-zero whitened rows, |skewness| max."""
    m = rows.shape[1]
    if m == 1:
        c = np.ones(1)
        gamma = _sample_skewness(rows[:, 0])
    else:
        cumulant = _third_products(rows)
        best = None
        for index, start in enumerate(_restart_directions(cumulant, m)):
            c_try = _power_iterate(cumulant, start, iterations)
            gamma_try = _sample_skewness(rows @ c_try)
            # deterministic reduction: larger |skewness| wins, earliest index
            # breaks ties
            key = (abs(gamma_try), -index)
            if best is None or key > best[0]:
                best = (key, c_try, gamma_try)
        _, c, gamma = best
    if gamma < 0:
        c, gamma = -c, -gamma
    return c, gamma


def max_skew(data, iterations: int, components: int) -> ProjectionBasis:
    """Find mutually orthogonal whitened projections of maximal skewness.

    Parameters
    ----------
    data : DataMatrix or array-like
        n x d observations, d >= 2, nonsingular covariance.
    iterations : int
        Upper bound on power-iteration steps per restart (>= 1); iteration
        stops early on convergence.
    components : int
        Number of projections, 1 <= components < d.

    Returns
    -------
    ProjectionBasis
        Column j of ``projected`` is the most skewed unit-variance
        projection uncorrelated with columns 1..j-1; signs are chosen so
        each attained skewness is positive.
    """
    data = as_data_matrix(data)
    if iterations < 1:
        raise PreconditionError(f"iterations must be >= 1, got {iterations}")
    if not 1 <= components < data.d:
        raise PreconditionError(
            f"components must be a positive integer smaller than the number "
            f"of variables ({data.d}), got {components}"
        )
    z, root = data.whitening
    d = data.d

    basis = np.eye(d)  # orthonormal basis of the not-yet-searched subspace
    columns = []
    gammas = []
    for _ in range(components):
        reduced = z @ basis
        c_reduced, gamma = _best_direction(reduced, iterations)
        columns.append(basis @ c_reduced)
        gammas.append(gamma)
        if basis.shape[1] > 1:
            # shrink the search space to the orthogonal complement
            q = np.linalg.qr(c_reduced.reshape(-1, 1), mode="complete")[0]
            basis = basis @ q[:, 1:]
        else:
            basis = basis[:, :0]

    standardized_directions = np.column_stack(columns)
    projected = z @ standardized_directions
    directions = root @ standardized_directions
    return ProjectionBasis(
        directions=directions,
        standardized_directions=standardized_directions,
        skewness=np.array(gammas),
        projected=projected,
    )
