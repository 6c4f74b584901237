"""Orthogonal data projections of maximal skewness.

For whitened rows z and a unit vector c, the sample skewness of z @ c is
the cubic form (c (x) c)' K c on the third cumulant K of z, so the search
needs K alone. Each direction is found by tensor power iteration,
c <- normalize(K' (c (x) c)), from the eigenvectors of every cumulant block
plus fixed-seed random unit vectors. The restarts run as one batch: an
iteration is one product K' [c_r (x) c_r]_r, and a column freezes once its
step is within CONVERGENCE_TOL or is zero. Later directions repeat the
search in the orthogonal complement B of those found (deflation), on
transform_third(K, B'), which keeps the projections exactly uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PreconditionError, as_data_matrix
from .moments import third_moment, transform_third

__all__ = ["ProjectionBasis", "max_skew"]

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
    non-increasing magnitudes either way. max_skew also reports, per
    component, its ``restarts`` and how many ``converged`` (stopped within
    the iteration budget); both are empty for min_skew output.
    """

    directions: np.ndarray
    standardized_directions: np.ndarray
    skewness: np.ndarray
    projected: np.ndarray
    restarts: tuple[int, ...] = ()
    converged: tuple[int, ...] = ()


def _restart_directions(cumulant: np.ndarray) -> np.ndarray:
    """Eigenvectors of every cumulant block, then fixed random unit vectors,
    as the columns of an m x (m^2 + N_RANDOM_RESTARTS) matrix.

    Blocks are ordered by decreasing Frobenius norm so the dominant block's
    eigenvectors come first; small-basin optima are often reachable only
    from the weaker blocks' eigenvectors.
    """
    m = cumulant.shape[1]
    blocks = cumulant.reshape(m, m, m)
    order = np.argsort(-np.linalg.norm(blocks, axis=(1, 2)), kind="stable")
    eigvecs = np.linalg.eigh(blocks[order])[1]
    rng = np.random.default_rng(RESTART_SEED)
    random = rng.standard_normal((N_RANDOM_RESTARTS, m)).T
    return np.hstack([eigvecs.transpose(1, 0, 2).reshape(m, m * m),
                      random / np.linalg.norm(random, axis=0)])


def _pairs(c: np.ndarray) -> np.ndarray:
    """The m^2 x R matrix whose column r is c_r (x) c_r."""
    m = c.shape[0]
    return (c[:, None, :] * c[None, :, :]).reshape(m * m, -1)


def _search(cumulant: np.ndarray, iterations: int) -> tuple[np.ndarray, float, int, int]:
    """Most-skewed unit direction under a whitened m^2 x m third cumulant.

    Returns the direction, signed so that its skewness is positive, that
    skewness, the number of restarts and how many of them converged.
    """
    c = _restart_directions(cumulant)
    active = np.arange(c.shape[1])
    for _ in range(iterations):
        current = c[:, active]
        step = cumulant.T @ _pairs(current)
        norm = np.linalg.norm(step, axis=0)
        # zero step: c is stationary (exactly symmetric data), keep it, stop
        moving = norm > 0.0
        step = step[:, moving] / norm[moving]
        c[:, active[moving]] = step
        done = ~moving
        done[moving] = np.linalg.norm(step - current[:, moving], axis=0) < CONVERGENCE_TOL
        active = active[~done]
        if not active.size:
            break
    gamma = np.einsum("hr,hr->r", c, cumulant.T @ _pairs(c))
    # deterministic reduction: larger |skewness| wins, the earliest restart
    # breaks ties
    best = int(np.argmax(np.abs(gamma)))
    direction, value = c[:, best], float(gamma[best])
    if value < 0:
        direction, value = -direction, -value
    return direction, value, c.shape[1], c.shape[1] - active.size


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
    cumulant = reduced = third_moment(data, "standardized")

    basis = np.eye(data.d)  # orthonormal basis of the not-yet-searched subspace
    found = []
    for j in range(components):
        if j:  # K seen from the not-yet-searched subspace
            reduced = transform_third(cumulant, basis.T)
        c, gamma, tried, settled = _search(reduced.values, iterations)
        found.append((basis @ c, gamma, tried, settled))
        # shrink the search space to the orthogonal complement
        basis = basis @ np.linalg.qr(c.reshape(-1, 1), mode="complete")[0][:, 1:]
    columns, gammas, restarts, converged = zip(*found)

    standardized_directions = np.column_stack(columns)
    projected = z @ standardized_directions
    directions = root @ standardized_directions
    return ProjectionBasis(
        directions=directions,
        standardized_directions=standardized_directions,
        skewness=np.array(gammas),
        projected=projected,
        restarts=restarts,
        converged=converged,
    )
