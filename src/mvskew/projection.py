"""Orthogonal data projections of maximal skewness.

For whitened rows z and a unit vector c, the sample skewness of z @ c is
the cubic form (c (x) c)' K c on the third cumulant K of z, so the search
needs K alone. Each direction is found by tensor power iteration,
c <- normalize(K' (c (x) c)), from the eigenvectors of the RESTART_BLOCKS
cumulant blocks of largest Frobenius norm (every block when m <= 4) plus
fixed-seed random unit vectors: min(m, 4) m + 8 restarts in m dimensions,
136 at m = 32. The search is two climbs around one cut: the restarts of a
stack of cumulants climb SCREEN_STEPS steps as one batch, then only the
SURVIVORS of largest |skewness| per cumulant climb on, 16 columns a step,
not about 4m. A step is K' (c_r (x) c_r) for every column c_r at once, and a
column freezes once its step is within CONVERGENCE_TOL or is zero.
K is index-symmetric, so K' (c (x) c) = sum_i c_i (K_i c) over its m x m
blocks K_i: one tall product K C that contracts over m, then a sum over i
in einsum, which calls no BLAS. Its bits held at 1 and 2 BLAS threads at
m = 64 and 128; at odd m the full-width step, 4m + 8 columns, changed them.
max_skew searches a stack of one cumulant per component, the Directional
bootstrap a block of resamples at once. Later directions repeat the search
in the orthogonal complement B of those found (deflation), on
transform_third(K, B'), which keeps the projections exactly uncorrelated.
require_two_variables is the one rule that a set has 2 variables or more:
max_skew, min_skew, directional_skewness and the Directional skew_boot call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, PreconditionError, as_data_matrix, require_count
from .moments import moment_stack, third_moment, transform_third

__all__ = ["ProjectionBasis", "max_skew"]

# fixed seed for the random restarts: results are deterministic by contract
RESTART_SEED = 20240611
N_RANDOM_RESTARTS = 8
# blocks of largest Frobenius norm whose eigenvectors start the search
RESTART_BLOCKS = 4

# stop power iteration early once successive iterates are this close
CONVERGENCE_TOL = 1e-12

# after this many steps, only the SURVIVORS restarts of largest |skewness|
# go on: on seeded gamma, lognormal and exponential sets at m = 32 and 64 the
# screened search attains the unscreened one within 1e-9 relative at 200
# iterations (tests/test_projection.py checks this)
SCREEN_STEPS = 3
SURVIVORS = 16


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
    component, its ``restarts`` (the number of starts tried), how many
    ``converged`` (stopped within the iteration budget; a restart dropped
    when the search keeps its 16 most skewed, after 3 steps, counts only if
    it had already stopped) and which restart (0-based, among all starts)
    ``winners`` attained the value; all three are empty for min_skew output.
    """

    directions: np.ndarray
    standardized_directions: np.ndarray
    skewness: np.ndarray
    projected: np.ndarray
    restarts: tuple[int, ...] = ()
    converged: tuple[int, ...] = ()
    winners: tuple[int, ...] = ()

    @classmethod
    def of(cls, data: DataMatrix, standardized: np.ndarray, skewness: np.ndarray,
           **diagnostics) -> "ProjectionBasis":
        """The basis of whitened-space directions ``standardized`` for
        ``data``: ``directions`` and ``projected`` from its cached whitening."""
        z, root = data.whitening
        return cls(directions=root @ standardized, standardized_directions=standardized,
                   skewness=skewness, projected=z @ standardized, **diagnostics)


def _restart_directions(cumulant: np.ndarray) -> np.ndarray:
    """Eigenvectors of the min(m, RESTART_BLOCKS) blocks of largest Frobenius
    norm of each cumulant in a stack (b, m^2, m), block by block in
    decreasing norm, then fixed random unit vectors: an
    m x (min(m, RESTART_BLOCKS) m + N_RANDOM_RESTARTS) slice each.

    Only the chosen blocks are decomposed. On seeded gamma-mixed, lognormal
    and exponential sets the weaker blocks' eigenvectors did not raise the
    attained skewness (tests/test_projection.py checks this against every
    block's eigenvectors).
    """
    b, _, m = cumulant.shape
    kept = min(m, RESTART_BLOCKS)
    blocks = cumulant.reshape(b, m, m, m)
    order = np.argsort(-np.linalg.norm(blocks, axis=(2, 3)), axis=1, kind="stable")[:, :kept]
    eigvecs = np.linalg.eigh(blocks[np.arange(b)[:, None], order])[1]
    random = np.random.default_rng(RESTART_SEED).standard_normal((N_RANDOM_RESTARTS, m)).T
    random = np.broadcast_to(random / np.linalg.norm(random, axis=0), (b, m, N_RANDOM_RESTARTS))
    return np.concatenate([eigvecs.transpose(0, 2, 1, 3).reshape(b, m, kept * m), random], axis=2)


def _step(cumulant: np.ndarray, c: np.ndarray) -> np.ndarray:
    """K' (c_r (x) c_r) for every column c_r of each slice c (b, m, R) and
    each cumulant K of a stack (b, m^2, m): sum_i c_ri (K_i c_r) over the
    m x m blocks K_i of K, from one batched product K C that contracts over m."""
    b, m, r = c.shape
    blocks = np.matmul(cumulant, c).reshape(b, m, m, r)
    return np.einsum("bir,bijr->bjr", c, blocks)


def _climb(cumulant: np.ndarray, c: np.ndarray, running: np.ndarray,
           steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to ``steps`` power steps c <- normalize(K' (c (x) c)) of the running
    columns of c (b, m, R) under each cumulant K of a stack (b, m^2, m), while
    any runs: the new c and which columns still run. A column stops, keeping
    its value, once its step is within CONVERGENCE_TOL or is zero."""
    for _ in range(steps):
        if not running.any():
            break
        step = _step(cumulant, c)
        norm = np.linalg.norm(step, axis=1)
        # zero step: c is stationary (exactly symmetric data), keep it, stop
        moving = running & (norm > 0.0)
        step = np.divide(step, norm[:, None], out=c.copy(), where=moving[:, None])
        running = moving & ~(np.linalg.norm(step - c, axis=1) < CONVERGENCE_TOL)
        c = step
    return c, running


def _search(cumulant: np.ndarray,
            iterations: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """Most-skewed unit direction under each whitened third cumulant of a
    stack (b, m^2, m): the (b, m) directions, signed so that their skewness
    is positive, those b skewness values, the number of restarts, and per
    cumulant how many converged and which restart won.

    Two climbs around one cut (successive halving): all restarts climb
    SCREEN_STEPS steps, then each cumulant's SURVIVORS of largest |skewness|,
    in start order, climb the rest. One full-width step scores the cut, and
    the second climb steps the kept columns afresh: a column's step has the
    bits it had in the full-width one, except in that product's last R mod 8
    columns, which BLAS's edge kernel computes (tests/test_projection.py
    checks the rest). The cut happens iff iterations > SCREEN_STEPS and there
    are more than SURVIVORS restarts, even when all have stopped. A climb
    steps every column while any runs, and a stopped entry keeps its value,
    so each result is, to the bit, the one its cumulant gets alone. A
    restart dropped at the cut counts as converged only if it had stopped.
    """
    c = _restart_directions(cumulant)
    b, _, r = c.shape
    kept = np.broadcast_to(np.arange(r), (b, r))
    c, running = _climb(cumulant, c, np.ones((b, r), dtype=bool), min(iterations, SCREEN_STEPS))
    dropped = 0  # restarts that stopped, then were cut
    if iterations > SCREEN_STEPS and r > SURVIVORS:
        gamma = np.einsum("bhr,bhr->br", c, _step(cumulant, c))
        kept = np.sort(np.argsort(-np.abs(gamma), axis=1, kind="stable")[:, :SURVIVORS], axis=1)
        c = np.take_along_axis(c, kept[:, None], axis=2)
        dropped = (~running).sum(axis=1)
        running = np.take_along_axis(running, kept, axis=1)
        dropped -= (~running).sum(axis=1)
    c, running = _climb(cumulant, c, running, iterations - SCREEN_STEPS)
    gamma = np.einsum("bhr,bhr->br", c, _step(cumulant, c))
    # deterministic reduction: larger |skewness| wins, the earliest restart
    # breaks ties
    slices, best = np.arange(b), np.argmax(np.abs(gamma), axis=1)
    sign = np.where(gamma[slices, best] < 0, -1.0, 1.0)
    return (c[slices, :, best] * sign[:, None], gamma[slices, best] * sign, r,
            dropped + (~running).sum(axis=1), kept[slices, best])


def require_two_variables(what: str, d: int) -> None:
    """Raise PreconditionError unless ``what`` is given at least 2 variables:
    the one two-variable rule, which each caller checks first."""
    if d < 2:
        raise PreconditionError(f"{what} needs at least 2 variables, got {d}")


def directional_values(z: np.ndarray, iterations: int) -> np.ndarray:
    """Directional skewness of each whitened row set in a stack (b, n, d):
    ``directional_skewness(x, iterations).value`` for the whitened rows of x,
    to the bit (see _search). Squares by
    C pow like that scalar ``** 2``; an array's ``** 2`` (x * x) can round apart."""
    return np.float_power(_search(moment_stack(z), iterations)[1], 2)


def max_skew(data, iterations: int, components: int) -> ProjectionBasis:
    """Find mutually orthogonal whitened projections of maximal skewness.

    Parameters
    ----------
    data : DataMatrix or array-like
        n x d observations, d >= 2, nonsingular covariance.
    iterations : int
        Upper bound on power-iteration steps per restart (>= 1); iteration
        stops early on convergence. With more than 3, every restart takes 3
        steps and only the 16 of largest |skewness| take the rest.
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
    require_two_variables("max_skew", data.d)
    require_count("iterations", iterations, 1)
    require_count("components", components, 1, data.d - 1)
    cumulant = reduced = third_moment(data, "standardized")

    basis = np.eye(data.d)  # orthonormal basis of the not-yet-searched subspace
    found = []
    for j in range(components):
        if j:  # K seen from the not-yet-searched subspace
            reduced = transform_third(cumulant, basis.T)
        (c,), (gamma,), tried, (settled,), (winner,) = _search(reduced.values[None], iterations)
        found.append((basis @ c, gamma, tried, int(settled), int(winner)))
        # shrink the search space to the orthogonal complement
        basis = basis @ np.linalg.qr(c.reshape(-1, 1), mode="complete")[0][:, 1:]
    columns, gammas, restarts, converged, winners = zip(*found)
    return ProjectionBasis.of(data, np.column_stack(columns), np.array(gammas),
                              restarts=restarts, converged=converged, winners=winners)
