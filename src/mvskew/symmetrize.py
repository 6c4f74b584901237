"""Linear projections that alleviate or remove skewness.

Works on the standardized third cumulant K: its right singular vectors
associated with the smallest singular values span the directions along
which the whitened data are least skewed; when K has a genuine null space
of dimension k, projecting onto it makes the third cumulant of the
projections exactly null (weak symmetry). With no exact null space the
construction degrades gracefully to "least skewed". Only the right
singular vectors are read, so the SVD is the thin one: the d^2 x d^2 left
factor (8.4 MB at d = 32) is never formed.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, PreconditionError, as_data_matrix, require_integers
from .measures import SkewnessReport, mardia_skewness
from .moments import third_moment
from .projection import ProjectionBasis

__all__ = ["min_skew", "residual_skewness"]


def min_skew(data, dimension: int) -> ProjectionBasis:
    """Project onto the least-skewed subspace of the requested dimension.

    Parameters
    ----------
    data : DataMatrix or array-like
        n x d observations with nonsingular covariance.
    dimension : int
        Number of projections, between 2 and d.

    Returns
    -------
    ProjectionBasis
        ``standardized_directions`` are the right singular vectors of the
        standardized third cumulant for its ``dimension`` smallest singular
        values (ties broken by SVD order, each column's sign canonicalized
        so its largest-magnitude entry is positive); ``skewness`` holds
        those singular values; ``directions`` ("Linear") maps centered data
        to the zero-mean, identity-covariance ``projected`` ("Projections").
    """
    data = as_data_matrix(data)
    require_integers(dimension=dimension)
    if not 2 <= dimension <= data.d:
        raise PreconditionError(
            f"dimension must be an integer between 2 and the number of "
            f"variables ({data.d}), got {dimension}"
        )
    z, root = data.whitening
    cumulant = third_moment(data, "standardized").values
    _, singular_values, vt = np.linalg.svd(cumulant, full_matrices=False)
    # smallest `dimension` singular values; SVD order (descending) preserved
    # a row-major copy: the layout of `selected` decides the bits of z @ selected
    selected = vt[data.d - dimension :].T.copy()
    values = singular_values[data.d - dimension :]
    # each column's first largest-magnitude entry made positive
    leading = selected[np.argmax(np.abs(selected), axis=0), np.arange(dimension)]
    selected[:, leading < 0] *= -1.0
    projected = z @ selected
    directions = root @ selected
    return ProjectionBasis(
        directions=directions,
        standardized_directions=selected,
        skewness=values,
        projected=projected,
    )


def residual_skewness(basis: ProjectionBasis, data) -> SkewnessReport:
    """Mardia skewness report of the data as seen through a projection basis.

    Recomputes the projections from ``data`` and ``basis.directions`` (so a
    basis/data mismatch is caught) and measures what skewness remains.
    """
    data = as_data_matrix(data)
    if basis.directions.shape[0] != data.d:
        raise DataError(
            f"basis was built for {basis.directions.shape[0]} variables, "
            f"data has {data.d}"
        )
    centered = data.values - data.values.mean(axis=0)
    return mardia_skewness(centered @ basis.directions)
