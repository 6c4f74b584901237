"""Linear projections that alleviate or remove skewness.

Works on the standardized third cumulant K: the right singular vectors B
of its k smallest singular values minimise ||KB||_F^2, which bounds the
projections' Mardia skewness from above; when K has a null space of
dimension k, the projections' third cumulant is exactly null (weak
symmetry). Only the right singular vectors are read, so the SVD is the
thin one: the d^2 x d^2 left factor (8.4 MB at d = 32) is never formed.
"""

from __future__ import annotations

import numpy as np

from .data import DataError, as_data_matrix, centered, require_count
from .measures import SkewnessReport, mardia_skewness
from .moments import third_moment
from .projection import ProjectionBasis, require_two_variables

__all__ = ["min_skew", "residual_skewness"]


def min_skew(data, dimension: int) -> ProjectionBasis:
    """Project onto the subspace minimising ||KB||_F^2, the sum of the
    selected squared singular values of K; exactly symmetric when K has a
    null space of dimension k or more.

    Parameters
    ----------
    data : DataMatrix or array-like
        n x d observations with nonsingular covariance.
    dimension : int
        Number of projections k, between 2 and d.

    Returns
    -------
    ProjectionBasis
        ``standardized_directions`` are the right singular vectors of K, the
        standardized third cumulant, for its ``dimension`` smallest singular
        values (ties broken by SVD order, each column's sign canonicalized
        so its largest-magnitude entry is positive); ``skewness`` holds
        those singular values; ``directions`` ("Linear") maps centered data
        to the zero-mean, identity-covariance ``projected`` ("Projections").
    """
    data = as_data_matrix(data)
    require_two_variables("min_skew", data.d)
    require_count("dimension", dimension, 2, data.d)
    cumulant = third_moment(data, "standardized").values
    _, singular_values, vt = np.linalg.svd(cumulant, full_matrices=False)
    # smallest `dimension` singular values; SVD order (descending) preserved
    # a row-major copy: the layout of `selected` decides the bits of z @ selected
    selected = vt[data.d - dimension :].T.copy()
    values = singular_values[data.d - dimension :]
    # each column's first largest-magnitude entry made positive
    leading = selected[np.argmax(np.abs(selected), axis=0), np.arange(dimension)]
    selected[:, leading < 0] *= -1.0
    return ProjectionBasis.of(data, selected, values)


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
    return mardia_skewness(centered(data.values)[0] @ basis.directions)
