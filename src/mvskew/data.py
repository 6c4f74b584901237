"""Loading, validation, and standardization of rectangular numeric data.

This module owns the two conventions everything else inherits:

* sample moments (the mean excepted) are computed with 1/n weights, not
  1/(n-1) -- the maximum-likelihood convention the skewness measures in
  :mod:`mvskew.measures` are calibrated against;
* matrix square roots are symmetric (spectral), never Cholesky.

Whitening -- the covariance, its inverse symmetric root and the whitened
rows -- is computed on first use and cached on the :class:`DataMatrix`
(``DataMatrix.whitening``); every standardized quantity in the package reads
that cache. Argument checks that callers can get wrong (counts, dimensions,
measure names) raise :class:`PreconditionError`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "DataError",
    "PreconditionError",
    "SingularityError",
    "DataMatrix",
    "SpdMatrix",
    "load_csv",
    "mean_vector",
    "covariance",
    "inv_sqrt",
    "standardize",
]

# relative eigenvalue floor below which a covariance counts as singular
EIG_RTOL = 1e-10


class DataError(ValueError):
    """Input data failed validation (shape, finiteness, labels, parsing)."""


class PreconditionError(DataError):
    """An argument violates a documented precondition (a count, a dimension
    or a name out of range); the command line exits 2 on it."""


class SingularityError(ValueError):
    """A covariance or SPD matrix is numerically singular."""


@dataclass(frozen=True)
class DataMatrix:
    """An n x d matrix of observations with unique column labels.

    Immutable after construction; the underlying array is marked read-only
    so instances are safe to share across threads. The whitening is cached
    on first use and is itself read-only, so sharing stays safe: two threads
    that race on the first use only compute the same value twice.
    """

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError(f"expected a 2-d array, got ndim={values.ndim}")
        n, d = values.shape
        if n < 2 or d < 1:
            raise DataError(f"need at least 2 rows and 1 column, got {n}x{d}")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}"
            )
        names = tuple(str(name) for name in self.names)
        if len(names) != d:
            raise DataError(f"{len(names)} labels for {d} columns")
        if len(set(names)) != d:
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise DataError(f"duplicate column labels: {', '.join(dupes)}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @cached_property
    def whitening(self) -> tuple[np.ndarray, np.ndarray]:
        """Whitened rows z = S^{-1/2}(x - mean) and the root S^{-1/2}.

        Raises SingularityError, uncached, when the covariance is singular.
        """
        root = inv_sqrt(covariance(self))
        z = (self.values - self.values.mean(axis=0)) @ root
        z.setflags(write=False)
        root.setflags(write=False)
        return z, root

    @classmethod
    def from_array(cls, values, names: Sequence[str] | None = None) -> "DataMatrix":
        """Wrap an array-like, inventing labels x1..xd when none are given."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if names is None:
            names = [f"x{j + 1}" for j in range(values.shape[1])]
        return cls(values, tuple(names))

    def select_rows(self, indices: Sequence[int]) -> "DataMatrix":
        """Return the sub-matrix of the given 0-based row indices."""
        return DataMatrix(self.values[list(indices)], self.names)


def as_data_matrix(data) -> DataMatrix:
    """Coerce a DataMatrix or array-like into a DataMatrix."""
    if isinstance(data, DataMatrix):
        return data
    return DataMatrix.from_array(data)


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric positive definite d x d matrix (e.g. a covariance).

    ``spectrum`` is its symmetric eigendecomposition (ascending eigenvalues,
    eigenvectors), solved once when the matrix is validated; the singularity
    test in :func:`covariance` and :func:`inv_sqrt` reuse it.
    """

    values: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"expected a square matrix, got shape {values.shape}")
        scale = np.abs(values).max()
        if scale > 0 and np.abs(values - values.T).max() > 1e-12 * scale:
            raise DataError("matrix is not symmetric to within 1e-12 relative")
        # store the exactly symmetric part
        values = (values + values.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(values)
        if eigvals[0] <= 0:
            raise SingularityError(
                f"matrix is not positive definite (min eigenvalue {eigvals[0]:.3e})"
            )
        for array in (values, eigvals, eigvecs):
            array.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spectrum", (eigvals, eigvecs))

    @property
    def d(self) -> int:
        return self.values.shape[0]


def _looks_numeric(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _resolve_columns(columns, names: list[str]) -> list[int]:
    """Map labels / 1-based indices to 0-based positions."""
    out = []
    for col in columns:
        if isinstance(col, (int, np.integer)):
            if not 1 <= col <= len(names):
                raise DataError(
                    f"column index {col} out of range 1..{len(names)}"
                )
            out.append(int(col) - 1)
        else:
            try:
                out.append(names.index(str(col)))
            except ValueError:
                raise DataError(f"no column named {col!r}") from None
    return out


def load_csv(path, columns=None, header: bool | None = None) -> DataMatrix:
    """Read a comma-separated numeric file into a DataMatrix.

    Parameters
    ----------
    path : str or Path
        File to read. Comma separator, period decimal mark.
    columns : sequence of str or int, optional
        Columns to keep, by label or by *1-based* position (matching the
        command-line ``--columns 1-4`` syntax). Default: all columns.
    header : bool, optional
        Whether the first row is a header. Default auto-detects: the first
        row is treated as a header when any of its cells is non-numeric.

    Returns
    -------
    DataMatrix
        Selected columns in the requested order, row order preserved.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise DataError(f"{path}: file is empty")

    width = len(rows[0])
    if any(len(row) != width for row in rows):
        ragged = next(i for i, row in enumerate(rows) if len(row) != width)
        raise DataError(
            f"{path}: row {ragged + 1} has {len(rows[ragged])} cells, expected {width}"
        )

    if header is None:
        header = not all(_looks_numeric(cell) for cell in rows[0])
    if header:
        names = [cell.strip() for cell in rows[0]]
        body = rows[1:]
    else:
        names = [f"x{j + 1}" for j in range(width)]
        body = rows
    if len(set(names)) != width:
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise DataError(f"{path}: duplicate column labels: {', '.join(dupes)}")
    if not body:
        raise DataError(f"{path}: no data rows")

    if columns is None:
        # keep only the columns that parse as numeric throughout (drops label
        # columns such as a species name when no selection is given)
        keep = [
            j for j in range(width)
            if all(_looks_numeric(row[j]) for row in body)
        ]
        if not keep:
            raise DataError(f"{path}: no numeric columns found")
    else:
        keep = _resolve_columns(list(columns), names)
        if not keep:
            raise DataError("empty column selection")

    values = np.empty((len(body), len(keep)))
    for i, row in enumerate(body):
        for k, j in enumerate(keep):
            cell = row[j].strip()
            try:
                values[i, k] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row "
                    f"{i + 1 + int(header)}, column {j + 1}"
                ) from None
    return DataMatrix(values, tuple(names[j] for j in keep))


def mean_vector(data) -> np.ndarray:
    """Arithmetic column means."""
    return as_data_matrix(data).values.mean(axis=0)


def covariance(data) -> SpdMatrix:
    """Sample covariance with 1/n weights.

    Raises
    ------
    SingularityError
        If the covariance is numerically rank deficient; the message names
        the near-null direction in terms of the column labels.
    """
    data = as_data_matrix(data)
    centered = data.values - data.values.mean(axis=0)
    cov = centered.T @ centered / data.n
    cov = (cov + cov.T) / 2.0
    try:
        spd = SpdMatrix(cov)
        eigvals, eigvecs = spd.spectrum
    except SingularityError:
        # not even positive definite: solve again for the message below
        eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] <= EIG_RTOL * max(eigvals[-1], np.finfo(float).tiny):
        direction = eigvecs[:, 0]
        combo = " ".join(
            f"{w:+.3f}*{name}" for w, name in zip(direction, data.names)
        )
        raise SingularityError(
            f"covariance is singular along {combo} "
            f"(eigenvalue {eigvals[0]:.3e})"
        )
    return spd


def inv_sqrt(spd) -> np.ndarray:
    """Inverse of the symmetric positive definite square root.

    Accepts an SpdMatrix or a plain symmetric array. The result R is
    symmetric, positive definite, and satisfies R @ S @ R = I to 1e-10.
    """
    if not isinstance(spd, SpdMatrix):
        spd = SpdMatrix(np.asarray(spd, dtype=float))
    eigvals, eigvecs = spd.spectrum
    if eigvals[0] <= EIG_RTOL * eigvals[-1]:
        raise SingularityError(
            f"matrix too ill-conditioned for a stable inverse square root "
            f"(eigenvalue ratio {eigvals[0] / eigvals[-1]:.3e})"
        )
    root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    return (root + root.T) / 2.0


def standardize(data) -> DataMatrix:
    """Center and whiten: rows become z = S^{-1/2} (x - mean).

    The output has column means 0 and sample covariance equal to the
    identity (1/n convention). Column labels are preserved.
    """
    data = as_data_matrix(data)
    return DataMatrix(data.whitening[0], data.names)
