"""Loading, validation, and standardization of rectangular numeric data.

This module owns the two conventions everything else inherits:

* sample moments (the mean excepted) are computed with 1/n weights, not
  1/(n-1) -- the maximum-likelihood convention the skewness measures in
  :mod:`mvskew.measures` are calibrated against;
* matrix square roots are symmetric (spectral), never Cholesky.

Whitening -- the covariance, its inverse symmetric root and the whitened
rows -- is computed on first use and cached on the :class:`DataMatrix`
(``DataMatrix.whitening``); every standardized quantity of a DataMatrix
reads that cache. :func:`whiten` whitens a stack of row sets, such as the
bootstrap's resamples, through the same kernels and to the same bits.
Argument checks that callers can get wrong (counts, dimensions,
measure names) raise :class:`PreconditionError`.
"""

from __future__ import annotations

import csv
import math
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
    "format_matrix",
    "covariance",
    "inv_sqrt",
    "standardize",
]

# relative eigenvalue floor below which an SpdMatrix counts as singular
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
        # row-major whatever the input's layout, so sums run in one order
        values = np.array(self.values, dtype=float, order="C")
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
        z = _centered(self.values) @ root
        z.setflags(write=False)
        root.setflags(write=False)
        return z, root

    def select_rows(self, indices: Sequence[int]) -> "DataMatrix":
        """Return the sub-matrix of the given 0-based row indices."""
        return DataMatrix(self.values[list(indices)], self.names)


def as_data_matrix(data) -> DataMatrix:
    """Coerce a DataMatrix or array-like into a DataMatrix.

    An array-like is read as floats, a 1-d one as a single column, and its
    columns are labelled x1..xd.
    """
    if isinstance(data, DataMatrix):
        return data
    values = np.asarray(data, dtype=float)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    return DataMatrix(values, tuple(f"x{j + 1}" for j in range(values.shape[1])))


def _centered(values: np.ndarray) -> np.ndarray:
    """Each row set of a stack (..., n, d) less its column means."""
    return values - values.mean(axis=-2, keepdims=True)


def _gram(centered: np.ndarray) -> np.ndarray:
    """1/n covariance of each centered row set of a stack (..., n, d)."""
    return np.swapaxes(centered, -1, -2) @ centered / centered.shape[-2]


def _spectrum(matrices: np.ndarray):
    """Symmetric part, eigenpairs and singularity of each matrix of (..., d, d).

    Raises DataError when a matrix is not symmetric to 1e-12 relative, and
    returns its exactly symmetric part, the ascending eigenvalues, the
    eigenvectors and the package's one singularity test: the smallest
    eigenvalue is at most EIG_RTOL times the largest (or times the smallest
    positive float, when the largest is not positive).
    """
    transposed = np.swapaxes(matrices, -1, -2)
    scale = np.abs(matrices).max(axis=(-2, -1))
    if np.any((scale > 0)
              & (np.abs(matrices - transposed).max(axis=(-2, -1)) > 1e-12 * scale)):
        raise DataError("matrix is not symmetric to within 1e-12 relative")
    matrices = (matrices + transposed) / 2.0
    eigvals, eigvecs = np.linalg.eigh(matrices)
    singular = eigvals[..., 0] <= EIG_RTOL * np.maximum(eigvals[..., -1],
                                                        np.finfo(float).tiny)
    return matrices, eigvals, eigvecs, singular


def _inv_root(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Symmetric inverse square roots from eigenpairs of shape (..., d), (..., d, d)."""
    root = (eigvecs / np.sqrt(eigvals)[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
    return (root + np.swapaxes(root, -1, -2)) / 2.0


@dataclass(frozen=True)
class SpdMatrix:
    """A symmetric positive definite d x d matrix (e.g. a covariance).

    Construction applies the package's one singularity test, which
    :func:`whiten` applies to stacks: SingularityError unless the smallest
    eigenvalue exceeds EIG_RTOL times the largest (or times the smallest
    positive float, when the largest is not positive). ``spectrum`` is the
    symmetric eigendecomposition (ascending eigenvalues, eigenvectors) that
    test solves; :func:`inv_sqrt` reuses it.
    """

    values: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DataError(f"expected a square matrix, got shape {values.shape}")
        values, eigvals, eigvecs, singular = _spectrum(values)
        if singular:
            raise SingularityError(
                f"matrix is singular (eigenvalues {eigvals[0]:.3e} to {eigvals[-1]:.3e})"
            )
        for array in (values, eigvals, eigvecs):
            array.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "spectrum", (eigvals, eigvecs))


def _is_number(cell: str) -> bool:
    """Whether numpy's text parser reads the cell as a float.

    That is what ``float`` accepts, less digit separators and non-ASCII
    digits: ``1.5``, ``-2e3``, ``nan`` and ``inf`` are numbers, ``1_000``
    and ``NA`` are not.
    """
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _ignored(cell: str) -> float:
    """Converter for a column the caller did not select."""
    return 0.0


def _label_converter():
    """Converter that reads a label column as zeros.

    It raises on a number, because a column holding one is numeric; each
    distinct label is tested once.
    """
    labels = set()

    def convert(cell: str) -> float:
        if cell not in labels:
            if _is_number(cell):
                raise ValueError(f"number {cell!r} in a label column")
            labels.add(cell)
        return 0.0

    return convert


def _raise_fault(path: Path, header: bool, keep: list[int] | None) -> None:
    """Raise a DataError naming the first ragged row or bad cell in the file.

    Runs only after numpy's parser refused the file, and returns no values.
    ``keep`` lists the columns read; ``None`` classifies every column by
    the label rule of :func:`load_csv`. Returns when it finds no fault.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle) if row]
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(
                f"{path}: row {i + 1} has {len(row)} cells, expected {width}"
            )
    body = rows[int(header):]
    if keep is None:
        keep = [j for j in range(width) if any(_is_number(row[j]) for row in body)]
    for i, row in enumerate(body):
        for j in keep:
            cell = row[j].strip()
            if not (_is_number(cell) and math.isfinite(float(cell))):
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row "
                    f"{i + 1 + int(header)}, column {j + 1}"
                )


def _resolve_columns(columns, names: list[str]) -> list[int]:
    """Map labels / 1-based indices to 0-based positions."""
    out = []
    for col in columns:
        if isinstance(col, (int, np.integer)):
            if not 1 <= col <= len(names):
                raise PreconditionError(
                    f"column index {col} out of range 1..{len(names)}"
                )
            out.append(int(col) - 1)
        else:
            try:
                out.append(names.index(str(col)))
            except ValueError:
                raise PreconditionError(f"no column named {col!r}") from None
    return out


def load_csv(path, columns=None, header: bool | None = None) -> DataMatrix:
    """Read a comma-separated numeric file into a DataMatrix.

    A cell is a number when numpy's text parser reads it as a float (so
    ``nan`` and ``inf`` are, ``1_000`` and ``NA`` are not). A column is a
    label column when none of its data cells is a number, and a numeric
    column when at least one is. Every cell of a column read must be a
    finite number, or a DataError names its row (non-blank rows counted
    from 1, header included) and column; a ragged row is named the same way.

    Parameters
    ----------
    path : str or Path
        UTF-8 file (a byte-order mark is dropped; a byte that is not UTF-8
        is a DataError naming its byte offset), comma separator, period
        decimal mark, cells optionally double-quoted; blank lines skipped.
    columns : sequence of str or int, optional
        Columns to keep, by label or by *1-based* position (matching the
        command-line ``--columns 1-4`` syntax). Default: the numeric columns.
    header : bool, optional
        Whether the first row is a header. Default auto-detects: the first
        row is treated as a header when any of its cells is not a number.

    Returns
    -------
    DataMatrix
        Selected columns in the requested order, row order preserved.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            rows = filter(None, reader)
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: file is empty")
            if header is None:
                header = not all(_is_number(cell) for cell in first)
            skip = reader.line_num if header else 0
            sample = next(rows, None) if header else first

        width = len(first)
        names = ([cell.strip() for cell in first] if header
                 else [f"x{j + 1}" for j in range(width)])
        if len(set(names)) != width:
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise DataError(f"{path}: duplicate column labels: {', '.join(dupes)}")
        if sample is None:
            raise DataError(f"{path}: no data rows")

        if columns is None:
            keep = [j for j, cell in enumerate(sample[:width]) if _is_number(cell)]
            unread = _label_converter()
        else:
            keep = _resolve_columns(list(columns), names)
            if not keep:
                raise PreconditionError("empty column selection")
            unread = _ignored
        try:
            # every column is parsed, so numpy checks each row's cell count
            values = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None, skiprows=skip,
                encoding="utf-8-sig", ndmin=2,
                converters={j: unread for j in range(width) if j not in keep})
            if values.shape[1] != width or not np.isfinite(values[:, keep]).all():
                raise ValueError("a row or a cell could not be read")
        except ValueError as exc:
            _raise_fault(path, header, None if columns is None else keep)
            raise DataError(f"{path}: {exc}") from None
        if not keep:
            raise DataError(f"{path}: no numeric columns found")
        return DataMatrix(values[:, keep], tuple(names[j] for j in keep))
    except UnicodeDecodeError:
        # the decoder counts from the start of its read chunk: decode the
        # whole file again for the offset in the file
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} at "
                f"byte offset {exc.start}"
            ) from None
        raise


def format_matrix(matrix, precision: int) -> str:
    """CSV text of a matrix: one line per row, each value ``"%.{precision}g" % x``.

    A 1-d input is one row. One row format is applied to all values at once.
    """
    matrix = np.atleast_2d(matrix)
    n, k = matrix.shape
    row = ",".join([f"%.{precision}g"] * k) + "\n"
    return (row * n) % tuple(matrix.ravel().tolist())


def covariance(data) -> SpdMatrix:
    """Sample covariance with 1/n weights.

    Raises
    ------
    SingularityError
        If the covariance fails :class:`SpdMatrix`'s singularity test; the
        message names the near-null direction in terms of the column labels.
    """
    data = as_data_matrix(data)
    cov = _gram(_centered(data.values))
    try:
        return SpdMatrix(cov)
    except SingularityError:
        # solve again, on this path only, to name the null direction
        eigvals, eigvecs = np.linalg.eigh(cov)
    combo = " ".join(
        f"{w:+.3f}*{name}" for w, name in zip(eigvecs[:, 0], data.names)
    )
    raise SingularityError(
        f"covariance is singular along {combo} (eigenvalue {eigvals[0]:.3e})"
    )


def inv_sqrt(spd) -> np.ndarray:
    """Inverse of the symmetric positive definite square root.

    Accepts an SpdMatrix or a plain symmetric array, which must pass
    :class:`SpdMatrix`'s singularity test. The result R is symmetric,
    positive definite, and satisfies R @ S @ R = I to 1e-10.
    """
    if not isinstance(spd, SpdMatrix):
        spd = SpdMatrix(np.asarray(spd, dtype=float))
    return _inv_root(*spd.spectrum)


def whiten(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitened rows of each nonsingular row set in a stack (b, n, d).

    Returns z, of shape (k, n, d) for the k row sets whose covariance passes
    the singularity test, and the boolean mask of those sets. Each set is
    whitened as :attr:`DataMatrix.whitening` whitens it alone, to the bit;
    no root is formed for a singular set.
    """
    centered = _centered(stack)
    _, eigvals, eigvecs, singular = _spectrum(_gram(centered))
    regular = ~singular
    return centered[regular] @ _inv_root(eigvals[regular], eigvecs[regular]), regular


def standardize(data) -> DataMatrix:
    """Center and whiten: rows become z = S^{-1/2} (x - mean).

    The output has column means 0 and sample covariance equal to the
    identity (1/n convention). Column labels are preserved.
    """
    data = as_data_matrix(data)
    return DataMatrix(data.whitening[0], data.names)
