"""Loading, validation, and standardization of rectangular numeric data.

This module owns the two conventions everything else inherits:

* sample moments (the mean excepted) are computed with 1/n weights, not
  1/(n-1) -- the maximum-likelihood convention the skewness measures in
  :mod:`mvskew.measures` are calibrated against;
* matrix square roots are symmetric (spectral), never Cholesky.

:func:`load_csv` parses each file of at least CACHE_BYTES once: it keeps
the parsed values under ``$XDG_CACHE_HOME/mvskew``, keyed by the sha256 of
the file's bytes, the header and column request and the loader itself, and
reads them back while all three are unchanged.

Every sum over rows of a column or a product of columns is one einsum in
:func:`column_sums`, bit-identical to numpy's reduction over the row axis;
rows are centered by :func:`centered` alone. Whitening -- the covariance,
its inverse symmetric root and the whitened rows -- has one kernel,
:func:`whiten`, which whitens a stack of row sets such as the bootstrap's
resamples. A :class:`DataMatrix` whitens its rows as a stack of one on
first use and caches the result (``DataMatrix.whitening``); every
standardized quantity of a DataMatrix reads that cache. One rule makes a
covariance singular: a relative eigenvalue floor, or a constant column.
Argument checks that callers can get wrong (counts, indices, names)
raise :class:`PreconditionError`; :func:`require_count` checks every count
and index.

:func:`format_matrix` writes every value exactly as C's ``"%.{p}g"`` does.
At p <= 15 a numpy kernel writes the finite nonzero values that print in
fixed notation (decimal exponent -4 to p - 1) and that one pass settles,
the bulk of any data. Every other cell -- a carry to the next power of ten,
exponent form, 0, -0, nan, +-inf, and every value at p = 16 or 17, whose
digit integer passes 2^53 -- takes the one ``%`` route: one call over
them. A cell's route depends on the cell alone.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "DataError",
    "PreconditionError",
    "SingularityError",
    "DataMatrix",
    "load_csv",
    "format_matrix",
    "covariance",
    "inv_sqrt",
    "standardize",
]

# cells formatted per slice by format_matrix, which bounds its temporaries
FORMAT_CELLS = 1 << 15

# relative eigenvalue floor below which a symmetric matrix counts as singular
EIG_RTOL = 1e-10

# load_csv parses a file of fewer bytes every time. In a fresh process a
# cache hit (hashlib's import, the hash and the read) first beats a parse
# at 0.4-0.5 MB of an 8-column file (2-vCPU Xeon VM, Python 3.11, numpy
# 2.4); this is the nearest power of two.
CACHE_BYTES = 1 << 19

# cache entries kept at most; a store evicts those with the oldest mtimes
CACHE_ENTRIES = 8


class DataError(ValueError):
    """Input data failed validation (shape, finiteness, labels, parsing)."""


class PreconditionError(DataError):
    """An argument violates a documented precondition (a count, a dimension
    or a name out of range); the command line exits 2 on it."""


class SingularityError(ValueError):
    """A covariance or SPD matrix is numerically singular."""


def require_count(name: str, value, low: int, high: int | None = None) -> None:
    """Raise PreconditionError unless ``value`` is an int or a numpy integer
    (a bool is neither here) from ``low`` to ``high``, or at least ``low``
    when ``high`` is None: the one check of every count and index argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise PreconditionError(f"{name} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise PreconditionError(f"{name} must be from {low} to {high}, got {value}")


def require_finite(values: np.ndarray) -> None:
    """Raise DataError naming the first non-finite entry of a 2-d array."""
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"non-finite entry at row {row + 1}, column {col + 1}")


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
        require_finite(values)
        names = (self.names,) if isinstance(self.names, str) else self.names  # a str: one label
        names = tuple(str(name) for name in names)
        if len(names) != d:
            raise DataError(f"{len(names)} labels for {d} columns")
        _require_distinct(names)
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

        :func:`whiten` on a stack of one. Raises SingularityError, uncached,
        when the covariance is singular.
        """
        z, roots, regular = whiten(self.values[None])
        if not regular[0]:
            covariance(self)  # the same test fails there, naming the direction
        z.setflags(write=False)
        roots.setflags(write=False)
        return z[0], roots[0]

    def select_rows(self, indices: Sequence[int]) -> "DataMatrix":
        """The sub-matrix of the given 0-based row indices: integers from 0 to
        n - 1, read as one numpy array; PreconditionError names its dtype, a
        bool among a list's ints or its extreme index. No index is a DataError."""
        rows = np.asarray(indices)
        if rows.size:
            if rows.dtype.kind not in "iu":
                raise PreconditionError(f"row indices must be integers, got dtype {rows.dtype}")
            if not isinstance(indices, (np.ndarray, range)):  # numpy reads [0, True] as ints
                for row in indices:
                    if isinstance(row, (bool, np.bool_)):
                        require_count("row", row, 0)
            for row in (rows.min(), rows.max()):
                require_count("row", row, 0, self.n - 1)
        # an empty list reads as floats
        return DataMatrix(self.values[rows.astype(np.intp, copy=False)], self.names)


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


def column_sums(*factors: np.ndarray) -> np.ndarray:
    """Sums over the rows of the factors' product, stacks (..., n, d) to (..., d);
    a factor but the last may be (..., n, 1). At d >= 2 one einsum (no BLAS)
    adds the rows in numpy's order, giving the bits of (a * b).sum(axis=-2)
    without its temporaries; d = 1, which numpy sums pairwise, keeps numpy's."""
    if factors[-1].shape[-1] == 1:
        return functools.reduce(np.multiply, factors).sum(axis=-2)
    return np.einsum(",".join(["...ij"] * len(factors)) + "->...j", *factors)


def centered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row set of a stack (..., n, d) less its column means, and the
    means (..., d): the one centering rule."""
    means = column_sums(values) / values.shape[-2]
    return values - means[..., None, :], means


def constant_columns(variances: np.ndarray, means: np.ndarray, n: int) -> np.ndarray:
    """Whether each column of n rows is constant: its standard deviation is at
    most n eps |mean|, above what rounding the mean of n equal values leaves."""
    return np.sqrt(variances) <= n * np.finfo(float).eps * np.abs(means)


def require_finite_moments(moments: np.ndarray) -> None:
    """Raise DataError naming the first column whose moment in a stack (..., d)
    is not finite: finite values whose powers overflow a double."""
    overflow = ~np.isfinite(moments).reshape(-1, moments.shape[-1]).all(axis=0)
    if overflow.any():
        raise DataError(f"the moments of column {int(np.argmax(overflow)) + 1} overflow "
                        "a double; rescale the column")


def _gram(centered: np.ndarray) -> np.ndarray:
    """1/n covariance of each centered row set of a stack (..., n, d); an
    overflow gives inf, which _spectrum refuses."""
    with np.errstate(over="ignore"):
        return np.swapaxes(centered, -1, -2) @ centered / centered.shape[-2]


def _spectrum(matrices: np.ndarray, means: np.ndarray | None = None, n: int = 0):
    """Symmetric part, eigenpairs and singularity of each matrix of (..., d, d).

    Returns each matrix's exactly symmetric part, the ascending eigenvalues,
    the eigenvectors and the package's one singularity test: the smallest
    eigenvalue is at most EIG_RTOL times the largest (or times the smallest
    positive float, when the largest is not positive), or, given the column
    ``means`` of the n rows of a covariance, a constant column, which the
    relative test misses at d = 1. Symmetry is checked by :func:`inv_sqrt`,
    the one caller given a matrix from outside. A variance that is not finite
    raises DataError; with finite rows, no other entry overflows alone.
    """
    with np.errstate(over="ignore"):
        matrices = (matrices + np.swapaxes(matrices, -1, -2)) / 2.0
    variances = np.diagonal(matrices, axis1=-2, axis2=-1)
    require_finite_moments(variances)
    eigvals, eigvecs = np.linalg.eigh(matrices)
    singular = eigvals[..., 0] <= EIG_RTOL * np.maximum(eigvals[..., -1],
                                                        np.finfo(float).tiny)
    if means is not None:
        singular |= constant_columns(variances, means, n).any(axis=-1)
    return matrices, eigvals, eigvecs, singular


def _inv_root(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Symmetric inverse square roots from eigenpairs of shape (..., d), (..., d, d)."""
    root = (eigvecs / np.sqrt(eigvals)[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
    return (root + np.swapaxes(root, -1, -2)) / 2.0


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


def _require_distinct(names: tuple[str, ...], where: str = "") -> None:
    """Raise DataError, prefixed by ``where``, naming each label given twice."""
    dupes = sorted({x for x in names if names.count(x) > 1})
    if dupes:
        raise DataError(f"{where}duplicate column labels: {', '.join(dupes)}")


def _resolve_columns(columns, names: list[str]) -> list[int]:
    """Map labels / 1-based indices to 0-based positions; a bare str is one label."""
    out = []
    for col in [columns] if isinstance(columns, str) else columns:
        if not isinstance(col, str):
            require_count("column", col, 1, len(names))
            out.append(int(col) - 1)
        else:
            found = [j for j, name in enumerate(names) if name == col]
            if len(found) != 1:
                raise PreconditionError(f"column label {col!r} names {len(found)} columns"
                                        if found else f"no column named {col!r}")
            out.append(found[0])
    return out


def _parse(path: Path, header: bool, skip: int, width: int, keep: list[int],
           auto: bool) -> np.ndarray:
    """The kept columns of the rows after the first ``skip`` lines, as floats.

    With ``auto`` every column not kept is a label column, which must hold no
    number. Raises a DataError naming the first fault.
    """
    # a label column is read as Python strings, in C, and each distinct label
    # is tested once for a number; an unselected column is read as its first
    # character, in C. Every cell is a field of the row's record, so numpy
    # checks each row's cell count.
    unread = "O" if auto else "U1"
    record = np.dtype([(f"f{j}", "f8" if j in keep else unread) for j in range(width)])
    try:
        table = np.loadtxt(
            path, delimiter=",", quotechar='"', comments=None, skiprows=skip,
            encoding="utf-8-sig", ndmin=1, dtype=record)
        if auto:
            labels = (set(table[f"f{j}"]) for j in range(width) if j not in keep)
            if any(_is_number(label) for column in labels for label in column):
                raise ValueError("a number in a label column")
        values = np.empty((len(table), len(keep)))
        for i, j in enumerate(keep):
            values[:, i] = table[f"f{j}"]
        if not np.isfinite(values).all():
            raise ValueError("a cell could not be read")
    except ValueError as exc:
        _raise_fault(path, header, None if auto else keep)
        raise DataError(f"{path}: {exc}") from None
    return values


def _stamp(path: Path) -> tuple[int, int, int]:
    """Size, mtime and inode of a file: they change when it is rewritten."""
    status = path.stat()
    return status.st_size, status.st_mtime_ns, status.st_ino


def _cache_entry(path: Path, request: str) -> tuple[Path, tuple[int, int, int]] | None:
    """The cache entry of the file's bytes parsed under ``request``, with the
    file's stamp taken before the bytes were hashed.

    The key is the sha256 of the loader (numpy's version and this module's
    source), the request and the file's bytes, read in 1 MiB chunks; no
    timestamp or inode stands in for the bytes. None for a file below
    CACHE_BYTES, parsed every time without importing hashlib, and when the
    file cannot be read or no cache directory can be named.
    """
    stamp = _stamp(path)
    if stamp[0] < CACHE_BYTES:
        return None
    import hashlib  # here, so that a small file never pays its import (5 ms)

    root = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(root) if os.path.isabs(root) else Path.home() / ".cache"
        source = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
        key = hashlib.sha256(f"{np.__version__}\0{source}\0{request}\0".encode())
        chunk = memoryview(bytearray(1 << 20))  # one buffer for every read
        with open(path, "rb", buffering=0) as handle:
            while size := handle.readinto(chunk):
                key.update(chunk[:size])
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return root / "mvskew" / f"{key.hexdigest()}.npy", stamp


def _cache_load(entry: Path, names: tuple[str, ...]) -> DataMatrix | None:
    """The DataMatrix stored at ``entry``, or None when the entry is missing,
    truncated or corrupt. A hit refreshes the entry's mtime.

    The entry is mapped, not read: a damaged header that claims more rows
    than the file holds fails to map instead of allocating them, and the
    DataMatrix's own copy is the one read of the values.
    """
    try:
        values = np.load(entry, mmap_mode="r", allow_pickle=False)
        if values.dtype != np.float64:
            return None
        data = DataMatrix(values, names)
    except (OSError, EOFError, ValueError):  # a DataError is a ValueError
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return data


def _cache_store(entry: Path, stamp: tuple[int, int, int], path: Path,
                 values: np.ndarray) -> None:
    """Store a parse at ``entry``, unless the file changed while it was read,
    and evict the entries with the oldest mtimes past CACHE_ENTRIES.

    The entry is written under a temporary name and renamed into place, so
    no reader sees half of it. An unwritable cache directory stores nothing.
    """
    with contextlib.suppress(OSError):
        if _stamp(path) != stamp:
            return
        entry.parent.mkdir(parents=True, exist_ok=True)
        handle, temporary = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        try:
            with os.fdopen(handle, "wb") as out:
                np.save(out, values, allow_pickle=False)
            os.replace(temporary, entry)
        finally:  # a failed write leaves the temporary file: remove it
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temporary)
        files = [f for f in entry.parent.iterdir() if f.suffix in (".npy", ".tmp")]
        files.sort(key=lambda f: f.stat().st_mtime_ns)
        for old in files[:-CACHE_ENTRIES]:
            old.unlink()


def load_csv(path, columns=None, header: bool | None = None) -> DataMatrix:
    """Read a comma-separated numeric file into a DataMatrix.

    A cell is a number when numpy's text parser reads it as a float (so
    ``nan`` and ``inf`` are, ``1_000`` and ``NA`` are not). A column is a
    label column when none of its data cells is a number, and a numeric
    column when at least one is. Every cell of a column read must be a
    finite number, or a DataError names its row (non-blank rows counted
    from 1, header included) and column; a ragged row is named the same way.

    A file of at least CACHE_BYTES is parsed once: the values of each
    successful parse are kept as ``<sha256>.npy`` under
    ``$XDG_CACHE_HOME/mvskew`` (default ``~/.cache/mvskew``) and read back
    while the file's bytes, the header and column request and the loader
    are unchanged. The header and the column request are checked first,
    so their errors are the same on a hit. Failed parses are not kept, an
    unreadable entry is parsed again and rewritten, and an unwritable cache
    directory turns the cache off. At most CACHE_ENTRIES entries are kept.

    Parameters
    ----------
    path : str or Path
        UTF-8 file (a byte-order mark is dropped; a byte that is not UTF-8
        is a DataError naming its byte offset), comma separator, period
        decimal mark, cells optionally double-quoted; blank lines skipped.
    columns : str, int or sequence of str or int, optional
        Columns to keep, by label or by *1-based* position (matching the
        command-line ``--columns 1-4`` syntax); a position must be an int or
        a numpy integer, not a bool, and a bare str is one label, of one
        column only (PreconditionError). Default: the numeric columns. Only
        the columns kept need distinct labels (DataError).
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
        if sample is None:
            raise DataError(f"{path}: no data rows")

        if columns is None:
            keep = [j for j, cell in enumerate(sample[:width]) if _is_number(cell)]
        else:
            keep = _resolve_columns(columns, names)
            if not keep:
                raise PreconditionError("empty column selection")
        kept = tuple(names[j] for j in keep)
        _require_distinct(kept, f"{path}: ")
        cache = _cache_entry(
            path, f"header={header} columns={'auto' if columns is None else keep}")
        data = _cache_load(cache[0], kept) if cache else None
        if data is None:
            values = _parse(path, header, skip, width, keep, columns is None)
            if not keep:
                raise DataError(f"{path}: no numeric columns found")
            data = DataMatrix(values, kept)
            if cache:
                _cache_store(*cache, path, data.values)
        return data
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


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999 as uint32 words, then the same words
    with their trailing zeros as NUL bytes; and the exact doubles 10^0..10^22."""
    i = np.arange(10000, dtype=np.uint16)[:, None]
    ascii = (i // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + 48
    # a digit is a trailing zero when i is a multiple of its place times 10
    trailing = i % np.array([10000, 1000, 100, 10], np.uint16) == 0
    words = np.concatenate([ascii, np.where(trailing, 0, ascii)]).view(np.uint32).ravel()
    powers = np.array([float(10 ** k) for k in range(23)])
    words.setflags(write=False)
    powers.setflags(write=False)
    return words, powers


def _product_error(a: np.ndarray, b: np.ndarray, product: np.ndarray) -> np.ndarray:
    """a * b - product, exactly, where product = fl(a * b): Dekker's two-product."""
    def split(v):  # 2^27 + 1 splits a double into two halves of 26 bits
        scaled = 134217729.0 * v
        high = scaled - (scaled - v)
        return high, v - high

    (ah, al), (bh, bl) = split(a), split(b)
    return ((ah * bh - product) + ah * bl + al * bh) + al * bl


def _fixed_digits(x: np.ndarray, precision: int):
    """The fixed-notation cells of ``"%.{precision}g"`` one pass settles, p <= 15.

    Returns that mask, and for its cells the decimal exponent X of the value
    rounded to ``precision`` digits (-4 <= X < precision) and the digit
    integer n, 10^(p-1) <= n < 10^p: |x| * 10^(p-1-X) rounded to an integer
    as dtoa rounds, ties to even. 10^(p-1-X) is an exact double and n < 2^53,
    so n is the rint of the scaled double hi unless hi ends in exactly .5;
    there the exact error of the product decides. The mask keeps the cells
    with hi >= 10^(p-1) and n < 10^p; one whose floor(log10|x|) is off by
    one, or whose n rounds up to 10^p (a carry), is left out of it.
    """
    _, powers = _digit_table()
    low, high = powers[precision - 1], powers[precision]
    a = np.abs(x)
    # below 1e-4 a value prints in exponent form or rounds up to 1e-4, a
    # carry; nan, inf and 0 fall outside too
    candidate = (a >= 1e-4) & (a < high)
    a[~candidate] = 1.0
    # next to a power of ten floor(log10|x|) may be off by one. One too small
    # gives n >= 10^p and one too large hi < 10^(p-1), both left out, unless
    # hi rounds up to exactly 10^(p-1), whose text is right. Just below 10^p,
    # one too large indexes powers at -1 (10^22), so n passes 10^p: left out.
    exponent = np.floor(np.log10(a)).astype(np.intp)
    scale = powers[precision - 1 - exponent]
    hi = a * scale
    n = np.rint(hi)
    tie = np.flatnonzero(np.abs(hi - n) == 0.5)
    if tie.size:
        error = _product_error(a[tie], scale[tie], hi[tie])
        n[tie] = np.where(error == 0, n[tie], hi[tie] + np.copysign(0.5, error))
    return candidate & (hi >= low) & (n < high), exponent, n


def _fixed_cells(x: np.ndarray, precision: int, width: int):
    """Byte rows of the fixed-notation cells of x, NUL-padded to ``width``.

    Returns the mask of those cells, their indices and their rows. The
    digits come from one gather per 4-digit group; the cells are sorted by
    exponent, so each exponent class is laid out with slices.
    """
    words, _ = _digit_table()
    p = precision
    fixed, exponent, n = _fixed_digits(x, p)
    cells = np.flatnonzero(fixed)
    exponent = exponent[cells].astype(np.int8)
    order = np.argsort(exponent, kind="stable")
    cells, exponent = cells[order], exponent[order]
    n = n[cells]
    groups = (p + 3) // 4
    ascii = np.empty((cells.size, groups), np.uint32)
    # a group reads its word with NUL trailing zeros, at 10000 + its value,
    # while every later group is 0
    offset = np.full(cells.size, 10000, np.intp)
    for g in reversed(range(groups)):
        quotient = np.floor(n / 10000.0)  # exact: n < 10^15
        remainder = (n - 10000.0 * quotient).astype(np.intp)
        ascii[:, g] = words[remainder + offset]
        offset[remainder != 0] = 0
        n = quotient
    digits = ascii.view(np.uint8)[:, 4 * groups - p:]
    rows = np.zeros((cells.size, width), np.uint8)
    rows[:, 0] = np.where(x[cells] < 0, 45, 0)  # "-"
    bounds = np.searchsorted(exponent, np.arange(-4, p + 1))
    for e, start, stop in zip(range(-4, p), bounds[:-1], bounds[1:]):
        if start == stop:
            continue
        row, digit = rows[start:stop], digits[start:stop]
        if e < 0:  # "0.", -1-e zeros, the digits
            row[:, 1:3 - e] = 48
            row[:, 2] = 46
            row[:, 2 - e:2 - e + p] = digit
        else:  # e + 1 integer digits, zeros kept; ".", the fraction, if any
            row[:, 1:e + 2] = digit[:, :e + 1] | 48
            if e + 1 < p:
                row[:, e + 2] = np.where(digit[:, e + 1] != 0, 46, 0)
                row[:, e + 3:p + 2] = digit[:, e + 1:]
    return fixed, cells, rows


def _format_rows(part: np.ndarray, precision: int) -> str:
    """CSV text of the rows of a 2-d slice: exactly ``"%.{precision}g" % x``."""
    x = np.ascontiguousarray(part, dtype=float).ravel()
    if not x.size:  # no cells: one empty line per row
        return "\n" * len(part)
    # a cell is a row of width + 1 bytes, its text NUL-padded, then "," or
    # "\n"; no %g text of a double is longer than precision + 7
    width = precision + 7
    text = np.zeros((x.size, width + 1), np.uint8)
    record = f"V{width + 1}"
    rest = np.arange(x.size)  # the cells the kernel does not write
    if 1 <= precision <= 15:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fixed, cells, rows = _fixed_cells(x, precision, width + 1)
        text.view(record)[cells, 0] = rows.view(record)[:, 0]
        rest = np.flatnonzero(~fixed)
    if rest.size:
        padded = (f"%-{width}.{precision}g\0" * rest.size) % tuple(x[rest].tolist())
        padded = np.frombuffer(padded.encode("ascii"), np.uint8).copy()
        padded[padded == 32] = 0  # %g text holds no space
        text.view(record)[rest, 0] = padded.view(record)
    text[:, width] = 44  # ","
    text[part.shape[1] - 1::part.shape[1], width] = 10  # "\n"
    return text.tobytes().translate(None, b"\0").decode("ascii")


def format_matrix(matrix, precision: int) -> str:
    """CSV text of a matrix: one line per row, each value ``"%.{precision}g" % x``.

    A 1-d input is one row. The bytes are exactly those of C's
    ``"%.{precision}g"``, whatever the matrix size and whichever route a cell
    takes. At precision 1..15 a numpy kernel writes the finite nonzero cells
    that print in fixed notation and that one pass settles: there
    10^(p-1-X) is an exact double and the digit integer stays below 2^53, so
    one product, its exact rounding error and rint give dtoa's digits. A
    carry to the next power of ten, a floor(log10) off by one, 16 or 17
    digits (the integer passes 2^53), exponent form, 0, -0, nan and +-inf
    take the one ``%`` route, a single call over their cells. The matrix is
    formatted FORMAT_CELLS cells at a time, which bounds the temporaries.
    ``precision`` must be an integer from 0 to 17 (PreconditionError).
    """
    require_count("precision", precision, 0, 17)
    matrix = np.atleast_2d(matrix)
    if matrix.ndim != 2:
        raise DataError(f"expected a 1-d or 2-d array, got ndim={matrix.ndim}")
    rows = max(1, FORMAT_CELLS // max(matrix.shape[1], 1))
    text = ""
    for start in range(0, len(matrix), rows):
        # appending in place keeps the peak at the result plus one slice
        text += _format_rows(matrix[start:start + rows], precision)
    return text


def covariance(data) -> np.ndarray:
    """Sample covariance with 1/n weights, exactly symmetric and read-only.

    Raises
    ------
    SingularityError
        If the covariance fails the singularity test of :func:`whiten`; the
        message names the near-null direction in terms of the column labels.
    """
    data = as_data_matrix(data)
    rows, means = centered(data.values)
    cov, eigvals, eigvecs, singular = _spectrum(_gram(rows), means, data.n)
    if singular:
        combo = " ".join(f"{w:+.3f}*{name}" for w, name in zip(eigvecs[:, 0], data.names))
        raise SingularityError(
            f"covariance is singular along {combo} (eigenvalue {eigvals[0]:.3e})")
    cov.setflags(write=False)
    return cov


def inv_sqrt(matrix) -> np.ndarray:
    """Inverse of the symmetric positive definite square root of a matrix.

    The matrix must be square, non-empty, finite and symmetric to 1e-12
    relative (DataError, the package's one symmetry check of a covariance) and
    pass the singularity test of :func:`whiten` (SingularityError). The result
    R is symmetric, positive definite, and satisfies R @ S @ R = I to 1e-10.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise DataError(f"expected a square matrix, got shape {matrix.shape}")
    require_finite(matrix)
    if np.abs(matrix - matrix.T).max() > 1e-12 * np.abs(matrix).max():
        raise DataError("matrix is not symmetric to within 1e-12 relative")
    _, eigvals, eigvecs, singular = _spectrum(matrix)
    if singular:
        raise SingularityError(
            f"matrix is singular (eigenvalues {eigvals[0]:.3e} to {eigvals[-1]:.3e})")
    return _inv_root(eigvals, eigvecs)


def whiten(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whiten each nonsingular row set of a stack (b, n, d): the one whitening kernel.

    For the k sets whose 1/n covariance S passes the singularity test of
    ``_spectrum``, returns the rows z = (x - mean) S^{-1/2}, shape (k, n, d),
    and the symmetric roots S^{-1/2}, shape (k, d, d), with the boolean mask
    of those sets. A set's bits do not depend on the rest of the stack.
    """
    rows, means = centered(stack)
    _, eigvals, eigvecs, singular = _spectrum(_gram(rows), means, stack.shape[-2])
    regular = ~singular
    roots = _inv_root(eigvals[regular], eigvecs[regular])
    if not regular.all():  # a boolean index copies even when it keeps every set
        rows = rows[regular]
    return rows @ roots, roots, regular


def standardize(data) -> DataMatrix:
    """Center and whiten: rows become z = S^{-1/2} (x - mean).

    The output has column means 0 and sample covariance equal to the
    identity (1/n convention). Column labels are preserved.
    """
    data = as_data_matrix(data)
    return DataMatrix(data.whitening[0], data.names)
