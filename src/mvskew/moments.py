"""Third multivariate moment and cumulant matrices.

The third moment of a d-vector is stored as a d^2 x d matrix: the mixed
moment m[i,j,h] sits at row (i-1)*d + j, column h (1-based), so the matrix
is d symmetric d x d blocks stacked vertically, block i collecting the
moments E(X_i x x').  Entries are invariant under all six permutations of
(i,j,h); construction enforces that symmetry exactly by writing each
sorted-index value into every permuted slot.

The sample moment is summed over fixed blocks of rows, a block size that
depends on d alone, from the d(d+1)/2 distinct pairwise products x_i x_j,
i <= j, written in place into one array per block. No n x d^2 array of
pairwise products is built, a block's pair array holds at most 2^16 doubles
(512 KB) per row set while d <= 22, and a row set's moment has the same bits
alone as in a stack of row sets. Every slot (i,j,h) reads the pair sum of
its sorted triple, and cumulant_from_moments fills its slots from pair rows
the same way, so computed moments and cumulants arrive exactly symmetric.
The finiteness and symmetry checks run only in the ThirdMomentMatrix
constructor, which third_moment and matrices from elsewhere pass through
(load_third_moment, transform_third, cumulant_from_moments); the stacked
routes never do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import (DataError, PreconditionError, as_data_matrix, centered, format_slices,
                   leading_rows, parse_columns, require_count, require_finite,
                   require_finite_moments, utf8_errors)

__all__ = [
    "KINDS",
    "ThirdMomentMatrix",
    "third_moment",
    "cumulant_from_moments",
    "transform_third",
    "block",
    "save_third_moment",
    "load_third_moment",
]

KINDS = ("raw", "central", "standardized")

# tolerance for accepting an externally supplied matrix as index-symmetric
SYMMETRY_RTOL = 1e-8


def _canonical(values: np.ndarray) -> np.ndarray:
    """Map every entry of a (d^2, d) matrix to the value at its sorted index
    triple, after checking it is finite and index-symmetric to within
    SYMMETRY_RTOL relative. Output is exactly invariant under index
    permutations."""
    require_finite(values)
    d = values.shape[1]
    first, second, _ = pair_layout(d)
    canon = values[first * d + second].ravel()[triple_layout(d)].reshape(values.shape)
    if np.abs(canon - values).max() > SYMMETRY_RTOL * max(np.abs(values).max(), 1.0):
        raise DataError("matrix violates third-moment index symmetry")
    return canon


@functools.cache
def pair_layout(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index pairs (i, j), i <= j, of the d(d+1)/2 distinct products
    x_i x_j, and for each of the d^2 slots (i, j) the position of its pair."""
    first, second = np.triu_indices(d)
    slot = np.empty((d, d), dtype=np.intp)
    slot[first, second] = slot[second, first] = np.arange(first.size)
    for index in (first, second, slot):
        index.setflags(write=False)
    return first, second, slot.ravel()


def pair_products(rows: np.ndarray) -> np.ndarray:
    """The d(d+1)/2 products x_i x_j, i <= j, of each row x of each (m, d)
    block in a stack rows (..., m, d), in the order of pair_layout(d), as a
    (..., d(d+1)/2, m) view of one array. A copy of the rows holds each
    column, over the whole stack, as one run, and the pairs (i, j >= i) of
    each i are one multiply of those runs written in place, so no gathered
    copy is made."""
    m, d = rows.shape[-2:]
    size = d * (d + 1) // 2
    columns = np.ascontiguousarray(np.moveaxis(rows, -1, 0)).reshape(d, -1)
    pairs = np.empty((size, columns.shape[1]), dtype=rows.dtype)
    start = 0
    for i in range(d):
        np.multiply(columns[i], columns[i:], out=pairs[start:start + d - i])
        start += d - i
    return np.moveaxis(pairs.reshape((size,) + rows.shape[:-2] + (m,)), 0, -2)


def _block_rows(d: int) -> int:
    """Rows per block of moment_stack's sums, a rule in d alone: as many as
    keep a block's d(d+1)/2 pair rows within 2^16 doubles, and at least 256
    from d = 23 on, so that the d multiplies of pair_products each span at
    least 256 rows (at 2000 x 64, 64-row blocks took 1.2 to 1.5 times as
    long)."""
    return max(256, 2**16 // (d * (d + 1) // 2))


@functools.cache
def triple_layout(d: int) -> np.ndarray:
    """For each slot (i, j, h) of a flat (d, d, d) tensor, the position of
    its sorted triple (low, mid, high) in the flat (d(d+1)/2, d) array of
    pair sums: row (low, mid) of pair_layout(d), column high."""
    i, j, h = np.indices((d, d, d), sparse=True)
    low, high = np.minimum(i, j), np.maximum(i, j)
    # the middle of three indices is the third clipped to the other two
    position = pair_layout(d)[2][np.minimum(low, h) * d + np.clip(h, low, high)]
    position *= d
    position += np.maximum(high, h)
    position = position.ravel()
    position.setflags(write=False)
    return position


def moment_stack(rows: np.ndarray) -> np.ndarray:
    """Third moments of each row set in a stack (..., n, d), as a (..., d^2, d)
    array: the average of x (x) x' (x) x over the rows of each set.

    Sums pairs' @ block over blocks of max(256, 2^16 // (d(d+1)/2)) rows, a
    rule in d alone, for the d(d+1)/2 distinct pair columns x_i x_j, i <= j,
    of pair_products; slot (i, j, h) then reads the sum in row (low, mid),
    column high, of its sorted triple, over n. A block allocates a copy of
    its columns and its pair array, each once.

    Slice k is, to the bit, what ThirdMomentMatrix stores for ``rows[k]``
    alone; for the whitened rows of x, that is
    ``third_moment(x, "standardized").values``.
    """
    n, d = rows.shape[-2:]
    size = _block_rows(d)
    sums = 0.0
    for start in range(0, n, size):
        block = rows[..., start:start + size, :]
        sums = sums + pair_products(block) @ block
    # an explicit length: a stack of no row sets has no -1 to infer
    flat = sums.reshape(sums.shape[:-2] + (sums.shape[-2] * d,))
    filled = np.take(flat, triple_layout(d), axis=-1)
    filled /= n
    return filled.reshape(sums.shape[:-2] + (d * d, d))


@dataclass(frozen=True)
class ThirdMomentMatrix:
    """A d^2 x d third moment/cumulant matrix with its kind tag.

    Construction checks that d >= 1, every entry is finite and the entries
    are index-symmetric, and stores the exactly symmetric matrix.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"kind must be one of {KINDS}, got {self.kind!r}")
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("expected a 2-d array")
        rows, d = values.shape
        if d == 0 or rows != d * d:
            raise DataError(f"expected shape (d^2, d) with d >= 1, got {values.shape}")
        values = _canonical(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def tensor(self) -> np.ndarray:
        """The same data as a (d, d, d) array, t[i,j,h] = m_{ijh}."""
        d = self.d
        return self.values.reshape(d, d, d)


def third_moment(data, kind: str) -> ThirdMomentMatrix:
    """Sample third moment matrix of the requested kind.

    Parameters
    ----------
    data : DataMatrix or array-like
        n observations in rows.
    kind : {'raw', 'central', 'standardized'}
        Raw averages x (x) x' (x) x over rows; central first subtracts the
        mean; standardized uses the whitened rows z = S^{-1/2}(x - mean).

    Returns
    -------
    ThirdMomentMatrix
        With 1/n weights, exactly index-symmetric. A moment that overflows
        a double raises DataError naming a column of its entry.
    """
    data = as_data_matrix(data)
    if kind not in KINDS:
        raise PreconditionError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "raw":
        rows = data.values
    elif kind == "central":
        rows = centered(data.values)[0]
    else:
        rows = data.whitening[0]
    with np.errstate(over="ignore", invalid="ignore"):
        values = moment_stack(rows)
    require_finite_moments(values)
    return ThirdMomentMatrix(values, kind)


def cumulant_from_moments(m3: ThirdMomentMatrix, m2, mu) -> ThirdMomentMatrix:
    """Third cumulant from raw moments.

    Evaluates K3 = M3 - M2 (x) mu - mu (x) M2 - vec(M2) mu' + 2 mu (x) mu' (x) mu,
    M2 the raw second moment and mu the mean on the 1/n convention of ``m3``,
    on the pair rows (i, j), i <= j, whose sorted triples then fill every
    slot, so the result is exactly index-symmetric. The terms cancel: with T
    the largest sum of their magnitudes over the entries, of order |mu|^3,
    it agrees with third_moment(data, 'central') to within 16 eps T (tested).
    Center the data first when |mu| is large against the spread.
    """
    if m3.kind != "raw":
        raise DataError(f"need a raw third moment, got kind={m3.kind!r}")
    m2 = np.asarray(m2, dtype=float)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    d = m3.d
    if m2.shape != (d, d):
        raise DataError(f"second moment shape {m2.shape} does not match d={d}")
    if mu.shape != (d,):
        raise DataError(f"mean length {mu.shape[0]} does not match d={d}")
    first, second, _ = pair_layout(d)
    mu_i, mu_j = mu[first, None], mu[second, None]
    pairs = (m3.values[first * d + second] - m2[first] * mu_j - mu_i * m2[second]
             - m2[second, first, None] * mu + 2.0 * (mu_i * mu * mu_j))
    return ThirdMomentMatrix(pairs.ravel()[triple_layout(d)].reshape(d * d, d), "central")


def transform_third(m3: ThirdMomentMatrix, a) -> ThirdMomentMatrix:
    """Third moment of the linearly transformed vector y = A x.

    Computes (A (x) A) M3 A' for a k x d matrix A, as one contraction with A
    per tensor index; the k^2 x d^2 matrix A (x) A is never formed. Kind is
    preserved for raw/central; a standardized input stays standardized only
    when A has orthonormal rows (checked numerically), otherwise the result
    is tagged central (Ax of a mean-zero standardized vector is still mean
    zero).
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2 or not a.shape[0] or a.shape[1] != m3.d:
        raise DataError(f"transform must be a 2-d array of k >= 1 rows and {m3.d} columns, "
                        f"got shape {a.shape}")
    values = m3.tensor()
    for _ in range(3):
        # contract the leading index with A; the new index goes last, so after
        # three contractions the axes are back in order
        values = np.tensordot(values, a, axes=(0, 1))
    values = values.reshape(-1, a.shape[0])
    kind = m3.kind
    if kind == "standardized":
        gram = a @ a.T
        if not np.allclose(gram, np.eye(a.shape[0]), atol=1e-10):
            kind = "central"
    return ThirdMomentMatrix(values, kind)


def block(m3: ThirdMomentMatrix, i: int) -> np.ndarray:
    """Block B_i = E(X_i x x'), rows (i-1)d+1 .. i*d, for an integer i from 1 to d."""
    d = m3.d
    require_count("i", i, 1, d)
    return m3.values[(i - 1) * d : i * d, :]


def save_third_moment(m3: ThirdMomentMatrix, path, precision: int = 17) -> None:
    """Write to CSV: one `# kind=...` comment line, then d^2 rows of d values,
    streamed slice by slice as UTF-8 bytes."""
    slices = format_slices(m3.values, precision)  # a bad precision writes no file
    with open(path, "wb") as handle:
        handle.write(f"# kind={m3.kind}\n".encode())
        handle.writelines(slices)


def load_third_moment(path) -> ThirdMomentMatrix:
    """Read a matrix written by :func:`save_third_moment`: the ``# kind=`` line
    first (blank lines aside), then rows read as ``load_csv`` reads those of a
    headed file, in the same decoder, quoting, number grammar and messages."""
    path = Path(path)
    with utf8_errors(path):
        first, second, lines = leading_rows(path)
        line = ",".join(first or []).strip()
        key, _, kind = line.lstrip("#").partition("=")
        if not line.startswith("#") or key.strip() != "kind":
            raise DataError(f"{path}: missing '# kind=' header line")
        if second is None:
            raise DataError(f"{path}: no data rows")
        d = len(second)
        values = parse_columns(path, True, lines, d, list(range(d)), False)
    try:
        return ThirdMomentMatrix(values, kind.strip())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
