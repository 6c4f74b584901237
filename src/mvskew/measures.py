"""Scalar and vector skewness measures with parametric p-values.

All measures share the 1/n moment convention, the row sums
(``data.column_sums``) and the constant-column rule of :mod:`mvskew.data`.
Mardia's skewness takes one of two routes, chosen from (n, d) alone: the
sum of the d^3 squares of the standardized third moment, at about n d^3 / 2
flops, or, when GRAM_RATIO * n <= d^2, the sum of (z_i' z_j)^3 over the
Mahalanobis Gram matrix of the whitened rows, at about n^2 d.
Parametric p-values assume normal data and a large sample: the Mardia
statistic n*b/6 is chi-square with d(d+1)(d+2)/6 degrees of freedom, the
partial-skewness statistic n*b/(2(d+2)) is chi-square with d degrees of
freedom. :func:`chi2_sf` gives their upper tails in two regimes at every
dof: the power series below y = dof/2 + 1, with y = x/2, and Legendre's
continued fraction above. Directional skewness has no parametric null
here; use the bootstrap (:mod:`mvskew.bootstrap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import (PreconditionError, SingularityError, as_data_matrix, centered, column_sums,
                   constant_columns, require_count, require_finite_moments)
from .moments import moment_stack
from .projection import directional_values, require_two_variables

__all__ = [
    "SkewnessReport",
    "fisher_skew",
    "mardia_skewness",
    "partial_skewness",
    "directional_skewness",
    "chi2_sf",
]

# mardia_values sums (z_i' z_j)^3 over the Gram matrix of a set of n whitened
# rows in d variables when GRAM_RATIO * n <= d^2, and the third moment
# otherwise: on one BLAS thread, the Gram route was the faster in every
# measured cell of d in {4, 8, 16, 32, 64} with d + 2 <= n <= d^2 / 4, alone
# and in bootstrap-sized stacks, and the slower in some cells past d^2 / 2
GRAM_RATIO = 4

# the Gram matrix is formed max(1, GRAM_ELEMENTS // n) rows at a time, over
# as many row sets of a stack as keep one product within 2^15 floats (256 KB)
# while n <= 2^15, so it stays in cache; a whole n x n Gram matrix falls out
# of it, and at d = 32, n = 512 ran at about a quarter of the speed of the
# row blocks
GRAM_ELEMENTS = 2**15

# _log_prefactor takes Stirling's form from a = dof/2 = 15 on: at a = 10 the
# five-term remainder series was 3e-14 off mpmath, at 15 within 9e-15
STIRLING_FROM = 15

# where chi2_sf's series and continued fraction stop, relative to their value
EPSILON = 2.0**-52


@dataclass(frozen=True)
class SkewnessReport:
    """A measure's scalar value plus, where defined, its test statistic.

    ``vector`` carries the Mori-Rohatgi-Szekely vector for the partial
    measure. ``statistic``/``dof``/``pvalue`` are present only for the
    measures with a parametric chi-square null (mardia, partial); the
    p-value is computed on first read, so reading only ``value`` never
    pays for it.
    """

    measure: str
    value: float
    vector: np.ndarray | None = None
    statistic: float | None = None
    dof: int | None = None

    @cached_property
    def pvalue(self) -> float | None:
        """Chi-square upper tail of ``statistic``; None without a null."""
        return None if self.dof is None else chi2_sf(self.statistic, self.dof)

    def to_dict(self) -> dict:
        """The defined fields by name, numpy values left as they are."""
        keys = ("measure", "value", "vector", "statistic", "dof", "pvalue")
        return {key: getattr(self, key) for key in keys
                if getattr(self, key) is not None}


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(chi2_dof >= x) = Q(a, y), with a = dof/2 and y = x/2.

    Two regimes at every dof (Press et al., Numerical Recipes, 6.2): below
    y = a + 1 it is 1 - P(a, y), with P by its power series; above, Q is
    Legendre's continued fraction (modified Lentz), within 2e-13 of mpmath
    at every dof tried up to 695,520 (Mardia's at d = 160). The result is
    clamped to [0, 1] only as a last guard. ``x`` must be >= 0 and ``dof``
    an integer >= 1 (PreconditionError).
    """
    if not x >= 0:  # NaN too
        raise PreconditionError(f"chi-square statistic must be >= 0, got {x}")
    require_count("dof", dof, 1)
    a, y = dof / 2.0, x / 2.0
    if y == 0 or y == math.inf:
        return float(y == 0)
    tail = 1.0 - _lower_series(a, y) if y < a + 1 else _continued_fraction(a, y)
    return min(max(tail, 0.0), 1.0)


def _log_prefactor(a: float, y: float) -> float:
    """ln(y^a e^-y / Gamma(a)).

    From a = STIRLING_FROM on, the direct form's three terms grow like
    a ln a and so do their rounding errors. There it is
    -a phi(y/a) + ln(a / 2 pi) / 2 - s(a), with phi(l) = l - 1 - ln l and
    s(a) Stirling's remainder of ln Gamma(a). Below y = a/2 the direct form
    stays: P(a, y) is under e^(-0.19 a) there, so its relative error does not
    reach 1 - P.
    """
    if a < STIRLING_FROM or 2.0 * y < a:
        return a * math.log(y) - y - math.lgamma(a)
    t = (y - a) / a  # y - a is exact up to y = 2a (Sterbenz)
    if abs(t) < 0.5:
        # t - log1p(t) cancels near 0; with u = t / (2 + t),
        # log1p(t) = 2 atanh(u), so phi = t u - 2 (u^3/3 + u^5/5 + ...)
        u = t / (2.0 + t)
        power, k, series = u, 3, 0.0
        while True:
            power *= u * u
            term = power / k
            series += term
            if abs(term) <= EPSILON * abs(series):
                break
            k += 2
        phi = t * u - 2.0 * series
    else:
        phi = t - math.log1p(t)
    r = 1.0 / (a * a)
    stirling = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / a
    return -a * phi + 0.5 * math.log(a / (2 * math.pi)) - stirling


def _lower_series(a: float, y: float) -> float:
    """P(a, y) = y^a e^-y / Gamma(a + 1) sum_n y^n / ((a+1)...(a+n)), y < a + 1."""
    term = total = 1.0
    n = a
    while term > EPSILON * total:
        n += 1.0
        term *= y / n
        total += term
    return math.exp(_log_prefactor(a, y)) * total / a


def _continued_fraction(a: float, y: float) -> float:
    """Q(a, y) by Legendre's continued fraction, y >= a + 1."""
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    fraction, i, step = d, 0, 0.0
    while abs(step - 1.0) > EPSILON:
        i += 1
        an = i * (a - i)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        step = d * c
        fraction *= step
    return math.exp(_log_prefactor(a, y)) * fraction


def fisher_skew(data) -> np.ndarray:
    """Per-column skewness: third central moment over sigma^3 (1/n weights)."""
    data = as_data_matrix(data)
    rows, means = centered(data.values)
    m2 = column_sums(rows, rows) / data.n
    # multiplies, not rows**3, which calls C pow on every entry
    m3 = column_sums(rows, rows, rows) / data.n
    require_finite_moments(np.stack((m2, m3)))
    constant = constant_columns(m2, means, data.n)
    if constant.any():
        bad = data.names[int(np.argmax(constant))]
        raise SingularityError(f"column {bad!r} has zero variance")
    return m3 / m2**1.5


def mardia_skewness(data) -> SkewnessReport:
    """Mardia's skewness: squared Frobenius norm of the standardized cumulant.

    Returns a report with the statistic n*value/6, dof d(d+1)(d+2)/6, and
    the chi-square upper-tail p-value (computed on first read).
    """
    data = as_data_matrix(data)
    value = float(mardia_values(data.whitening[0][None])[0])
    return SkewnessReport(
        measure="mardia",
        value=value,
        statistic=data.n * value / 6.0,
        dof=data.d * (data.d + 1) * (data.d + 2) // 6,
    )


def gram_route(n: int, d: int) -> bool:
    """Whether mardia_values sums over the Gram matrix of n rows in d variables."""
    return GRAM_RATIO * n <= d * d


def mardia_values(z: np.ndarray) -> np.ndarray:
    """Mardia's skewness of each whitened row set in a stack (..., n, d).

    With few rows next to d^2 (:func:`gram_route`), it is
    (1/n^2) sum_ij (z_i' z_j)^3 (Mardia 1970), summed over blocks of
    ``max(1, GRAM_ELEMENTS // n)`` rows i of the Gram matrix, for as many
    row sets at a time as keep a block's cubes within ``GRAM_ELEMENTS``
    floats over the whole group. Otherwise it is the definition, the sum of
    the d^3 squares of the third moment. The two agree to a few ulps.

    The route and the row blocks depend on (n, d) alone, and numpy sums each
    slice's contiguous row of terms by itself, so a slice has the same value
    alone as in a stack: for the whitened rows of x,
    ``mardia_skewness(x).value`` to the bit.
    """
    n, d = z.shape[-2:]
    if not gram_route(n, d):
        squares = moment_stack(z)
        squares *= squares
        # an explicit length: a stack of no row sets has no -1 to infer
        return squares.reshape(z.shape[:-2] + (d**3,)).sum(axis=-1)
    size = max(1, GRAM_ELEMENTS // n)
    stack = z.reshape(-1, n, d)
    group = max(1, GRAM_ELEMENTS // (min(size, n) * n))
    sums = np.empty(len(stack))
    for first in range(0, len(stack), group):
        rows = stack[first:first + group]
        total = 0.0
        for start in range(0, n, size):
            # one name for the block: the previous block is freed as this
            # one is formed, so at most two blocks are live
            cubes = rows[:, start:start + size] @ np.swapaxes(rows, -1, -2)
            cubes *= cubes * cubes
            total = total + cubes.reshape(len(rows), -1).sum(axis=-1)
        sums[first:first + group] = total
    return sums.reshape(z.shape[:-2]) / (n * n)


def _mori(z: np.ndarray) -> np.ndarray:
    """Mean of (z'z) z over the whitened rows of each row set in a stack (..., n, d)."""
    # the row sums as numpy adds them: einsum's order differs from d = 3 on
    return column_sums((z**2).sum(axis=-1)[..., None], z) / z.shape[-2]


def _partial(vector: np.ndarray) -> float:
    """Partial skewness of one Mori-Rohatgi-Szekely vector."""
    return float(vector @ vector)


def partial_skewness(data) -> SkewnessReport:
    """Partial skewness: squared norm of the Mori-Rohatgi-Szekely vector.

    Returns a report with the statistic n*value/(2(d+2)), dof d, and the
    chi-square upper-tail p-value (computed on first read).
    """
    data = as_data_matrix(data)
    vector = _mori(data.whitening[0])
    value = _partial(vector)
    return SkewnessReport(
        measure="partial",
        value=value,
        vector=vector,
        statistic=data.n * value / (2.0 * (data.d + 2)),
        dof=data.d,
    )


def partial_values(z: np.ndarray) -> list[float]:
    """Partial skewness of each whitened row set in a stack (b, n, d), as
    :func:`mardia_values` gives it for :func:`partial_skewness`."""
    return [_partial(vector) for vector in _mori(z)]


def directional_skewness(data, iterations: int = 50) -> SkewnessReport:
    """Maximum squared skewness over unit-direction projections.

    :func:`mvskew.projection.directional_values` on the whitened rows as a
    stack of one: the square of ``max_skew(data, iterations, 1).skewness[0]``,
    to the bit. No parametric p-value.
    """
    data = as_data_matrix(data)
    require_two_variables("the Directional measure", data.d)
    require_count("iterations", iterations, 1)
    value = directional_values(data.whitening[0][None], iterations)[0]
    return SkewnessReport(measure="directional", value=float(value))
