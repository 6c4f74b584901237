"""Scalar and vector skewness measures with parametric p-values.

All measures share the 1/n moment convention from :mod:`mvskew.data`.
Parametric p-values assume normal data and a large sample: the Mardia
statistic n*b/6 is chi-square with d(d+1)(d+2)/6 degrees of freedom, the
partial-skewness statistic n*b/(2(d+2)) is chi-square with d degrees of
freedom. Directional skewness has no parametric null here; use the
bootstrap (:mod:`mvskew.bootstrap`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import SingularityError, as_data_matrix
from .moments import third_entries, triple_layout
from .projection import max_skew, require_directional

__all__ = [
    "SkewnessReport",
    "fisher_skew",
    "mardia_skewness",
    "partial_skewness",
    "directional_skewness",
    "chi2_sf",
]


@dataclass(frozen=True)
class SkewnessReport:
    """A measure's value(s) plus, where defined, its test statistic.

    ``value`` is a per-variable vector for the fisher measure and a scalar
    otherwise. ``vector`` carries the Mori-Rohatgi-Szekely vector for the
    partial measure. ``statistic``/``dof``/``pvalue`` are present only for
    the measures with a parametric chi-square null (mardia, partial); the
    p-value is computed on first read, so reading only ``value`` never
    pays for it.
    """

    measure: str
    value: float | np.ndarray
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
    """Upper tail P(chi2_dof >= x) = Q(dof/2, x/2), in closed form.

    With y = x/2, Q = sum_{j<dof/2} e^-y y^j / j! for even dof, and
    Q = erfc(sqrt y) + sum_{j<(dof-1)/2} e^-y y^(j+1/2) / Gamma(j+3/2) for
    odd dof. Each of the dof//2 terms is formed from its logarithm, and
    they are added with ``math.fsum``.
    """
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    if dof <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    if dof != int(dof):
        raise ValueError(f"degrees of freedom must be an integer, got {dof}")
    y = x / 2.0
    if y == 0 or y == math.inf:
        return float(y == 0)
    log_y = math.log(y)
    shift = 0.5 if dof % 2 else 0.0
    head = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    return math.fsum([head] + [
        math.exp((j + shift) * log_y - y - math.lgamma(j + shift + 1.0))
        for j in range(int(dof) // 2)])


def fisher_skew(data) -> np.ndarray:
    """Per-column skewness: third central moment over sigma^3 (1/n weights)."""
    data = as_data_matrix(data)
    centered = data.values - data.values.mean(axis=0)
    squared = centered * centered
    m2 = squared.mean(axis=0)
    if np.any(m2 <= 0):
        bad = data.names[int(np.argmin(m2))]
        raise SingularityError(f"column {bad!r} has zero variance")
    # multiplies, not centered**3, which calls C pow on every entry
    m3 = (squared * centered).mean(axis=0)
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


def mardia_values(z: np.ndarray) -> np.ndarray:
    """Mardia's skewness of each whitened row set in a stack (b, n, d): the
    sum, over the distinct entries of its third moment, of each entry's
    multiplicity times its square.

    numpy sums each slice's contiguous row of terms by itself, so a slice
    has the same value alone as in a stack: for the whitened rows of x,
    ``mardia_skewness(x).value`` to the bit.
    """
    entries = third_entries(z)
    return (triple_layout(z.shape[-1])[1] * entries**2).sum(axis=-1)


def _mori(z: np.ndarray) -> np.ndarray:
    """Mean of (z'z) z over the whitened rows of each row set in a stack (..., n, d)."""
    return ((z**2).sum(axis=-1)[..., None] * z).mean(axis=-2)


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

    Delegates the search to :func:`mvskew.projection.max_skew` and squares
    the attained skewness of the best direction. No parametric p-value.
    """
    data = as_data_matrix(data)
    require_directional(data.d)
    basis = max_skew(data, iterations=iterations, components=1)
    return SkewnessReport(
        measure="directional",
        value=float(basis.skewness[0] ** 2),
    )
