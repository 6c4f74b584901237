"""Bootstrap distribution, histogram, and p-value for a skewness measure.

For each replicate, ``units`` rows are drawn from the data uniformly with
replacement and the chosen measure is recomputed: each statistic is the
``value`` of the public measure's report, whose parametric p-value is never
read. The bootstrap p-value uses the add-one rule
(1 + #{replicate >= observed}) / (replicates + 1), so with R replicates it
is always an integer multiple of 1/(R+1).

Replicate statistics are stored and reported raw (untransformed); for the
Mardia and Directional measures they are nonnegative by construction.

Determinism: row sampling uses numpy's counter-based Philox generator with
one child stream per replicate derived from (seed, replicate index), and
unbiased bounded integers, so identical inputs give bit-identical results
regardless of how replicates are scheduled. Replicates are drawn and
evaluated in blocks of max(1, BLOCK_ELEMENTS // (units * d^2)) resamples:
the Mardia and Partial statistics of a block come from one stacked pass
over its (block, units, d) resamples, the Directional one from a search per
resample. Each value is bit-identical to the measure evaluated on its
resample alone, so no value depends on the block size or on where a block
starts. A singular resample is redrawn from its own stream, as often as
MAX_REDRAWS allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PreconditionError, SingularityError, as_data_matrix
from .measures import (
    directional_skewness,
    mardia_skewness,
    mardia_values,
    partial_skewness,
    partial_values,
)

__all__ = ["BootstrapResult", "skew_boot", "MEASURES"]

MEASURES = ("Directional", "Partial", "Mardia")

# iteration budget handed to max_skew when the measure is Directional
DIRECTIONAL_ITERATIONS = 5

# give up on a replicate after this many singular resamples
MAX_REDRAWS = 100

# resamples per block times units * d^2: a block's (block, units, d^2) array
# of pairwise products holds at most 2^16 floats (512 KiB)
BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate statistics, observed statistic, p-value, and histogram."""

    replicates: np.ndarray
    observed: float
    pvalue: float
    histogram: list[tuple[float, float, int]]
    measure: str
    seed: int


def _sturges_histogram(values: np.ndarray) -> list[tuple[float, float, int]]:
    bins = int(np.ceil(np.log2(len(values)))) + 1 if len(values) > 1 else 1
    counts, edges = np.histogram(values, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


def _directional_values(stack: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Directional skewness of each nonsingular row set in a stack, one
    search per set, with the boolean mask of the nonsingular sets."""
    values, regular = [], np.ones(len(stack), dtype=bool)
    for k, rows in enumerate(stack):
        try:
            values.append(directional_skewness(rows, DIRECTIONAL_ITERATIONS).value)
        except SingularityError:
            regular[k] = False
    return values, regular


def skew_boot(data, replicates: int, units: int, measure: str, seed: int = 0) -> BootstrapResult:
    """Bootstrap test for a multivariate skewness measure.

    Parameters
    ----------
    data : DataMatrix or array-like
        n x d observations.
    replicates : int
        Number of bootstrap replicates (>= 1).
    units : int
        Rows per resample (with replacement). Must exceed the number of
        variables for Directional/Mardia and the number of variables plus
        one for Partial; it may be smaller or larger than n.
    measure : {'Directional', 'Partial', 'Mardia'}
        Statistic to bootstrap. Directional uses the projection search with
        its iteration budget fixed at 5.
    seed : int
        RNG seed; identical seeds give bit-identical results.

    Returns
    -------
    BootstrapResult
        With p-value (1 + #{replicate >= observed}) / (replicates + 1) and
        a Sturges-binned histogram of the replicate statistics.
    """
    data = as_data_matrix(data)
    canonical = {name.lower(): name for name in MEASURES}
    try:
        measure = canonical[str(measure).lower()]
    except KeyError:
        raise PreconditionError(
            f"measure must be one of {MEASURES}, got {measure!r}"
        ) from None
    if measure == "Directional" and data.d < 2:
        raise PreconditionError(
            f"the Directional measure needs at least 2 variables, got {data.d}"
        )
    minimum = data.d + 1 if measure == "Partial" else data.d
    if units <= minimum:
        raise PreconditionError(
            f"units must be greater than {minimum} for the {measure} "
            f"measure on {data.d} variables, got {units}"
        )
    if replicates < 1:
        raise PreconditionError(f"replicates must be >= 1, got {replicates}")

    report, evaluate = {
        "Directional": (lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS),
                        _directional_values),
        "Partial": (partial_skewness, partial_values),
        "Mardia": (mardia_skewness, mardia_values),
    }[measure]
    observed = report(data).value
    values = np.empty(replicates)
    size = max(1, BLOCK_ELEMENTS // (units * data.d**2))
    for start in range(0, replicates, size):
        streams = [
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence(entropy=seed, spawn_key=(r,))))
            for r in range(start, min(start + size, replicates))
        ]
        pending = np.arange(len(streams))  # block positions without a value yet
        for _ in range(MAX_REDRAWS):
            rows = np.stack([streams[k].integers(0, data.n, size=units) for k in pending])
            found, regular = evaluate(data.values[rows])
            values[start + pending[regular]] = found
            pending = pending[~regular]
            if not len(pending):
                break
        else:
            raise SingularityError(
                f"replicate {start + pending[0]}: resample covariance still "
                f"singular after {MAX_REDRAWS} redraws"
            )

    exceed = int(np.count_nonzero(values >= observed))
    pvalue = (1 + exceed) / (replicates + 1)
    return BootstrapResult(
        replicates=values,
        observed=observed,
        pvalue=pvalue,
        histogram=_sturges_histogram(values),
        measure=measure,
        seed=seed,
    )
