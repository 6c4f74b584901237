"""Bootstrap distribution, histogram, and p-value for a skewness measure.

For each replicate, ``units`` rows are drawn from the data uniformly with
replacement and the chosen measure is recomputed: each statistic is, to the
bit, the ``value`` of the public measure's report on the resample, whose
parametric p-value is never read. The bootstrap p-value uses the add-one rule
(1 + #{replicate >= observed}) / (replicates + 1), so with R replicates it
is always an integer multiple of 1/(R+1).

Replicate statistics are stored and reported raw (untransformed); for the
Mardia and Directional measures they are nonnegative by construction.

Determinism: row sampling uses numpy's counter-based Philox generator with
one child stream per replicate derived from (seed, replicate index), and
unbiased bounded integers, so identical inputs give bit-identical results
regardless of how replicates are scheduled. Replicates are drawn and
evaluated in blocks of max(1, BLOCK_ELEMENTS // (units * d^2)) resamples.
One stacked pass whitens a block's (block, units, d) resamples and masks
out the singular ones; each measure is one function of the whitened stack
(Directional runs one projection search on the stack's third moments), and
the observed value is that function on the data's cached whitening.
Every value is bit-identical to the measure on its resample alone, so no
value depends on the block size or on where a block starts. The one
exception is a Directional resample whose search stops a restart that
another resample in its block still runs: its value may then differ in the
last bits. A singular resample is redrawn from its own stream, as often as
MAX_REDRAWS allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (PreconditionError, SingularityError, as_data_matrix, require_integers,
                   whiten)
from .measures import mardia_values, partial_values
from .projection import directional_values

__all__ = ["BootstrapResult", "skew_boot", "MEASURES"]

MEASURES = ("Directional", "Partial", "Mardia")

# iteration budget of directional_values when the measure is Directional
DIRECTIONAL_ITERATIONS = 5

# give up on a replicate after this many singular resamples
MAX_REDRAWS = 100

# a block holds max(1, BLOCK_ELEMENTS // (units * d^2)) resamples, so its
# (block, units, d) stack of resampled rows holds at most 2^16 / d floats
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
    redraws: int  # singular resamples drawn and replaced


def _sturges_histogram(values: np.ndarray) -> list[tuple[float, float, int]]:
    bins = int(np.ceil(np.log2(len(values)))) + 1 if len(values) > 1 else 1
    counts, edges = np.histogram(values, bins=bins)
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]))
        for i in range(len(counts))
    ]


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
        Nonnegative RNG seed; identical seeds give bit-identical results.

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
    require_integers(units=units, replicates=replicates)
    minimum = data.d + 1 if measure == "Partial" else data.d
    if units <= minimum:
        raise PreconditionError(
            f"units must be greater than {minimum} for the {measure} "
            f"measure on {data.d} variables, got {units}"
        )
    if replicates < 1:
        raise PreconditionError(f"replicates must be >= 1, got {replicates}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise PreconditionError(f"seed must be a non-negative integer, got {seed}")

    statistic = {
        "Directional": lambda z: directional_values(z, DIRECTIONAL_ITERATIONS),
        "Partial": partial_values,
        "Mardia": mardia_values,
    }[measure]
    observed = statistic(data.whitening[0][None])[0]
    values = np.empty(replicates)
    redraws = 0
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
            z, _, regular = whiten(data.values[rows])
            values[start + pending[regular]] = statistic(z)
            pending = pending[~regular]
            redraws += len(pending)
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
        redraws=redraws,
    )
