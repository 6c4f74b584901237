"""Bootstrap distribution, histogram, and p-value for a skewness measure.

For each replicate, ``units`` rows are drawn from the data uniformly with
replacement, and its statistic is, to the bit, the raw ``value`` of the
public measure's report on the resample. The add-one bootstrap p-value
(1 + #{replicate >= observed}) / (replicates + 1) is a multiple of
1/(replicates + 1).

Determinism: rows come from numpy's counter-based Philox generator, laid
out as in Salmon et al., SC'11. With s = ceil(units / 4), replicate r reads
4s doubles u from counter step r*s under the key of SeedSequence(seed,
spawn_key=(attempt,)); its rows are floor(n*u) over the first ``units`` of
them, relatively biased by at most n*2^-53 and never n. A singular resample
is redrawn from the same counter steps under the next attempt's key, for up
to MAX_REDRAWS attempts. So a block of max(1, BLOCK_ELEMENTS // (units *
d(d+1)/2)) replicates is one draw and no row depends on the block size.
A block's resamples are whitened and measured as one stack. Every
value is bit-identical to the measure on its resample alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PreconditionError, SingularityError, as_data_matrix, require_count, whiten
from .measures import mardia_values, partial_values
from .projection import directional_values, require_two_variables

__all__ = ["BootstrapResult", "skew_boot", "MEASURES"]

MEASURES = ("Directional", "Partial", "Mardia")

# iteration budget of directional_values when the measure is Directional
DIRECTIONAL_ITERATIONS = 5

# give up on a replicate after this many singular resamples
MAX_REDRAWS = 100

# a block holds max(1, BLOCK_ELEMENTS // (units * d(d+1)/2)) resamples: the
# array of d(d+1)/2 pair products per row that moments.moment_stack forms for
# a block of more than one resample holds at most 2^16 floats (512 KB)
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
    if measure == "Directional":
        require_two_variables("the Directional measure", data.d)
    require_count(f"units for the {measure} measure on {data.d} variables", units,
                  data.d + (2 if measure == "Partial" else 1))
    require_count("replicates", replicates, 1)
    require_count("seed", seed, 0)

    statistic = {
        "Directional": lambda z: directional_values(z, DIRECTIONAL_ITERATIONS),
        "Partial": partial_values,
        "Mardia": mardia_values,
    }[measure]
    observed = statistic(data.whitening[0][None])[0]
    values = np.empty(replicates)
    redraws = 0
    steps = -(-int(units) // 4)  # Philox counter steps per replicate, 4 doubles each
    size = max(1, BLOCK_ELEMENTS // (units * (data.d * (data.d + 1) // 2)))
    for start in range(0, replicates, size):
        pending = np.arange(start, min(start + size, replicates))  # no value yet
        for attempt in range(MAX_REDRAWS):
            first = int(pending[0])
            # a fresh Philox at the block's first step: no block depends on the one before
            key = np.random.SeedSequence(seed, spawn_key=(attempt,)).generate_state(2, np.uint64)
            generator = np.random.Generator(np.random.Philox(key=key, counter=first * steps))
            u = generator.random((int(pending[-1]) + 1 - first, 4 * steps))
            # the draws and row indices are freed before the statistic: with
            # them alive, a block's heap peak neared glibc's trim threshold,
            # and some runs gave the heap back and refaulted it every block
            z, _, regular = whiten(
                data.values[(data.n * u[pending - first, :units]).astype(np.intp)])
            del u
            values[pending[regular]] = statistic(z)
            pending = pending[~regular]
            redraws += len(pending)
            if not len(pending):
                break
        else:
            raise SingularityError(
                f"replicate {pending[0]}: resample covariance still "
                f"singular after {MAX_REDRAWS} redraws"
            )

    pvalue = (1 + int(np.count_nonzero(values >= observed))) / (replicates + 1)
    return BootstrapResult(replicates=values, observed=observed, pvalue=pvalue,
                           histogram=_sturges_histogram(values), measure=measure,
                           seed=seed, redraws=redraws)
