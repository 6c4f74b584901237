import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mvskew import (
    DataMatrix,
    PreconditionError,
    SingularityError,
    directional_skewness,
    mardia_skewness,
    partial_skewness,
    skew_boot,
    third_moment,
)
from mvskew import moments
from mvskew.bootstrap import BLOCK_ELEMENTS, DIRECTIONAL_ITERATIONS, MAX_REDRAWS, MEASURES
from mvskew.measures import mardia_values


# ---------------------------------------------------------------------------
# p-value structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("measure", ["Directional", "Partial", "Mardia"])
def test_pvalue_is_multiple_of_one_over_r_plus_one(iris, measure):
    result = skew_boot(iris, replicates=10, units=11, measure=measure, seed=101)
    fraction = Fraction(result.pvalue).limit_denominator(11)
    assert fraction.denominator in (1, 11)
    assert Fraction(1, 11) <= fraction <= 1


def test_pvalue_bounds(iris):
    result = skew_boot(iris, replicates=4, units=10, measure="Mardia", seed=3)
    assert 1 / 5 <= result.pvalue <= 1.0


# ---------------------------------------------------------------------------
# one definition per statistic
# ---------------------------------------------------------------------------

def _own_value(data, seed, r, units, public):
    """The public value of replicate r's resample and its number of singular
    draws, replayed from the replicate's own stream as skew_boot draws it."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,))))
    for redraws in range(MAX_REDRAWS):
        rows = rng.integers(0, data.n, size=units)
        try:
            return public(DataMatrix(data.values[rows], data.names)).value, redraws
        except SingularityError:
            continue
    return None, MAX_REDRAWS


@pytest.mark.parametrize("measure, public", [
    ("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS)),
    ("Partial", partial_skewness),
    ("Mardia", mardia_skewness),
])
def test_statistics_are_the_public_measure_values(iris, measure, public):
    # two full blocks and a partial third: every replicate, wherever it sits
    # in its block, is the public value on its own resample, to the bit
    units = 150
    block = BLOCK_ELEMENTS // (units * iris.d**2)
    assert block > 1
    replicates = 2 * block + block // 2
    result = skew_boot(iris, replicates=replicates, units=units, measure=measure,
                       seed=5)
    assert result.observed == public(iris).value
    expected = [_own_value(iris, 5, r, units, public)[0] for r in range(replicates)]
    assert result.replicates.tolist() == expected


# four points in general position in the plane: a resample of 3 (Mardia) or
# 4 (Partial) rows is singular when it holds at most two distinct points
SQUARE = DataMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]),
                    ("x1", "x2"))


@pytest.mark.parametrize("measure, public, units", [
    ("Mardia", mardia_skewness, 3),
    ("Partial", partial_skewness, 4),
    ("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS), 3),
])
def test_redrawn_replicates_inside_a_block_keep_their_own_stream(measure, public,
                                                                 units):
    replicates = 12
    assert BLOCK_ELEMENTS // (units * SQUARE.d**2) > replicates  # one block
    result = skew_boot(SQUARE, replicates=replicates, units=units, measure=measure,
                       seed=0)
    own = [_own_value(SQUARE, 0, r, units, public) for r in range(replicates)]
    # redraws happen in the middle of the block, not only at its ends
    assert any(redraws > 0 for _, redraws in own[1:-1])
    assert result.replicates.tolist() == [value for value, _ in own]
    # every singular draw is counted once
    assert result.redraws == sum(redraws for _, redraws in own)


# n = d + 1 = 9 points in 8 variables: a resample is nonsingular only when it
# holds all 9 points, so most replicates stay singular through every redraw
SIMPLEX = np.vstack([np.zeros(8), np.eye(8)])


@pytest.mark.parametrize("measure, public, units, seed", [
    ("Mardia", mardia_skewness, 9, 5),
    ("Partial", partial_skewness, 10, 0),
    ("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS), 9, 5),
])
def test_redraw_limit_names_the_lowest_failing_replicate(measure, public, units,
                                                         seed):
    data = DataMatrix(SIMPLEX, tuple(f"x{j + 1}" for j in range(8)))
    first = 0
    while _own_value(data, seed, first, units, public)[0] is not None:
        first += 1
    assert first > 0  # earlier replicates succeed, some only after redraws
    with pytest.raises(SingularityError) as excinfo:
        skew_boot(data, replicates=first + 4, units=units, measure=measure,
                  seed=seed)
    assert str(excinfo.value) == (f"replicate {first}: resample covariance "
                                  f"still singular after {MAX_REDRAWS} redraws")


def test_directional_replicates_build_no_data_matrix(iris, monkeypatch):
    # resamples are whitened and searched as arrays, like the other measures
    fresh = DataMatrix(iris.values, iris.names)
    built = []
    post_init = DataMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DataMatrix, "__post_init__", counted)
    skew_boot(fresh, replicates=54, units=150, measure="Directional", seed=3)
    assert built == []


def test_stacked_routes_skip_the_symmetry_check(iris, monkeypatch):
    # computed moments are filled exactly symmetric; only the ThirdMomentMatrix
    # constructor runs _canonical, which third_moment still passes through
    calls = []
    canonical = moments._canonical

    def counted(values):
        calls.append(values.shape)
        return canonical(values)

    monkeypatch.setattr(moments, "_canonical", counted)
    fresh = DataMatrix(iris.values, iris.names)
    z = fresh.whitening[0][None]
    moments.moment_stack(z)
    mardia_values(z)
    for measure in MEASURES:
        skew_boot(fresh, replicates=30, units=150, measure=measure, seed=2)
    assert calls == []
    third_moment(fresh, "standardized")
    assert calls == [(16, 4)]


def test_block_memory_stays_small(iris):
    # the block budget bounds the stacked arrays: 2000 replicates peak
    # within 2 MB of one
    def peak(replicates):
        fresh = DataMatrix(iris.values, iris.names)
        tracemalloc.start()
        try:
            skew_boot(fresh, replicates=replicates, units=150, measure="Mardia",
                      seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) - peak(1) < 2e6


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_bit_identical(iris):
    a = skew_boot(iris, replicates=12, units=20, measure="Mardia", seed=7)
    b = skew_boot(iris, replicates=12, units=20, measure="Mardia", seed=7)
    assert np.array_equal(a.replicates, b.replicates)
    assert a.pvalue == b.pvalue
    assert a.histogram == b.histogram
    assert a.observed == b.observed


def test_different_seed_differs(iris):
    a = skew_boot(iris, replicates=12, units=20, measure="Mardia", seed=7)
    b = skew_boot(iris, replicates=12, units=20, measure="Mardia", seed=8)
    assert not np.array_equal(a.replicates, b.replicates)


def test_replicate_streams_independent_of_count(iris):
    # per-replicate streams derive from (seed, index): a longer run must
    # reproduce the shorter run's replicates as a prefix
    short = skew_boot(iris, replicates=5, units=20, measure="Mardia", seed=11)
    long = skew_boot(iris, replicates=9, units=20, measure="Mardia", seed=11)
    assert np.array_equal(long.replicates[:5], short.replicates)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_counts_sum_to_replicates(iris):
    result = skew_boot(iris, replicates=16, units=12, measure="Partial", seed=2)
    assert sum(count for _, _, count in result.histogram) == 16
    lowers = [lo for lo, _, _ in result.histogram]
    uppers = [hi for _, hi, _ in result.histogram]
    assert all(lo < hi for lo, hi in zip(lowers, uppers))
    assert lowers[1:] == uppers[:-1]  # contiguous bins


def test_histogram_sturges_bin_count(iris):
    result = skew_boot(iris, replicates=16, units=12, measure="Mardia", seed=2)
    assert len(result.histogram) == int(np.ceil(np.log2(16))) + 1


# ---------------------------------------------------------------------------
# preconditions and measures
# ---------------------------------------------------------------------------

def test_units_constraint_mardia(iris):
    with pytest.raises(PreconditionError, match="units"):
        skew_boot(iris, replicates=5, units=4, measure="Mardia", seed=0)
    with pytest.raises(PreconditionError, match="^units must be an integer, got 20.5$"):
        skew_boot(iris, replicates=5, units=20.5, measure="Mardia", seed=0)
    skew_boot(iris, replicates=2, units=5, measure="Mardia", seed=0)


def test_units_constraint_partial(iris):
    with pytest.raises(PreconditionError, match="units"):
        skew_boot(iris, replicates=5, units=5, measure="Partial", seed=0)
    with pytest.raises(PreconditionError, match="^units must be an integer, got True$"):
        skew_boot(iris, replicates=5, units=True, measure="Partial", seed=0)
    skew_boot(iris, replicates=2, units=6, measure="Partial", seed=0)
    skew_boot(iris, replicates=np.int64(2), units=np.int64(6), measure="Partial",
              seed=np.uint8(0))


def test_replicates_constraint(iris):
    with pytest.raises(PreconditionError, match="replicates"):
        skew_boot(iris, replicates=0, units=11, measure="Mardia", seed=0)
    with pytest.raises(PreconditionError, match="^replicates must be an integer, got 2.5$"):
        skew_boot(iris, replicates=2.5, units=20, measure="Mardia", seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_seed_must_be_a_nonnegative_integer(iris, seed):
    with pytest.raises(PreconditionError,
                       match=f"^seed must be a non-negative integer, got {seed}$"):
        skew_boot(iris, replicates=2, units=11, measure="Mardia", seed=seed)


def test_unknown_measure(iris):
    with pytest.raises(PreconditionError, match="measure"):
        skew_boot(iris, replicates=2, units=11, measure="Kurtosis", seed=0)


def test_directional_needs_two_variables(iris):
    one_column = iris.values[:, :1]
    with pytest.raises(PreconditionError,
                       match="Directional measure needs at least 2 variables, got 1"):
        skew_boot(one_column, replicates=2, units=5, measure="Directional", seed=0)


def test_measure_case_insensitive(iris):
    result = skew_boot(iris, replicates=2, units=11, measure="mardia", seed=0)
    assert result.measure == "Mardia"


def test_units_may_exceed_n(iris):
    result = skew_boot(iris, replicates=3, units=200, measure="Mardia", seed=5)
    assert len(result.replicates) == 3


def test_replicates_nonnegative(iris):
    for measure in ("Mardia", "Directional"):
        result = skew_boot(iris, replicates=6, units=15, measure=measure, seed=4)
        assert np.all(result.replicates >= 0)
        assert result.observed >= 0


def test_singular_resamples_are_redrawn():
    # univariate data with few distinct values: many resamples are constant
    # and must be silently redrawn from the same replicate stream
    data = np.array([[0.0], [0.0], [0.0], [1.0]])
    result = skew_boot(data, replicates=20, units=2, measure="Mardia", seed=1)
    assert len(result.replicates) == 20
    assert np.all(np.isfinite(result.replicates))


def test_observed_matches_direct_measure(iris):
    result = skew_boot(iris, replicates=2, units=20, measure="Mardia", seed=0)
    assert result.observed == mardia_skewness(iris).value


def test_iris_mardia_bootstrap_distribution(iris):
    # resampling from skewed data reproduces the statistic with upward
    # small-sample bias: the bootstrap distribution at units=n sits at or
    # above the observed value, never far below it
    result = skew_boot(iris, replicates=200, units=150, measure="Mardia", seed=13)
    assert result.observed == pytest.approx(mardia_skewness(iris).value)
    assert np.percentile(result.replicates, 1) > 0.8 * result.observed
    assert np.median(result.replicates) < 2.0 * result.observed
    scaled = result.pvalue * 201
    assert abs(scaled - round(scaled)) < 1e-6
