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
from mvskew import bootstrap, measures, moments
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
    draws, replayed from the counter layout skew_boot draws from: attempt a
    reads replicate r's ceil(units / 4) Philox counter steps under the key of
    (seed, a), and rows are floor(n * u)."""
    steps = -(-units // 4)
    for redraws in range(MAX_REDRAWS):
        bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(redraws,)))
        bits.advance(r * steps)
        rows = np.floor(data.n * np.random.Generator(bits).random(units)).astype(int)
        try:
            return public(DataMatrix(data.values[rows], data.names)).value, redraws
        except SingularityError:
            continue
    return None, MAX_REDRAWS


# seeded gamma-mixed 400 x 16: a resample of 60 rows takes Mardia's Gram route
# (4 * 60 <= 16^2), and a block holds 2^16 // (60 * 16) = 68 of them
GAMMA16 = DataMatrix(np.random.default_rng(16).gamma(2.0, size=(400, 16))
                     @ np.random.default_rng(17).standard_normal((16, 16)),
                     tuple(f"x{i}" for i in range(16)))


@pytest.mark.parametrize("measure, public, dataset, units", [
    pytest.param("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS),
                 "iris", 150, id="Directional-<lambda>"),
    pytest.param("Partial", partial_skewness, "iris", 150, id="Partial-partial_skewness"),
    pytest.param("Mardia", mardia_skewness, "iris", 150, id="Mardia-mardia_skewness"),
    pytest.param("Mardia", mardia_skewness, "gamma16", 60, id="Mardia-gram-route"),
])
def test_statistics_are_the_public_measure_values(iris, measure, public, dataset, units):
    # two full blocks and a partial third: every replicate, wherever it sits
    # in its block, is the public value on its own resample, to the bit
    data = GAMMA16 if dataset == "gamma16" else iris
    if data is GAMMA16:
        assert measures.gram_route(units, data.d)
    block = BLOCK_ELEMENTS // bootstrap._resample_elements(measure, units, data.d)
    assert block > 1
    replicates = 2 * block + block // 2
    result = skew_boot(data, replicates=replicates, units=units, measure=measure,
                       seed=5)
    assert result.observed == public(data).value
    expected = [_own_value(data, 5, r, units, public)[0] for r in range(replicates)]
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
    assert BLOCK_ELEMENTS // bootstrap._resample_elements(measure, units, SQUARE.d) > replicates
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


@pytest.mark.parametrize("measure, public, units, scan_from", [
    ("Mardia", mardia_skewness, 9, 5),
    ("Partial", partial_skewness, 10, 0),
    ("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS), 9, 5),
])
def test_redraw_limit_names_the_lowest_failing_replicate(measure, public, units,
                                                         scan_from):
    data = DataMatrix(SIMPLEX, tuple(f"x{j + 1}" for j in range(8)))
    # the first seed from scan_from on whose replicate 0 succeeds, so that the
    # failing replicate is not the first whatever the stream layout
    seed = scan_from
    while _own_value(data, seed, 0, units, public)[0] is None:
        seed += 1
    first = 0
    while _own_value(data, seed, first, units, public)[0] is not None:
        first += 1
    assert first > 0  # earlier replicates succeed, some only after redraws
    with pytest.raises(SingularityError) as excinfo:
        skew_boot(data, replicates=first + 4, units=units, measure=measure,
                  seed=seed)
    assert str(excinfo.value) == (f"replicate {first}: resample covariance "
                                  f"still singular after {MAX_REDRAWS} redraws")


@pytest.mark.parametrize("dataset, measure", [(dataset, measure) for dataset in ("iris", "square")
                                              for measure in MEASURES]
                         + [("gamma16", "Mardia")])
def test_results_do_not_depend_on_the_block_size(iris, monkeypatch, measure, dataset):
    # the default blocks (43 iris resamples; all 60 on SQUARE and, on Mardia's
    # Gram route, on GAMMA16) and blocks of 1, 7, 27 and 500 resamples draw
    # the same rows; on SQUARE, at d + 1 (Mardia, Directional) or d + 2
    # (Partial) units, they also redraw the same ones, so every result field
    # is the same
    data = {"iris": iris, "square": SQUARE, "gamma16": GAMMA16}[dataset]
    units = {"iris": 150, "gamma16": 60}.get(
        dataset, data.d + (2 if measure == "Partial" else 1))
    results = [skew_boot(data, replicates=60, units=units, measure=measure, seed=9)]
    per_resample = bootstrap._resample_elements(measure, units, data.d)
    for block in (1, 7, 27, 500):
        monkeypatch.setattr(bootstrap, "BLOCK_ELEMENTS", block * per_resample)
        results.append(skew_boot(data, replicates=60, units=units, measure=measure,
                                 seed=9))
    for result in results[1:]:
        assert result.replicates.tobytes() == results[0].replicates.tobytes()
        assert result.redraws == results[0].redraws
        assert result.pvalue == results[0].pvalue
        assert result.histogram == results[0].histogram
    assert (results[0].redraws > 0) == (dataset == "square")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 150, 2**31 - 1, 2**52 + 1])
def test_row_index_stays_below_n(n):
    # random() returns at most 1 - 2^-53, so floor(n * u) never indexes row n
    largest = np.nextafter(1.0, 0.0)
    assert largest == 1 - 2**-53
    assert int(np.floor(n * np.array([largest]))[0]) < n
    assert (n * np.array([largest])).astype(np.intp)[0] < n


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


# seeded gamma-mixed 2000 x 32: one resample of 200 rows has 528 x 200 pair
# products, more than BLOCK_ELEMENTS, so a block holds one resample
WIDE = DataMatrix(np.random.default_rng(32).gamma(2.0, size=(2000, 32))
                  @ np.random.default_rng(33).standard_normal((32, 32)),
                  tuple(f"x{i}" for i in range(32)))


@pytest.mark.parametrize("measure, public", [
    ("Directional", lambda x: directional_skewness(x, DIRECTIONAL_ITERATIONS)),
    ("Partial", partial_skewness),
    ("Mardia", mardia_skewness),
])
def test_a_wide_block_stays_within_the_block_budget(measure, public):
    # eight replicates in one-resample blocks peak within BLOCK_ELEMENTS
    # doubles of the measure on the whole sample; a Directional block of two
    # resamples would hold 2 * 528 * 200 pair products, over 3 * BLOCK_ELEMENTS
    def peak(run):
        run()  # layouts and the whitening are cached before tracing
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    boot = peak(lambda: skew_boot(WIDE, replicates=8, units=200, measure=measure, seed=1))
    assert boot - peak(lambda: public(WIDE)) <= BLOCK_ELEMENTS * WIDE.values.itemsize


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
    # replicate r's rows sit at fixed counter steps of the (seed, attempt)
    # keys: a longer run must reproduce the shorter run's replicates as a prefix
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
    units = "units for the Mardia measure on 4 variables"
    with pytest.raises(PreconditionError, match=f"^{units} must be >= 5, got 4$"):
        skew_boot(iris, replicates=5, units=4, measure="Mardia", seed=0)
    with pytest.raises(PreconditionError, match=f"^{units} must be an integer, got 20.5$"):
        skew_boot(iris, replicates=5, units=20.5, measure="Mardia", seed=0)
    skew_boot(iris, replicates=2, units=5, measure="Mardia", seed=0)


def test_units_constraint_partial(iris):
    units = "units for the Partial measure on 4 variables"
    with pytest.raises(PreconditionError, match=f"^{units} must be >= 6, got 5$"):
        skew_boot(iris, replicates=5, units=5, measure="Partial", seed=0)
    with pytest.raises(PreconditionError, match=f"^{units} must be an integer, got True$"):
        skew_boot(iris, replicates=5, units=True, measure="Partial", seed=0)
    skew_boot(iris, replicates=2, units=6, measure="Partial", seed=0)
    skew_boot(iris, replicates=np.int64(2), units=np.int64(6), measure="Partial",
              seed=np.uint8(0))
    skew_boot(iris, replicates=np.int64(2), units=np.int64(7), measure="Partial",
              seed=np.uint8(0))


def test_replicates_constraint(iris):
    with pytest.raises(PreconditionError, match="^replicates must be >= 1, got 0$"):
        skew_boot(iris, replicates=0, units=11, measure="Mardia", seed=0)
    with pytest.raises(PreconditionError, match="^replicates must be an integer, got 2.5$"):
        skew_boot(iris, replicates=2.5, units=20, measure="Mardia", seed=0)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
], ids=["-1", "1.5", "True"])
def test_seed_must_be_a_nonnegative_integer(iris, seed, message):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        skew_boot(iris, replicates=2, units=11, measure="Mardia", seed=seed)


def test_unknown_measure(iris):
    with pytest.raises(PreconditionError, match="measure"):
        skew_boot(iris, replicates=2, units=11, measure="Kurtosis", seed=0)


def test_directional_needs_two_variables(iris):
    one_column = iris.values[:, :1]
    with pytest.raises(PreconditionError,
                       match="Directional measure needs at least 2 variables, got 1"):
        skew_boot(one_column, replicates=2, units=5, measure="Directional", seed=0)


def test_directional_measure_needs_two_variables(iris):
    # the same precondition as the bootstrap's, not max_skew's components
    with pytest.raises(PreconditionError,
                       match="^the Directional measure needs at least 2 variables, got 1$"):
        directional_skewness(iris.values[:, :1])


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
    # and must be silently redrawn from the replicate's counter steps
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
