"""Invariants of the third-moment routes on generated data.

Samples have d from 2 to 9 variables and n from d + 2 to 199 rows of a
gamma, exponential or squared-normal mix, moved by a shift of up to 1e6 per
column. Hypothesis runs derandomized, so every run draws the same examples.
"""

from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mvskew import cumulant_from_moments, third_moment, transform_third
from mvskew.moments import KINDS

EPS = np.finfo(float).eps

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

DRAWS = {
    "gamma": lambda rng, shape: rng.gamma(1.5, size=shape),
    "exponential": lambda rng, shape: rng.exponential(size=shape),
    "squared-normal": lambda rng, shape: rng.standard_normal(shape) ** 2,
}


@st.composite
def samples(draw) -> np.ndarray:
    """An n x d mix of independent skewed columns, shifted by up to 1e6."""
    d = draw(st.integers(2, 9))
    n = draw(st.integers(d + 2, 199))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = DRAWS[draw(st.sampled_from(sorted(DRAWS)))](rng, (n, d)) @ rng.standard_normal((d, d))
    shift = draw(st.just(0.0) | st.floats(-1.0, 6.0).map(lambda e: 10.0**e))
    return x + shift * rng.uniform(0.5, 1.0, d)


def raw_moments(x: np.ndarray):
    """The raw third moment, raw second moment and mean, all on 1/n."""
    return third_moment(x, "raw"), x.T @ x / len(x), x.mean(axis=0)


def assert_exactly_symmetric(m3) -> None:
    tensor = m3.tensor()
    for axes in permutations(range(3)):
        assert tensor.tobytes() == tensor.transpose(axes).tobytes()


@PROPERTY
@given(x=samples(), k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_every_computed_moment_is_exactly_index_symmetric(x, k, seed):
    for kind in KINDS:
        assert_exactly_symmetric(third_moment(x, kind))
    a = np.random.default_rng(seed).standard_normal((k, x.shape[1]))
    assert_exactly_symmetric(transform_third(third_moment(x, "central"), a))
    assert_exactly_symmetric(cumulant_from_moments(*raw_moments(x)))


@PROPERTY
@given(x=samples())
def test_cumulant_identity_holds_to_its_stated_bound(x):
    # T is the largest sum of the five terms' magnitudes over the entries,
    # t[i,j,h] - M2[i,h] mu_j - mu_i M2[j,h] - M2[i,j] mu_h + 2 mu_i mu_j mu_h
    m3, m2, mu = raw_moments(x)
    i, j, h = (mu.reshape((-1,) + (1,) * (2 - axis)) for axis in range(3))
    terms = (np.abs(m3.tensor()) + np.abs(m2[:, None, :] * j) + np.abs(i * m2)
             + np.abs(m2[:, :, None] * h) + 2.0 * np.abs(i * j * h))
    error = np.abs(cumulant_from_moments(m3, m2, mu).values
                   - third_moment(x, "central").values).max()
    assert error <= 16 * EPS * terms.max()
