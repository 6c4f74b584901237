import re
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mvskew import (
    DataError,
    DataMatrix,
    PreconditionError,
    ThirdMomentMatrix,
    block,
    cumulant_from_moments,
    load_csv,
    load_third_moment,
    save_third_moment,
    standardize,
    third_moment,
    transform_third,
)
from mvskew.measures import mardia_values
from mvskew.moments import (
    SYMMETRY_RTOL,
    _block_rows,
    moment_stack,
    pair_layout,
    pair_products,
    triple_layout,
)


def pooled_with_reflection(values: np.ndarray) -> np.ndarray:
    """A sample unioned with its reflection through its mean: centrally symmetric."""
    mu = values.mean(axis=0)
    return np.vstack([values, 2 * mu - values])


# ---------------------------------------------------------------------------
# construction and paper-anchored corner values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,first,last", [
    ("raw", 211.6333, 3.7570),
    ("central", 0.1752, -0.0447),
    ("standardized", 0.2988, 0.8259),
])
def test_iris_corner_entries(iris, kind, first, last):
    # reference: R MultiSkew::Third(iris.m[,1:4], type) console listing
    m3 = third_moment(iris, kind)
    assert m3.values.shape == (16, 4)
    assert abs(m3.values[0, 0] - first) < 5e-4
    assert abs(m3.values[15, 3] - last) < 5e-4


def test_central_third_moment_of_pooled_reflection_is_null(iris):
    pooled = pooled_with_reflection(iris.values)
    m3 = third_moment(pooled, "central")
    assert np.abs(m3.values).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_permutation_symmetry_exact(d):
    rng = np.random.default_rng(d)
    data = rng.gamma(2.0, size=(40, d))  # skewed on purpose
    tensor = third_moment(data, "central").tensor()
    for i in range(d):
        for j in range(d):
            for h in range(d):
                reference = tensor[i, j, h]
                for perm in permutations((i, j, h)):
                    assert tensor[perm] == reference  # exact, not approximate


def test_summation_order_stability(iris):
    # row order must not change the result beyond 1e-13
    forward = third_moment(iris, "central").values
    backward = third_moment(iris.values[::-1], "central").values
    assert np.abs(forward - backward).max() < 1e-13


def test_rejects_asymmetric_matrix():
    values = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DataError, match="symmetry"):
        ThirdMomentMatrix(values, "raw")


def test_canonical_keeps_the_sorted_index_value():
    # each entry takes the value at its sorted index triple, also when the
    # input is only symmetric to within SYMMETRY_RTOL
    d = 5
    rng = np.random.default_rng(5)
    symmetric = third_moment(rng.gamma(1.5, size=(40, d)), "central").tensor()
    v = symmetric * (1 + 0.1 * SYMMETRY_RTOL * rng.uniform(-1, 1, symmetric.shape))
    expected = np.empty_like(v)
    for idx in np.ndindex(v.shape):
        expected[idx] = v[tuple(sorted(idx))]
    assert np.array_equal(ThirdMomentMatrix(v.reshape(d * d, d), "raw").tensor(),
                          expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rejects_empty_matrix():
    with pytest.raises(DataError, match=r"d >= 1, got \(0, 0\)"):
        ThirdMomentMatrix(np.zeros((0, 0)), "raw")


def test_standardized_equals_raw_of_standardized(iris):
    direct = third_moment(iris, "standardized")
    via_raw = third_moment(standardize(iris), "raw")
    assert np.abs(direct.values - via_raw.values).max() < 1e-10


# ---------------------------------------------------------------------------
# the row-blocked kernel: blocks of max(256, 2^16 // (d(d+1)/2)) rows, 1820
# at d = 8 and 256 at d = 32
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("n,d", [(100, 8), (256, 8), (600, 8), (1820, 8), (4000, 8),
                                 (64, 32), (130, 32), (256, 32), (600, 32), (7, 1)])
def test_third_products_match_einsum(stack, n, d):
    # n below, equal to and not a multiple of the block size
    rows = np.random.default_rng(n * d).gamma(2.0, size=(*stack, n, d))
    reference = np.einsum("...ni,...nj,...nh->...ijh", rows, rows, rows) / n
    products = moment_stack(rows)
    assert products.shape == (*stack, d * d, d)
    scale = np.abs(reference).max()
    assert np.abs(products - reference.reshape(products.shape)).max() <= 1e-13 * scale


def test_third_products_of_a_stack_slice_match_the_slice_alone():
    rows = np.random.default_rng(4).gamma(2.0, size=(3, 4000, 8))  # 3 blocks each
    assert 2 * _block_rows(8) < 4000 < 3 * _block_rows(8)
    stacked = moment_stack(rows)
    for k in range(len(rows)):
        assert np.array_equal(stacked[k], moment_stack(rows[k]))


def test_third_moment_never_holds_the_pair_array():
    # the n x d^2 array of pairwise products of 50 000 x 8 data is 25.6 MB
    data = DataMatrix(np.random.default_rng(5).gamma(2.0, size=(50_000, 8)),
                      tuple(f"x{j + 1}" for j in range(8)))
    tracemalloc.start()
    try:
        third_moment(data, "raw")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_a_bootstrap_block_holds_one_pair_array():
    # a block of 27 iris-sized resamples: the copy of its columns, one pair
    # array written in place, a ufunc buffer of np.getbufsize() doubles for
    # the broadcast column, and the d^3 fill and its pair sums; no gathered
    # copy
    rows = np.random.default_rng(6).standard_normal((27, 150, 4))
    stack, n, d = rows.shape
    moment_stack(rows)  # the layouts are cached before tracing
    tracemalloc.start()
    try:
        moment_stack(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pairs = stack * d * (d + 1) // 2 * n
    assert peak <= rows.itemsize * (pairs + rows.size + np.getbufsize() + 2 * stack * d**3)


# ---------------------------------------------------------------------------
# the pair sums and the one map that fills every slot from them
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stack", [(), (3,)])
@pytest.mark.parametrize("d", [1, 4, 8, 32])
@pytest.mark.parametrize("blocks", [0.5, 1, 2.3], ids=["below", "at", "past"])
def test_mardia_from_distinct_entries_matches_the_full_sum(stack, d, blocks):
    n = int(blocks * _block_rows(d))
    rows = np.random.default_rng(n + d).gamma(2.0, size=(*stack, n, d))
    moment = np.einsum("...ni,...nj,...nh->...ijh", rows, rows, rows) / n
    reference = (moment**2).sum(axis=(-3, -2, -1))
    values = mardia_values(rows)
    assert values.shape == stack
    assert np.all(np.abs(values - reference) <= 1e-13 * reference)


@pytest.mark.parametrize("d", range(1, 10))
def test_layouts_are_those_of_plain_loops(d):
    pairs = {(i, j): k for k, (i, j) in
             enumerate((i, j) for i in range(d) for j in range(i, d))}
    first, second, slot = pair_layout(d)
    assert list(zip(first.tolist(), second.tolist())) == list(pairs)
    assert slot.tolist() == [pairs[min(i, j), max(i, j)] for i in range(d) for j in range(d)]

    position = triple_layout(d)
    assert position.tolist() == [pairs[t[0], t[1]] * d + t[2]
                                 for t in (sorted((i, j, h)) for i in range(d)
                                           for j in range(d) for h in range(d))]
    assert [a.dtype for a in (first, second, slot, position)] == [np.dtype(np.intp)] * 4


@pytest.mark.parametrize("d", [1, 2, 3, 8, 32])
def test_pair_products_are_the_gathered_products(d):
    # written in place, in pair_layout's order, to the bit of the products of
    # the gathered columns, for a stack of strided blocks
    rows = np.random.default_rng(d).standard_normal((3, 2 * 70, d))[:, ::2]
    first, second, _ = pair_layout(d)
    gathered = np.swapaxes(rows[..., first] * rows[..., second], -1, -2)
    assert np.array_equal(pair_products(rows), gathered)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 32])
def test_triple_weights_count_the_slots(d):
    # the d^3 slots read d(d+1)(d+2)/6 distinct cells of the pair sums, each
    # as often as its triple has distinct orderings: 1, 3 or 6 times
    cells, reads = np.unique(triple_layout(d), return_counts=True)
    assert cells.size == d * (d + 1) * (d + 2) // 6
    assert set(reads.tolist()) <= {1, 3, 6}
    assert reads.sum() == d**3


@pytest.mark.parametrize("d", [3, 8, 32])
def test_fill_is_exactly_index_symmetric(d):
    rows = np.random.default_rng(d).gamma(1.5, size=(2, 70, d))
    tensors = moment_stack(rows).reshape(2, d, d, d)
    for axes in permutations((1, 2, 3)):
        assert np.array_equal(tensors.transpose(0, *axes), tensors)
    # the constructor's canonical map leaves a filled moment's bits alone
    assert np.array_equal(ThirdMomentMatrix(moment_stack(rows[0]), "raw").values,
                          moment_stack(rows[0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_empty_stack_gives_empty_results():
    # a bootstrap block whose resamples are all singular whitens to (0, n, d)
    rows = np.empty((0, 10, 3))
    assert moment_stack(rows).shape == (0, 9, 3)
    assert mardia_values(rows).shape == (0,)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def test_block_univariate():
    data = np.array([[1.0], [2.0], [4.0]])
    m3 = third_moment(data, "raw")
    expected = (1.0 + 8.0 + 64.0) / 3.0
    assert_allclose(block(m3, 1), [[expected]])


def test_block_iris_raw(iris):
    b1 = block(third_moment(iris, "raw"), 1)
    assert b1.shape == (4, 4)
    assert abs(b1[0, 0] - 211.6333) < 5e-4
    assert np.array_equal(b1, b1.T)


def test_block_cross_symmetry(iris):
    m3 = third_moment(iris, "central")
    for i in range(1, 5):
        for j in range(1, 5):
            assert np.array_equal(block(m3, i)[j - 1], block(m3, j)[i - 1])


def test_block_out_of_range(iris):
    m3 = third_moment(iris, "raw")
    with pytest.raises(PreconditionError, match="^i must be from 1 to 4, got 0$"):
        block(m3, 0)
    with pytest.raises(PreconditionError, match="^i must be from 1 to 4, got 5$"):
        block(m3, 5)
    # an index is an int or a numpy integer, never a bool
    assert np.array_equal(block(m3, np.int64(2)), block(m3, 2))
    for index in (True, np.True_, 1.5, 2.0, "2", None):
        with pytest.raises(PreconditionError, match="^i must be an integer, got "):
            block(m3, index)


@pytest.mark.parametrize("shape", [(4,), (1, 1, 1)])
def test_rejects_a_matrix_that_is_not_2d(shape):
    with pytest.raises(DataError, match=r"^expected a 2-d array$"):
        ThirdMomentMatrix(np.ones(shape), "raw")


def test_third_moment_refuses_an_unknown_kind(iris):
    with pytest.raises(PreconditionError, match=r"^kind must be one of .*, got 'bogus'$"):
        third_moment(iris, "bogus")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["raw", "central"])
def test_third_moment_names_the_column_whose_moments_overflow(kind):
    # only m[3,3,3] passes a double, so the named column is the data's own
    x = np.random.default_rng(0).gamma(2, size=(50, 3)) * [1, 1, 1e110]
    message = "the moments of column 3 overflow a double; rescale the column"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        third_moment(x, kind)


# ---------------------------------------------------------------------------
# cumulant identity
# ---------------------------------------------------------------------------

def test_cumulant_identity_zero_mean():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((60, 3)) ** 3
    data -= data.mean(axis=0)  # exactly mean-centered input
    m3 = third_moment(data, "raw")
    m2 = data.T @ data / len(data)
    out = cumulant_from_moments(m3, m2, np.zeros(3))
    assert np.abs(out.values - m3.values).max() < 1e-12


def test_cumulant_identity_matches_central_path(iris):
    m3 = third_moment(iris, "raw")
    m2 = iris.values.T @ iris.values / iris.n
    out = cumulant_from_moments(m3, m2, iris.values.mean(axis=0))
    expected = third_moment(iris, "central")
    assert np.abs(out.values - expected.values).max() < 1e-10
    assert out.kind == "central"


def test_cumulant_identity_symmetric_univariate():
    data = np.array([[0.0], [1.0], [2.0]])
    m3 = third_moment(data, "raw")
    m2 = data.T @ data / 3
    out = cumulant_from_moments(m3, m2, data.mean(axis=0))
    assert np.abs(out.values).max() < 1e-14


def test_cumulant_identity_requires_raw(iris):
    central = third_moment(iris, "central")
    with pytest.raises(DataError, match="raw"):
        cumulant_from_moments(central, np.eye(4), np.zeros(4))


@pytest.mark.parametrize("m2, mu, message", [
    (np.eye(3), np.zeros(4), r"second moment shape \(3, 3\) does not match d=4"),
    (np.ones(16), np.zeros(4), r"second moment shape \(16,\) does not match d=4"),
    (np.eye(4), np.zeros(3), r"mean length 3 does not match d=4"),
    (np.eye(4), np.zeros(8), r"mean length 8 does not match d=4"),
])
def test_cumulant_identity_checks_the_moment_shapes(iris, m2, mu, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        cumulant_from_moments(third_moment(iris, "raw"), m2, mu)


# ---------------------------------------------------------------------------
# transform_third
# ---------------------------------------------------------------------------

def test_transform_identity(iris):
    m3 = third_moment(iris, "central")
    out = transform_third(m3, np.eye(4))
    assert np.abs(out.values - m3.values).max() < 1e-12
    assert out.kind == "central"


def test_transform_single_direction(iris):
    m3 = third_moment(iris, "central")
    c = np.array([0.5, 0.5, 0.5, 0.5])
    out = transform_third(m3, c.reshape(1, -1))
    expected = np.kron(c, c) @ m3.values @ c
    assert out.values.shape == (1, 1)
    assert_allclose(out.values[0, 0], expected, atol=1e-12)
    # two-path: third central moment of the explicitly projected data
    centered = iris.values - iris.values.mean(axis=0)
    projected = centered @ c
    assert_allclose(out.values[0, 0], (projected**3).mean(), atol=1e-10)


def test_transform_matches_projected_data(iris):
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 4))
    via_transform = transform_third(third_moment(iris, "central"), a)
    via_projection = third_moment(iris.values @ a.T, "central")
    assert np.abs(via_transform.values - via_projection.values).max() < 1e-10


def test_transform_functoriality(iris):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 4))
    c = rng.standard_normal((2, 3))
    m3 = third_moment(iris, "central")
    two_steps = transform_third(transform_third(m3, a), c)
    one_step = transform_third(m3, c @ a)
    assert np.abs(two_steps.values - one_step.values).max() < 1e-10


def test_transform_kind_handling(iris):
    m3z = third_moment(iris, "standardized")
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 2)))[0].T
    assert transform_third(m3z, q).kind == "standardized"
    assert transform_third(m3z, 2.0 * q).kind == "central"


def test_transform_dimension_mismatch(iris):
    with pytest.raises(DataError, match="columns"):
        transform_third(third_moment(iris, "central"), np.eye(3))


@pytest.mark.parametrize("shape", [(0, 3), (1, 3, 2), (2, 3, 1)])
def test_transform_must_be_a_matrix_of_rows(shape):
    m3 = third_moment(np.random.default_rng(2).gamma(2.0, size=(30, 3)), "raw")
    message = re.escape(f"transform must be a 2-d array of k >= 1 rows and 3 columns, "
                        f"got shape {shape}")
    with pytest.raises(DataError, match=f"^{message}$"):
        transform_third(m3, np.ones(shape))
    # one row may come as a vector
    assert transform_third(m3, np.ones(3)).values.shape == (1, 1)


# ---------------------------------------------------------------------------
# structure and serialization
# ---------------------------------------------------------------------------

def test_left_singular_vectors_reshape_symmetric(iris):
    k3 = third_moment(iris, "central")
    u, s, _ = np.linalg.svd(k3.values)
    for j in range(4):
        if s[j] <= 1e-12:
            continue
        mat = u[:, j].reshape(4, 4)
        assert np.abs(mat - mat.T).max() < 1e-8


def test_save_load_roundtrip(tmp_path, iris):
    m3 = third_moment(iris, "standardized")
    path = tmp_path / "third.csv"
    save_third_moment(m3, path)
    loaded = load_third_moment(path)
    assert loaded.kind == "standardized"
    assert np.array_equal(loaded.values, m3.values)
    assert path.read_text().startswith("# kind=standardized\n")


@pytest.mark.parametrize("precision", [-1, 1.5, True, 18])
def test_save_refuses_a_bad_precision_and_writes_no_file(tmp_path, iris, precision):
    path = tmp_path / "third.csv"
    with pytest.raises(PreconditionError, match="precision"):
        save_third_moment(third_moment(iris, "raw"), path, precision)
    assert not path.exists()


def test_load_requires_kind_header(tmp_path):
    path = tmp_path / "nokind.csv"
    path.write_text("1.0\n")
    with pytest.raises(DataError, match="kind"):
        load_third_moment(path)


def test_load_names_a_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# kind=raw\n1.0\n\nx\n")
    message = f"{path}: non-numeric cell 'x' at row 3, column 1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_load_reads_numbers_as_load_csv_does(tmp_path, cell):
    # digit separators and non-ASCII digits, which float() accepts, are refused
    path = tmp_path / "grammar.csv"
    path.write_text(f"# kind=raw\n{cell}\n", encoding="utf-8")
    message = f"{path}: non-numeric cell {cell!r} at row 2, column 1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cell", ["1e999", "nan"])
def test_load_rejects_a_non_finite_entry(tmp_path, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"# kind=raw\n{cell}\n")
    message = f"{path}: non-numeric cell {cell!r} at row 2, column 1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)


@pytest.mark.parametrize("text, reason", [
    ("# kind=raw\n1,2\n3,4\n5,6\n",
     "expected shape (d^2, d) with d >= 1, got (3, 2)"),
    ("# kind=bogus\n1\n",
     "kind must be one of ('raw', 'central', 'standardized'), got 'bogus'"),
    ("# kind=raw\n", "no data rows"),
], ids=["shape", "kind", "no-rows"])
def test_load_names_the_file_of_an_invalid_matrix(tmp_path, text, reason):
    path = tmp_path / "third.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {reason}')}$"):
        load_third_moment(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_names_a_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("# kind=raw\n1\n2,3\n")
    message = f"{path}: row 3 has 2 cells, expected 1"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_third_moment(path)


@pytest.mark.parametrize("text", ["\ufeff# kind=raw\n2.5\n", '# kind=raw\n"2.5"\n'],
                         ids=["byte-order-mark", "quoted"])
def test_load_reads_text_as_load_csv_does(tmp_path, text):
    path = tmp_path / "third.csv"
    path.write_text(text, encoding="utf-8")
    loaded = load_third_moment(path)
    assert (loaded.kind, loaded.values.tolist()) == ("raw", [[2.5]])


@pytest.mark.parametrize("head", [b"# kind=raw\n", b"# kind=raw\n" + b"1\n" * 5000],
                         ids=["data-row-1", "past-8-KiB"])
def test_load_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, head):
    path = tmp_path / "latin.csv"
    path.write_bytes(head + "caf\xe9\n".encode("latin-1"))
    offset = len(head) + 3
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: not UTF-8 text: "
                                        rf"byte 0xe9 at byte offset {offset}$"):
        load_third_moment(path)


@pytest.mark.parametrize("rows, reason", [
    *[(f"1,2\n3,{cell}\n", f"non-numeric cell {cell!r} at row 3, column 2")
      for cell in ["x", "NA", "1_0", "nan", "1e999"]],
    ("1,2\n3,4,5\n", "row 3 has 3 cells, expected 2"),
], ids=["x", "NA", "1_0", "nan", "1e999", "ragged"])
def test_both_loaders_name_a_fault_in_the_same_words(tmp_path, rows, reason):
    # one header row, then the same rows: the fault is the same cell of each file
    for head, load in [("a,b\n", load_csv), ("# kind=raw\n", load_third_moment)]:
        path = tmp_path / f"{load.__name__}.csv"
        path.write_text(head + rows)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {reason}')}$"):
            load(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("kind", ["raw", "central", "standardized"])
@pytest.mark.parametrize("d", [1, 2, 5, 33, 64])
def test_save_load_roundtrip_is_bit_exact(tmp_path, d, kind, newline):
    rng = np.random.default_rng(d)
    x = rng.gamma(2.0, size=(2 * d + 20, d)) @ rng.normal(size=(d, d))
    m3 = third_moment(x, kind)
    path = tmp_path / "third.csv"
    save_third_moment(m3, path, precision=17)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    loaded = load_third_moment(path)
    assert loaded.kind == kind
    assert loaded.values.tobytes() == m3.values.tobytes()
