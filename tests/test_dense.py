import tracemalloc

import numpy as np
import pytest

from rcholqr import dense
from rcholqr.bench import ExperimentConfig, load_input
from rcholqr.bounds import CHOLQR2, gamma
from rcholqr.errors import CholeskyBreakdown, DimensionError
from rcholqr.generators import GeneratorSpec

from oracles import (
    gram_reference,
    matmul_compensated,
    matmul_reference,
    trisolve_reference,
)


def test_matmul_identity():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(dense.matmul(np.eye(2), b), b)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    assert np.array_equal(dense.matmul(a, b), np.array([[2.0], [4.0]]))


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionError):
        dense.matmul(np.ones((2, 3)), np.ones((2, 2)))


def _same_bits(x, y):
    x = np.ascontiguousarray(x)
    y = np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("k", [1, 2, 31, 32, 33, 64, 65, 200, 417])
def test_matmul_matches_scalar_replay(k):
    # (rows, cols) of the product: one row, a few rows, more rows than any
    # block count here, and more cols than rows.  Rows above and below the
    # block count put the rows or the blocks innermost.
    rng = np.random.default_rng(k)
    for p, q in [(1, 6), (3, 2), (40, 3), (9, 24)]:
        a = rng.standard_normal((p, k))
        b = rng.standard_normal((k, q))
        assert _same_bits(dense.matmul(a, b), matmul_reference(a, b))


@pytest.mark.parametrize("p, k, q", [(1, 1345, 2), (5, 417, 3), (70, 300, 4), (300, 65, 2)])
def test_matmul_chunking_keeps_bits(monkeypatch, p, k, q):
    # Tiny chunks and tiles split rows, blocks and the transposing copies.
    monkeypatch.setattr(dense, "_CHUNK", 64)
    monkeypatch.setattr(dense, "_TILE", 3)
    rng = np.random.default_rng(p + k + q)
    a = rng.standard_normal((p, k))
    b = rng.standard_normal((k, q))
    assert _same_bits(dense.matmul(a, b), matmul_reference(a, b))


def test_matmul_rows_past_the_copy_bound():
    # two rows of over _COPY / 32 blocks: a chunk of rows is still one row
    rng = np.random.default_rng(41)
    k = dense._COPY + 3 * dense._BLOCK + 5
    a = rng.standard_normal((2, k))
    b = rng.standard_normal((k, 1))
    got = dense.matmul(a, b)
    for i in range(2):
        assert _same_bits(got[i], dense.matmul(a[i:i + 1], b)[0])
        assert _same_bits(got[i, 0], dense.fixed_sum(a[i] * b[:, 0]))


def test_matmul_transposed_views():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((90, 6))
    b = rng.standard_normal((5, 90))
    got = dense.matmul(a.T, b.T)
    assert _same_bits(got, matmul_reference(a.T, b.T))
    assert got.flags.c_contiguous


def test_matmul_deterministic_repeat():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((20, 120))
    b = rng.standard_normal((120, 7))
    assert np.array_equal(dense.matmul(a, b), dense.matmul(a, b))


def test_matmul_componentwise_rounding_bound():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((3, 4))
    exact = matmul_compensated(a, b)
    bound = gamma(3) * np.abs(a) @ np.abs(b)
    assert np.all(np.abs(dense.matmul(a, b) - exact) <= bound)


def test_gram_identity():
    assert np.array_equal(dense.gram(np.eye(3)), np.eye(3))


def test_gram_hand_example():
    assert np.array_equal(dense.gram(np.array([[3.0], [4.0]])), [[25.0]])


def test_gram_close_to_matmul():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 8))
    diff = dense.gram(x) - dense.matmul(x.T, x)
    fro_x = np.linalg.norm(x)
    assert np.linalg.norm(diff) <= gamma(60) * fro_x * fro_x


def test_gram_upper_triangle_is_matmul_bitwise():
    rng = np.random.default_rng(2)
    for shape in [(60, 8), (1000, 20), (33, 33)]:
        x = rng.standard_normal(shape)
        upper = np.triu_indices(shape[1])
        assert _same_bits(dense.gram(x)[upper], dense.matmul(x.T, x)[upper])
    # every product in entry (0, 1) is -0.0, so the sum is -0.0 too
    x = np.array([[-1.0, 0.0], [-2.0, 0.0], [-3.0, 0.0]])
    g = dense.gram(x)
    assert _same_bits(g[np.triu_indices(2)], dense.matmul(x.T, x)[np.triu_indices(2)])
    assert np.signbit(g[0, 1]) and np.signbit(g[1, 0])


def test_gram_bitwise_symmetric():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((150, 9))
    g = dense.gram(x)
    assert np.array_equal(g, g.T)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20, 21])
@pytest.mark.parametrize("m", ["n", 31, 32, 33, 417])
def test_gram_matches_reference(monkeypatch, n, m):
    # Odd and even n (the d = n/2 pairs come twice when n is even), one
    # partial block, exact blocks and a ragged last block; then chunks of
    # a few blocks and tiles of 3, so chunks split the block range and the
    # last chunk is short; then small groups of blocks (down to one), so
    # the group partials are merged by the counter and the last group is
    # short.
    m = n if m == "n" else m
    rng = np.random.default_rng(100 * n + m)
    x = rng.standard_normal((m, n)) * np.exp2(rng.integers(-30, 30, n))
    want = gram_reference(x)
    assert _same_bits(dense.gram(x), want)
    monkeypatch.setattr(dense, "_CHUNK", 8)
    monkeypatch.setattr(dense, "_TILE", 3)
    assert _same_bits(dense.gram(x), want)
    for acc in (64, 300):
        monkeypatch.setattr(dense, "_ACC", acc)
        assert _same_bits(dense.gram(x), want)


def test_gram_strided_input():
    rng = np.random.default_rng(6)
    xt = rng.standard_normal((7, 417))
    got = dense.gram(xt.T)
    assert _same_bits(got, gram_reference(xt.T))
    assert got.flags.c_contiguous
    x = rng.standard_normal((300, 10))
    assert _same_bits(dense.gram(x[::3, ::2]), gram_reference(x[::3, ::2]))


def test_gram_matches_matmul_on_t1():
    x = load_input(ExperimentConfig(generator=GeneratorSpec("t1", sigma=1e-4),
                                    algorithm=CHOLQR2))
    want = dense.matmul(x.T, x)
    lower = np.tril_indices(x.shape[1], -1)
    want[lower] = want.T[lower]
    assert _same_bits(dense.gram(x), want)


def test_gram_peak_memory_below_input():
    # The kernel copies X step-major one chunk at a time, never whole.
    x = np.random.default_rng(7).standard_normal((200000, 20))
    tracemalloc.start()
    try:
        dense.gram(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_gram_wide_peak_memory_below_input():
    # 101 pair distances x 625 blocks of partials would be 3x the input;
    # groups of blocks keep them at most _ACC entries.
    x = np.random.default_rng(8).standard_normal((20000, 200))
    tracemalloc.start()
    try:
        dense.gram(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


def test_gram_requires_tall():
    with pytest.raises(DimensionError):
        dense.gram(np.ones((2, 5)))


def test_cholesky_identity():
    assert np.array_equal(dense.cholesky(np.eye(4)), np.eye(4))


def test_cholesky_hand_example():
    r = dense.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert r[0, 0] == 2.0 and r[0, 1] == 1.0 and r[1, 0] == 0.0
    assert r[1, 1] == np.sqrt(2.0)
    back = dense.matmul(r.T, r)
    assert np.allclose(back, [[4.0, 2.0], [2.0, 3.0]], rtol=0, atol=1e-15)


def test_cholesky_indefinite_breaks():
    with pytest.raises(CholeskyBreakdown) as info:
        dense.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert info.value.index == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("g,index", [
    ([[np.inf]], 0),
    ([[np.nan]], 0),
    ([[1.0, np.inf], [np.inf, 4.0]], 1),
])
def test_cholesky_non_finite_entry_is_a_breakdown(g, index):
    # an overflowed Gram matrix is a breakdown, not an invalid argument
    with pytest.raises(CholeskyBreakdown) as info:
        dense.cholesky(g)
    assert info.value.index == index


@pytest.mark.parametrize("g", [np.ones(3), np.ones((0, 0)), np.ones((2, 3))])
def test_cholesky_rejects_bad_shapes(g):
    with pytest.raises(DimensionError):
        dense.cholesky(g)


def test_cholesky_backward_error_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = rng.standard_normal((n, n))
        g = m.T @ m + np.eye(n)
        g = 0.5 * (g + g.T)
        r = dense.cholesky(g)
        fro_r = np.linalg.norm(r)
        assert np.linalg.norm(r.T @ r - g) <= gamma(n + 1) * fro_r * fro_r


def test_trisolve_identity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 4))
    assert np.array_equal(dense.trisolve_right(x, np.eye(4)), x)


def test_trisolve_hand_example():
    w = dense.trisolve_right(np.array([[2.0, 3.0]]),
                             np.array([[2.0, 1.0], [0.0, 1.0]]))
    assert np.array_equal(w, np.array([[1.0, 2.0]]))


def test_trisolve_residual_bound():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((40, 6))
    r = np.triu(rng.standard_normal((6, 6))) + 3.0 * np.eye(6)
    w = dense.trisolve_right(x, r)
    fro_x = np.linalg.norm(x)
    assert np.linalg.norm(w @ r - x) <= 10 * gamma(6) * fro_x


def test_trisolve_recovers_solution():
    # well-conditioned round trip: trisolve(matmul(X, R), R) == X to 1e-10
    rng = np.random.default_rng(10)
    x = rng.standard_normal((50, 5))
    r = np.triu(rng.standard_normal((5, 5))) + 4.0 * np.eye(5)
    got = dense.trisolve_right(dense.matmul(x, r), r)
    assert np.max(np.abs(got - x)) <= 1e-10 * np.max(np.abs(x))


def test_trisolve_matches_column_replay():
    # rows either side of the chunk and on it; more than one summation
    # block's worth of columns
    rng = np.random.default_rng(16)
    rows = dense._TRI_ROWS
    for m, n in [(1, 1), (37, 5), (9000, 20), (33, 33), (100, 40),
                 (rows - 1, 40), (rows, 33), (rows + 1, 40), (2 * rows + 1, 20)]:
        x = rng.standard_normal((m, n))
        r = np.triu(rng.standard_normal((n, n))) + 2.0 * np.eye(n)
        got = dense.trisolve_right(x, r)
        assert _same_bits(got, trisolve_reference(x, r))
        assert got.flags.c_contiguous


def test_trisolve_into_a_view():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((dense._TRI_ROWS + 7, 6))
    r = np.triu(rng.standard_normal((6, 6))) + 2.0 * np.eye(6)
    out = np.empty((2,) + x.shape)[1]
    assert dense._trisolve_into(x, r, out) is out
    assert _same_bits(out, dense.trisolve_right(x, r))


def test_trisolve_matches_column_replay_on_t1():
    x = load_input(ExperimentConfig(generator=GeneratorSpec("t1", sigma=1e-4),
                                    algorithm=CHOLQR2))
    r = dense.cholesky(dense.gram(x))
    assert _same_bits(dense.trisolve_right(x, r), trisolve_reference(x, r))


def test_sym_eigenvalues_diagonal():
    assert np.array_equal(dense.sym_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                          [3.0, 2.0, 1.0])


def test_sym_eigenvalues_hand_example():
    lam = dense.sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(lam, [3.0, 1.0], rtol=0, atol=1e-14)


def test_sym_eigenvalues_constructed_spectrum():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        lam = np.sort(rng.uniform(-4.0, 4.0, n))[::-1]
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = q @ np.diag(lam) @ q.T
        got = dense.sym_eigenvalues(0.5 * (s + s.T))
        assert np.max(np.abs(got - lam)) <= 1e-10 * np.max(np.abs(lam))




def test_singular_values_identity():
    sv = dense.singular_values(np.eye(5))
    assert np.allclose(sv, 1.0, rtol=0, atol=1e-14)


def test_singular_values_column():
    assert dense.singular_values(np.array([[3.0], [4.0]]))[0] == pytest.approx(5.0)


def test_singular_values_orthonormal_columns():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((80, 6)))
    assert np.max(np.abs(dense.singular_values(q) - 1.0)) <= 1e-12


def test_fixed_sum_matches_fsum_order_free_cases():
    rng = np.random.default_rng(14)
    v = rng.standard_normal(1000)
    assert dense.fixed_sum(v) == pytest.approx(np.sum(v), rel=1e-12)
    assert dense.fixed_sum(np.ones(717)) == 717.0
    assert dense.fixed_sum(np.array([])) == 0.0


def test_fixed_sum_is_matmul_against_ones():
    rng = np.random.default_rng(17)
    for k in [1, 31, 33, 417, 20000]:
        v = rng.standard_normal(k)
        want = dense.matmul(v[None, :], np.ones((k, 1)))[0, 0]
        assert _same_bits(dense.fixed_sum(v), want)


def _summands(k, rng):
    """k x 3 summands: spread magnitudes with signed zeros among them, all
    -0.0, and signed zeros around values that cancel exactly."""
    m = np.empty((k, 3))
    m[:, 0] = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k)
    m[rng.random(k) < 0.1, 0] = 0.0
    m[rng.random(k) < 0.1, 0] = -0.0
    m[:, 1] = -0.0
    m[:, 2] = np.where(rng.random(k) < 0.5, 0.0, -0.0)
    m[:k // 2 * 2:2, 2] = 1.5
    m[1:k // 2 * 2:2, 2] = -1.5
    return m


def test_fixed_sums_match_scalar_replay():
    # Lengths around one block, one block either side of a chunk of one
    # column and of three, and 400007 = 12501 blocks, whose carry tree
    # carries an odd partial at several levels.
    rng = np.random.default_rng(43)
    one, three = (dense._CHUNK // (dense._BLOCK * q) * dense._BLOCK for q in (1, 3))
    for k in [1, 31, 32, 33, one - 32, one + 32, three - 32, three + 32, 400000, 400007]:
        m = _summands(k, rng)
        want = matmul_reference(np.ones((1, k)), m)[0]
        assert np.signbit(want[1])
        assert _same_bits(dense.fixed_sum_rows(m), want)
        assert _same_bits(dense.fixed_sum_rows(m[:, :1]), want[:1])
        for j in range(3):
            assert _same_bits(dense.fixed_sum(m[:, j]), want[j])


def test_fixed_sum_holds_a_chunk():
    # a 512-KiB chunk of the step-major copy and 1/32 of the summands in
    # block partials: under 1 MiB for 400000 summands
    v = np.random.default_rng(44).standard_normal(400000)
    tracemalloc.start()
    try:
        dense.fixed_sum(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * dense._CHUNK


def test_fixed_sum_keeps_negative_zero():
    for k in [1, 32, 33, 417]:
        v = np.full(k, -0.0)
        by_matmul = dense.matmul(v[None, :], np.ones((k, 1)))[0, 0]
        assert np.signbit(by_matmul)
        assert np.signbit(dense.fixed_sum(v))
        assert np.all(np.signbit(dense.fixed_sum_rows(np.full((k, 3), -0.0))))


def test_fixed_sum_rows_empty_axes():
    got = dense.fixed_sum_rows(np.zeros((0, 3)))
    assert got.shape == (3,) and np.all(got == 0.0) and not np.any(np.signbit(got))
    assert dense.fixed_sum(np.zeros(0)) == 0.0
    assert dense.fixed_sum_rows(np.zeros((5, 0))).shape == (0,)


def test_fixed_sum_rows_matches_columns():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((97, 5))
    got = dense.fixed_sum_rows(m)
    for jcol in range(5):
        assert got[jcol] == dense.fixed_sum(m[:, jcol])


def _packed_cases():
    """(name, a, b, packed columns) for products with at least as many
    blocks as rows, so the packed layout is in play."""
    rng = np.random.default_rng(40)
    p, k = 6, 417  # 14 blocks, the last one ragged (1 row)
    a = rng.standard_normal((p, k))
    cases = []
    b = np.zeros((k, 4))
    b[::29, 1] = rng.standard_normal(len(range(0, k, 29)))
    b[:, 2] = -0.0
    b[:, 3] = rng.standard_normal(k)
    cases.append(("all-zero, -0.0 and dense columns", a, b, [1]))
    b = np.zeros((k, 2))
    b[[3, 40, 300], 0] = 5e-324  # every product underflows to +-0
    b[[7, 416], 1] = [1e-310, 2.0]
    cases.append(("underflow to +-0", a, b, [0, 1]))
    c = a.copy()
    c[:, 70] = -c[:, 5]
    b = np.zeros((k, 1))
    b[[5, 70], 0] = 1.5
    cases.append(("exact cancellation", c, b, [0]))
    b = np.zeros((k, 3))
    b[32:48, 0] = rng.standard_normal(16)
    b[32:49, 1] = rng.standard_normal(17)
    b[416, 2] = 3.0  # the ragged block's only row
    cases.append(("16 and 17 nonzeros in a block", a, b, [0, 2]))
    b = np.zeros((20, 2))
    b[4, 0] = 1.0
    cases.append(("m < 32", a[:, :20], b, []))
    b = (rng.random((k, 3)) < 0.1) * rng.standard_normal((k, 3))
    cases.append(("random sparse", a, b, [0, 1, 2]))
    return cases


@pytest.mark.parametrize("name, a, b, packed", _packed_cases(),
                         ids=[c[0] for c in _packed_cases()])
def test_packed_columns_keep_the_step_major_bits(name, a, b, packed):
    op = dense._reduce_operand(b, a.shape[0])
    assert op.packed.tolist() == packed
    got = dense._reduce(a, op)
    assert _same_bits(got, matmul_reference(a, b))
    assert _same_bits(got, dense._reduce_steps(a, dense._steps(b)))


def test_packed_zero_sum_is_recomputed_for_its_sign():
    # Two blocks.  Packed, row 0 adds -0.0 * 1 in block 0 and pads block 1
    # with (-1) * 0 = -0.0, so its sum is -0.0; step-major, block 0 also
    # adds 1 * 0 = +0.0, so the sum is +0.0.
    a = np.ones((2, 64))
    a[:, 32:] = -1.0
    a[0, 5] = -0.0
    b = np.zeros((64, 1))
    b[5, 0] = 1.0
    op = dense._reduce_operand(b, 2)
    assert op.packed.tolist() == [0]
    assert np.signbit(dense._reduce_packed(a, op.at, op.val, 2)[0, 0])
    got = dense._reduce(a, op)
    assert _same_bits(got, matmul_reference(a, b))
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_packed_product_with_non_finite_left_entry(bad):
    # step-major, bad * 0 is NaN; packed, the zero would be skipped
    rng = np.random.default_rng(41)
    a = rng.standard_normal((3, 200))
    a[1, 50] = bad
    b = np.zeros((200, 2))
    b[[10, 190], 0] = 2.0
    b[50, 1] = 1.0
    assert dense._reduce_operand(b, 3).packed.tolist() == [0, 1]
    got = dense.matmul(a, b)
    assert _same_bits(got, matmul_reference(a, b))
    assert np.isnan(got[1, 0]) and np.isfinite(got[[0, 2]]).all()


def test_single_row_products_stay_step_major():
    b = np.zeros((417, 2))
    b[::50, 0] = 1.0
    assert dense._reduce_operand(b, 1).at is None
    assert dense._reduce_operand(b, 2).packed.tolist() == [0]
    assert dense._reduce_operand(b, 15).at is None  # more rows than blocks
