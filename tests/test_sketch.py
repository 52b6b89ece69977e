import os
import signal
import sys
import threading
import time
import tracemalloc
from math import sqrt

import numpy as np
import pytest

from rcholqr import dense, generators, norms, sketch, sparse
from rcholqr.errors import DimensionError, ParamError
from rcholqr.generators import GeneratorSpec

from oracles import densify, matmul_reference


def test_countsketch_determinism():
    a = sketch.build_countsketch(50, 400, seed=9)
    b = sketch.build_countsketch(50, 400, seed=9)
    assert np.array_equal(a.row_of, b.row_of)
    assert np.array_equal(a.sign_of, b.sign_of)
    c = sketch.build_countsketch(50, 400, seed=10)
    assert not np.array_equal(a.row_of, c.row_of)


def test_countsketch_frobenius_exact():
    for seed in range(25):
        op = sketch.build_countsketch(37, 512, seed)
        assert norms.fro_norm(densify(op)) == np.sqrt(512.0)


def test_countsketch_param_errors():
    with pytest.raises(ParamError):
        sketch.build_countsketch(0, 5, 0)
    with pytest.raises(ParamError):
        sketch.build_countsketch(6, 5, 0)


def test_apply_countsketch_zero():
    op = sketch.build_countsketch(4, 10, 0)
    assert np.array_equal(sketch.apply_countsketch(op, np.zeros((10, 3))),
                          np.zeros((4, 3)))


def test_apply_countsketch_hand_example():
    op = sketch.CountSketchOp(
        out_rows=2, in_rows=2,
        row_of=np.array([0, 1]), sign_of=np.array([1.0, -1.0]), seed=0)
    out = sketch.apply_countsketch(op, np.array([[1.0], [2.0]]))
    assert np.array_equal(out, [[1.0], [-2.0]])


def test_apply_countsketch_matches_densified():
    rng = np.random.default_rng(1)
    for seed in range(10):
        op = sketch.build_countsketch(8, 60, seed)
        x = rng.standard_normal((60, 5))
        ref = densify(op) @ x
        got = sketch.apply_countsketch(op, x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_apply_countsketch_sparse_matches_dense_input():
    rng = np.random.default_rng(2)
    d = (rng.random((40, 6)) < 0.3) * rng.standard_normal((40, 6))
    op = sketch.build_countsketch(9, 40, 3)
    got = sketch.apply_countsketch(op, sparse.from_dense(d))
    ref = sketch.apply_countsketch(op, d)
    assert np.allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_apply_countsketch_linear():
    rng = np.random.default_rng(3)
    op = sketch.build_countsketch(7, 30, 4)
    x = rng.standard_normal((30, 4))
    y = rng.standard_normal((30, 4))
    lhs = sketch.apply_countsketch(op, 2.0 * x + 3.0 * y)
    rhs = 2.0 * sketch.apply_countsketch(op, x) + 3.0 * sketch.apply_countsketch(op, y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(rhs)))


def test_apply_countsketch_dimension():
    op = sketch.build_countsketch(4, 10, 0)
    with pytest.raises(DimensionError):
        sketch.apply_countsketch(op, np.zeros((11, 2)))
    with pytest.raises(DimensionError, match="expects 10 rows, got 11"):
        sketch.apply_countsketch(op, sparse.from_dense(np.ones((11, 2))))


def test_apply_gaussian_dimension():
    op = sketch.build_gaussian(4, 10, 0)
    with pytest.raises(DimensionError):
        sketch.apply_gaussian(op, np.ones((11, 2)))


def test_gaussian_determinism_and_zero():
    a = sketch.build_gaussian(6, 40, seed=5)
    b = sketch.build_gaussian(6, 40, seed=5)
    assert np.array_equal(densify(a), densify(b))
    assert np.array_equal(sketch.apply_gaussian(a, np.zeros((40, 2))),
                          np.zeros((6, 2)))


def test_gaussian_norm_expectation():
    # E ||Omega x||^2 == ||x||^2: Monte Carlo over many operator draws
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 1))
    x_sq = float(np.sum(x * x))
    ratios = np.empty(2000)
    for seed in range(2000):
        op = sketch.build_gaussian(10, 40, seed)
        y = densify(op) @ x
        ratios[seed] = float(np.sum(y * y)) / x_sq
    assert 0.95 <= ratios.mean() <= 1.05


def test_gaussian_two_norm_probabilistic_bound():
    from rcholqr.bounds import gaussian_two_norm_bound
    s1, s2 = 128, 32
    bound = gaussian_two_norm_bound(s2, s1)
    hits = sum(
        np.linalg.norm(densify(sketch.build_gaussian(s2, s1, seed)), 2) <= bound
        for seed in range(200))
    assert hits >= 190


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _family(kind):
    """The 20000 x 20 input of a generator family, dense."""
    return sparse.as_dense(generators.generate(GeneratorSpec(kind, sigma=1e-4)))


@pytest.mark.parametrize("s, m", [(6, 40), (500, 2800), (60, 20000)])
def test_gaussian_entries_are_the_one_shot_draw(s, m):
    op = sketch.build_gaussian(s, m, seed=21)
    ref = np.random.Generator(np.random.Philox(key=21)).standard_normal((s, m)) / sqrt(s)
    assert _same_bits(densify(op), ref)


@pytest.mark.parametrize("s, m", [
    (7, 90),       # below one block
    (500, 2800),   # two 250-row blocks; rows are the kernel's inner loop
    (130, 20000),  # 44-row blocks, the last short; blocks are the inner loop
    (500, 20000),  # ten 50-row blocks
])
def test_apply_gaussian_matches_matmul_of_entries(s, m):
    rng = np.random.default_rng(s + m)
    x = rng.standard_normal((m, 4))
    op = sketch.build_gaussian(s, m, seed=s)
    assert _same_bits(sketch.apply_gaussian(op, x), dense.matmul(densify(op), x))


def test_gaussian_block_rows_rule():
    assert sketch._block_rows(500, 2800) == 100
    assert sketch._block_rows(500, 20000) == 14
    assert sketch._block_rows(130, 20000) == 13
    assert sketch._block_rows(7, 90) == 7
    for s, m in [(1, 1), (97, 300000), (2000, 2000), (499, 20001), (25, 20000), (26, 20000)]:
        rows = sketch._block_rows(s, m)
        least = max(1, sketch._DRAW // m)
        count = -(-s // rows)
        assert 1 <= rows <= s and min(s, least) <= rows <= 2 * least
        assert count == 1 or s >= 2 * least
        assert rows * (count - 1) < s


@pytest.mark.parametrize("draw, blocks", [(1, [1] * 17), (7 * 90, [9, 8]), (10 * 90, [17]),
                                         (5 * 90, [6, 6, 5])])
def test_apply_gaussian_small_blocks_keep_bits(monkeypatch, draw, blocks):
    monkeypatch.setattr(sketch, "_DRAW", draw)
    drawn = []
    draw_rows = sketch._draw

    def counted(rng, rows, op):
        drawn.append(rows)
        return draw_rows(rng, rows, op)

    monkeypatch.setattr(sketch, "_draw", counted)
    rng = np.random.default_rng(draw)
    x = rng.standard_normal((90, 3))
    op = sketch.build_gaussian(17, 90, seed=draw)
    got = sketch.apply_gaussian(op, x)
    assert drawn == blocks
    assert _same_bits(got, dense.matmul(densify(op), x))


def test_apply_gaussian_non_finite_block_raises(monkeypatch):
    # an error raised while a worker draws its block stops both workers
    draw = sketch._draw
    calls = []

    def poisoned(rng, rows, op):
        calls.append(rows)
        if len(calls) == 2:
            raise ValueError("non-finite block")
        return draw(rng, rows, op)

    monkeypatch.setattr(sketch, "_draw", poisoned)
    op = sketch.build_gaussian(500, 20000, seed=24)
    with pytest.raises(ValueError, match="non-finite"):
        sketch.apply_gaussian(op, np.ones((20000, 2)))
    assert 2 <= len(calls) < 10  # both workers stopped early


def test_apply_gaussian_leaves_no_helper_thread():
    x = np.ones((2800, 2))
    op = sketch.build_gaussian(500, 2800, seed=25)
    before = threading.active_count()
    for _ in range(20):
        sketch.apply_gaussian(op, x)
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name == "rcholqr-sketch"]


def test_apply_gaussian_single_block_starts_and_joins_its_helper(monkeypatch):
    # one block: the helper finds it taken, or takes it; the bits are the same
    assert sketch._block_rows(7, 90) == 7
    x = np.random.default_rng(35).standard_normal((90, 4))
    op = sketch.build_gaussian(7, 90, seed=36)
    started = []

    class Spy(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(sketch.threading, "Thread", Spy)
    before = threading.active_count()
    for _ in range(5):
        assert _same_bits(sketch.apply_gaussian(op, x),
                          dense.matmul(densify(op), x))
    assert started == ["rcholqr-sketch"] * 5
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name == "rcholqr-sketch"]


def _apply_concurrently(x, ops):
    """Apply every operator from its own caller thread, switching often;
    each result must have the bits of its own product."""
    got = [None] * len(ops)

    def call(i):
        got[i] = sketch.apply_gaussian(ops[i], x)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(len(ops))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for op, y in zip(ops, got):
        assert _same_bits(y, dense.matmul(densify(op), x))


def test_apply_gaussian_from_concurrent_callers():
    # more callers than cores, switching often: each call's two workers
    # must still share only their own call's stream and rows
    x = np.random.default_rng(28).standard_normal((2800, 3))
    _apply_concurrently(x, [sketch.build_gaussian(500, 2800, seed=seed)
                            for seed in (29, 30, 31, 32)])


def test_apply_gaussian_from_concurrent_callers_on_t1():
    # the same with 19 of X's 20 columns packed
    _apply_concurrently(_family("t1"), [sketch.build_gaussian(100, 20000, seed=seed)
                                        for seed in (29, 30, 31, 32)])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_apply_gaussian_in_a_forked_child():
    x = np.random.default_rng(33).standard_normal((2800, 3))
    op = sketch.build_gaussian(500, 2800, seed=34)
    want = sketch.apply_gaussian(op, x)
    pid = os.fork()
    if pid == 0:  # child: exit 0 only on the same bits
        try:
            os._exit(0 if _same_bits(sketch.apply_gaussian(op, x), want) else 1)
        finally:
            os._exit(2)
    for _ in range(6000):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("forked child did not finish in 60 s")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_gaussian_memory_is_bounded():
    # a stored 500 x 20000 operator alone would be 80 MB; on t1 the
    # reduction also builds the packed operand of 19 sparse columns.  Each
    # of the two workers holds one 2.2-MB block and its partials: the peak
    # read 11.8-12.1 MB dense and 7.9-10.3 MB on t1 (23.3-23.7 and
    # 21.5-22.8 MB with 8-MB blocks)
    for x in (np.random.default_rng(26).standard_normal((20000, 20)), _family("t1")):
        tracemalloc.start()
        try:
            op = sketch.build_gaussian(500, 20000, seed=27)
            sketch.apply_gaussian(op, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def _check_sketch(x, s, seed):
    """apply_gaussian has the bits of the product with the drawn operator,
    by the package's matmul and by the scalar replay."""
    op = sketch.build_gaussian(s, x.shape[0], seed)
    got = sketch.apply_gaussian(op, x)
    omega = densify(op)
    assert _same_bits(got, dense.matmul(omega, x))
    assert _same_bits(got, matmul_reference(omega, x))
    return got


def _zero_pattern_x(omega):
    """417 x 8: an all-zero column, a -0.0 column, products that underflow
    to +-0, a sum that cancels exactly in row 0, 16 and 17 nonzeros in one
    block, a random sparse column and a dense one."""
    rng = np.random.default_rng(42)
    k = omega.shape[1]
    x = np.zeros((k, 8))
    x[:, 1] = -0.0
    x[[3, 40, 300], 2] = 5e-324
    x[[5, 70], 3] = [omega[0, 70], -omega[0, 5]]
    x[32:48, 4] = rng.standard_normal(16)
    x[32:49, 5] = rng.standard_normal(17)
    x[::23, 6] = rng.standard_normal(len(range(0, k, 23)))
    x[:, 7] = rng.standard_normal(k)
    return x


def test_apply_gaussian_skips_zeros_with_the_same_bits():
    s, m = 10, 417  # one 10-row block, 14 summation blocks, the last ragged
    x = _zero_pattern_x(densify(sketch.build_gaussian(s, m, 43)))
    assert dense._reduce_operand(x, sketch._block_rows(s, m)).packed.tolist() == [2, 3, 4, 6]
    got = _check_sketch(x, s, 43)
    assert got[0, 3] == 0.0 and np.all(got[1:, 3] != 0.0)


def test_apply_gaussian_fewer_rows_than_a_block():
    x = np.zeros((20, 3))
    x[4, 0] = 1.0
    x[:, 1] = -0.0
    x[:, 2] = np.arange(20.0)
    _check_sketch(x, 5, 44)


@pytest.mark.parametrize("kind, full, steps", [("t1", [0], 4), ("t2", [], 6),
                                               ("dense", list(range(20)), None)])
def test_packed_layout_of_the_families(kind, full, steps):
    # t1: one dense column and 19 packed; t2: all 20 packed; dense: none
    op = dense._reduce_operand(_family(kind), sketch._block_rows(500, 20000))
    assert op.full.tolist() == full
    assert op.packed.size == 20 - len(full)
    assert (op.at is None) if steps is None else op.at.shape[0] == steps


@pytest.mark.parametrize("kind", ["t1", "t2", "dense"])
def test_apply_gaussian_on_the_families(kind):
    x = _family(kind)
    op = sketch.build_gaussian(100, 20000, seed=45)  # two 50-row blocks
    got = sketch.apply_gaussian(op, x)
    omega = densify(op)
    assert _same_bits(got, dense.matmul(omega, x))
    assert _same_bits(got, dense._reduce_steps(omega, dense._steps(x)))
    assert _same_bits(got[[0, 99]], matmul_reference(omega[[0, 99]], x))


def test_helper_draws_while_the_operand_is_made(monkeypatch):
    drawing = threading.Event()
    seen = []
    draw, operand = sketch._draw, dense._reduce_operand

    def spy_draw(rng, rows, op):
        drawing.set()
        return draw(rng, rows, op)

    def spy_operand(b, rows):
        seen.append(drawing.wait(timeout=10))
        return operand(b, rows)

    monkeypatch.setattr(sketch, "_draw", spy_draw)
    monkeypatch.setattr(dense, "_reduce_operand", spy_operand)
    x = np.random.default_rng(46).standard_normal((2800, 3))
    op = sketch.build_gaussian(500, 2800, seed=47)
    got = sketch.apply_gaussian(op, x)
    assert seen == [True]
    assert _same_bits(got, dense.matmul(densify(op), x))


def test_multisketch_build_and_apply():
    rng = np.random.default_rng(7)
    op = sketch.build_multisketch(40, 12, 200, seed=8)
    x = rng.standard_normal((200, 5))
    got = sketch.apply_multi(op, x)
    assert got.shape == (12, 5)
    ref = densify(op.gauss) @ (densify(op.count) @ x)
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.array_equal(sketch.apply_multi(op, np.zeros((200, 3))),
                          np.zeros((12, 3)))


def test_multisketch_chain_validation(monkeypatch):
    with pytest.raises(ParamError):
        sketch.build_multisketch(10, 20, 50, 0)
    drawn = []
    monkeypatch.setattr(sketch, "_draw", lambda rng, rows, op: drawn.append(rows))
    count = sketch.build_countsketch(10, 50, 0)
    gauss = sketch.build_gaussian(5, 11, 0)
    with pytest.raises(DimensionError):
        sketch.apply_multi(sketch.MultiSketchOp(count, gauss), np.ones((50, 2)))
    assert drawn == []  # both stages' shapes are checked before the draw


@pytest.mark.parametrize("kind", ["t1", "t2", "dense"])
@pytest.mark.parametrize("draw", [None, 5 * 320])
def test_apply_multi_is_the_gaussian_stage_of_the_countsketch_stage(monkeypatch, kind, draw):
    # 400 x 20; one Gaussian block, or nine of 6 rows, the last of 4 (packed on t1, t2)
    if draw is not None:
        monkeypatch.setattr(sketch, "_DRAW", draw)
    x = sparse.as_dense(generators.generate(GeneratorSpec(kind, sigma=1e-4, block_count=20)))
    op = sketch.build_multisketch(320, 52, x.shape[0], seed=48)
    want = dense.matmul(densify(op.gauss), sketch.apply_countsketch(op.count, x))
    assert _same_bits(sketch.apply_multi(op, x), want)


def test_helper_draws_while_the_countsketch_stage_runs(monkeypatch):
    drawing = threading.Event()
    seen = []
    draw, count = sketch._draw, sketch.apply_countsketch

    def spy_draw(rng, rows, op):
        drawing.set()
        return draw(rng, rows, op)

    def spy_count(op, x):
        seen.append(drawing.wait(timeout=10))
        return count(op, x)

    monkeypatch.setattr(sketch, "_draw", spy_draw)
    monkeypatch.setattr(sketch, "apply_countsketch", spy_count)
    x = np.random.default_rng(49).standard_normal((4000, 3))
    op = sketch.build_multisketch(2800, 500, 4000, seed=50)
    got = sketch.apply_multi(op, x)
    assert seen == [True]
    assert _same_bits(got, dense.matmul(densify(op.gauss), count(op.count, x)))


def test_countsketch_stage_error_stops_the_helper(monkeypatch):
    drawn = []
    draw = sketch._draw

    def counted(rng, rows, op):
        drawn.append(rows)
        return draw(rng, rows, op)

    def broken(op, x):
        raise RuntimeError("CountSketch stage failed")

    monkeypatch.setattr(sketch, "_draw", counted)
    monkeypatch.setattr(sketch, "apply_countsketch", broken)
    op = sketch.build_multisketch(2800, 500, 20000, seed=51)  # two 250-row blocks
    with pytest.raises(RuntimeError, match="CountSketch stage failed"):
        sketch.apply_multi(op, np.ones((20000, 2)))
    assert len(drawn) <= 1  # the helper stops after the block it took, if any
    assert not [t for t in threading.enumerate() if t.name == "rcholqr-sketch"]


def test_countsketch_min_rows():
    assert sketch.countsketch_min_rows(20, 0.5, 0.6) == 2800
    assert sketch.countsketch_min_rows(1, 0.5, 0.5) == 16
    assert sketch.countsketch_min_rows(30, 0.999999, 0.999999) in (930, 931)
    with pytest.raises(ParamError):
        sketch.countsketch_min_rows(20, 1.5, 0.5)
    with pytest.raises(ParamError, match="need n >= 1"):
        sketch.countsketch_min_rows(0, 0.5, 0.5)


def test_combine_embedding_exact():
    emb = sketch.combine_embedding(0.5, 0.6, 0.5, 0.4)
    assert (emb.eps_s, emb.eps_b, emb.p_f) == (0.75, 1.25, 0.76)


def test_combine_embedding_edges():
    emb = sketch.combine_embedding(0.0, 0.3, 0.0, 0.7)
    assert emb.eps_s == 0.0 and emb.eps_b == 0.0
    emb = sketch.combine_embedding(0.4, 0.0, 0.0, 0.0)
    assert emb.eps_s == emb.eps_b == 0.4 and emb.p_f == 0.0


@pytest.mark.parametrize("stages", [(1.5, 0.0, 1.5, 0.0), (-0.5, 0.0, 0.5, 0.0),
                                    (0.5, 0.6, 0.5, 1.2), (0.5, float("nan"), 0.5, 0.4),
                                    (float("nan"), 0.0, float("nan"), 0.0)])
def test_combine_embedding_rejects_stage_outside_unit_interval(stages):
    with pytest.raises(ParamError):
        sketch.combine_embedding(*stages)


def test_combine_embedding_symmetric():
    a = sketch.combine_embedding(0.3, 0.2, 0.6, 0.1)
    b = sketch.combine_embedding(0.6, 0.1, 0.3, 0.2)
    assert a.eps_s == pytest.approx(b.eps_s, rel=1e-15)
    assert a.eps_b == pytest.approx(b.eps_b, rel=1e-15)
    assert a.p_f == pytest.approx(b.p_f, rel=1e-15)


def test_verify_embedding_identity_op():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 4))
    identity = sketch.CountSketchOp(30, 30, np.arange(30), np.ones(30), seed=0)
    assert sketch.verify_embedding(identity, x, 0.25, trials=50, seed=1) == 1.0


def test_verify_embedding_gaussian():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((400, 10))
    op = sketch.build_gaussian(120, 400, seed=11)
    frac = sketch.verify_embedding(op, x, 0.5, trials=200, seed=12)
    assert frac >= 0.4


def test_verify_embedding_zero_eps():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((50, 3))
    op = sketch.build_gaussian(20, 50, seed=14)
    assert sketch.verify_embedding(op, x, 0.0, trials=100, seed=15) <= 0.05


def test_verify_embedding_multi_uses_interval():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((300, 6))
    op = sketch.build_multisketch(80, 40, 300, seed=17)
    emb = sketch.combine_embedding(0.5, 0.6, 0.5, 0.4)
    frac = sketch.verify_embedding(op, x, emb, trials=200, seed=18)
    assert frac >= 0.4


@pytest.mark.parametrize("eps", [
    -0.1, 1.5, np.nan,
    *(sketch.EmbeddingParams(lo, hi, 0.0)
      for lo, hi in [(1.5, 0.2), (-0.1, 0.5), (0.2, -0.1), (np.nan, 0.5), (0.5, np.nan)]),
])
def test_verify_embedding_rejects_bad_eps(eps):
    x = np.random.default_rng(19).standard_normal((40, 3))
    op = sketch.build_gaussian(20, 40, seed=20)
    with pytest.raises(ParamError):
        sketch.verify_embedding(op, x, eps, trials=10, seed=21)


def test_verify_embedding_rejects_no_trials_and_a_non_operator():
    x = np.random.default_rng(25).standard_normal((40, 3))
    op = sketch.build_gaussian(20, 40, seed=26)
    with pytest.raises(ParamError, match=r"trials must lie in \[1, inf\) as an int"):
        sketch.verify_embedding(op, x, 0.5, trials=0, seed=27)
    with pytest.raises(TypeError, match="not a sketch operator"):
        sketch.verify_embedding(np.eye(40), x, 0.5, trials=10, seed=27)


@pytest.mark.parametrize("seed", [True, -1, 1.5, 2**64, 2**70], ids=repr)
@pytest.mark.parametrize("build", [
    lambda seed: sketch.build_countsketch(4, 10, seed),
    lambda seed: sketch.build_gaussian(4, 10, seed),
    lambda seed: sketch.build_multisketch(8, 4, 10, seed),
    lambda seed: sketch.verify_embedding(sketch.build_gaussian(4, 10, 0),
                                         np.ones((10, 2)), 0.5, 5, seed),
], ids=["countsketch", "gaussian", "multisketch", "verify_embedding"])
def test_bad_seed_is_rejected_before_a_draw(monkeypatch, build, seed):
    # Philox would truncate 1.5 to seed 1's key, take True as 1, and take
    # 2**70 whole, which mix_seed cuts to 64 bits; -1 would fail only when
    # an operator is applied
    monkeypatch.setattr(sketch, "_philox", lambda _seed: pytest.fail("drew"))
    with pytest.raises(ParamError, match=r"seed must lie in \[0, 2\*\*64\) as an int"):
        build(seed)


SIZED_BUILDS = {  # the field's name in the error -> a call with it at v
    "s1": lambda v: sketch.build_countsketch(v, 100, 5),
    "s": lambda v: sketch.build_gaussian(v, 100, 5),
    "trials": lambda v: sketch.verify_embedding(
        sketch.build_gaussian(4, 100, 0), np.ones((100, 2)), 0.5, v, 5),
}


@pytest.mark.parametrize("value", [20.5, 20.0, True], ids=repr)
@pytest.mark.parametrize("name", SIZED_BUILDS)
def test_size_or_count_that_is_not_an_int_is_rejected_before_a_draw(
        monkeypatch, name, value):
    # each raised a bare TypeError, and only once the operator was applied
    # or the test vectors drawn
    monkeypatch.setattr(sketch, "_philox", lambda _seed: pytest.fail("drew"))
    with pytest.raises(ParamError,
                       match=rf"{name} must lie in \[1, (100\]|inf\)) as an int"):
        SIZED_BUILDS[name](value)


@pytest.mark.parametrize("name", SIZED_BUILDS)
def test_size_or_count_takes_a_numpy_int(name):
    got, want = SIZED_BUILDS[name](np.int64(20)), SIZED_BUILDS[name](20)
    if name == "s1":
        assert np.array_equal(got.row_of, want.row_of)
        assert np.array_equal(got.sign_of, want.sign_of)
    else:
        assert got == want


def test_verify_embedding_accepts_eps_hi_above_one():
    x = np.random.default_rng(22).standard_normal((40, 3))
    op = sketch.build_gaussian(20, 40, seed=23)
    emb = sketch.EmbeddingParams(1.0, 3.0, 0.0)
    assert sketch.verify_embedding(op, x, emb, trials=50, seed=24) == 1.0


def test_mix_seed_is_stable_and_spread():
    assert sketch.mix_seed(0, 0) == sketch.mix_seed(0, 0)
    seen = {sketch.mix_seed(12345, i) for i in range(1000)}
    assert len(seen) == 1000
