import numpy as np
import pytest

from rcholqr import dense, qr, sketch
from rcholqr.bounds import CHOLQR2, MR, SR, U, SketchParams
from rcholqr.errors import CholeskyBreakdown, DimensionError
from rcholqr.generators import GeneratorSpec, make_dense, make_t1

from oracles import householder_qr


def t1_dense(sigma, q=200):
    from rcholqr import sparse
    return sparse.to_dense(make_t1(GeneratorSpec("t1", sigma=sigma, block_count=q)))


def test_cholesky_qr_identity():
    res = qr.cholesky_qr(np.eye(4))
    assert np.array_equal(res.q, np.eye(4))
    assert np.array_equal(res.r, np.eye(4))
    assert qr.orthogonality(res.q) == 0.0


def test_cholesky_qr_column():
    res = qr.cholesky_qr(np.array([[3.0], [4.0]]))
    assert res.r[0, 0] == pytest.approx(5.0, rel=1e-15)
    assert np.allclose(res.q.ravel(), [0.6, 0.8], rtol=1e-14, atol=0)


def test_single_pass_orthogonality_tracks_condition():
    # kappa ~ 1e4: single pass visibly loses orthogonality but stays within
    # the classical 5 kappa^2 (mnu + n(n+1)u) envelope; the second pass fixes it
    x = make_dense(GeneratorSpec("dense", sigma=1e-4, block_size=5,
                                 block_count=400, seed=2))
    m, n = x.shape
    kappa = np.linalg.cond(x)
    single = qr.orthogonality(qr.cholesky_qr(x).q)
    assert single > 100 * U
    assert single <= 5 * kappa * kappa * (m * n * U + n * (n + 1) * U)
    double = qr.orthogonality(qr.cholesky_qr2(x).q)
    assert double <= 100 * (m * n * U + n * (n + 1) * U)


def test_cholesky_qr2_orthonormal_input():
    rng = np.random.default_rng(0)
    x, _ = np.linalg.qr(rng.standard_normal((60, 6)))
    res = qr.cholesky_qr2(x)
    assert np.max(np.abs(res.q - x)) <= 10 * 6 * U * 10
    assert np.max(np.abs(res.r - np.eye(6))) <= 10 * 6 * U


def test_cholesky_qr2_t1_family():
    x = t1_dense(1e-4)
    res = qr.cholesky_qr2(x)
    assert qr.orthogonality(res.q) <= 5e-14
    assert qr.residual(res.q, res.r, x) <= 5e-12
    assert np.all(np.diagonal(res.r) > 0)
    assert np.array_equal(res.r, np.triu(res.r))


def test_cholesky_qr2_breakdown_tagged():
    x = t1_dense(2e-8)
    with pytest.raises(CholeskyBreakdown) as info:
        qr.cholesky_qr2(x)
    assert info.value.stage == "first-cholesky"


@pytest.mark.parametrize("params, stage", [
    (SketchParams(CHOLQR2), "second-cholesky"),
    (SketchParams(SR, s1=40), "refine-cholesky"),
    (SketchParams(MR, s1=100, s2=40), "refine-cholesky"),
])
def test_second_cholesky_breakdown_tagged(monkeypatch, params, stage):
    calls = []
    real = dense.cholesky

    def second_breaks(g):
        calls.append(g.shape)
        if len(calls) == 2:
            raise CholeskyBreakdown(3)
        return real(g)

    monkeypatch.setattr(dense, "cholesky", second_breaks)
    x = t1_dense(1e-4, q=10)  # 200 x 20
    with pytest.raises(CholeskyBreakdown) as info:
        qr.factorize(params, x, seed=9)
    assert (info.value.stage, info.value.index) == (stage, 3)
    assert calls == [(20, 20), (20, 20)]


def test_requires_tall_input():
    with pytest.raises(DimensionError):
        qr.cholesky_qr2(np.ones((2, 3)))


def test_sr_identity_matrix():
    op = sketch.build_gaussian(4, 4, seed=1)
    res = qr.sr_cholesky_qr2(np.eye(4), op)
    assert qr.orthogonality(res.q) <= 10 * 4 * U


def test_sr_t1_family():
    x = t1_dense(1e-4)
    op = sketch.build_gaussian(500, x.shape[0], seed=42)
    res = qr.sr_cholesky_qr2(x, op)
    assert qr.orthogonality(res.q) <= 1e-13


def spy_draws(monkeypatch):
    """Row counts of every Gaussian block drawn from here on."""
    draws = []
    real = sketch._draw

    def spy(rng, rows, op):
        draws.append(rows)
        return real(rng, rows, op)

    monkeypatch.setattr(sketch, "_draw", spy)
    return draws


def test_sr_dimension_checks(monkeypatch):
    x = np.ones((30, 5))
    draws = spy_draws(monkeypatch)
    with pytest.raises(DimensionError):
        qr.sr_cholesky_qr2(x, sketch.build_gaussian(10, 29, seed=0))
    with pytest.raises(DimensionError):
        qr.sr_cholesky_qr2(x, sketch.build_gaussian(3, 30, seed=0))
    assert draws == []  # both fail before the sketch is applied


def test_mr_dimension_checks(monkeypatch):
    x = np.ones((30, 5))
    draws = spy_draws(monkeypatch)
    with pytest.raises(DimensionError):
        qr.mr_cholesky_qr2(x, sketch.build_multisketch(10, 5, 29, seed=0))
    with pytest.raises(DimensionError):
        qr.mr_cholesky_qr2(x, sketch.build_multisketch(10, 3, 30, seed=0))
    assert draws == []  # both fail before the sketch is applied


def test_mr_degenerate_passthrough():
    # seed 42 draws a collision-free stage-one map, so s1 = s2 = n = m is a
    # pure permutation pass-through
    op = sketch.build_multisketch(4, 4, 4, seed=42)
    res = qr.mr_cholesky_qr2(np.eye(4), op)
    assert qr.orthogonality(res.q) <= 10 * 4 * U


def test_mr_t1_family():
    x = t1_dense(1e-4)
    op = sketch.build_multisketch(2800, 500, x.shape[0], seed=7)
    res = qr.mr_cholesky_qr2(x, op)
    assert qr.orthogonality(res.q) <= 1e-13
    assert qr.residual(res.q, res.r, x) <= 5e-12


def test_mr_sketch_breakdown_stage():
    # rank-deficient input dies in the sketch-stage Cholesky
    x = np.ones((50, 3))
    op = sketch.build_multisketch(20, 5, 50, seed=4)
    with pytest.raises(CholeskyBreakdown) as info:
        qr.mr_cholesky_qr2(x, op)
    assert info.value.stage == "sketch-cholesky"


def test_results_deterministic():
    x = t1_dense(1e-4, q=50)
    op1 = sketch.build_multisketch(700, 100, x.shape[0], seed=11)
    op2 = sketch.build_multisketch(700, 100, x.shape[0], seed=11)
    a = qr.mr_cholesky_qr2(x, op1)
    b = qr.mr_cholesky_qr2(x, op2)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.r, b.r)
    assert qr.orthogonality(a.q) == qr.orthogonality(b.q)


def test_column_space_matches_householder():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal((50, 5))
        res = qr.cholesky_qr2(x)
        q_ref, r_ref = householder_qr(x)
        proj_diff = res.q @ res.q.T - q_ref @ q_ref.T
        assert np.linalg.norm(proj_diff) <= 1e-10
        assert np.linalg.norm(res.r - r_ref) / np.linalg.norm(r_ref) <= 1e-8


def test_orthogonality_metric():
    assert qr.orthogonality(np.eye(3)) == 0.0
    assert qr.orthogonality(np.array([[2.0]])) == pytest.approx(3.0, rel=1e-15)


def test_residual_metric():
    rng = np.random.default_rng(6)
    q = rng.standard_normal((20, 4))
    r = np.triu(rng.standard_normal((4, 4)))
    x = dense.matmul(q, r)
    from rcholqr.bounds import gamma
    bound = gamma(4) * np.linalg.norm(q) * np.linalg.norm(r)
    assert qr.residual(q, r, x) <= bound
    assert qr.residual(np.eye(3), np.eye(3), np.eye(3)) == 0.0


def test_residual_shape_check():
    with pytest.raises(DimensionError):
        qr.residual(np.eye(3), np.eye(3), np.eye(4))
