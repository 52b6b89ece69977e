import platform
import resource
import tracemalloc

import numpy as np
import pytest

from rcholqr import dense, qr, sketch
from rcholqr.bench import SUCCESS, ExperimentConfig, run_experiment
from rcholqr.bounds import CHOLQR2, MR, SR, U, SketchParams, build_bound_report
from rcholqr.errors import CholeskyBreakdown, DimensionError
from rcholqr.generators import GeneratorSpec, make_dense, make_t1
from rcholqr.norms import fro_norm

from oracles import householder_qr, matmul_reference


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
    q = x = np.ones((10, 3))
    for r in [np.eye(3, 4), np.eye(4, 3), np.eye(2), np.ones(3)]:
        with pytest.raises(DimensionError):
            qr.residual(q, r, x)


def _residual_reference(q, r, x):
    return fro_norm(matmul_reference(q, np.triu(r)) - x)


@pytest.mark.parametrize("n", [1, 5, 20, 32, 33, 40, 70])
def test_residual_matches_replay(monkeypatch, n):
    # A chunk of 16 rows, so 15, 16 and 17 rows cut the chunks; where 16
    # rows are not whole 32-entry blocks (n = 1, 5, 33) a chunk is 32
    # rows, which 65 rows cut twice.  Q and X hold exact zeros of both
    # signs, R's upper triangle exact zeros and its lower triangle junk,
    # which the residual must not read.  The product keeps the bits of
    # every nonzero entry.
    monkeypatch.setattr(dense, "_TRI_ROWS", 16)
    rng = np.random.default_rng(n)
    r = rng.standard_normal((n, n))
    r[rng.random((n, n)) < 0.2] = 0.0
    for m in [1, n, 15, 16, 17, 65]:
        q, x = rng.standard_normal((2, m, n))
        q[rng.random((m, n)) < 0.2] = 0.0
        q[rng.random((m, n)) < 0.2] = -0.0
        x[rng.random((m, n)) < 0.2] = -0.0
        x[0] = 0.0
        want = matmul_reference(q, np.triu(r))
        product = np.concatenate([d.copy() for _, d in dense._matmul_upper(q, r)])
        nonzero = want != 0
        assert np.array_equal(product, want)  # -0 == +0
        assert product[nonzero].tobytes() == want[nonzero].tobytes()
        assert qr.residual(q, r, x).hex() == fro_norm(want - x).hex()


def test_residual_holds_no_m_by_n_array():
    # a chunk of rows of the product and the block partials of the
    # squares: 3.5 MiB at 100000 x 20, where one m x n array is 15.3 MiB
    rng = np.random.default_rng(22)
    q, x = rng.standard_normal((2, 100000, 20))
    r = np.triu(rng.standard_normal((20, 20)))
    tracemalloc.start()
    try:
        qr.residual(q, r, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_residual_matches_replay_at_the_chunk_size():
    rng = np.random.default_rng(21)
    r = np.triu(rng.standard_normal((20, 20)))
    for m in [dense._TRI_ROWS - 1, dense._TRI_ROWS + 1]:
        q, x = rng.standard_normal((2, m, 20))
        q[:, 3] = -0.0
        got = qr.residual(q, r, x)
        assert got.hex() == _residual_reference(q, r, x).hex()


@pytest.fixture(scope="module")
def t1_paper():
    return t1_dense(1e-4, q=1000)  # 20000 x 20


@pytest.mark.parametrize("params", [
    SketchParams.none(), SketchParams(SR, s1=500), SketchParams(MR, s1=2800, s2=500),
], ids=["cholqr2", "sr", "mr"])
def test_residual_of_t1_trials_matches_replay(t1_paper, params):
    res = qr.factorize(params, t1_paper, 3)
    got = qr.residual(res.q, res.r, t1_paper)
    assert got.hex() == _residual_reference(res.q, res.r, t1_paper).hex()


@pytest.mark.parametrize("params", [
    SketchParams.none(), SketchParams(SR, s1=2), SketchParams(MR, s1=4, s2=2),
], ids=["cholqr2", "sr", "mr"])
@pytest.mark.parametrize("x", [np.ones(5), np.ones((4, 3, 2)), np.empty((0, 3))],
                         ids=["1-D", "3-D", "empty"])
def test_factorize_bad_shape_is_a_dimension_error(params, x):
    with pytest.raises(DimensionError):
        qr.factorize(params, x, 0)


MODES = [SketchParams.none(), SketchParams(SR, s1=40),
         SketchParams(MR, s1=100, s2=40)]
SPEC = GeneratorSpec("t1", sigma=1e-4, block_count=10)  # 200 x 20

# every public way in for a dense X, as (id, call on X)
ENTRY_POINTS = [
    ("cholesky_qr", qr.cholesky_qr),
    ("cholesky_qr2", qr.cholesky_qr2),
    ("sr", lambda x: qr.sr_cholesky_qr2(x, sketch.build_gaussian(40, 200, 1))),
    ("mr", lambda x: qr.mr_cholesky_qr2(
        x, sketch.build_multisketch(100, 40, 200, 1))),
    ("build_bound_report", lambda x: build_bound_report(x, CHOLQR2, MODES[0])),
    ("verify_embedding", lambda x: sketch.verify_embedding(
        sketch.build_gaussian(40, 200, 1), x, 0.5, 4, 0)),
] + [
    (f"factorize-{p.mode}", lambda x, p=p: qr.factorize(p, x, 1)) for p in MODES
] + [
    (f"run_experiment-{p.mode}", lambda x, p=p: run_experiment(
        ExperimentConfig(SPEC, p.mode, s1=p.s1, s2=p.s2, trials=1), x=x))
    for p in MODES
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", [c for _, c in ENTRY_POINTS],
                         ids=[name for name, _ in ENTRY_POINTS])
def test_entry_points_reject_non_finite_x(monkeypatch, call, bad):
    x = t1_dense(1e-4, q=SPEC.block_count)
    x[57, 3] = bad
    draws = spy_draws(monkeypatch)
    with pytest.raises(ValueError, match="non-finite"):
        call(x)
    assert draws == []  # the sketched ones fail before drawing a block


@pytest.mark.parametrize("alg, s1, s2, q", [
    pytest.param(CHOLQR2, 0, 0, 100, id="cholqr2-0-0"),
    pytest.param(SR, 100, 0, 100, id="sr-100-0"),
    pytest.param(MR, 400, 100, 100, id="mr-400-100"),
    # 20000 x 20 in two 50-row blocks over 625 summation blocks, so the
    # Gaussian apply packs; its drawn blocks are not scanned
    pytest.param(SR, 100, 0, 1000, id="sr-100-0-packed"),
])
def test_one_finiteness_scan_of_x_per_trial(monkeypatch, alg, s1, s2, q):
    x = t1_dense(1e-4, q=q)  # 20 q x 20
    scans = []
    real = np.isfinite

    def counting(a, *args, **kwargs):
        if np.size(a) >= x.size:
            scans.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    spec = GeneratorSpec("t1", sigma=1e-4, block_count=q)
    records, _ = run_experiment(
        ExperimentConfig(spec, alg, s1=s1, s2=s2, trials=1), x=x)
    assert records[0].outcome == SUCCESS  # every stage and metric ran
    assert scans == [x.shape]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's dynamic mmap threshold")
@pytest.mark.parametrize("alg, s1, s2", [(CHOLQR2, 0, 0), (SR, 500, 0), (MR, 2800, 500)])
def test_trials_reuse_heap_pages(alg, s1, s2):
    # W and Q share one (2, m, n) array in qr._two_pass, 6.4 MB here and
    # the largest allocation of a trial.  Freeing it raises glibc's mmap
    # threshold to its size and the trim threshold to twice that, and
    # every other allocation of a trial (a Gaussian draw block holds
    # 2-4 MB) fits under the first, so later trials reuse heap pages.
    # CI runs each case in a fresh interpreter, so none rests on another.
    x = t1_dense(1e-4, q=1000)  # 20000 x 20
    config = ExperimentConfig(GeneratorSpec("t1", sigma=1e-4, block_count=1000),
                              alg, s1=s1, s2=s2, trials=1)
    for _ in range(2):  # from a cold start, the first two trials grow the heap
        run_experiment(config, x=x)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        records, _ = run_experiment(config, x=x)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert records[0].outcome == SUCCESS
        assert faults < 100


# Ceilings on a warm trial's peak, metrics included: the largest
# measured, 9.83, 9.91 and 12.79 MiB, plus about 1.1 MiB (mr read 11.79
# in most trials and 12.79 in 2 of 140, where both workers held a block
# and its partials at once).  With a 16-MB buffer for every one-row sum,
# an m x n buffer for the residual and 8-MB Gaussian draw blocks, all
# three read 25.45 MiB.  cholqr2 peaks in the Gram of W, while W and Q's
# array and the Gram's partials are held; sr and mr peak in the Gaussian
# stage, where each of the two workers holds a drawn block and its
# partials.
@pytest.mark.parametrize("alg, s1, s2, mib", [(CHOLQR2, 0, 0, 11), (SR, 500, 0, 11),
                                              (MR, 2800, 500, 14)])
def test_warm_trial_memory_is_bounded(alg, s1, s2, mib):
    x = t1_dense(1e-4, q=1000)  # 20000 x 20
    config = ExperimentConfig(GeneratorSpec("t1", sigma=1e-4, block_count=1000),
                              alg, s1=s1, s2=s2, trials=1)
    run_experiment(config, x=x)
    tracemalloc.start()
    try:
        records, _ = run_experiment(config, x=x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records[0].outcome == SUCCESS
    assert peak < mib * 2 ** 20
