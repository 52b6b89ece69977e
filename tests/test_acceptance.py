"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a one-line PASS summary (visible with ``pytest -s``).  The heavy
full-scale experiments (m = 20000, n = 20) live here; module-level unit
tests cover the same operations at smaller sizes.
"""

import math
import time

import numpy as np
import pytest

from rcholqr import bounds, dense, norms, qr, sketch
from rcholqr.bench import ExperimentConfig, load_input, run_experiment
from rcholqr.bounds import CHOLQR2, MR, SR, SketchParams, gamma
from rcholqr.errors import CholeskyBreakdown
from rcholqr.generators import GeneratorSpec, make_dense
from rcholqr.sketch import (
    build_gaussian,
    combine_embedding,
    countsketch_min_rows,
    mix_seed,
    verify_embedding,
)

from oracles import densify, householder_qr, matmul_compensated

M, N = 20000, 20
S1, S2 = 2800, 500


def _bench(spec, algorithm, master_seed, x=None, trials=30, **kw):
    config = ExperimentConfig(generator=spec, algorithm=algorithm,
                              trials=trials, master_seed=master_seed, **kw)
    return run_experiment(config, x=x)


def test_criterion_1_full_scale_reproduction():
    started = time.perf_counter()
    spec = GeneratorSpec("t1", sigma=1e-4)
    x = load_input(ExperimentConfig(generator=spec, algorithm=CHOLQR2))
    assert x.shape == (M, N)
    kappa = np.linalg.cond(x)
    assert kappa == pytest.approx(3.51e5, rel=0.05)
    worst = {}
    for alg, kw in ((CHOLQR2, {}), (SR, dict(s1=S2)),
                    (MR, dict(s1=S1, s2=S2))):
        records, summary = _bench(spec, alg, master_seed=0, x=x, **kw)
        assert summary.successes == 30, alg
        worst[alg] = (max(r.orthogonality for r in records),
                      max(r.residual for r in records))
        assert worst[alg][0] <= 5e-14, alg
        assert worst[alg][1] <= 5e-12, alg
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS: kappa {kappa:.4e}, 30/30 everywhere, "
          f"worst orth {max(w[0] for w in worst.values()):.2e}, "
          f"worst resid {max(w[1] for w in worst.values()):.2e}, "
          f"{elapsed:.1f}s")


def test_criterion_2_breakdown_frontier():
    # master seeds are pinned; every run below is bit-reproducible
    cases = [
        ("t1", GeneratorSpec("t1", sigma=2e-8), 0),
        ("t2", GeneratorSpec("t2", sigma=1.25e-9), 5),
        ("dense", GeneratorSpec("dense", sigma=1.25e-9, seed=3), 0),
    ]
    lines = []
    for name, spec, master in cases:
        x = load_input(ExperimentConfig(generator=spec, algorithm=CHOLQR2))
        det_records, det_summary = _bench(spec, CHOLQR2, master, x=x)
        assert det_summary.successes == 0, name
        assert all(r.outcome.startswith("BREAKDOWN") for r in det_records), name
        _, sr_summary = _bench(spec, SR, master, x=x, s1=S2)
        _, mr_summary = _bench(spec, MR, master, x=x, s1=S1, s2=S2)
        assert 1 <= sr_summary.successes <= 29, name
        assert 1 <= mr_summary.successes <= 29, name
        lines.append(f"{name}: det 0/30, sr {sr_summary.successes}/30, "
                     f"mr {mr_summary.successes}/30")
    print(f"\n[criterion 2] PASS: " + "; ".join(lines))


def test_criterion_3_dense_deterministic_boundary():
    ok = make_dense(GeneratorSpec("dense", sigma=1e-8, seed=3))
    res = qr.cholesky_qr2(ok)
    orth = qr.orthogonality(res.q)
    assert orth <= 5e-14
    bad = make_dense(GeneratorSpec("dense", sigma=1.25e-9, seed=3))
    with pytest.raises(CholeskyBreakdown):
        qr.cholesky_qr2(bad)
    print(f"\n[criterion 3] PASS: kappa 1e8 orth "
          f"{orth:.2e}, kappa 8e8 breakdown")


def test_criterion_4_bound_soundness():
    x = make_dense(GeneratorSpec("dense", sigma=1e-2, block_size=10,
                                 block_count=200, seed=1))
    configs = [
        (CHOLQR2, SketchParams.none(), 100),
        (SR, SketchParams.single(0.5, 0.6, 100),
         math.ceil((1 - 0.6) * 100)),
        (MR, SketchParams.multi(0.5, 0.6, 0.5, 0.4, 800, 100),
         math.ceil((1 - 0.76) * 100)),
    ]
    lines = []
    for alg, params, need in configs:
        report = bounds.build_bound_report(x, alg, params)
        assert report.admissible, alg
        held = 0
        for i in range(100):
            res = qr.factorize(params, x, mix_seed(2025, i))
            held += (qr.orthogonality(res.q) <= report.predicted_orth
                     and qr.residual(res.q, res.r, x) <= report.predicted_resid)
        assert held >= need, (alg, held)
        if alg == CHOLQR2:
            assert held == 100
        lines.append(f"{alg} {held}/100 (need {need})")
    print(f"\n[criterion 4] PASS: " + "; ".join(lines))


def test_criterion_5_norm_chain_properties():
    rng = np.random.default_rng(99)
    slack = 1e-12
    shapes = [(2, 1), (200, 50)]
    while len(shapes) < 988:
        m = int(rng.integers(2, 81))
        shapes.append((m, int(rng.integers(1, min(m, 16) + 1))))
    while len(shapes) < 1000:
        m = int(rng.integers(100, 201))
        shapes.append((m, int(rng.integers(20, min(m, 50) + 1))))
    for m, n in shapes:
        x = rng.standard_normal((m, n))
        two, fro, g = np.linalg.norm(x, 2), norms.fro_norm(x), norms.g_norm(x)
        assert two <= fro * (1 + slack)
        assert fro <= g * (1 + slack)
        assert g <= math.sqrt(n) * two * (1 + slack)
        assert 0.0 < np.max(np.abs(x)) / two <= 1.0 + slack
        assert 1.0 - slack <= g / two <= math.sqrt(n) * (1 + slack)
        y = rng.standard_normal((m, n))
        assert norms.g_norm(x + y) <= (norms.g_norm(x) + norms.g_norm(y)) * (1 + slack)
        z = rng.standard_normal((n, int(rng.integers(1, 6))))
        g_xz = norms.g_norm(x @ z)
        assert g_xz <= np.linalg.norm(x, 2) * norms.g_norm(z) * (1 + slack)
        assert g_xz <= norms.fro_norm(x) * norms.g_norm(z) * (1 + slack)
    print(f"\n[criterion 5] PASS: chain, triangle, submultiplicative over "
          f"{len(shapes)} matrices")


def test_criterion_6_sketch_exactness():
    root_m = np.sqrt(4096.0)
    for seed in range(100):
        op = sketch.build_countsketch(512, 4096, seed)
        assert norms.fro_norm(densify(op)) == root_m
    assert countsketch_min_rows(20, 0.5, 0.6) == 2800
    emb = combine_embedding(0.5, 0.6, 0.5, 0.4)
    assert (emb.eps_s, emb.eps_b, emb.p_f) == (0.75, 1.25, 0.76)
    print("\n[criterion 6] PASS: Frobenius sqrt(m) x100 seeds, "
          "min rows 2800, combined params exact")


def test_criterion_7_embedding_frequency():
    rng = np.random.Generator(np.random.Philox(key=77))
    x = rng.standard_normal((2000, 20))
    op = build_gaussian(500, 2000, seed=78)
    fraction = verify_embedding(op, x, 0.5, trials=500, seed=79)
    assert fraction >= 0.4
    print(f"\n[criterion 7] PASS: frequency {fraction:.3f} >= 0.4")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(88)
    worst_proj, worst_r = 0.0, 0.0
    for _ in range(50):
        x = rng.standard_normal((50, 5))
        res = qr.cholesky_qr2(x)
        q_ref, r_ref = householder_qr(x)
        proj = np.linalg.norm(res.q @ res.q.T - q_ref @ q_ref.T)
        rdiff = np.linalg.norm(res.r - r_ref) / np.linalg.norm(r_ref)
        worst_proj, worst_r = max(worst_proj, proj), max(worst_r, rdiff)
        assert proj <= 1e-10
        assert rdiff <= 1e-8
    print(f"\n[criterion 8] PASS: worst projector diff {worst_proj:.2e}, "
          f"worst R diff {worst_r:.2e}")


def test_criterion_9_rounding_model_conformance():
    rng = np.random.default_rng(91)
    for _ in range(500):
        m, k, n = (int(v) for v in rng.integers(1, 13, 3))
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        exact = matmul_compensated(a, b)
        bound = gamma(k) * np.abs(a) @ np.abs(b) + 1e-300
        assert np.all(np.abs(dense.matmul(a, b) - exact) <= bound)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        mfac = rng.standard_normal((n, n))
        g = mfac.T @ mfac + np.eye(n)
        g = 0.5 * (g + g.T)
        r = dense.cholesky(g)
        back = matmul_compensated(r.T.copy(), r)
        bound = gamma(n + 1) * np.abs(r).T @ np.abs(r) + 1e-300
        assert np.all(np.abs(back - g) <= bound)
    print("\n[criterion 9] PASS: componentwise product and factorization "
          "bounds on 500+500 instances")
