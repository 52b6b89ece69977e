import math

import numpy as np
import pytest

from rcholqr import bounds, dense, norms, sparse
from rcholqr.bounds import CHOLQR2, MR, SR, U, SketchParams
from rcholqr.errors import AssumptionViolated, ParamError, RankDeficient
from rcholqr.generators import GeneratorSpec, make_t1
from rcholqr.sparse import SparsityProfile

EXP_MULTI = SketchParams.multi(0.5, 0.6, 0.5, 0.4, 2800, 500)
EXP_SINGLE = SketchParams.single(0.5, 0.6, 500)
NO_SKETCH = SketchParams.none()

T1_PROFILE = SparsityProfile(v=1, t1=20000, t2=2000, c=10.0, kind=sparse.T1)
T2_PROFILE = SparsityProfile(v=0, t1=0, t2=2000, c=10.0, kind=sparse.T2)
DENSE_PROFILE = SparsityProfile(v=20, t1=20000, t2=0, c=1.0, kind=sparse.DENSE)


def test_gamma():
    assert bounds.gamma(0) == 0.0
    assert bounds.gamma(2) == 2.2204460492503136e-16
    for n in (1, 10, 1000, 10**6, 10**9, 10**12):
        assert bounds.gamma(n) <= 1.02 * n * U
    with pytest.raises(ParamError):
        bounds.gamma(2**53)


def test_check_size():
    assert bounds.check_size(20000, 20) == (True, True)
    assert bounds.check_size(2**53, 1) == (False, True)
    assert bounds.check_size(1, 1) == (True, True)
    assert 20000 * 20 * U == pytest.approx(4.44e-11, rel=1e-2)


def test_check_assumptions():
    assert bounds.check_assumption_multi(0.75, 1.25, 20000, 20)
    assert not bounds.check_assumption_multi(0.9999, 1.25, 20000, 20)
    assert bounds.check_assumption_multi(0.5, 0.5, 20000, 20)


def test_const_a_b():
    assert bounds.const_a(0.75, 1.25) == pytest.approx(1.16 / 0.27, rel=1e-12)
    assert bounds.const_a(0.0, 0.0) == pytest.approx(1.16 / 0.85, rel=1e-12)
    assert bounds.const_a(0.5, 0.5) == 2.4051682876783262  # single sketch: b
    with pytest.raises(AssumptionViolated):
        bounds.const_a(0.999999, 1.25)


def test_const_d_regression():
    a = bounds.const_a(0.75, 1.25)
    assert bounds.const_d(a, 20000, 20) == 4.102838721104646e-09


def test_const_t_regression_experiment_params():
    # frozen from direct evaluation with the default operator-norm bounds
    assert bounds.const_t(2800, 500, 20000, 0.5) == 2.1291328470006474e-09
    assert bounds.gaussian_two_norm_bound(500, 2800) == pytest.approx(
        6.001191983779668, rel=1e-15)


def test_const_t_vanishes_without_rounding():
    assert bounds.const_t(2800, 500, 20000, 0.5, u=0.0) == 0.0
    assert bounds.const_t1(20000, 500, u=0.0) == 0.0


def test_const_t1_k1():
    # k1 = t1 * sparse_weight; build_bound_report's constants pin both
    t1 = bounds.const_t1(20000, 500)
    assert t1 == 7.601113771173531e-10
    assert bounds.const_t1(20000, 500, u=2 * U) == pytest.approx(2 * t1, rel=1e-15)
    assert bounds.sparse_weight(0, 0, 0, 20) == 0.0
    assert bounds.sparse_weight(2, 50, 3, 20) == math.sqrt(2 * 50 + 60)


def test_kappa_limit_deterministic_dense():
    limit = bounds.kappa_limit(DENSE_PROFILE, NO_SKETCH,
                               20000, 20, eta=1.0, j=math.sqrt(20))
    assert limit == 14283.92974214603


def test_kappa_limit_monotone_in_eta():
    lo = bounds.kappa_limit(T1_PROFILE, NO_SKETCH,
                            20000, 20, eta=0.01, j=2.0)
    hi = bounds.kappa_limit(T1_PROFILE, NO_SKETCH,
                            20000, 20, eta=0.5, j=2.0)
    assert lo >= hi


def test_kappa_limit_u_to_zero():
    tiny = bounds.kappa_limit(T2_PROFILE, EXP_MULTI,
                              20000, 20, eta=0.1, j=2.0, u=1e-40)
    big = bounds.kappa_limit(T2_PROFILE, EXP_MULTI,
                             20000, 20, eta=0.1, j=2.0)
    assert tiny > 1e10 * big


def test_kappa_limit_t1_below_t2():
    r_and_w = bounds.kappa_limit(T1_PROFILE, EXP_MULTI,
                                 20000, 20, eta=0.007, j=4.45)
    w_only = bounds.kappa_limit(T2_PROFILE, EXP_MULTI,
                                20000, 20, eta=0.007, j=4.45)
    assert r_and_w <= w_only


def test_kappa_limit_sr_dispatch():
    w1 = bounds.kappa_limit(DENSE_PROFILE, EXP_SINGLE,
                            20000, 20, eta=1.0, j=2.0)
    both = bounds.kappa_limit(T1_PROFILE, EXP_SINGLE,
                              20000, 20, eta=1.0, j=2.0)
    assert both <= w1


def test_predicted_orth():
    assert bounds.predicted_orth(NO_SKETCH, 20000, 20) == \
        2.667333021122431e-10
    assert bounds.predicted_orth(EXP_MULTI, 20000, 20) == \
        4.923406465325575e-09
    assert bounds.predicted_orth(NO_SKETCH, 1, 1) == 18 * U
    b = bounds.const_a(0.5, 0.5)
    assert bounds.predicted_orth(EXP_SINGLE, 20000, 20) == pytest.approx(
        5 * b * b * (20000 * 20 * U + 420 * U), rel=1e-15)


def test_predicted_orth_conservative_coefficient():
    a = bounds.const_a(0.75, 1.25)
    factor = 20000 * 20 * U + 420 * U
    assert bounds.predicted_orth(EXP_MULTI, 20000, 20) == pytest.approx(
        bounds.ORTH_COEFFS[MR] * a * a * factor, rel=1e-15)
    assert bounds.ORTH_COEFFS[MR] == 6.0


def test_predicted_resid_u6():
    got = bounds.predicted_resid(DENSE_PROFILE,
                                 NO_SKETCH, 20000, 20, norm_x_2=1.0,
                                 eta=1.0, j=math.sqrt(20))
    assert got == 1.714184350021242e-13


def test_predicted_resid_u5_equals_u6_when_masses_match():
    # eta * sqrt(v t1 + n t2) == j makes the sparse and g-norm routes agree
    profile = SparsityProfile(v=1, t1=4, t2=0, c=1.0, kind=sparse.T1)
    u5 = bounds.predicted_resid(profile, NO_SKETCH,
                                100, 5, norm_x_2=3.0, eta=1.0, j=2.0)
    t2_profile = SparsityProfile(v=0, t1=0, t2=4, c=1.0, kind=sparse.T2)
    u6 = bounds.predicted_resid(t2_profile, NO_SKETCH,
                                100, 5, norm_x_2=3.0, eta=1.0, j=2.0)
    assert u5 == pytest.approx(u6, rel=1e-15)


def test_predicted_resid_linear_in_norm():
    args = (T2_PROFILE, EXP_MULTI, 20000, 20)
    one = bounds.predicted_resid(*args, norm_x_2=1.0, eta=0.1, j=2.0)
    seven = bounds.predicted_resid(*args, norm_x_2=7.0, eta=0.1, j=2.0)
    assert seven == pytest.approx(7 * one, rel=1e-15)


def test_bounds_monotone_in_u():
    for params in (NO_SKETCH, EXP_MULTI, EXP_SINGLE):
        low = bounds.predicted_orth(params, 20000, 20, u=U)
        high = bounds.predicted_orth(params, 20000, 20, u=2 * U)
        assert high > low
        r_low = bounds.predicted_resid(T2_PROFILE, params,
                                       20000, 20, 1.0, 0.1, 2.0, u=U)
        r_high = bounds.predicted_resid(T2_PROFILE, params,
                                        20000, 20, 1.0, 0.1, 2.0, u=2 * U)
        assert r_high > r_low
        k_low = bounds.kappa_limit(T2_PROFILE, params,
                                   20000, 20, 0.1, 2.0, u=2 * U)
        k_high = bounds.kappa_limit(T2_PROFILE, params,
                                    20000, 20, 0.1, 2.0, u=U)
        assert k_high > k_low


def test_build_bound_report_t1():
    x = make_t1(GeneratorSpec("t1", sigma=1e-4))
    report = bounds.build_bound_report(x, MR, EXP_MULTI)
    assert report.matrix_class == sparse.T1
    assert report.size_ok == (True, True)
    assert report.assumption_ok
    # measured kappa is far beyond the certified sufficient region
    assert report.kappa_measured == pytest.approx(3.51e5, rel=0.05)
    assert not report.admissible
    assert report.kappa_measured > report.kappa_limit
    for key in ("gamma_n", "eta", "j", "a", "d", "t", "k"):
        assert key in report.constants
    assert report.constants["k"] == report.constants["t"] * math.sqrt(
        1 * 20000 + 20 * 2000)


def test_build_bound_report_admissible_implication():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 8))
    for alg, params in ((CHOLQR2, NO_SKETCH),
                        (SR, SketchParams.single(0.5, 0.6, 64)),
                        (MR, SketchParams.multi(0.5, 0.6, 0.5, 0.4, 300, 64))):
        report = bounds.build_bound_report(x, alg, params)
        if report.admissible:
            assert report.size_ok == (True, True)
            assert report.assumption_ok
            assert report.kappa_measured <= report.kappa_limit
    det = bounds.build_bound_report(x, CHOLQR2, NO_SKETCH)
    assert det.admissible  # random Gaussian input is far inside the region


# Exact values of the sketched bounds, frozen before sr was written as mr
# with one Gaussian stage: (algorithm, class, profile, eta, j, u,
# kappa_limit, predicted_resid at ||X||_2 = 1).
SKETCHED_PINS = [
    (SR, sparse.T1, T1_PROFILE, 0.007, 4.45, U,
     51376.68584007757, 1.8151686326207922e-13),
    (SR, sparse.DENSE, DENSE_PROFILE, 0.007, 4.45, U,
     51376.68584007757, 3.0666129552515556e-13),
    (MR, sparse.T1, T1_PROFILE, 0.007, 4.45, U,
     29662.343376145524, 3.143964303013608e-13),
    (MR, sparse.DENSE, DENSE_PROFILE, 0.007, 4.45, U,
     29662.343376145524, 5.311529459823851e-13),
    (SR, sparse.T1, T1_PROFILE, 0.5, 2.0, U,
     1866.7255305880456, 5.7063610290317075e-12),
    (SR, sparse.DENSE, DENSE_PROFILE, 0.5, 2.0, U,
     114313.12599417259, 1.9457214633450633e-13),
    (MR, sparse.T1, T1_PROFILE, 0.5, 2.0, U,
     1077.7544867272513, 9.883707260969405e-12),
    (MR, sparse.DENSE, DENSE_PROFILE, 0.5, 2.0, U,
     65998.71401192379, 3.370088439647986e-13),
    (SR, sparse.T1, T1_PROFILE, 0.5, 2.0, 1e-7,
     0.0008031248620416609, 0.019201632050630305),
    (SR, sparse.DENSE, DENSE_PROFILE, 0.5, 2.0, 1e-7,
     0.04918115279363009, 0.00044772004966445536),
    (MR, sparse.T1, T1_PROFILE, 0.5, 2.0, 1e-7,
     0.00020139106071030466, 0.08701970861125813),
    (MR, sparse.DENSE, DENSE_PROFILE, 0.5, 2.0, 1e-7,
     0.01233263343745289, 0.0017637753837555703),
]


@pytest.mark.parametrize("alg,kind,profile,eta,j,u,limit,resid", SKETCHED_PINS)
def test_sketched_bounds_pinned(alg, kind, profile, eta, j, u, limit, resid):
    params = EXP_SINGLE if alg == SR else EXP_MULTI
    assert (params.mode, profile.kind) == (alg, kind)
    assert bounds.kappa_limit(profile, params, 20000, 20,
                              eta=eta, j=j, u=u) == limit
    assert bounds.predicted_resid(profile, params, 20000, 20,
                                  norm_x_2=1.0, eta=eta, j=j, u=u) == resid


def test_build_bound_report_constants_pinned():
    # eta and j come from the measured spectrum of the paper's t1 matrix
    x = make_t1(GeneratorSpec("t1", sigma=1e-4))
    common = [("gamma_n", 2.2204460492503182e-15), ("eta", 0.0072519388283903),
              ("j", 4.471571591311695)]
    expected = {
        SR: (EXP_SINGLE, common + [
            ("b", 2.4051682876783262), ("h", 1.2858400051985237e-09),
            ("t1", 7.601113771173531e-10), ("k1", 1.8618850216217528e-07)]),
        MR: (EXP_MULTI, common + [
            ("a", 4.296296296296297), ("d", 4.102838721104646e-09),
            ("t", 2.1291328470006474e-09), ("k", 5.215289069750832e-07)]),
    }
    for alg, (params, pairs) in expected.items():
        report = bounds.build_bound_report(x, alg, params)
        assert list(report.constants.items()) == pairs, alg


@pytest.mark.parametrize("shape", [(33, 5), (417, 11), (4096, 20), (100000, 3)])
def test_build_bound_report_j_is_g_norm_over_two_norm(shape):
    # the report takes j from the diagonal of the Gram matrix it forms for
    # the spectrum; that must be norms.g_norm bit for bit, through zeros and
    # entries far from 1
    rng = np.random.default_rng(shape[0])
    x = rng.standard_normal(shape) * np.exp2(rng.integers(-150, 151, shape))
    x[rng.random(shape) < 0.3] = 0.0
    report = bounds.build_bound_report(x, CHOLQR2, NO_SKETCH)
    assert report.constants["j"] == norms.g_norm(x) / dense.singular_values(x)[0]


def test_build_bound_report_zero_matrix_raises():
    with pytest.raises(RankDeficient):
        bounds.build_bound_report(np.zeros((40, 3)), CHOLQR2, NO_SKETCH)


def test_build_bound_report_rejects_mismatched_params():
    x = np.random.default_rng(1).standard_normal((200, 20))
    with pytest.raises(ParamError):
        bounds.build_bound_report(x, SR, SketchParams.none())
    with pytest.raises(ParamError):
        bounds.build_bound_report(x, MR, SketchParams.multi(0.5, 0.6, 0.5, 0.4,
                                                           100, 300))
    with pytest.raises(ParamError):
        SketchParams("qr")


def test_single_embedding_is_eps_eps_p_exactly():
    # sr's embedding goes through combine_embedding with a zero second stage
    grid = [0.0, 5e-324, 1e-300, 0.1, 0.5, 0.6, 1.0 - 2.0 ** -53, 1.0]
    grid += list(np.random.default_rng(2).random(20))
    for e in grid:
        for p in grid:
            emb = SketchParams.single(e, p, 500).embedding()
            assert (emb.eps_s, emb.eps_b, emb.p_f) == (e, e, p)


@pytest.mark.parametrize("eps, p", [(0.5, 1.5), (-0.5, 0.6), (1.5, 0.6),
                                    (math.nan, 0.6), (0.5, -0.1), (0.5, math.nan)])
def test_single_embedding_rejects_out_of_range(eps, p):
    with pytest.raises(ParamError, match=r"need each stage's eps and p in \[0, 1\]"):
        SketchParams.single(eps, p, 500).embedding()
