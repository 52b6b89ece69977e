import math

import numpy as np
import pytest

from rcholqr import bench, bounds, dense, norms, sparse
from rcholqr.bounds import CHOLQR2, MR, SR, U, SketchParams
from rcholqr.errors import AssumptionViolated, ParamError, RankDeficient
from rcholqr.generators import GeneratorSpec, generate, make_t1
from rcholqr.sparse import SparsityProfile

from oracles import (kappa_limit_reference, predicted_resid_reference,
                     reference_spectrum)

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
    for m, n in ((19, 20), (1, 0)):
        with pytest.raises(ParamError, match="need m >= n >= 1"):
            bounds.check_size(m, n)


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


def test_const_t1_k1():
    # k1 = t1 * sparse_weight; build_bound_report's constants pin both
    t1 = bounds.const_t1(20000, 500)
    assert t1 == 7.601113771173531e-10
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


@pytest.mark.parametrize("family", ["t1", "t2", "dense"])
@pytest.mark.parametrize("alg,params", [
    (CHOLQR2, NO_SKETCH),
    (SR, SketchParams.single(0.5, 0.6, 100)),
    (MR, SketchParams.multi(0.5, 0.6, 0.5, 0.4, 700, 100))])
def test_build_bound_report_same_json_from_csr_and_array(tmp_path, family, alg,
                                                         params):
    # a CSR and the same matrix as an ndarray are profiled from one dense X
    x = sparse.as_dense(generate(GeneratorSpec(family, sigma=1e-4,
                                               block_count=100, seed=3)))
    texts = []
    for i, form in enumerate((sparse.from_dense(x), x)):
        bench.emit_json(bounds.build_bound_report(form, alg, params),
                        tmp_path / f"{i}.json")
        texts.append((tmp_path / f"{i}.json").read_bytes())
    assert texts[0] == texts[1]


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
# with one Gaussian stage: (algorithm, class, profile, eta, j, the unit
# roundoff they were frozen at, kappa_limit, predicted_resid at
# ||X||_2 = 1).
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
]


@pytest.mark.parametrize("alg,kind,profile,eta,j,u,limit,resid", SKETCHED_PINS)
def test_sketched_bounds_pinned(alg, kind, profile, eta, j, u, limit, resid):
    params = EXP_SINGLE if alg == SR else EXP_MULTI
    assert (params.mode, profile.kind, u) == (alg, kind, bounds.U)
    assert bounds.kappa_limit(profile, params, 20000, 20,
                              eta=eta, j=j) == limit
    assert bounds.predicted_resid(profile, params, 20000, 20,
                                  norm_x_2=1.0, eta=eta, j=j) == resid


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
    # j is norms.g_norm over the spectrum's largest value, bit for bit,
    # through zeros and entries far from 1
    rng = np.random.default_rng(shape[0])
    x = rng.standard_normal(shape) * np.exp2(rng.integers(-150, 151, shape))
    x[rng.random(shape) < 0.3] = 0.0
    report = bounds.build_bound_report(x, CHOLQR2, NO_SKETCH)
    assert report.constants["j"] == norms.g_norm(x) / dense.singular_values(x)[0]


def _report_kappa(spec):
    x = sparse.as_dense(generate(spec))
    return bounds.build_bound_report(x, CHOLQR2, NO_SKETCH).kappa_measured, x


@pytest.mark.parametrize("family, sigma", [
    ("t1", 1e-3), ("t1", 1e-4),
    ("t2", 1e-3), ("t2", 1e-4), ("t2", 1e-5),
    ("dense", 1e-3), ("dense", 1e-4), ("dense", 1e-5), ("dense", 1e-6),
])
def test_report_kappa_agrees_with_lapack_up_to_1e6(family, sigma):
    # the Jacobi's per-pair stop test; the global off-norm test it replaced
    # read these up to 37% low (dense at 1e-5)
    kappa, x = _report_kappa(GeneratorSpec(family, sigma=sigma))
    cond = np.linalg.cond(x)
    assert cond < 1.001e6  # dense at 1e-6 is 1e6 to within 3e-12
    assert abs(kappa - cond) <= 1e-4 * cond


@pytest.mark.parametrize("family", ["t1", "t2", "dense"])
def test_report_kappa_is_monotone_in_sigma_up_to_1e7(family):
    kappas = []
    for k in range(4, 21):  # sigma from 1e-2 down by quarter decades
        kappa, x = _report_kappa(GeneratorSpec(family, sigma=10.0 ** (-k / 4)))
        if np.linalg.cond(x) > 1e7:
            break
        kappas.append(kappa)
    assert len(kappas) >= 16 if family == "dense" else len(kappas) >= 13
    assert all(a < b for a, b in zip(kappas, kappas[1:])), kappas


# Exact spectra of the generator inputs in ROADMAP's Baseline spectrum
# table, from oracles.reference_spectrum (a 60-digit SVD of the first
# block, which needs no LAPACK): (family, sigma, seed, kappa, ||X||_2),
# each the double nearest the 60-digit value.  Every input is 1000 copies
# of a 20 x 20 block.
REFERENCE_SPECTRA = [
    ("t1", 1e-4, 0, 350586.55700663535, 1378.9415819189524),
    ("t1", 1e-5, 0, 3254419.2927463558, 1378.927404620284),
    ("t1", 1e-6, 0, 30052948.42692664, 1378.9182061517438),
    ("dense", 1e-7, 0, 10000000.002262212, 31.6227766016838),
    ("t2", 1e-7, 0, 80959210.62162426, 200.1595021061201),
    ("t1", 2e-8, 0, 1299236741.9327812, 1378.9084410302262),
    ("t1", 1e-8, 0, 2529386989.0961876, 1378.9071871725462),
    ("dense", 1.25e-9, 3, 800000003.3037117, 31.622776601683793),
    ("t2", 1.25e-9, 0, 6514987829.07743, 200.14472107344076),
    ("dense", 1e-11, 0, 100000151609.841, 31.6227766016838),
    ("dense", 1e-13, 0, 9999940846238.896, 31.6227766016838),
]
PINNED = {f"{family}-{sigma:g}-seed{seed}":
          (GeneratorSpec(family, sigma=sigma, seed=seed), kappa, norm)
          for family, sigma, seed, kappa, norm in REFERENCE_SPECTRA}


@pytest.mark.parametrize("name", PINNED)
def test_reference_spectrum_regenerates_the_pins(name):
    mpmath = pytest.importorskip("mpmath")
    spec, kappa, norm = PINNED[name]
    values = reference_spectrum(spec)
    with mpmath.workdps(60):
        assert (float(values[0] / values[-1]), float(values[0])) == (kappa, norm)


@pytest.mark.parametrize("name", PINNED)
def test_pinned_input_is_a_tile_of_its_first_block(name):
    # what makes the 20 x 20 block's spectrum the whole input's
    spec = PINNED[name][0]
    x = sparse.as_dense(generate(spec))
    assert np.array_equal(x, np.tile(x[:spec.block_size], (spec.block_count, 1)))


@pytest.mark.parametrize("name", PINNED)
def test_report_two_norm_matches_the_pinned_reference(name):
    spec, _, norm = PINNED[name]
    x = sparse.as_dense(generate(spec))
    assert abs(dense.singular_values(x)[0] - norm) <= 1e-14 * norm


@pytest.mark.parametrize("name", ["t1-0.0001-seed0", "t1-1e-05-seed0"])
def test_report_kappa_matches_the_pinned_reference(name):
    spec, kappa, _ = PINNED[name]
    x = sparse.as_dense(generate(spec))
    report = bounds.build_bound_report(x, CHOLQR2, NO_SKETCH)
    assert abs(report.kappa_measured - kappa) <= 1e-4 * kappa


def test_build_bound_report_calls_spectrum_and_g_norm_once(monkeypatch):
    # through the module attributes, which the benchmark's tracer wraps
    calls = []
    for module, name in ((dense, "singular_values"), (norms, "g_norm")):
        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    x = np.random.default_rng(3).standard_normal((300, 6))
    for alg, params in ((CHOLQR2, NO_SKETCH), (SR, SketchParams.single(0.5, 0.6, 50)),
                        (MR, SketchParams.multi(0.5, 0.6, 0.5, 0.4, 200, 50))):
        calls.clear()
        bounds.build_bound_report(x, alg, params)
        assert sorted(calls) == ["g_norm", "singular_values"], alg


@pytest.mark.parametrize("eps,ok,capped", [
    (0.9985, True, True),
    (0.998943, False, True),  # the band where const_a still reads a number
    (0.999, False, False), (1.0, False, False)])
def test_build_bound_report_failed_assumption_is_a_report(eps, ok, capped):
    # past the assumption, kappa(W) has no cap, whether or not const_a
    # raises: the report says so instead of raising
    x = np.random.default_rng(5).standard_normal((2000, 10))
    params = SketchParams.single(eps, 0.6, 100)
    emb = params.embedding()
    assert bounds.check_assumption_multi(emb.eps_s, emb.eps_b, 2000, 10) is ok
    if capped:
        assert math.isfinite(bounds.const_a(emb.eps_s, emb.eps_b))
    else:
        with pytest.raises(AssumptionViolated):
            bounds.const_a(emb.eps_s, emb.eps_b)
    report = bounds.build_bound_report(x, SR, params)
    assert report.assumption_ok is ok
    if ok:
        assert report.constants["b"] == bounds.const_a(emb.eps_s, emb.eps_b)
        assert math.isfinite(report.predicted_resid)
        return
    assert not report.admissible
    assert math.isinf(report.constants["b"]) and math.isinf(report.constants["h"])
    assert math.isinf(report.predicted_orth) and math.isinf(report.predicted_resid)
    assert report.constants["t1"] == bounds.const_t1(2000, 100)


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


def _bits_or_error(f, *args, **kwargs):
    """float.hex of f's value (NaN matches NaN, -0.0 differs from 0.0),
    or the type of the exception it raised."""
    try:
        return float.hex(f(*args, **kwargs))
    except Exception as err:  # the type is what is compared
        return type(err)


def _bound_grid(draws: int, seed: int):
    """Seeded (profile, params, m, n, norm_x_2, eta, j) draws over every
    class and mode, m up to 10^6, eta and j including 0."""
    rng = np.random.default_rng(seed)
    eps_values = [0.0, 0.1, 0.5, 0.99, 1.0]

    def ratio():
        return 0.0 if rng.random() < 0.15 else float(10.0 ** rng.uniform(-4, 3))

    for _ in range(draws):
        n = int(rng.integers(1, 201))
        m = max(n, int(10.0 ** rng.uniform(0, 6)))
        kind = (sparse.T1, sparse.T2, sparse.DENSE)[int(rng.integers(3))]
        v, t1, t2 = (int(k) for k in rng.integers(0, m + 1, size=3))
        if rng.random() < 0.1:
            v, t2 = 0, 0  # a zero nonzero mass
        profile = SparsityProfile(v=v, t1=t1, t2=t2, c=1.0, kind=kind)
        mode = (CHOLQR2, SR, MR)[int(rng.integers(3))]
        e1, e2 = (eps_values[int(i)] if rng.random() < 0.3 else float(rng.random())
                  for i in rng.integers(len(eps_values), size=2))
        s1 = int(rng.integers(n, m + 1))
        s2 = int(rng.integers(n, s1 + 1))
        params = SketchParams(mode, e1, 0.5, e2 if mode == MR else 0.0, 0.5,
                              s1 if mode != CHOLQR2 else 0,
                              s2 if mode == MR else 0)
        norm_x_2 = float(10.0 ** rng.uniform(-3, 3))
        yield profile, params, m, n, norm_x_2, ratio(), ratio()


def test_bounds_match_per_class_reference_bit_for_bit():
    # one formula per bound over the class's routes gives every bit and
    # every exception type of the per-class expressions
    weightless = SparsityProfile(v=1, t1=0, t2=0, c=1.0, kind=sparse.T1)
    fixed = [(profile, params, 20000, 20, 1.0, eta, j)
             for profile in (T1_PROFILE, T2_PROFILE, DENSE_PROFILE, weightless)
             for params in (NO_SKETCH, EXP_SINGLE, EXP_MULTI)
             for eta, j in ((0.007, 4.45), (0.5, 2.0), (0.0, 2.0), (0.5, 0.0))]
    outcomes = []
    for profile, params, m, n, norm_x_2, eta, j in \
            fixed + list(_bound_grid(1500, seed=20)):
        limit = _bits_or_error(bounds.kappa_limit, profile, params, m, n,
                               eta, j)
        assert limit == _bits_or_error(kappa_limit_reference, profile, params,
                                       m, n, eta, j)
        resid = _bits_or_error(bounds.predicted_resid, profile, params, m, n,
                               norm_x_2, eta, j)
        assert resid == _bits_or_error(predicted_resid_reference, profile,
                                       params, m, n, norm_x_2, eta, j)
        outcomes += [limit, resid]
    # the grid reaches values, zeros and raised errors alike
    assert sum(isinstance(o, str) for o in outcomes) > 2000
    assert "0x0.0p+0" in outcomes
    assert {ZeroDivisionError, AssumptionViolated} <= set(outcomes)
