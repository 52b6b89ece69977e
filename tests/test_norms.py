import numpy as np
import pytest

from rcholqr import norms, sparse
from rcholqr.bounds import CHOLQR2, SketchParams, build_bound_report


def test_fro_norm_examples():
    assert norms.fro_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0), rel=1e-15)
    assert norms.fro_norm(np.array([[3.0, 4.0]])) == 5.0
    assert norms.fro_norm(np.zeros((4, 2))) == 0.0


def test_g_bracket_examples():
    assert norms.g_bracket(np.eye(4)) == 1.0
    assert norms.g_bracket(np.array([[3.0, 0.0], [4.0, 0.0]])) == 5.0


def test_g_norm_examples():
    assert norms.g_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert norms.g_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(
        5.0 * np.sqrt(2.0), rel=1e-15)


def test_norms_accept_csr():
    d = np.array([[3.0, 0.0], [4.0, 0.0]])
    s = sparse.from_dense(d)
    assert norms.g_bracket(s) == norms.g_bracket(d)
    assert norms.fro_norm(s) == norms.fro_norm(d)


def test_eta_j_examples():
    # eta and j are measured once, for the bound report
    for x, eta, j in ((np.eye(5), 1.0, np.sqrt(5.0)),
                      (np.array([[3.0], [4.0]]), 0.8, 1.0)):
        constants = build_bound_report(x, CHOLQR2, SketchParams.none()).constants
        assert constants["eta"] == pytest.approx(eta, rel=1e-12)
        assert constants["j"] == pytest.approx(j, rel=1e-12)


def test_norm_chain_and_ratio_ranges():
    rng = np.random.default_rng(2)
    slack = 1e-12
    for _ in range(300):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(1, min(m, 12) + 1))
        x = rng.standard_normal((m, n))
        two, fro, g = np.linalg.norm(x, 2), norms.fro_norm(x), norms.g_norm(x)
        assert two <= fro * (1 + slack)
        assert fro <= g * (1 + slack)
        assert g <= np.sqrt(n) * two * (1 + slack)
        assert 0.0 < np.max(np.abs(x)) / two <= 1.0 + slack  # eta
        assert 1.0 - slack <= g / two <= np.sqrt(n) * (1 + slack)  # j


def test_g_bracket_triangle_inequality():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(1, 15))
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((m, n))
        y = rng.standard_normal((m, n))
        assert norms.g_bracket(x + y) <= norms.g_bracket(x) + norms.g_bracket(y) + 1e-14


def test_g_norm_triangle_and_submultiplicative():
    rng = np.random.default_rng(4)
    slack = 1e-12
    for _ in range(200):
        m = int(rng.integers(2, 25))
        p = int(rng.integers(1, 10))
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((m, p))
        y = rng.standard_normal((p, n))
        xy = x @ y
        g_xy = norms.g_norm(xy)
        assert g_xy <= np.linalg.norm(x, 2) * norms.g_norm(y) * (1 + slack)
        assert g_xy <= norms.fro_norm(x) * norms.g_norm(y) * (1 + slack)
        z = rng.standard_normal((m, p))
        assert norms.g_norm(x + z) <= norms.g_norm(x) + norms.g_norm(z) + 1e-13


def test_g_norm_power_of_two_homogeneity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((17, 5))
    for alpha in (0.5, 2.0, 8.0, 0.125):
        assert norms.g_norm(alpha * x) == alpha * norms.g_norm(x)
