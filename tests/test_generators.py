import numpy as np
import pytest

from rcholqr import dense, sparse
from rcholqr.errors import ParamError
from rcholqr.generators import GeneratorSpec, generate, make_dense, make_t1, make_t2
from rcholqr.sparse import profile_sparsity, to_dense

# measured condition numbers of the stacked families at m=20000, n=20;
# regression against the experiment table headers at 5% relative
T1_KAPPAS = [(1e-2, 3.99e3), (1e-4, 3.51e5), (1e-6, 3.01e7)]
T2_KAPPAS = [(1e-2, 8.78e2), (1e-4, 8.21e4), (1e-6, 8.04e6)]


@pytest.mark.parametrize("sigma,kappa", T1_KAPPAS)
def test_t1_condition_numbers(sigma, kappa):
    x = to_dense(make_t1(GeneratorSpec("t1", sigma=sigma)))
    assert np.linalg.cond(x) == pytest.approx(kappa, rel=0.05)


@pytest.mark.parametrize("sigma,kappa", T2_KAPPAS)
def test_t2_condition_numbers(sigma, kappa):
    x = to_dense(make_t2(GeneratorSpec("t2", sigma=sigma)))
    assert np.linalg.cond(x) == pytest.approx(kappa, rel=0.05)


def test_t1_block_structure_sigma_one():
    x = to_dense(make_t1(GeneratorSpec("t1", sigma=1.0, block_count=2)))
    block = np.eye(20)
    block[0, 1:] += -5.0
    block[1:, 0] += -10.0
    assert np.array_equal(x, np.tile(block, (2, 1)))


def test_t1_block_structure_general_sigma():
    x = to_dense(make_t1(GeneratorSpec("t1", sigma=1e-2, block_count=1)))
    assert x[0, 0] == 1.0
    assert np.all(x[0, 1:] == -5.0)
    assert np.all(x[1:, 0] == -10.0)
    i = np.arange(1, 20)
    assert np.array_equal(np.diagonal(x)[1:], (1e-2) ** (i / 19.0))


def test_t2_block_structure():
    x = to_dense(make_t2(GeneratorSpec("t2", sigma=0.5, block_count=1)))
    d = 0.5 ** (np.arange(20) / 19.0)
    assert np.all(x[9, [j for j in range(20) if j != 9]] == 1.0)
    assert x[9, 9] == 1.0 + d[9]
    assert np.all(x[10, [j for j in range(20) if j != 10]] == 1.0)
    assert x[10, 10] == 1.0 + d[10]


def test_t2_requires_eleven_rows():
    with pytest.raises(ParamError):
        make_t2(GeneratorSpec("t2", sigma=0.5, block_size=10))


def test_family_classification():
    t1 = make_t1(GeneratorSpec("t1", sigma=1e-4, block_count=50))
    assert profile_sparsity(t1).kind == sparse.T1
    t2 = make_t2(GeneratorSpec("t2", sigma=1e-4, block_count=50))
    assert profile_sparsity(t2).kind == sparse.T2


def test_generators_deterministic():
    spec = GeneratorSpec("t1", sigma=1e-3, block_count=5)
    assert make_t1(spec) == make_t1(spec)
    dspec = GeneratorSpec("dense", sigma=1e-3, block_count=5, seed=11)
    assert np.array_equal(make_dense(dspec), make_dense(dspec))
    other = np.array_equal(make_dense(dspec),
                           make_dense(GeneratorSpec("dense", sigma=1e-3,
                                                    block_count=5, seed=12)))
    assert not other


def test_dense_sigma_one_orthogonal():
    x = make_dense(GeneratorSpec("dense", sigma=1.0, block_count=10, seed=0))
    sv = dense.singular_values(x)
    assert np.max(np.abs(sv - np.sqrt(10.0))) <= 1e-10
    assert np.linalg.cond(x) == pytest.approx(1.0, abs=1e-10)


def test_dense_condition_is_inverse_sigma():
    x = make_dense(GeneratorSpec("dense", sigma=1e-4, block_count=1000, seed=3))
    assert np.linalg.cond(x) == pytest.approx(1e4, rel=1e-6)
    # deeper decay is only checked loosely
    x = make_dense(GeneratorSpec("dense", sigma=1e-6, block_count=200, seed=3))
    assert np.linalg.cond(x) == pytest.approx(1e6, rel=1e-3)


def test_dense_stacking_preserves_condition():
    one = make_dense(GeneratorSpec("dense", sigma=1e-2, block_count=1, seed=5))
    four = make_dense(GeneratorSpec("dense", sigma=1e-2, block_count=4, seed=5))
    sv1 = dense.singular_values(one)
    sv4 = dense.singular_values(four)
    assert np.allclose(sv4, 2.0 * sv1, rtol=1e-12, atol=0)
    assert np.linalg.cond(four) == pytest.approx(np.linalg.cond(one), rel=1e-12)


def test_t1_satisfies_enc_as_stack_grows():
    # the largest entry is fixed, so beta = m c^2 / ||X||_2^2 is invariant
    # exactly when ||X||_2^2 / m is
    ratios = []
    for q in (50, 200, 800):
        x = to_dense(make_t1(GeneratorSpec("t1", sigma=1e-3, block_count=q)))
        ratios.append(dense.singular_values(x)[0] ** 2 / x.shape[0])
    assert max(ratios) - min(ratios) <= 1e-6 * max(ratios)


def test_generate_dispatch():
    assert isinstance(generate(GeneratorSpec("t1", sigma=0.5, block_count=2)),
                      sparse.CSRMatrix)
    assert isinstance(generate(GeneratorSpec("dense", sigma=0.5, block_count=2)),
                      np.ndarray)


def test_spec_validation():
    with pytest.raises(ParamError):
        GeneratorSpec("t1", sigma=0.0)
    with pytest.raises(ParamError):
        GeneratorSpec("t1", sigma=1.5)
    with pytest.raises(ParamError):
        GeneratorSpec("nope", sigma=0.5)
    with pytest.raises(ParamError):
        GeneratorSpec("t1", sigma=0.5, block_size=1)
    with pytest.raises(ParamError):
        GeneratorSpec("t1", sigma=0.5, block_count=0)
