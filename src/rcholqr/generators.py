"""Deterministic generators for the three experiment matrix families.

Each family stacks ``block_count`` copies of a small ``block_size`` square
block; stacking scales every singular value by sqrt(block_count) and leaves
the condition number unchanged.  The decay vector d_i = sigma^((i-1)/(nb-1))
spreads singular values between 1 and sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense, qr, sparse
from .errors import ParamError
from .sketch import _check_int

T1_ARROWHEAD = "t1"
T2_ROWS = "t2"
DENSE_SVD = "dense"

FAMILIES = (T1_ARROWHEAD, T2_ROWS, DENSE_SVD)


@dataclass
class GeneratorSpec:
    family: str
    sigma: float
    block_size: int = 20
    block_count: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParamError(f"unknown family {self.family!r}")
        if not 0.0 < self.sigma <= 1.0:
            raise ParamError("sigma must lie in (0, 1]")
        _check_int(self.block_size, "block_size", 2, None)
        _check_int(self.block_count, "block_count", 1, None)
        _check_int(self.seed, "seed")


def _decay(nb: int, sigma: float) -> np.ndarray:
    return sigma ** (np.arange(nb) / (nb - 1))


def _stack_csr(block: sparse.CSRMatrix, q: int) -> sparse.CSRMatrix:
    nnz = block.nnz
    row_ptr = np.concatenate(
        [block.row_ptr[:-1] + k * nnz for k in range(q)] + [[q * nnz]]
    )
    return sparse.CSRMatrix(
        rows=block.rows * q,
        cols=block.cols,
        row_ptr=row_ptr,
        col_idx=np.tile(block.col_idx, q),
        values=np.tile(block.values, q),
    )


def make_t1(spec: GeneratorSpec) -> sparse.CSRMatrix:
    """Arrowhead stack: one fully dense column, the rest nearly diagonal.

    The block has first row (1, -5, ..., -5), first column (1, -10, ..., -10)
    and the decay vector on the remaining diagonal.
    """
    nb = spec.block_size
    block = np.diag(_decay(nb, spec.sigma))
    block[0, 1:] += -5.0
    block[1:, 0] += -10.0
    return _stack_csr(sparse.from_dense(block), spec.block_count)


def make_t2(spec: GeneratorSpec) -> sparse.CSRMatrix:
    """No-dense-column stack: two all-ones rows on top of the decay diagonal."""
    nb = spec.block_size
    if nb < 11:
        raise ParamError("the T2 family needs block_size >= 11")
    block = np.diag(_decay(nb, spec.sigma))
    block[9, :] += 1.0
    block[10, :] += 1.0
    return _stack_csr(sparse.from_dense(block), spec.block_count)


def make_dense(spec: GeneratorSpec) -> np.ndarray:
    """Stacked U diag(d) V^T with seeded random orthogonal U, V.

    In exact arithmetic the stack's condition number is exactly 1/sigma.
    The orthogonal factors come from factorizing seeded standard-normal
    blocks; positive-diagonal R makes them unique given the seed.
    """
    nb = spec.block_size
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    u = qr.cholesky_qr2(rng.standard_normal((nb, nb))).q
    v = qr.cholesky_qr2(rng.standard_normal((nb, nb))).q
    block = dense.matmul(u * _decay(nb, spec.sigma), np.ascontiguousarray(v.T))
    return np.tile(block, (spec.block_count, 1))


def generate(spec: GeneratorSpec):
    """Dispatch on family; sparse families return CSR, dense an ndarray."""
    if spec.family == T1_ARROWHEAD:
        return make_t1(spec)
    if spec.family == T2_ROWS:
        return make_t2(spec)
    return make_dense(spec)
