"""The factorization algorithms, and the two measures of their quality.

CholeskyQR2 and the sketched variants share one skeleton: factor the Gram
matrix of A, precondition X with that factor, and run one more CholeskyQR
pass.  A is X itself for CholeskyQR2 and a sketch of X for the others.  A
failed Cholesky pivot raises :class:`CholeskyBreakdown` tagged with the
stage; the bench harness counts these rather than aborting.  The
factorizations return only Q and R: callers that want ``orthogonality``
and ``residual`` compute them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dense, sketch
from .bounds import MR, SR, SketchParams
from .errors import CholeskyBreakdown, DimensionError
from .norms import fro_norm

_SKETCHED = ("sketch-cholesky", "refine-cholesky")


@dataclass
class QRResult:
    q: np.ndarray
    r: np.ndarray


def orthogonality(q) -> float:
    """||Q^T Q - I||_F."""
    g = dense.gram(q)
    return fro_norm(g - np.eye(g.shape[0]))


def residual(q, r, x) -> float:
    """||Q R - X||_F for an upper-triangular R.

    Only R's upper triangle is read, as in ``dense.trisolve_right``.  Q R
    is formed from it alone, a chunk of rows at a time
    (``dense._matmul_upper``); X is subtracted from each chunk, which is
    squared in place and summed into block partials, so no m x n array is
    made.  For a finite Q this is ``fro_norm(matmul(q, np.triu(r)) - x)``
    bit for bit: the product's entries differ at most in the sign of a
    zero, which the square drops.
    """
    q = dense.as_matrix(q)
    x = dense.as_matrix(x)
    r = dense.as_matrix(r, "triangular factor")
    n = q.shape[1]
    if q.shape != x.shape:
        raise DimensionError(f"Q shape {q.shape} does not match X shape {x.shape}")
    if r.shape != (n, n):
        raise DimensionError(f"R shape {r.shape} is not {n} x {n}")

    def squares():
        for c0, d in dense._matmul_upper(q, r):
            np.subtract(d, x[c0:c0 + len(d)], out=d)
            yield np.multiply(d, d, out=d).reshape(-1, 1)

    return float(np.sqrt(dense._fixed_sum_chunks(squares(), q.size, 1)[0]))


def _gram_factor(a, stage: str) -> np.ndarray:
    """Cholesky factor of A^T A; a breakdown is tagged with ``stage``."""
    try:
        return dense.cholesky(dense.gram(a))
    except CholeskyBreakdown as err:
        raise CholeskyBreakdown(err.index, stage) from None


def _two_pass(x, a, stages: tuple[str, str]) -> QRResult:
    """Precondition X with the factor Y of A's Gram matrix, then run one
    CholeskyQR pass on W = X Y^{-1}; R is the product of the two factors.

    W and Q are solved (``dense._trisolve_into``) into the two halves of
    one (2, m, n) array, the largest allocation of a trial, and Q keeps
    all of it alive as a view: a caller holding Q holds 2 m n floats.
    Freed, the array raises glibc's mmap threshold to its size and the
    trim threshold to twice that, so later trials reuse its heap pages
    (``tests/test_qr.py::test_trials_reuse_heap_pages``).  With Q solved
    in place over W, one m x n array, a trial's heap outgrows twice its
    largest freed block and is trimmed and regrown every trial.
    """
    y = _gram_factor(a, stages[0])
    wq = np.empty((2,) + x.shape)
    w = dense._trisolve_into(x, y, wq[0])
    z = _gram_factor(w, stages[1])
    q = dense._trisolve_into(w, z, wq[1])
    return QRResult(q, np.triu(dense.matmul(z, y)))


def cholesky_qr2(x) -> QRResult:
    """Two chained passes: the first preconditions X with its own factor."""
    x = dense.finite_matrix(x)
    return _two_pass(x, x, ("first-cholesky", "second-cholesky"))


def _require_sketchable(x, out_rows: int) -> np.ndarray:
    """X is finite and the sketch has s >= n rows, checked before it is
    drawn; applying it checks that X has the rows it expects."""
    x = dense.finite_matrix(x)
    if out_rows < x.shape[1]:
        raise DimensionError(f"need n <= s, got n={x.shape[1]}, s={out_rows}")
    return x


def sr_cholesky_qr2(x, gauss: sketch.GaussianSketchOp) -> QRResult:
    """Gaussian-sketched variant: precondition with the factor of (Omega X)."""
    x = _require_sketchable(x, gauss.out_rows)
    return _two_pass(x, sketch.apply_gaussian(gauss, x), _SKETCHED)


def mr_cholesky_qr2(x, multi: sketch.MultiSketchOp) -> QRResult:
    """Composed-sketch variant: CountSketch then Gaussian before the first pass."""
    x = _require_sketchable(x, multi.gauss.out_rows)
    return _two_pass(x, sketch.apply_multi(multi, x), _SKETCHED)


def factorize(params: SketchParams, x, seed: int) -> QRResult:
    """Run the algorithm ``params`` names on ``x``, sketching from ``seed``.

    The one map from an algorithm to its sketch and factorization.  It calls
    both through module attributes, so wrappers patched onto ``qr`` and
    ``sketch`` (R capture, tracing) see every call.  The factorization it
    calls checks that ``x`` is finite.  ``seed`` is checked for every
    algorithm, cholqr2 too, which draws nothing.
    """
    sketch._check_int(seed, "seed")
    x = dense.as_matrix(x)
    m, n = x.shape
    params.check(m, n)
    if params.mode == MR:
        return mr_cholesky_qr2(
            x, sketch.build_multisketch(params.s1, params.s2, m, seed))
    if params.mode == SR:
        return sr_cholesky_qr2(x, sketch.build_gaussian(params.s1, m, seed))
    return cholesky_qr2(x)
