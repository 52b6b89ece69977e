"""The four factorization algorithms and their quality metrics.

All variants share the same skeleton: form a Gram matrix (of the input or of
a sketched copy), Cholesky it, solve a triangular system, and repeat once to
repair the orthogonality of the first pass.  A failed Cholesky pivot raises
:class:`CholeskyBreakdown` tagged with the stage; the bench harness counts
these rather than aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dense, sketch
from .bounds import MR, SR, SketchParams
from .errors import CholeskyBreakdown, DimensionError
from .norms import fro_norm


@dataclass
class QRDiagnostics:
    orthogonality: float
    residual: float
    stages_completed: list[str] = field(default_factory=list)


@dataclass
class QRResult:
    q: np.ndarray
    r: np.ndarray
    diagnostics: QRDiagnostics


def orthogonality(q) -> float:
    """||Q^T Q - I||_F."""
    q = dense.as_matrix(q)
    if q.shape[0] < q.shape[1]:
        raise DimensionError(f"need rows >= cols, got {q.shape}")
    return fro_norm(dense.gram(q) - np.eye(q.shape[1]))


def residual(q, r, x) -> float:
    """||Q R - X||_F."""
    q = dense.as_matrix(q)
    x = dense.as_matrix(x)
    if q.shape != x.shape:
        raise DimensionError(f"Q shape {q.shape} does not match X shape {x.shape}")
    return fro_norm(dense.matmul(q, r) - x)


def _one_pass(x: np.ndarray, stage: str):
    """Single Gram/Cholesky/solve pass; breakdown is tagged with ``stage``."""
    g = dense.gram(x)
    try:
        r = dense.cholesky(g)
    except CholeskyBreakdown as err:
        raise CholeskyBreakdown(err.index, stage) from None
    return dense.trisolve_right(x, r), r


def _finish(q, r, x, stages) -> QRResult:
    r = np.triu(r)
    return QRResult(q, r, QRDiagnostics(orthogonality(q), residual(q, r, x), stages))


def _require_tall(x) -> np.ndarray:
    x = dense.as_matrix(x)
    if x.shape[0] < x.shape[1]:
        raise DimensionError(f"need rows >= cols, got {x.shape}")
    return x


def cholesky_qr(x) -> QRResult:
    """Single-pass factorization; orthogonality degrades like kappa^2 u."""
    x = _require_tall(x)
    q, r = _one_pass(x, "first-cholesky")
    return _finish(q, r, x, ["first-cholesky"])


def cholesky_qr2(x) -> QRResult:
    """Two chained passes; R is the product of the stage factors."""
    x = _require_tall(x)
    w, y = _one_pass(x, "first-cholesky")
    q, z = _one_pass(w, "second-cholesky")
    return _finish(q, dense.matmul(z, y), x, ["first-cholesky", "second-cholesky"])


def _refine_sketched(x: np.ndarray, a: np.ndarray) -> QRResult:
    """Shared tail of the sketched variants: factor the sketched copy,
    precondition X with it, then run one deterministic pass."""
    g = dense.gram(a)
    try:
        y = dense.cholesky(g)
    except CholeskyBreakdown as err:
        raise CholeskyBreakdown(err.index, "sketch-cholesky") from None
    w = dense.trisolve_right(x, y)
    q, z = _one_pass(w, "refine-cholesky")
    return _finish(q, dense.matmul(z, y), x, ["sketch-cholesky", "refine-cholesky"])


def _require_sketchable(x, out_rows: int) -> np.ndarray:
    """X is tall and the sketch has s >= n rows, checked before the sketch
    is drawn; applying it checks that X has the rows it expects."""
    x = _require_tall(x)
    if out_rows < x.shape[1]:
        raise DimensionError(f"need n <= s, got n={x.shape[1]}, s={out_rows}")
    return x


def sr_cholesky_qr2(x, gauss: sketch.GaussianSketchOp) -> QRResult:
    """Gaussian-sketched variant: precondition with the factor of (Omega X)."""
    x = _require_sketchable(x, gauss.out_rows)
    return _refine_sketched(x, sketch.apply_gaussian(gauss, x))


def mr_cholesky_qr2(x, multi: sketch.MultiSketchOp) -> QRResult:
    """Composed-sketch variant: CountSketch then Gaussian before the first pass."""
    x = _require_sketchable(x, multi.gauss.out_rows)
    return _refine_sketched(x, sketch.apply_multi(multi, x))


def factorize(params: SketchParams, x, seed: int) -> QRResult:
    """Run the algorithm ``params`` names on ``x``, sketching from ``seed``.

    The one map from an algorithm to its sketch and factorization.  It calls
    both through module attributes, so wrappers patched onto ``qr`` and
    ``sketch`` (R capture, tracing) see every call.
    """
    m, n = np.shape(x)
    params.check(m, n)
    if params.mode == MR:
        return mr_cholesky_qr2(
            x, sketch.build_multisketch(params.s1, params.s2, m, seed))
    if params.mode == SR:
        return sr_cholesky_qr2(x, sketch.build_gaussian(params.s1, m, seed))
    return cholesky_qr2(x)
