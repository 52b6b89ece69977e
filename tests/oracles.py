"""Independent reference implementations used only by the tests."""

from __future__ import annotations

import math

import numpy as np

from rcholqr import dense, generators, sketch, sparse
from rcholqr.bounds import CHOLQR2, MR, U
from rcholqr.errors import AssumptionViolated

BLOCK = 32


def matmul_compensated(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exactly rounded sums of floating products, via math.fsum."""
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            out[i, j] = math.fsum(a[i, l] * b[l, j] for l in range(k))
    return out


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar replay of the production summation scheme.

    32-wide blocks accumulated left to right, block partials merged by the
    streaming binary-counter pairwise stack, leftovers folded newest-first.
    Must agree bit for bit with rcholqr.dense.matmul.
    """
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n))
    for i in range(m):
        for j in range(n):
            levels: list[int] = []
            stack: list[float] = []
            for lo in range(0, k, BLOCK):
                acc = a[i, lo] * b[lo, j]
                for l in range(lo + 1, min(k, lo + BLOCK)):
                    acc += a[i, l] * b[l, j]
                level = 0
                while levels and levels[-1] == level:
                    levels.pop()
                    acc = stack.pop() + acc
                    level += 1
                levels.append(level)
                stack.append(acc)
            total = stack[-1]
            for part in stack[-2::-1]:
                total = part + total
            out[i, j] = total
    return out


def gram_reference(x: np.ndarray) -> np.ndarray:
    """The upper triangle of matmul_reference(x.T, x), mirrored.

    Must agree bit for bit with rcholqr.dense.gram.
    """
    g = matmul_reference(x.T, x)
    lower = np.tril_indices(g.shape[0], -1)
    g[lower] = g.T[lower]
    return g


def trisolve_reference(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Column-by-column replay of the production triangular solve.

    W[:, j] = (X[:, j] - sum_{l<j} W[:, l] r[l, j]) / r[j, j], the terms
    subtracted in order of l.  Must agree bit for bit with
    rcholqr.dense.trisolve_right.
    """
    n = x.shape[1]
    w = np.empty_like(x)
    for j in range(n):
        acc = x[:, j].copy()
        for l in range(j):
            acc -= w[:, l] * r[l, j]
        w[:, j] = acc / r[j, j]
    return w


def jacobi_singular_values_reference(g: np.ndarray) -> np.ndarray:
    """Replay of the production cyclic Jacobi on a Gram matrix ``g``: the
    same rotations in the same order, each reading numpy scalars and
    copying the pair's rows and columns before it overwrites them.  The
    square roots of the eigenvalues, descending.  Must agree bit for bit
    with rcholqr.dense.singular_values of an X whose Gram is ``g``.
    """
    n = g.shape[0]
    a = g.copy()
    for _ in range(100):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if not abs(apq) > 1e-15 * np.sqrt(abs(a[p, p])) * np.sqrt(abs(a[q, q])):
                    continue
                rotated = True
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / np.sqrt(t * t + 1.0)
                sn = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - sn * cq
                a[:, q] = sn * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
        if not rotated:
            break
    lam = np.sort(np.diagonal(a).copy())[::-1]
    return np.sqrt(np.maximum(lam, 0.0))


def reference_spectrum(spec: generators.GeneratorSpec) -> list:
    """The singular values of the generated input, descending, as 60-digit
    mpmath numbers, without LAPACK.  Every generator input is
    ``block_count`` stacked copies of its first ``block_size`` rows, so its
    singular values are sqrt(block_count) times those of that block, which
    a 60-digit SVD gives.  Needs mpmath, which CI does not install."""
    import mpmath
    x = sparse.as_dense(generators.generate(spec))
    with mpmath.workdps(60):
        block = mpmath.matrix(x[:spec.block_size].tolist())  # exact binary values
        values = mpmath.svd_r(block, compute_uv=False)
        scale = mpmath.sqrt(spec.block_count)
        return sorted((v * scale for v in values), reverse=True)


def householder_qr(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK Householder QR, normalized to a positive R diagonal."""
    q, r = np.linalg.qr(x)
    signs = np.sign(np.diagonal(r))
    signs = np.where(signs == 0.0, 1.0, signs)
    return q * signs, signs[:, None] * r


def densify(op) -> np.ndarray:
    """A sketch operator as an explicit dense matrix.  The Gaussian entries
    come from a Philox stream of the operator's seed drawn here in one
    shot, not through rcholqr.sketch._draw, so a test that patches that
    seam does not patch the reference too."""
    if isinstance(op, sketch.CountSketchOp):
        out = np.zeros((op.out_rows, op.in_rows))
        out[op.row_of, np.arange(op.in_rows)] = op.sign_of
        return out
    if isinstance(op, sketch.GaussianSketchOp):
        rng = np.random.Generator(np.random.Philox(key=op.seed))
        entries = rng.standard_normal((op.out_rows, op.in_rows))
        return entries / math.sqrt(op.out_rows)
    if isinstance(op, sketch.MultiSketchOp):
        return dense.matmul(densify(op.gauss), densify(op.count))
    raise TypeError(f"not a sketch operator: {type(op)!r}")


def write_matrix_market_reference(s, path) -> None:
    """Matrix Market writer one line at a time, every entry's row from one
    whole-matrix index array: the bytes rcholqr.sparse.write_matrix_market
    must write for the CSR matrix s."""
    rows = np.repeat(np.arange(s.rows, dtype=np.int64), np.diff(s.row_ptr))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"{s.rows} {s.cols} {s.nnz}\n")
        for i, j, v in zip(rows.tolist(), s.col_idx.tolist(), s.values.tolist()):
            handle.write(f"{i + 1} {j + 1} {v!r}\n")


def _sketched_terms(params, m: int) -> tuple[float, int, float, float, float, float]:
    """The sketched bounds' per-mode terms, written out from the paper's
    constants without rcholqr.bounds: the sketching-stage coefficient (t
    for mr, t1 for sr), the last sketch size, the composed eps_s and
    eps_b, sqrt(1 - eps_s) and sqrt(1 + eps_b).  The operation order is
    the production one, so the bits agree."""
    if params.mode == MR:
        s1, s2 = params.s1, params.s2
        o1 = math.sqrt(m)
        o2 = 1.0 + 2.0 * (math.sqrt(s1 / s2) + 3.0 / math.sqrt(s2))
        inner = math.sqrt(1.0 + params.e1) + 1.1 * m * U * o1
        t = 1.1 * s1 * U * math.sqrt(s2) * o2 * inner + 1.1 * m * U * o1 * o2
        s_out = s2
    else:
        s = params.s1
        t = 1.1 * m * U * math.sqrt(s) * (
            1.0 + 2.0 * (math.sqrt(m / s) + 3.0 / math.sqrt(s)))
        s_out = s
    e1, e2 = params.e1, params.e2
    eps_s = (e1 + e2) - e1 * e2
    eps_b = (e1 + e2) + e1 * e2
    return t, s_out, eps_s, eps_b, math.sqrt(1.0 - eps_s), math.sqrt(1.0 + eps_b)


def kappa_limit_reference(profile, params, m: int, n: int, eta: float,
                          j: float) -> float:
    """Each class's condition-number limit written out on its own, one
    branch per route: the values rcholqr.bounds.kappa_limit must give bit
    for bit."""
    sw = math.sqrt(profile.v * profile.t1 + n * profile.t2)
    if params.mode == CHOLQR2:
        base = math.sqrt(m * U + (n + 1) * U)
        k2 = 1.0 / (10.5 * j * base)
        if profile.kind == sparse.T1:
            k1 = 1.0 / (10.5 * eta * base * sw)
            return min(k1, k2)
        return k2
    t, s_out, eps_s, _, root_s, root_b = _sketched_terms(params, m)
    tail = math.sqrt((1.0 - eps_s) / (s_out * U + (n + 1) * U))
    k = t * sw
    w = min(root_s / (10.5 * j * t), 1.0 / (10.5 * j * (root_b + t)) * tail)
    if profile.kind == sparse.T1:
        r = min(root_s / (10.5 * eta * k),
                1.0 / (10.5 * eta * (root_b * sw + k)) * tail)
        return min(r, w)
    return w


def predicted_resid_reference(profile, params, m: int, n: int,
                              norm_x_2: float, eta: float, j: float) -> float:
    """Each class's residual bound written out on its own: the values
    rcholqr.bounds.predicted_resid must give bit for bit."""
    sw = math.sqrt(profile.v * profile.t1 + n * profile.t2)
    n_sqrt_n = n * math.sqrt(n)
    scale = U * norm_x_2
    if params.mode == CHOLQR2:
        if profile.kind == sparse.T1:
            return (2.52 * eta * sw + 1.34 * math.sqrt(n)) * n_sqrt_n * scale
        return (2.52 * j + 1.34 * math.sqrt(n)) * n_sqrt_n * scale
    t, _, eps_s, eps_b, root_s, root_b = _sketched_terms(params, m)
    den = 0.87 * math.sqrt((1.0 - eps_s) / (1.0 + eps_b)) - 0.02
    if den <= 0.0:
        raise AssumptionViolated("no kappa(W) cap")
    a = 1.16 / den
    grow = 5.0 * a * a * (m * n * U + n * (n + 1) * U)
    lead = (1.32 + 1.34 * math.sqrt(1.0 + grow)) / root_s
    tail = 1.34 * math.sqrt(1.0 + grow) / root_s
    if profile.kind == sparse.T1:
        k = t * sw
        return lead * (root_b * sw + k) * eta * n_sqrt_n * scale \
            + tail * (root_b + k * eta) * n * n * scale
    return lead * (root_b + t) * j * n_sqrt_n * scale \
        + tail * (root_b + t * j) * n * n * scale
