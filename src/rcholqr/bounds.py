"""Executable admissibility conditions, condition-number limits, and error
bound predictions for the factorization algorithms.

Everything here is plain arithmetic in the unit roundoff ``u`` (2^-53 by
default, overridable for sensitivity checks).  Each bound reads the
algorithm only from ``SketchParams.mode`` and the matrix class only from
``SparsityProfile.kind``.  The limits are sufficient
conditions: a report with ``admissible=False`` does not stop an algorithm
from running, and the experiment families routinely succeed well past the
certified region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dense, sparse
from .errors import AssumptionViolated, ParamError, RankDeficient
from .sketch import EmbeddingParams, combine_embedding

U = dense.UNIT_ROUNDOFF

CHOLQR2 = "cholqr2"
SR = "sr"
MR = "mr"

# Orthogonality-bound coefficients, the conservative one where two are
# stated.  The alternates: a derived 5 a^2 for the composed sketch (stated
# 6 a^2) and 5.9 for cholqr2 (stated 6); sr states 5 a^2 only.
ORTH_COEFFS = {MR: 6.0, SR: 5.0, CHOLQR2: 6.0}
# Gaussian tail-bound constant C of gaussian_two_norm_bound.
C_GAUSS = 2.0
# Report names of the amplification cap, its growth term, the sketching-
# stage coefficient and its nonzero-mass scaling; sr keeps the paper's names.
CONSTANT_NAMES = {MR: ("a", "d", "t", "k"), SR: ("b", "h", "t1", "k1")}


def gamma(n: int, u: float = U) -> float:
    """Accumulated-rounding factor n u / (1 - n u), defined while n u < 1."""
    nu = n * u
    if nu >= 1.0:
        raise ParamError(f"gamma undefined: n*u = {nu} >= 1")
    return nu / (1.0 - nu)


def _size_factor(m: int, n: int, u: float) -> float:
    return m * n * u + n * (n + 1) * u


def check_size(m: int, n: int, u: float = U) -> tuple[bool, bool]:
    """(m n u <= 1/64, n (n+1) u <= 1/64)."""
    if not m >= n >= 1:
        raise ParamError(f"need m >= n >= 1, got m={m}, n={n}")
    return (m * n * u <= 1.0 / 64.0, n * (n + 1) * u <= 1.0 / 64.0)


def check_assumption_multi(eps_s: float, eps_b: float, m: int, n: int,
                           u: float = U) -> bool:
    """Embedding distortion leaves enough headroom for the rounding terms."""
    lhs = math.sqrt(1.0 - eps_s) / math.sqrt(1.0 + eps_b)
    rhs = (32.0 / 3.0) * math.sqrt(_size_factor(m, n, u)) + 2.0 / 87.0
    return lhs >= rhs


def const_a(eps_s: float, eps_b: float) -> float:
    """Condition-number cap of the preconditioned matrix, composed sketch."""
    den = 0.87 * math.sqrt((1.0 - eps_s) / (1.0 + eps_b)) - 0.02
    if den <= 0.0:
        raise AssumptionViolated("distortion too large for the kappa(W) bound")
    return 1.16 / den


def const_d(a: float, m: int, n: int, u: float = U) -> float:
    return 5.0 * a * a * _size_factor(m, n, u)


def sparse_weight(v: int, t1: int, t2: int, n: int) -> float:
    """sqrt(v t1 + n t2), the nonzero-mass term of the sparse model."""
    return math.sqrt(v * t1 + n * t2)


def gaussian_two_norm_bound(out_rows: int, in_rows: int) -> float:
    """Probabilistic 2-norm cap 1 + C (sqrt(in/out) + 3/sqrt(out)), C = C_GAUSS."""
    return 1.0 + C_GAUSS * (math.sqrt(in_rows / out_rows) + 3.0 / math.sqrt(out_rows))


def const_t(s1: int, s2: int, m: int, eps1: float, u: float = U) -> float:
    """Sketching-stage rounding coefficient of the composed sketch."""
    o1 = math.sqrt(m)  # ||CountSketch||_F: one +-1 per input coordinate
    o2 = gaussian_two_norm_bound(s2, s1)
    inner = math.sqrt(1.0 + eps1) + 1.1 * m * u * o1
    return 1.1 * s1 * u * math.sqrt(s2) * o2 * inner + 1.1 * m * u * o1 * o2


def const_t1(m: int, s: int, u: float = U) -> float:
    """Sketching-stage rounding coefficient of the single Gaussian sketch."""
    return 1.1 * m * u * math.sqrt(s) * gaussian_two_norm_bound(s, m)


@dataclass
class SketchParams:
    """One algorithm configuration: its name, sketch sizes and embedding
    parameters.  For sr, ``s1`` is the Gaussian size and ``e1``/``p1`` its
    embedding; sr is analysed as mr with eps_s = eps_b = e1."""

    mode: str  # CHOLQR2 | SR | MR
    e1: float = 0.0
    p1: float = 0.0
    e2: float = 0.0
    p2: float = 0.0
    s1: int = 0
    s2: int = 0

    @classmethod
    def multi(cls, e1: float, p1: float, e2: float, p2: float,
              s1: int, s2: int) -> "SketchParams":
        return cls(MR, e1, p1, e2, p2, s1, s2)

    @classmethod
    def single(cls, eps: float, p: float, s: int) -> "SketchParams":
        return cls(SR, e1=eps, p1=p, s1=s)

    @classmethod
    def none(cls) -> "SketchParams":
        return cls(CHOLQR2)

    def __post_init__(self):
        if self.mode not in (CHOLQR2, SR, MR):
            raise ParamError(f"unknown algorithm {self.mode!r}")

    def check(self, m: int, n: int) -> None:
        """The sketch sizes fit an m x n input: n <= s2 <= s1 <= m for mr,
        n <= s <= m for sr."""
        if self.mode == MR and not n <= self.s2 <= self.s1 <= m:
            raise ParamError(
                f"need n <= s2 <= s1 <= m, got s1={self.s1}, s2={self.s2}")
        if self.mode == SR and not n <= self.s1 <= m:
            raise ParamError(f"need n <= s <= m, got s={self.s1}")

    def embedding(self) -> EmbeddingParams:
        if self.mode == MR:
            return combine_embedding(self.e1, self.p1, self.e2, self.p2)
        if self.mode == SR:  # range-checked; adding a zero stage is exact
            return combine_embedding(self.e1, self.p1, 0.0, 0.0)
        return EmbeddingParams(0.0, 0.0, 0.0)


def _stage(params: SketchParams, m: int, u: float) -> tuple[float, int]:
    """Sketching-stage coefficient and last sketch size: t and s2 for mr,
    t1 and s for sr."""
    if params.mode == MR:
        return const_t(params.s1, params.s2, m, params.e1, u), params.s2
    return const_t1(m, params.s1, u), params.s1


def kappa_limit(profile: sparse.SparsityProfile, params: SketchParams,
                m: int, n: int, eta: float, j: float, u: float = U) -> float:
    """Largest certified condition number for (params.mode, profile.kind).

    Sparse-column classes use the entry-ratio route (through eta and the
    nonzero mass), everything else the g-norm route (through j); T1 inputs
    take the smaller of the two.  Falls to AssumptionViolated when the
    embedding distortion is too large to certify anything.
    """
    sw = sparse_weight(profile.v, profile.t1, profile.t2, n)
    if params.mode == CHOLQR2:
        base = math.sqrt(m * u + (n + 1) * u)
        k2 = 1.0 / (10.5 * j * base)
        if profile.kind == sparse.T1:
            k1 = 1.0 / (10.5 * eta * base * sw)
            return min(k1, k2)
        return k2
    emb = params.embedding()
    t, s_out = _stage(params, m, u)
    root_s = math.sqrt(1.0 - emb.eps_s)
    root_b = math.sqrt(1.0 + emb.eps_b)
    tail = math.sqrt((1.0 - emb.eps_s) / (s_out * u + (n + 1) * u))
    k = t * sw
    w = min(root_s / (10.5 * j * t), 1.0 / (10.5 * j * (root_b + t)) * tail)
    if profile.kind == sparse.T1:
        r = min(root_s / (10.5 * eta * k),
                1.0 / (10.5 * eta * (root_b * sw + k)) * tail)
        return min(r, w)
    return w


def predicted_orth(params: SketchParams, m: int, n: int, u: float = U) -> float:
    """Orthogonality bound of params.mode; the conservative coefficient when
    two are stated."""
    emb = params.embedding()
    # cholqr2 has no preconditioner to amplify; a = 1 leaves every bit as is
    a = 1.0 if params.mode == CHOLQR2 else const_a(emb.eps_s, emb.eps_b)
    return ORTH_COEFFS[params.mode] * a * a * _size_factor(m, n, u)


def predicted_resid(profile: sparse.SparsityProfile, params: SketchParams,
                    m: int, n: int, norm_x_2: float, eta: float, j: float,
                    u: float = U) -> float:
    """Residual bound for (params.mode, profile.kind), linear in ||X||_2."""
    sw = sparse_weight(profile.v, profile.t1, profile.t2, n)
    n_sqrt_n = n * math.sqrt(n)
    scale = u * norm_x_2
    if params.mode == CHOLQR2:
        if profile.kind == sparse.T1:
            return (2.52 * eta * sw + 1.34 * math.sqrt(n)) * n_sqrt_n * scale
        return (2.52 * j + 1.34 * math.sqrt(n)) * n_sqrt_n * scale
    emb = params.embedding()
    t, _ = _stage(params, m, u)
    grow = const_d(const_a(emb.eps_s, emb.eps_b), m, n, u)
    root_s = math.sqrt(1.0 - emb.eps_s)
    root_b = math.sqrt(1.0 + emb.eps_b)
    lead = (1.32 + 1.34 * math.sqrt(1.0 + grow)) / root_s
    tail = 1.34 * math.sqrt(1.0 + grow) / root_s
    if profile.kind == sparse.T1:
        k = t * sw
        return lead * (root_b * sw + k) * eta * n_sqrt_n * scale \
            + tail * (root_b + k * eta) * n * n * scale
    return lead * (root_b + t) * j * n_sqrt_n * scale \
        + tail * (root_b + t * j) * n * n * scale


@dataclass
class BoundReport:
    """Evaluated conditions and predictions for one (matrix, algorithm) pair."""

    algorithm: str
    matrix_class: str
    m: int
    n: int
    size_ok: tuple[bool, bool]
    assumption_ok: bool
    kappa_limit: float
    kappa_measured: float
    admissible: bool
    constants: dict[str, float] = field(default_factory=dict)
    predicted_orth: float = 0.0
    predicted_resid: float = 0.0


def build_bound_report(x, algorithm: str, params: SketchParams,
                       dense_fraction: float = 0.25, u: float = U) -> BoundReport:
    """Profile a matrix and evaluate every condition and bound for one run."""
    if algorithm != params.mode:
        raise ParamError(f"algorithm {algorithm!r} given {params.mode!r} parameters")
    if isinstance(x, sparse.CSRMatrix):
        csr = x
        xd = sparse.to_dense(x)
    else:
        xd = dense.finite_matrix(x)
        csr = sparse.from_dense(xd)
    m, n = xd.shape
    sketched = algorithm != CHOLQR2
    params.check(m, n)
    profile = sparse.profile_sparsity(csr, dense_fraction)
    size_ok = check_size(m, n, u)
    emb = params.embedding()
    assumption_ok = not sketched or check_assumption_multi(
        emb.eps_s, emb.eps_b, m, n, u)
    # one Gram matrix feeds ||X||_2, kappa, eta, and j: the spectrum is
    # dense.singular_values(xd), and its diagonal is fixed_sum_rows(xd * xd)
    # bit for bit, so j is norms.g_norm(xd) / ||X||_2 written on it
    g = dense.gram(xd)
    sv = np.sqrt(np.maximum(dense.sym_eigenvalues(g), 0.0))
    norm_x = float(sv[0])
    if norm_x == 0.0:
        raise RankDeficient("zero matrix has no condition number")
    eta_m = profile.c / norm_x
    j_m = float(np.sqrt(n)) * float(np.sqrt(np.max(np.diagonal(g)))) / norm_x
    kappa = float(sv[0] / sv[-1]) if sv[-1] >= 1e-300 else math.inf
    limit = kappa_limit(profile, params, m, n, eta_m, j_m, u)
    constants = {
        "gamma_n": gamma(n, u),
        "eta": eta_m,
        "j": j_m,
    }
    if sketched:
        a = const_a(emb.eps_s, emb.eps_b)
        t, _ = _stage(params, m, u)
        k = t * sparse_weight(profile.v, profile.t1, profile.t2, n)
        constants.update(zip(CONSTANT_NAMES[algorithm],
                             (a, const_d(a, m, n, u), t, k)))
    admissible = bool(size_ok[0] and size_ok[1] and assumption_ok
                      and kappa <= limit)
    return BoundReport(
        algorithm=algorithm,
        matrix_class=profile.kind,
        m=m,
        n=n,
        size_ok=size_ok,
        assumption_ok=assumption_ok,
        kappa_limit=limit,
        kappa_measured=kappa,
        admissible=admissible,
        constants=constants,
        predicted_orth=predicted_orth(params, m, n, u),
        predicted_resid=predicted_resid(profile, params, m, n, norm_x,
                                        eta_m, j_m, u),
    )
