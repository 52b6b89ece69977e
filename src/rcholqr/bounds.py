"""Executable admissibility conditions, condition-number limits, and error
bound predictions for the factorization algorithms.

Everything here is plain arithmetic in the unit roundoff ``U`` = 2^-53 of
float64, the one precision the package computes in.  Each bound reads the
algorithm only from ``SketchParams.mode`` and the matrix class only through
``_routes``, from ``SparsityProfile.kind``.  The limits are sufficient
conditions: a report with ``admissible=False`` does not stop an algorithm
from running, and the experiment families routinely succeed well past the
certified region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import dense, norms, sparse
from .errors import AssumptionViolated, ParamError, RankDeficient
from .sketch import EmbeddingParams, _check_int, combine_embedding

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


def gamma(n: int) -> float:
    """Accumulated-rounding factor n u / (1 - n u), defined while n u < 1."""
    nu = n * U
    if nu >= 1.0:
        raise ParamError(f"gamma undefined: n*u = {nu} >= 1")
    return nu / (1.0 - nu)


def _size_factor(m: int, n: int) -> float:
    return m * n * U + n * (n + 1) * U


def check_size(m: int, n: int) -> tuple[bool, bool]:
    """(m n u <= 1/64, n (n+1) u <= 1/64)."""
    if not m >= n >= 1:
        raise ParamError(f"need m >= n >= 1, got m={m}, n={n}")
    return (m * n * U <= 1.0 / 64.0, n * (n + 1) * U <= 1.0 / 64.0)


def check_assumption_multi(eps_s: float, eps_b: float, m: int, n: int) -> bool:
    """Embedding distortion leaves enough headroom for the rounding terms."""
    lhs = math.sqrt(1.0 - eps_s) / math.sqrt(1.0 + eps_b)
    rhs = (32.0 / 3.0) * math.sqrt(_size_factor(m, n)) + 2.0 / 87.0
    return lhs >= rhs


def const_a(eps_s: float, eps_b: float) -> float:
    """Condition-number cap of the preconditioned matrix, composed sketch."""
    den = 0.87 * math.sqrt((1.0 - eps_s) / (1.0 + eps_b)) - 0.02
    if den <= 0.0:
        raise AssumptionViolated("distortion too large for the kappa(W) bound")
    return 1.16 / den


def const_d(a: float, m: int, n: int) -> float:
    return 5.0 * a * a * _size_factor(m, n)


def sparse_weight(v: int, t1: int, t2: int, n: int) -> float:
    """sqrt(v t1 + n t2), the nonzero-mass term of the sparse model."""
    return math.sqrt(v * t1 + n * t2)


def gaussian_two_norm_bound(out_rows: int, in_rows: int) -> float:
    """Probabilistic 2-norm cap 1 + C (sqrt(in/out) + 3/sqrt(out)), C = C_GAUSS."""
    return 1.0 + C_GAUSS * (math.sqrt(in_rows / out_rows) + 3.0 / math.sqrt(out_rows))


def const_t(s1: int, s2: int, m: int, eps1: float) -> float:
    """Sketching-stage rounding coefficient of the composed sketch."""
    o1 = math.sqrt(m)  # ||CountSketch||_F: one +-1 per input coordinate
    o2 = gaussian_two_norm_bound(s2, s1)
    inner = math.sqrt(1.0 + eps1) + 1.1 * m * U * o1
    return 1.1 * s1 * U * math.sqrt(s2) * o2 * inner + 1.1 * m * U * o1 * o2


def const_t1(m: int, s: int) -> float:
    """Sketching-stage rounding coefficient of the single Gaussian sketch."""
    return 1.1 * m * U * math.sqrt(s) * gaussian_two_norm_bound(s, m)


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
        """The sketch sizes the mode reads are ints that fit an m x n input:
        n <= s2 <= s1 <= m for mr, n <= s <= m for sr."""
        if self.mode == MR:
            _check_int(self.s1, "s1", n, m)
            _check_int(self.s2, "s2", n, self.s1)
        if self.mode == SR:
            _check_int(self.s1, "s", n, m)

    def embedding(self) -> EmbeddingParams:
        """The composed embedding, range-checked.  The stages that sr and
        cholqr2 lack are zero, and combining a zero stage is exact."""
        return combine_embedding(self.e1, self.p1, self.e2, self.p2)


def _stage(params: SketchParams,
           m: int) -> tuple[float, int, EmbeddingParams, float, float]:
    """The sketched bounds' per-mode terms: the sketching-stage
    coefficient and last sketch size (t and s2 for mr, t1 and s for sr),
    the embedding, sqrt(1 - eps_s) and sqrt(1 + eps_b)."""
    if params.mode == MR:
        t, s_out = const_t(params.s1, params.s2, m, params.e1), params.s2
    else:
        t, s_out = const_t1(m, params.s1), params.s1
    emb = params.embedding()
    return t, s_out, emb, math.sqrt(1.0 - emb.eps_s), math.sqrt(1.0 + emb.eps_b)


def _routes(profile: sparse.SparsityProfile, n: int, eta: float,
            j: float) -> tuple[tuple[float, float], ...]:
    """The (c, w) routes of profile.kind, the residual bound's first: the
    entry-ratio (eta, sqrt(v t1 + n t2)) for T1, then the g-norm (j, 1.0)."""
    if profile.kind != sparse.T1:
        return ((j, 1.0),)
    return (eta, sparse_weight(profile.v, profile.t1, profile.t2, n)), (j, 1.0)


def kappa_limit(profile: sparse.SparsityProfile, params: SketchParams,
                m: int, n: int, eta: float, j: float) -> float:
    """Largest certified condition number for (params.mode, profile.kind),
    the smallest over the class's routes.  Too large an embedding distortion
    raises nothing here (the limit may read 0.0); the report's
    ``assumption_ok`` and ``admissible`` carry that assumption."""
    routes = _routes(profile, n, eta, j)
    if params.mode == CHOLQR2:
        base = math.sqrt(m * U + (n + 1) * U)
        return min(1.0 / (10.5 * c * base * w) for c, w in routes)
    t, s_out, emb, root_s, root_b = _stage(params, m)
    tail = math.sqrt((1.0 - emb.eps_s) / (s_out * U + (n + 1) * U))
    return min(min(root_s / (10.5 * c * (t * w)),
                   1.0 / (10.5 * c * (root_b * w + t * w)) * tail)
               for c, w in routes)


def predicted_orth(params: SketchParams, m: int, n: int) -> float:
    """Orthogonality bound of params.mode; the conservative coefficient when
    two are stated."""
    emb = params.embedding()
    # cholqr2 has no preconditioner to amplify; a = 1 leaves every bit as is
    a = 1.0 if params.mode == CHOLQR2 else const_a(emb.eps_s, emb.eps_b)
    return ORTH_COEFFS[params.mode] * a * a * _size_factor(m, n)


def predicted_resid(profile: sparse.SparsityProfile, params: SketchParams,
                    m: int, n: int, norm_x_2: float, eta: float,
                    j: float) -> float:
    """Residual bound for (params.mode, profile.kind), linear in ||X||_2,
    on the class's first route (see ``_routes``)."""
    c, w = _routes(profile, n, eta, j)[0]
    n_sqrt_n = n * math.sqrt(n)
    scale = U * norm_x_2
    if params.mode == CHOLQR2:
        return (2.52 * c * w + 1.34 * math.sqrt(n)) * n_sqrt_n * scale
    t, _, emb, root_s, root_b = _stage(params, m)
    grow = const_d(const_a(emb.eps_s, emb.eps_b), m, n)
    lead = (1.32 + 1.34 * math.sqrt(1.0 + grow)) / root_s
    tail = 1.34 * math.sqrt(1.0 + grow) / root_s
    k = t * w
    return lead * (root_b * w + k) * c * n_sqrt_n * scale \
        + tail * (root_b + k * c) * n * n * scale


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
                       dense_fraction: float = 0.25) -> BoundReport:
    """Profile a matrix and evaluate every condition and bound for one run.

    When the embedding assumption fails, the report is not admissible and
    the terms that rest on it (the cap, its growth term and both
    predictions) read inf, which the JSON report writes as null."""
    if algorithm != params.mode:
        raise ParamError(f"algorithm {algorithm!r} given {params.mode!r} parameters")
    xd = sparse.as_dense(x)
    m, n = xd.shape
    sketched = algorithm != CHOLQR2
    params.check(m, n)
    profile = sparse.profile_sparsity(xd, dense_fraction)
    size_ok = check_size(m, n)
    emb = params.embedding()
    assumption_ok = not sketched or check_assumption_multi(
        emb.eps_s, emb.eps_b, m, n)
    sv = dense.singular_values(xd)
    norm_x = float(sv[0])
    if norm_x == 0.0:
        raise RankDeficient("zero matrix has no condition number")
    eta_m = profile.c / norm_x
    j_m = norms.g_norm(xd) / norm_x
    kappa = float(sv[0] / sv[-1]) if sv[-1] >= 1e-300 else math.inf
    limit = kappa_limit(profile, params, m, n, eta_m, j_m)
    constants = {
        "gamma_n": gamma(n),
        "eta": eta_m,
        "j": j_m,
    }
    if sketched:
        a = const_a(emb.eps_s, emb.eps_b) if assumption_ok else math.inf
        t = _stage(params, m)[0]
        k = t * sparse_weight(profile.v, profile.t1, profile.t2, n)
        constants.update(zip(CONSTANT_NAMES[algorithm],
                             (a, const_d(a, m, n), t, k)))
    orth = resid = math.inf
    if assumption_ok:
        orth = predicted_orth(params, m, n)
        resid = predicted_resid(profile, params, m, n, norm_x, eta_m, j_m)
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
        predicted_orth=orth,
        predicted_resid=resid,
    )
