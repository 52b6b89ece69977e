"""Random embeddings: CountSketch, Gaussian sketch, and their composition.

Operators are built from ``numpy``'s counter-based Philox generator, so a
seed fully determines an operator independently of platform or call order.
The Gaussian entries are scaled by 1/sqrt(s), which makes E||Omega x||^2 =
||x||^2 and is what the subspace-embedding guarantees require.

A Gaussian operator is its seed and shape only.  :func:`apply_gaussian`
draws it from the seed in row blocks, in stream order, and never stores
it; consecutive draws continue one Philox stream, so the blocks are
bitwise the rows of the one-shot ``standard_normal((s, m))``.  Each
output row is reduced from its own row of the operator alone, so the
result bits depend neither on the block size nor on which of its two
workers, the caller and a thread started on every call, reduces a block.

X is dense, and the reduction multiplies only its nonzeros where it is
sparse: a column of X with at most 16 nonzeros in each 32-row block is
packed (see ``dense``; this apply is the only product that packs), as are
19 of the 20 columns of a t1 input and all 20 of a t2 input.  A skipped
product is a finite normal times +-0, and adding +-0 to a nonzero partial
sum leaves it exactly as it was, so the result keeps the bits of the
step-major product; a sum that comes out +-0 is recomputed step-major for
its sign.  The draw is then the floor: the stream is read serially,
about 20 ms per 50 x 20000 block on a 2-vCPU Xeon, against 10-15 ms to
reduce a packed t1 or t2 block.

The Gaussian stage of a composed sketch depends on nothing but its seed,
so :func:`apply_multi` checks both stages' shapes, starts the Gaussian
helper, and runs the CountSketch stage in the caller while the helper
draws; the stage's output is the Gaussian apply's X.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass
from math import floor, sqrt
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import dense, sparse
from .errors import DimensionError, ParamError

_MASK64 = (1 << 64) - 1
_DRAW = 1 << 18  # about the fewest Gaussian entries per drawn block (2 MiB)


def mix_seed(master: int, index: int) -> int:
    """Public splitmix64-style mixer; derived streams never overlap.

    Used both for per-trial seeds (seed_i = mix_seed(master, i), so adding
    trials never changes earlier ones) and for the sub-operators of a
    composed sketch.
    """
    z = (master + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_int(value, name: str, lo: int = 0, hi: int | None = _MASK64) -> None:
    """The one check of an integer field: an ``Integral`` that is not a
    bool, in [lo, hi], or at least lo when hi is None.  A float is refused
    even when whole, and True is not 1.  The default range is a seed's,
    [0, 2**64): a Philox key, and all that ``mix_seed`` keeps of a master
    seed."""
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or value < lo or (hi is not None and value > hi):
        end = "inf)" if hi is None else "2**64)" if hi == _MASK64 else f"{hi}]"
        raise ParamError(f"{name} must lie in [{lo}, {end} as an int, got {value!r}")


@dataclass
class CountSketchOp:
    """One signed nonzero per input coordinate; Frobenius norm sqrt(m) exactly."""

    out_rows: int
    in_rows: int
    row_of: np.ndarray
    sign_of: np.ndarray
    seed: int


@dataclass
class GaussianSketchOp:
    """s x m matrix of Philox normals over sqrt(s), drawn only when applied."""

    out_rows: int
    in_rows: int
    seed: int


@dataclass
class MultiSketchOp:
    """CountSketch followed by a Gaussian sketch."""

    count: CountSketchOp
    gauss: GaussianSketchOp


@dataclass
class EmbeddingParams:
    """Distortion interval and failure probability of a (composed) sketch."""

    eps_s: float
    eps_b: float
    p_f: float


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw(rng: np.random.Generator, rows: int, op: GaussianSketchOp) -> np.ndarray:
    """The next ``rows`` rows of ``op``'s stream ``rng``, not yet scaled:
    the one place the stream is read."""
    return rng.standard_normal((rows, op.in_rows))


def build_countsketch(s1: int, m: int, seed: int) -> CountSketchOp:
    _check_int(seed, "seed")
    _check_int(s1, "s1", 1, m)
    rng = _philox(seed)
    row_of = rng.integers(0, s1, size=m, dtype=np.int64)
    sign_of = 2.0 * rng.integers(0, 2, size=m, dtype=np.int64) - 1.0
    return CountSketchOp(s1, m, row_of, sign_of, seed)


def build_gaussian(s: int, m_in: int, seed: int) -> GaussianSketchOp:
    _check_int(seed, "seed")
    _check_int(s, "s", 1, m_in)
    return GaussianSketchOp(s, m_in, seed)


def build_multisketch(s1: int, s2: int, m: int, seed: int) -> MultiSketchOp:
    """Independent stages from sub-seeds mix_seed(seed, 0) and mix_seed(seed, 1)."""
    _check_int(seed, "seed")
    return MultiSketchOp(
        count=build_countsketch(s1, m, mix_seed(seed, 0)),
        gauss=build_gaussian(s2, s1, mix_seed(seed, 1)),
    )


def apply_countsketch(op: CountSketchOp, x) -> np.ndarray:
    """Accumulate signed input rows into their target rows, in row order.

    Costs O(nnz) for CSR input.
    """
    out_cols = x.cols if isinstance(x, sparse.CSRMatrix) else None
    if out_cols is not None:
        if x.rows != op.in_rows:
            raise DimensionError(f"operator expects {op.in_rows} rows, got {x.rows}")
        out = np.zeros((op.out_rows, out_cols))
        if x.nnz:
            rows = sparse._entry_rows(x)
            np.add.at(out, (op.row_of[rows], x.col_idx), op.sign_of[rows] * x.values)
        return out
    x = dense.as_matrix(x)
    if x.shape[0] != op.in_rows:
        raise DimensionError(f"operator expects {op.in_rows} rows, got {x.shape[0]}")
    out = np.zeros((op.out_rows, x.shape[1]))
    np.add.at(out, op.row_of, op.sign_of[:, None] * x)
    return out


def _block_rows(s: int, m_in: int) -> int:
    """Rows per drawn block of an s x m_in Gaussian operator.

    A function of the shape only.  Blocks hold at least ``_DRAW // m_in``
    rows (at most twice that) and split the rows evenly, their count
    rounded down; an operator of fewer than twice that many rows is one
    block, reduced by whichever worker takes it first.  The kernel's inner
    loop is the longer of a block's rows and its m_in / 32 summation
    blocks, and their product is at least about _DRAW / 32, so that loop
    never gets shorter than about 90: 500 x 20000 splits into blocks of
    14 rows (36 of them, the last of 10) with 625 summation blocks
    innermost, and 500 x 2800 into five 100-row blocks with the rows
    innermost.  Rounding the count up instead would give 84-row blocks
    there, fewer than its 88 summation blocks, which puts the blocks
    innermost and made mr trials about 17% slower.
    """
    rows = max(1, _DRAW // m_in)
    count = max(1, s // rows)
    return -(-s // count)


class _CountSketched(NamedTuple):
    """The CountSketch of X, made by :func:`apply_gaussian`'s caller while
    its helper draws.  ``cols`` is X's column count; both stages' shapes
    are checked before it is made.  It goes through the module attribute
    ``apply_gaussian``, so a wrapper of that (the benchmark's tracer) sees
    mr's Gaussian stage, with the CountSketch apply inside it."""

    cols: int
    make: Callable[[], np.ndarray]


def apply_gaussian(op: GaussianSketchOp, x) -> np.ndarray:
    """Omega X, for a dense X, with Omega drawn from its seed one row block
    at a time.

    Two workers, the caller and a helper thread started on every call and
    joined before it returns, take row blocks in turn; with one block, the
    helper may find none left.  Each reads its block from the stream under
    a lock, so the stream is read in row order whoever takes a block,
    scales it outside the lock, and reduces it against X into its own rows
    of the result.  The helper starts drawing before the caller has made
    the reduction's operand, which it waits for; under :func:`apply_multi`
    the caller first makes X itself, the CountSketch stage.
    The bits equal ``dense.matmul(Omega, X)`` for the one-shot Omega.
    An error in either worker stops both and is raised here.
    """
    if isinstance(x, _CountSketched):
        cols, make = x
    else:
        x = dense.as_matrix(x)
        if x.shape[0] != op.in_rows:
            raise DimensionError(f"operator expects {op.in_rows} rows, got {x.shape[0]}")
        cols, make = x.shape[1], lambda: x
    s = op.out_rows
    rows = _block_rows(s, op.in_rows)
    scale = sqrt(s)
    rng = _philox(op.seed)
    lock = threading.Lock()
    ready = threading.Event()
    next_row, stop = 0, False
    errors, operand = [], []

    def work():
        nonlocal next_row, stop
        try:
            while True:
                with lock:
                    i0 = next_row
                    if stop or i0 == s:
                        return
                    next_row = i1 = min(s, i0 + rows)
                    block = _draw(rng, i1 - i0, op)
                block /= scale
                ready.wait()
                if stop:
                    return
                out[i0:i1] = dense._reduce(block, operand[0])
                del block  # before the next draw, so a worker holds one block
        except BaseException as exc:
            stop = True
            errors.append(exc)

    helper = threading.Thread(target=work, name="rcholqr-sketch")
    helper.start()
    try:
        out = np.empty((s, cols))
        operand.append(dense._reduce_operand(make(), rows))
    except BaseException as exc:
        stop = True
        errors.append(exc)
    ready.set()
    work()
    helper.join()
    if errors:
        raise errors[0]
    return out


def apply_multi(op: MultiSketchOp, x) -> np.ndarray:
    """The Gaussian stage of the CountSketch stage of a dense X.

    Both stages' shapes are checked first; the Gaussian helper then draws
    while the caller applies the CountSketch, rather than after it.  The
    bits equal ``apply_gaussian(op.gauss, apply_countsketch(op.count, X))``.
    """
    x = dense.as_matrix(x)
    rows, cols = x.shape
    if rows != op.count.in_rows:
        raise DimensionError(f"operator expects {op.count.in_rows} rows, got {rows}")
    if op.count.out_rows != op.gauss.in_rows:
        raise DimensionError(f"CountSketch makes {op.count.out_rows} rows, "
                             f"Gaussian stage expects {op.gauss.in_rows}")
    return apply_gaussian(op.gauss, _CountSketched(
        cols, lambda: apply_countsketch(op.count, x)))


def _tolerant_ceil(value: float) -> int:
    """Ceiling that forgives float dust just above an integer."""
    base = floor(value)
    if value - base <= 1e-9 * max(1.0, abs(value)):
        return int(base)
    return int(base) + 1


def countsketch_min_rows(n: int, eps: float, p: float) -> int:
    """Smallest admissible CountSketch size: ceil((n^2 + n) / (eps^2 p))."""
    if not 0.0 < eps < 1.0 or not 0.0 < p < 1.0:
        raise ParamError("need 0 < eps < 1 and 0 < p < 1")
    if n < 1:
        raise ParamError("need n >= 1")
    return _tolerant_ceil((n * n + n) / (eps * eps * p))


def combine_embedding(e1: float, p1: float, e2: float, p2: float) -> EmbeddingParams:
    """Distortion of two independently drawn sketches applied in sequence.

    eps_s = e1 + e2 - e1 e2 bounds the shrink side, eps_b = e1 + e2 + e1 e2
    the stretch side, and p_f = p1 + p2 - p1 p2 the failure probability.
    Each stage's eps and p must lie in [0, 1].
    """
    if not all(0.0 <= value <= 1.0 for value in (e1, p1, e2, p2)):
        raise ParamError(f"need each stage's eps and p in [0, 1], got {e1, p1, e2, p2}")
    return EmbeddingParams(
        eps_s=(e1 + e2) - e1 * e2,
        eps_b=(e1 + e2) + e1 * e2,
        p_f=(p1 + p2) - p1 * p2,
    )


def _apply_any(op, x) -> np.ndarray:
    if isinstance(op, CountSketchOp):
        return apply_countsketch(op, x)
    if isinstance(op, GaussianSketchOp):
        return apply_gaussian(op, x)
    if isinstance(op, MultiSketchOp):
        return apply_multi(op, x)
    raise TypeError(f"not a sketch operator: {type(op)!r}")


def verify_embedding(op, x, eps, trials: int, seed: int) -> float:
    """Empirical frequency of the two-sided norm-preservation inequality.

    Draws ``trials`` random coefficient vectors c, forms vectors X c from the
    column space of a dense ``x``, and counts how often
    sqrt(1 - eps_lo) ||Xc|| <= ||Op Xc|| <= sqrt(1 + eps_hi) ||Xc||.
    ``eps`` is a scalar, or a composed sketch's EmbeddingParams (eps_s, eps_b).
    eps_lo must lie in [0, 1] and eps_hi must be non-negative; eps_hi > 1
    is legal, since composed sketches reach it.
    """
    _check_int(trials, "trials", 1, None)
    _check_int(seed, "seed")
    if isinstance(eps, EmbeddingParams):
        lo, hi = eps.eps_s, eps.eps_b
    else:
        lo = hi = float(eps)
    if not (0.0 <= lo <= 1.0 and hi >= 0.0):
        raise ParamError(f"need 0 <= eps_lo <= 1 and eps_hi >= 0, got ({lo}, {hi})")
    x = dense.finite_matrix(x)
    rng = _philox(seed)
    coeff = rng.standard_normal((x.shape[1], trials))
    vectors = dense.matmul(x, coeff)
    images = _apply_any(op, vectors)
    nx = np.sqrt(dense.fixed_sum_rows(vectors * vectors))
    ny = np.sqrt(dense.fixed_sum_rows(images * images))
    ok = (np.sqrt(1.0 - lo) * nx <= ny) & (ny <= np.sqrt(1.0 + hi) * nx)
    return float(np.count_nonzero(ok)) / trials
