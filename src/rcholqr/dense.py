"""Dense kernels with a fixed, platform-independent summation scheme.

Matrices are plain C-ordered float64 ``numpy`` arrays.  Every reduction in
``matmul``, ``gram``, ``fixed_sum`` and ``fixed_sum_rows`` (and so in the
norms, the residual and the Gaussian sketch built on them) runs in one
deterministic order: the summation axis is cut into 32-wide blocks, each
block is summed left to right, and the block partials are merged by a
carry-pairwise tree (neighbours added pairwise, an odd last partial
carried up unchanged) whose shape depends only on the length of the
summation axis.  Results are therefore bit-reproducible across runs,
thread counts, and BLAS builds, while rounding error grows like the block
size plus the tree depth instead of linearly in the reduced dimension.

One loop, :func:`_block_sums`, forms the block partials of every product
and of ``gram``: step s of every block at once, as one vectorized
multiply and add over the blocks.  The step-major kernel,
:func:`_reduce_steps`, chooses its memory layout from the operand shapes
alone: the longer of the output-row count and the block count is the
innermost axis.  It works in chunks that fit in cache; the left operand
is copied chunk by chunk, the right operand once.  No layout or chunk
size changes a bit of the result.

A sum (``fixed_sum``, ``fixed_sum_rows``) forms no product: as a product
with a row of ones it would multiply by 1.0, which is exact, so
:func:`_block_adds` adds each block's 32 steps directly.  One function,
:func:`_fixed_sum_chunks`, runs every sum: it takes the summands as a
stream of chunks of whole blocks (one chunk for ``fixed_sum_rows``; a
chunk of rows at a time for the residual, which never holds all its
squares), copies each step-major about 512 KiB at a time, and merges
the block partials by one carry tree.  So a sum holds a chunk and 1/32
of its summands and has the bits of ``matmul(ones, M)``.

Only the Gaussian sketch's apply, whose left operand is a block of drawn
normals, packs its right operand (:func:`_reduce`).  Where the blocks
are innermost and the left block has more than one row, a right-operand
column with at most 16 nonzeros in each block is packed: step k of every
block gathers the left operand at the block's k-th nonzero row and adds
that one product, so the zeros are never multiplied.  The block partials
and their merge are the step-major ones.  A skipped product is a finite
normal times +-0, which is +-0, and adding +-0 to a nonzero partial
returns that partial exactly; so every nonzero sum has the step-major
bits, with underflow, overflow and cancellation alike.  Only a zero sum
can differ, in its sign, and those sums are recomputed step-major.

The residual's product with an upper-triangular R,
:func:`_matmul_upper`, follows R's triangle in the same order, a chunk
of rows at a time (:func:`_transposed_rows`, the walk it shares with the
triangular solve): step s forms products only for the columns j >= s,
since the others would multiply R's structural zeros.  By the same
argument, only the sign of a zero entry can differ from
:func:`matmul`'s, and the residual squares it.

``gram`` runs the same steps on column pairs instead of rows times
columns: column i is paired with column (i + d) mod n for d = 0..n//2, so
each unordered pair is formed once (the d = n/2 pairs twice when n is
even), with the partials indexed (d, i, block) and the shifted operand a
strided view of a step-major copy of one chunk of X at a time.  The
blocks are taken in groups of a power of two, each a whole subtree of the
carry tree, so only one group's partials are held at a time.  Products
commute bitwise, so every entry equals ``matmul(X.T, X)`` at (min(i, j),
max(i, j)).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import CholeskyBreakdown, DimensionError

UNIT_ROUNDOFF = 2.0 ** -53

_BLOCK = 32
_CHUNK = 1 << 16  # entries of one vectorized step, or of a sum's chunk (512 KiB)
_ACC = 1 << 20  # entries of the block partials of one row chunk (8 MiB)
_COPY = 1 << 19  # entries of the step-major copy of one left chunk (4 MiB)
_TILE = 256  # blocks per transposing copy
_PACKED = 16  # most nonzeros per block of a packed column
_TRI_ROWS = 4096  # rows per chunk of the triangular kernels
_BUFSIZE = 256  # ufunc buffer entries inside the kernels (numpy default 8192)


def _small_buffers(func):
    """Run ``func`` with a short ufunc buffer.

    With numpy's default buffer, a broadcast multiply or a strided add
    copies its short inner loops through the buffer, which makes it 2-4x
    slower.  Buffering never changes a result.
    """
    @functools.wraps(func)
    def run(*args, **kwargs):
        old = np.setbufsize(_BUFSIZE)
        try:
            return func(*args, **kwargs)
        finally:
            np.setbufsize(old)
    return run


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Convert to a 2-D float64 array, checking its shape only."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"{name} must be non-empty, got shape {a.shape}")
    return a


def finite_matrix(a, name: str = "matrix") -> np.ndarray:
    """:func:`as_matrix` that also rejects NaN and inf: the one scan of
    X, made where it enters the package (see the README)."""
    a = as_matrix(a, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _carry_tree(parts: np.ndarray) -> np.ndarray:
    """Merge partials along the last axis: add neighbour pairs, carry an odd
    last partial up unchanged, and repeat until one is left.

    This is the order in which a binary counter merges equal-sized sums of
    a left-to-right stream of partials; nothing is ever padded with zeros.
    """
    n = parts.shape[-1]
    while n > 1:
        half = n // 2
        merged = np.empty_like(parts[..., half:])
        np.add(parts[..., 0:2 * half:2], parts[..., 1:2 * half:2],
               out=merged[..., :half])
        if n % 2:
            merged[..., half] = parts[..., n - 1]
        parts = merged
        n -= half
    return parts[..., 0]


def _step_major(m: np.ndarray, t0: int, t1: int, out: np.ndarray) -> None:
    """out[s, i, t - t0] = m[i, 32 t + s] for blocks t0 <= t < t1.

    Copied in tiles of ``_TILE`` blocks, which keeps the transposition in
    cache.  Slots past the end of ``m`` are left unset; no step reads them.
    """
    rows, k = m.shape
    nfull = min(t1, k // _BLOCK)
    for u0 in range(t0, nfull, _TILE):
        u1 = min(nfull, u0 + _TILE)
        tile = m[:, u0 * _BLOCK:u1 * _BLOCK].reshape(rows, u1 - u0, _BLOCK)
        out[:, :, u0 - t0:u1 - t0] = tile.transpose(2, 0, 1)
    if nfull < t1:
        tail = k - nfull * _BLOCK
        out[:tail, :, nfull - t0] = m[:, nfull * _BLOCK:].T


class _Operand(NamedTuple):
    """Right operand b of :func:`_reduce`, made once per product however
    many calls share it.

    Column ``full[c]`` of b is step-major: bs[s, c, t] = b[32 t + s, full[c]].
    Column ``packed[c]`` keeps only its nonzeros: at[k, c nb + t] is the row
    of its k-th nonzero in block t, in row order, and val[k, c nb + t] the
    value there; a block with fewer nonzeros than at has steps is padded
    with value 0 at the block's first row.  With no packed column, at and
    val are None.
    """

    b: np.ndarray
    full: np.ndarray
    bs: np.ndarray
    packed: np.ndarray
    at: np.ndarray | None
    val: np.ndarray | None


def _steps(b: np.ndarray) -> np.ndarray:
    """bs[s, j, t] = b[32 t + s, j]."""
    k, q = b.shape
    bs = np.empty((_BLOCK, q, -(-k // _BLOCK)))
    _step_major(b.T, 0, bs.shape[2], bs)
    return bs


def _reduce_operand(b: np.ndarray, rows: int) -> _Operand:
    """Right operand of :func:`_reduce` for left operands of ``rows`` rows.

    A column is packed when its blocks hold at most ``_PACKED`` nonzeros
    each and some block holds one, and only where the blocks are innermost
    (at least as many blocks as ``rows``) and ``rows`` > 1: for one row a
    packed step costs what a step-major one does, so packing would only
    add its own cost.  Every other column is step-major.
    """
    k, q = b.shape
    nb = -(-k // _BLOCK)
    packed = np.zeros(0, dtype=np.intp)
    if 1 < rows <= nb:
        nz = np.ascontiguousarray((b != 0).T)
        count = np.add.reduceat(nz, np.arange(0, k, _BLOCK), axis=1, dtype=np.intp)
        most = count.max(axis=1)
        packed = np.flatnonzero((most > 0) & (most <= _PACKED))
    if packed.size == 0:
        return _Operand(b, np.arange(q), _steps(b), packed, None, None)
    count = count[packed].ravel()
    col, row = np.divmod(np.flatnonzero(nz[packed]), k)
    slot = col * nb + row // _BLOCK  # (column, block), ascending
    kth = np.arange(slot.size) - (np.cumsum(count) - count)[slot]
    at = np.empty((int(most[packed].max()), packed.size, nb), dtype=np.intp)
    at[:] = np.arange(0, k, _BLOCK)
    at = at.reshape(at.shape[0], -1)
    val = np.zeros(at.shape)
    at[kth, slot] = row
    val[kth, slot] = b[row, packed[col]]
    full = np.setdiff1d(np.arange(q), packed)
    return _Operand(b, full, _steps(b[:, full]), packed, at, val)


def _block_sums(left, right, acc, tmp, last: int) -> None:
    """acc[..., t] = sum_s left[s, ..., t] right[s, ..., t], s = 0..31 in
    order: the one step loop.  Step s of every block is one multiply and
    one add, so each block partial is its own left-to-right sum.  ``last``
    counts the summation entries from the first row of the last block on;
    below 32, that block is the ragged end and stops at its last row.
    ``tmp`` is scratch at least as long as ``acc``, to whose shape
    ``left[s]`` and ``right[s]`` broadcast."""
    tmp = tmp[..., :acc.shape[-1]]
    np.multiply(left[0], right[0], out=acc)
    for s in range(1, _BLOCK):
        if s == last:  # the ragged last block has ended
            left, right, acc, tmp = (v[..., :-1] for v in (left, right, acc, tmp))
        np.multiply(left[s], right[s], out=tmp)
        np.add(acc, tmp, out=acc)


def _block_adds(steps, acc, last: int) -> None:
    """acc[..., t] = sum_s steps[s, ..., t], s = 0..31 in order: the loop
    of :func:`_block_sums` for a sum, without its products by 1.0, which
    are exact.  ``last`` is as in :func:`_block_sums`."""
    np.copyto(acc, steps[0])
    for s in range(1, _BLOCK):
        if s == last:  # the ragged last block has ended
            steps, acc = steps[..., :-1], acc[..., :-1]
        np.add(acc, steps[s], out=acc)


@_small_buffers
def _reduce_steps(a: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """sum_l a[:, l] b[l, :] for ``bs = _steps(b)``: the step-major kernel.

    :func:`_block_sums` forms the block partials of a chunk of rows, and
    :func:`_carry_tree` merges them.  The accumulators are indexed (row,
    column, block).  In memory the blocks are innermost when there are at
    least as many blocks as output rows, and the rows are innermost
    otherwise.
    """
    p, k = a.shape
    _, q, nb = bs.shape
    if q == 0:
        return np.zeros((p, 0))
    if nb >= p:
        # the step-major copy of a chunk of rows is at most _COPY entries,
        # or one row
        rows = max(1, min(p, _CHUNK // (q * nb), _COPY // (_BLOCK * nb)))
        cb = nb
        abuf = np.empty((_BLOCK, rows, cb))
        acc = np.empty((rows, q, nb))
        tmp = np.empty((rows, q, cb))
    else:
        rows = max(1, min(p, _CHUNK // q, _ACC // (q * nb)))
        cb = max(1, _CHUNK // (q * rows))
        abuf = np.empty((_BLOCK, cb, rows)).transpose(0, 2, 1)
        acc = np.empty((nb, q, rows)).transpose(2, 1, 0)
        tmp = np.empty((cb, q, rows)).transpose(2, 1, 0)
    out = np.empty((p, q))
    for i0 in range(0, p, rows):
        r = min(p, i0 + rows) - i0
        for t0 in range(0, nb, cb):
            t1 = min(nb, t0 + cb)
            ab = abuf[:, :r, :t1 - t0]
            _step_major(a[i0:i0 + r], t0, t1, ab)
            _block_sums(ab[:, :, None], bs[:, None, :, t0:t1], acc[:r, :, t0:t1],
                        tmp[:r], k - _BLOCK * (t1 - 1))
        out[i0:i0 + r] = _carry_tree(acc[:r])
    return out


def _reduce_packed(a: np.ndarray, at: np.ndarray, val: np.ndarray, nb: int) -> np.ndarray:
    """The packed kernel: step k gathers ``a`` at the rows ``at[k]`` and
    adds the products with ``val[k]`` to the block partials, indexed
    (row, column block), which :func:`_carry_tree` merges in place."""
    p = a.shape[0]
    depth, width = at.shape
    rows = max(1, min(p, _CHUNK // width))
    acc = np.empty((rows, width))
    tmp = np.empty((rows, width))
    out = np.empty((p, width // nb))
    for i0 in range(0, p, rows):
        r = min(p, i0 + rows) - i0
        ai, ac, tm = a[i0:i0 + r], acc[:r], tmp[:r]
        np.take(ai, at[0], axis=1, out=ac, mode="clip")
        np.multiply(ac, val[0], out=ac)
        for k in range(1, depth):
            np.take(ai, at[k], axis=1, out=tm, mode="clip")
            np.multiply(tm, val[k], out=tm)
            np.add(ac, tm, out=ac)
        out[i0:i0 + r] = _carry_tree(ac.reshape(r, -1, nb))
    return out


@_small_buffers
def _reduce(a: np.ndarray, op: _Operand) -> np.ndarray:
    """sum_l a[:, l] b[l, :] under the fixed blocked-pairwise scheme, for
    a block ``a`` of drawn normals and ``op = _reduce_operand(b, rows)``:
    step-major columns by :func:`_reduce_steps`, packed ones by
    :func:`_reduce_packed`.  The Gaussian apply is its one caller.

    A packed sum that is zero is recomputed step-major, for its sign (see
    the module doc).  Each output row depends only on its own row of
    ``a``, so any split of ``a`` into row blocks gives the same bits.
    """
    if op.at is None:
        return _reduce_steps(a, op.bs)
    out = np.empty((a.shape[0], op.b.shape[1]))
    out[:, op.full] = _reduce_steps(a, op.bs)
    part = _reduce_packed(a, op.at, op.val, op.bs.shape[2])
    redo = part == 0
    if redo.any():
        i = np.flatnonzero(redo.any(axis=1))
        j = np.flatnonzero(redo.any(axis=0))
        part[np.ix_(i, j)] = _reduce_steps(a[i], _steps(op.b[:, op.packed[j]]))
    out[:, op.packed] = part
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product A B; every entry is a fixed-scheme sum (see module doc).

    Operands may be any views (``x.T`` included); the result is C-ordered.
    """
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"inner dimensions disagree: {a.shape} x {b.shape}"
        )
    return _reduce_steps(a, _steps(b))


@_small_buffers
def gram(x) -> np.ndarray:
    """X^T X, exactly symmetric, each column pair formed once.

    Column i is paired with column (i + d) mod n for d = 0..n//2 (see the
    module doc): (n//2 + 1) n products per row of X instead of n^2.  A
    chunk of X is copied step-major once, with its first n//2 columns
    repeated after the last, so the operand shifted by d is one strided
    view of the copy.  :func:`_block_sums` forms the partials
    acc[d, i, block].  The blocks are worked on in groups of 2^L, the
    partials of a group at most ``_ACC`` entries (or one block).  A group
    is a whole subtree of the carry tree, so :func:`_carry_tree` merges
    each group to one partial, and the group partials are merged as a
    binary counter merges them, which is the same tree.  The blocks are
    innermost in memory when a chunk has at least as many blocks as X has
    columns, the columns otherwise.  Each value is written to (min(i, j),
    max(i, j)) and its mirror.
    """
    x = as_matrix(x)
    k, n = x.shape
    if k < n:
        raise DimensionError(f"need rows >= cols, got shape {x.shape}")
    half = n // 2
    pairs = (half + 1) * n
    nb = -(-k // _BLOCK)
    # groups of a power of two of blocks, the partials of each at most
    # _ACC entries (or one block), cut into equal chunks whose steps are
    # at most _CHUNK products each
    group = min(nb, 1 << max(0, (_ACC // pairs).bit_length() - 1))
    chunks = -(-group // max(1, _CHUNK // pairs))
    cb = -(-group // chunks)
    if cb >= n:  # blocks innermost
        xs = np.empty((_BLOCK, n + half, cb))
        acc = np.empty((half + 1, n, group))
        tmp = np.empty((half + 1, n, cb))
    else:  # columns innermost
        xs = np.empty((_BLOCK, cb, n + half)).transpose(0, 2, 1)
        acc = np.empty((half + 1, group, n)).transpose(0, 2, 1)
        tmp = np.empty((half + 1, cb, n)).transpose(0, 2, 1)
    # shifted[s, d, i, t] = xs[s, i + d, t]
    by_step, row, block = xs.strides
    shifted = np.lib.stride_tricks.as_strided(
        xs, (_BLOCK, half + 1, n, cb), (by_step, row, row, block))
    stack = []  # (level, merged group partials), as in a binary counter
    for g0 in range(0, nb, group):
        g1 = min(nb, g0 + group)
        for t0 in range(g0, g1, cb):
            t1 = min(g1, t0 + cb)
            w = t1 - t0
            _step_major(x.T, t0, t1, xs[:, :n, :w])
            xs[:, n:, :w] = xs[:, :half, :w]
            _block_sums(xs[:, None, :n, :w], shifted[..., :w],
                        acc[:, :, t0 - g0:t1 - g0], tmp, k - _BLOCK * (t1 - 1))
        # a group of 2^L blocks is a whole subtree of the carry tree; the
        # merge of a one-block group is a view of acc, hence the copy
        part = _carry_tree(acc[:, :, :g1 - g0]).copy()
        level = 0
        while stack and stack[-1][0] == level:
            part = stack.pop()[1] + part
            level += 1
        stack.append((level, part))
    # the odd subtrees left over merge right to left, as the tree carries them
    part = stack.pop()[1]
    while stack:
        part = stack.pop()[1] + part
    i = np.arange(n)
    j = (i + np.arange(half + 1)[:, None]) % n
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    g = np.empty((n, n))
    g[lo, hi] = part
    g[hi, lo] = part
    return g


def fixed_sum(v) -> float:
    """Deterministic sum of a 1-D array, in :func:`matmul`'s order: the
    bits of the row times a column of ones, signed zeros included."""
    v = np.asarray(v, dtype=np.float64).ravel()
    return float(fixed_sum_rows(v[:, None])[0])


def fixed_sum_rows(m: np.ndarray) -> np.ndarray:
    """Column-wise deterministic sums of a 2-D array (axis 0), with the
    bits of ``matmul(ones, M)``: :func:`_fixed_sum_chunks` of M as one
    chunk.  A column of no entries sums to +0.0, like :func:`fixed_sum`.
    """
    m = np.asarray(m, dtype=np.float64)
    return _fixed_sum_chunks((m,), *m.shape)


def _fixed_sum_chunks(chunks, k: int, q: int) -> np.ndarray:
    """:func:`fixed_sum_rows` of the k x q array whose rows ``chunks``
    yields in order, as arrays of whole 32-row blocks (the last may end a
    block early): the one loop that every sum runs.

    Each chunk is copied step-major (:func:`_step_major`) about
    ``_CHUNK`` entries (or one block) at a time, with the columns
    innermost as in M, and :func:`_block_adds` adds the steps into the
    block partials, 1/32 of the entries; one :func:`_carry_tree` merges
    them.  So a caller need never hold the k rows at once.
    """
    if k == 0 or q == 0:
        return np.zeros(q)
    nb = -(-k // _BLOCK)
    acc = np.empty((nb, q)).T
    cb = max(1, min(nb, _CHUNK // (_BLOCK * q)))
    steps = np.empty((_BLOCK, cb, q)).transpose(0, 2, 1)
    b0 = 0  # the chunk's first block
    for c in chunks:
        rows = len(c)
        cnb = -(-rows // _BLOCK)
        for t0 in range(0, cnb, cb):
            t1 = min(cnb, t0 + cb)
            part = steps[..., :t1 - t0]
            _step_major(c.T, t0, t1, part)
            _block_adds(part, acc[:, b0 + t0:b0 + t1], rows - _BLOCK * (t1 - 1))
        b0 += cnb
    return _carry_tree(acc)


def cholesky(g) -> np.ndarray:
    """Upper-triangular R with R^T R = G for symmetric positive definite G.

    Only the upper triangle of ``g`` is referenced.  Raises
    :class:`CholeskyBreakdown` with the pivot index as soon as a pivot is
    non-positive or non-finite; no shifting or perturbation is attempted.
    Entries are not checked for finiteness first: an inf or NaN in the
    upper triangle (an overflowed Gram matrix) makes that pivot or a later
    one non-finite or non-positive, so it is a breakdown too.
    """
    g = np.asarray(g, dtype=np.float64)
    n = g.shape[0] if g.ndim == 2 else 0
    if n < 1 or g.shape[1] != n:
        raise DimensionError(f"expected non-empty square matrix, got {g.shape}")
    a = np.triu(g)
    r = np.zeros((n, n))
    for k in range(n):
        pivot = a[k, k]
        if not np.isfinite(pivot) or pivot <= 0.0:
            raise CholeskyBreakdown(k)
        d = np.sqrt(pivot)
        r[k, k] = d
        r[k, k + 1:] = a[k, k + 1:] / d
        a[k + 1:, k + 1:] -= np.outer(r[k, k + 1:], r[k, k + 1:])
    return r


def _transposed_rows(a: np.ndarray, rows: int):
    """Yield (c0, a[c0:c0 + k].T) for chunks of ``rows`` rows of A, each
    copied into one (n, rows) buffer that the next chunk overwrites: the
    triangular kernels' one walk over A, whose columns it makes
    contiguous rows."""
    m, n = a.shape
    buf = np.empty((n, rows))
    for c0 in range(0, m, rows):
        at = buf[:, :min(m, c0 + rows) - c0]
        np.copyto(at, a[c0:c0 + rows].T)
        yield c0, at


def _matmul_upper(a: np.ndarray, r: np.ndarray):
    """Yield (c0, rows c0.. of A triu(R)) under the fixed scheme, forming
    only the products with R's upper triangle; the strictly lower part of
    ``r`` is never read.

    Walks A in transposed chunks (:func:`_transposed_rows`) of
    ``_TRI_ROWS`` rows (fewer where the partials would pass ``_ACC``
    entries), a multiple of 32 / gcd(n, 32) rows, so that every chunk but
    the last is whole 32-entry blocks of the flattened product.  Step s
    adds a[:, s] r[s, j] to the partial of every column j >= s in block
    s // 32, as one multiply and one add; the partials of a block start at
    +0 for the columns left of it.  :func:`_carry_tree` merges them into one
    C-ordered buffer, which each chunk overwrites.  For a finite A, a
    skipped product is +-0, and adding +-0 returns a nonzero sum exactly,
    so against ``matmul(a, np.triu(r))`` every nonzero entry keeps its
    bits; a zero entry can differ in its sign.  ``qr.residual`` is the
    one caller.
    """
    m, n = a.shape
    nb = -(-n // _BLOCK)
    unit = _BLOCK // math.gcd(n, _BLOCK)
    rows = min(m, max(unit, min(_TRI_ROWS, _ACC // (nb * n)) // unit * unit))
    acc = np.empty((nb, n, rows))
    tmp = np.empty((n, rows))
    out = np.empty((rows, n))
    for c0, ak in _transposed_rows(a, rows):
        k = ak.shape[1]
        for s in range(n):
            b, step = divmod(s, _BLOCK)
            part = acc[b, s:, :k]
            if step == 0:
                acc[b, :s, :k] = 0.0
                np.multiply(ak[s], r[s, s:, None], out=part)
            else:
                t = tmp[s:, :k]
                np.multiply(ak[s], r[s, s:, None], out=t)
                np.add(part, t, out=part)
        out[:k] = _carry_tree(acc[:, :, :k].transpose(1, 2, 0)).T
        yield c0, out[:k]


def trisolve_right(x, r) -> np.ndarray:
    """Solve W R = X for W, right-looking.

    ``r`` is a Cholesky factor: upper triangular with a positive
    diagonal, which is not checked; the strictly lower part is never read.
    Column j of W is (X[:, j] - sum_{l<j} W[:, l] r[l, j]) / r[j, j], the
    terms subtracted in order of l: once column l is divided by r[l, l],
    one multiply and one subtract take its term off every later column.
    The columns are worked on as contiguous rows of a transposed chunk of
    ``_TRI_ROWS`` rows of X (:func:`_transposed_rows`, in
    :func:`_trisolve_into`).
    """
    x = as_matrix(x)
    r = as_matrix(r, "triangular factor")
    m, n = x.shape
    if r.shape != (n, n):
        raise DimensionError(f"factor shape {r.shape} does not match {x.shape}")
    return _trisolve_into(x, r, np.empty((m, n)))


def _trisolve_into(x: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`trisolve_right` written into ``w``, an m x n float64 array,
    and returned; shapes are not checked.  ``qr._two_pass`` calls it to
    put W and Q in one allocation.  ``trisolve_right`` keeps its
    ``(x, r)`` signature, by which ``perfbench/spans.py`` counts its
    calls."""
    m, n = x.shape
    diag = np.diagonal(r)
    rows = min(m, _TRI_ROWS)
    tmp = np.empty((n, rows))
    for c0, wk in _transposed_rows(x, rows):
        k = wk.shape[1]
        for j in range(n):
            np.divide(wk[j], diag[j], out=wk[j])
            t = tmp[j + 1:, :k]
            np.multiply(wk[j], r[j, j + 1:, None], out=t)
            np.subtract(wk[j + 1:], t, out=wk[j + 1:])
        w[c0:c0 + k] = wk.T
    return w


def singular_values(x) -> np.ndarray:
    """Singular values of X, descending: the square roots of the
    eigenvalues of ``gram(x)``, found by cyclic Jacobi; the bound report's
    spectrum.

    A pair (p, q) is rotated only while |a_pq| > 1e-15 sqrt|a_pp| sqrt|a_qq|
    (Demmel and Veselic, 1992), and sweeping stops after a sweep that
    rotates no pair, or after 100 sweeps.  The test is relative to the
    pair's own diagonal, so small eigenvalues are resolved as well as
    large ones: condition numbers agree with LAPACK's to 1e-4 up to about
    1e6 (ROADMAP item 1).  Past about 1e8 the Gram's squaring dominates:
    values below about sqrt(u) * ||X||_2 are lost.  A rotation reads its
    three entries as Python floats and writes the pair's rows, then its
    columns, from views of the old ones.
    """
    x = as_matrix(x)
    a = gram(x)
    n = a.shape[0]
    for _ in range(100):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq, app, aqq = a.item(p, q), a.item(p, p), a.item(q, q)
                # the square roots first, so that the product cannot overflow
                if not abs(apq) > 1e-15 * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                    continue
                rotated = True
                diff = aqq - app
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                rp, rq = a[p], a[q]
                a[p], a[q] = c * rp - sn * rq, sn * rp + c * rq
                cp, cq = a[:, p], a[:, q]
                a[:, p], a[:, q] = c * cp - sn * cq, sn * cp + c * cq
                a[p, q] = a[q, p] = 0.0
        if not rotated:
            break
    lam = np.sort(np.diagonal(a))[::-1]
    return np.sqrt(np.maximum(lam, 0.0))
