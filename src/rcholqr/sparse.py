"""CSR sparse matrices, Matrix Market I/O, and the dense-column profiler.

Sparse input arrives as CSR, its values checked when it is made; code
that computes on X densifies it once (``to_dense``), and
``profile_sparsity`` reads the paper's sparse model off that dense X.
The Matrix Market writer streams fixed-size chunks of entries, so its
memory does not grow with nnz; its bytes are those of one line per entry.
"""

from __future__ import annotations

import lzma
import os
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from . import dense
from .errors import DimensionError, ParamError, ParseError

T1 = "T1"
T2 = "T2"
DENSE = "DENSE"


@dataclass
class CSRMatrix:
    """Compressed-sparse-row matrix over float64.

    Column indices are strictly increasing within each row.  Explicitly
    stored zeros are tolerated but never required.
    """

    rows: int
    cols: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.asarray(self.row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.rows < 1 or self.cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if self.row_ptr.shape != (self.rows + 1,):
            raise DimensionError("row_ptr must have rows+1 entries")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.values.size:
            raise DimensionError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise DimensionError("row_ptr must be non-decreasing")
        if self.col_idx.shape != self.values.shape:
            raise DimensionError("col_idx and values must have equal length")
        if self.values.size:
            if self.col_idx.min() < 0 or self.col_idx.max() >= self.cols:
                raise DimensionError("column index out of range")
            # a column index may fall or repeat only where a row starts
            starts = np.flatnonzero(self.col_idx[1:] <= self.col_idx[:-1]) + 1
            if np.any(self.row_ptr[np.searchsorted(self.row_ptr, starts)] != starts):
                raise DimensionError("column indices must increase within a row")
        if not np.isfinite(self.values).all():
            raise ValueError("matrix contains non-finite entries")

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.values, other.values)
        )


def _entry_rows(s: CSRMatrix) -> np.ndarray:
    """Row index of every stored entry."""
    return np.repeat(np.arange(s.rows, dtype=np.int64), np.diff(s.row_ptr))


@dataclass
class SparsityProfile:
    """Column-density summary: counts of dense columns and entry bounds.

    ``kind`` is T1 when there is at least one dense column but not all are
    dense, T2 when there is none, and DENSE when every column is dense.
    """

    v: int
    t1: int
    t2: int
    c: float
    kind: str


def profile_sparsity(x: np.ndarray, dense_fraction: float = 0.25) -> SparsityProfile:
    """Classify dense X's columns by nonzero count against dense_fraction * rows."""
    if not 0.0 < dense_fraction <= 1.0:
        raise ParamError("dense_fraction must lie in (0, 1]")
    rows, cols = x.shape
    counts = np.count_nonzero(x, axis=0)
    dense_mask = counts >= dense_fraction * rows
    v = int(dense_mask.sum())
    t1 = int(counts[dense_mask].max()) if v else 0
    t2 = int(counts[~dense_mask].max()) if v < cols else 0
    c = max(float(x.max()), -float(x.min()))  # |X|'s largest, no |X| formed
    kind = DENSE if v == cols else T1 if v else T2
    return SparsityProfile(v=v, t1=t1, t2=t2, c=c, kind=kind)


def to_dense(s: CSRMatrix) -> np.ndarray:
    out = np.zeros((s.rows, s.cols))
    out[_entry_rows(s), s.col_idx] = s.values
    return out


def as_dense(x) -> np.ndarray:
    """The one conversion of outside input: a CSR densified (its values were
    checked when it was made), anything else by ``dense.finite_matrix``."""
    if isinstance(x, CSRMatrix):
        return to_dense(x)
    return dense.finite_matrix(x)


def from_dense(d) -> CSRMatrix:
    """Compress a dense matrix, dropping its zero entries; the CSR check
    then rejects a NaN or inf.  The one index array formed is the column
    of each kept entry, its flat index reduced modulo the column count
    in place; the rows are counted off the mask."""
    d = dense.as_matrix(d)
    keep = d != 0.0
    row_ptr = np.zeros(d.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=row_ptr[1:])
    cols = np.flatnonzero(keep)
    np.remainder(cols, d.shape[1], out=cols)
    return CSRMatrix(d.shape[0], d.shape[1], row_ptr, cols, d[keep])


# ---------------------------------------------------------------------------
# Matrix Market exchange format ("coordinate real general" only)
# ---------------------------------------------------------------------------

_MM_BANNER = "%%matrixmarket"
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path) -> CSRMatrix:
    """Read a "coordinate real general" Matrix Market file into CSR.

    One-based indices become zero-based, duplicate entries are summed, and
    entries are sorted within each row.  The entries are parsed by one
    ``np.loadtxt`` call given the path, the one input numpy parses in C in
    chunks.  A pipe, a '%' line in the body, a parse error, or a wrong
    entry count or index sends the reader to a line scan, which gives the
    same matrix or reports the offending line.
    """
    with open(path, "r", encoding="utf-8") as handle:
        rows, cols, nnz, lineno = _read_mm_header(handle)
        # opened again by name, a pipe would not start at the first entry
        fast = nnz and handle.seekable()
        arrays = _load_mm_entries(path, rows, cols, nnz, lineno) if fast else None
        if arrays is None:
            arrays = _scan_mm_entries(handle, rows, cols, nnz, lineno)
    return CSRMatrix(rows, cols, *arrays)


def _coo_to_csr(rows: int, ii, jj, vv):
    """(row_ptr, col_idx, values) of zero-based entries (ii, jj, vv).

    Entries are sorted by row, then column, and duplicates are summed left
    to right in file order from the first value, so a single entry keeps
    its bits.  Strictly sorted input, what :func:`write_matrix_market`
    writes, skips the sort and the merge, which would change nothing but
    double the peak memory of a read.
    """
    unsorted = not np.all((ii[1:] > ii[:-1])
                          | ((ii[1:] == ii[:-1]) & (jj[1:] > jj[:-1])))
    if unsorted:
        order = np.lexsort((jj, ii))
        ii, jj, vv = ii[order], jj[order], vv[order]
        new_group = np.empty(ii.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = (ii[1:] != ii[:-1]) | (jj[1:] != jj[:-1])
        starts = np.flatnonzero(new_group)
        # float64 reduceat adds a group's first value to the sum of the rest
        # (pairwise past 8); on Python floats it adds one value at a time
        vv = np.add.reduceat(vv.astype(object), starts).astype(np.float64)
        ii, jj = ii[starts], jj[starts]
    row_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(ii, minlength=rows), out=row_ptr[1:])
    return row_ptr, np.ascontiguousarray(jj), np.ascontiguousarray(vv)


def _read_mm_header(handle) -> tuple[int, int, int, int]:
    """Banner and size line: (rows, cols, nnz, line number of the size line)."""
    first = handle.readline()
    if not first:
        raise ParseError("empty file", 1)
    banner = first.split()
    if len(banner) != 5 or banner[0].lower() != _MM_BANNER:
        raise ParseError("expected '%%MatrixMarket matrix coordinate real general' banner", 1)
    obj, fmt, fld, sym = (tok.lower() for tok in banner[1:])
    if (obj, fmt, fld, sym) != ("matrix", "coordinate", "real", "general"):
        raise ParseError(
            f"unsupported variant '{obj} {fmt} {fld} {sym}'; "
            "only 'matrix coordinate real general' is accepted", 1)
    lineno = 1
    while True:
        raw = handle.readline()
        if not raw:
            raise ParseError("missing size line", lineno)
        lineno += 1
        text = raw.strip()
        if text and not text.startswith("%"):
            break
    parts = text.split()
    if len(parts) != 3:
        raise ParseError("size line must be 'rows cols nnz'", lineno)
    try:
        rows, cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError("size line must contain integers", lineno) from None
    if rows < 1 or cols < 1 or nnz < 0:
        raise ParseError("invalid matrix dimensions", lineno)
    return rows, cols, nnz, lineno


def _load_mm_entries(path, rows: int, cols: int, nnz: int, skiprows: int):
    """CSR arrays of the lines after the first ``skiprows``, parsed by one
    ``np.loadtxt`` call; None when a line does not parse or the count or
    an index is wrong.

    numpy parses in chunks in C only from a ``str`` path with
    ``comments=None``, so the file is opened again by name.  Blank lines
    are skipped.  A '%' line in the body, a '%' after an entry, an index
    written as a float ('1.0', '1.5'; numpy >= 1.23 rejects it or warns
    with a DeprecationWarning, raised here) and an error from numpy's
    opener, which picks a decompressor by suffix (a plain-text
    'x.mtx.gz'), are misses left to the line scan.
    """
    try:
        with warnings.catch_warnings():
            # a body with no entries warns; the line scan reports it
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            rec = np.loadtxt(os.fsdecode(path), dtype=_MM_ENTRY, comments=None,
                             ndmin=1, skiprows=skiprows, encoding="utf-8")
    except (OSError, lzma.LZMAError, ValueError, DeprecationWarning):
        return None
    i, j = rec["i"], rec["j"]
    if (rec.size != nnz or i.min() < 1 or i.max() > rows
            or j.min() < 1 or j.max() > cols):
        return None
    i -= 1
    j -= 1
    return _coo_to_csr(rows, i, j, rec["v"])


def _scan_mm_entries(handle, rows: int, cols: int, nnz: int, lineno: int):
    """CSR arrays of the remaining lines, read one line at a time; raises
    :class:`ParseError` at the first bad line.  ``lineno`` is the number
    of the line before the first one read.  The arrays grow with the
    entries read, so a size line that overstates the count costs nothing.
    """
    ii, jj, vv = array("q"), array("q"), array("d")
    for lineno, raw in enumerate(handle, start=lineno + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        if len(vv) >= nnz:
            raise ParseError(f"more than {nnz} entries", lineno)
        parts = text.split()
        if len(parts) != 3:
            raise ParseError("entry must be 'row col value'", lineno)
        try:
            i, j, val = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError("malformed entry", lineno) from None
        if not 1 <= i <= rows or not 1 <= j <= cols:
            raise ParseError(f"index ({i}, {j}) out of range", lineno)
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(val)
    if len(vv) != nnz:
        raise ParseError(f"expected {nnz} entries, found {len(vv)}", lineno)
    return _coo_to_csr(rows, np.array(ii), np.array(jj), np.array(vv))


_MM_WRITE_CHUNK = 8192  # entries formatted and written per write call


def write_matrix_market(s: CSRMatrix, path) -> None:
    """Write CSR as "coordinate real general" with exact value round-trip.

    One line ``i j repr(v)`` per entry in CSR order, formatted and written
    ``_MM_WRITE_CHUNK`` entries at a time (a wide row spans chunks), so the
    writer never holds a list or an index array of all nnz entries.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"{s.rows} {s.cols} {s.nnz}\n")
        for e0 in range(0, s.nnz, _MM_WRITE_CHUNK):
            e1 = min(e0 + _MM_WRITE_CHUNK, s.nnz)
            # an entry's 1-based row is the number of row_ptr values <= its index
            rows = np.searchsorted(s.row_ptr, np.arange(e0, e1), side="right")
            cols = s.col_idx[e0:e1] + 1
            handle.write("".join([
                f"{i} {j} {v!r}\n"
                for i, j, v in zip(rows.tolist(), cols.tolist(),
                                   s.values[e0:e1].tolist())]))
