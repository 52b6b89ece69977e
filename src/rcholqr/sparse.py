"""CSR sparse matrices, the dense-column profiler, and Matrix Market I/O."""

from __future__ import annotations

import lzma
import os
import warnings
from array import array
from dataclasses import dataclass, field

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
            rows_of = _entry_rows(self)
            same_row = rows_of[1:] == rows_of[:-1]
            if np.any((np.diff(self.col_idx) <= 0) & same_row):
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
    dense_cols: list[int] = field(default_factory=list)
    kind: str = T2


def profile_sparsity(x: CSRMatrix, dense_fraction: float = 0.25) -> SparsityProfile:
    """Classify columns by nonzero count against dense_fraction * rows."""
    if not 0.0 < dense_fraction <= 1.0:
        raise ParamError("dense_fraction must lie in (0, 1]")
    live = x.values != 0.0
    counts = np.bincount(x.col_idx[live], minlength=x.cols)
    threshold = dense_fraction * x.rows
    dense_mask = counts >= threshold
    v = int(dense_mask.sum())
    t1 = int(counts[dense_mask].max()) if v else 0
    t2 = int(counts[~dense_mask].max()) if v < x.cols else 0
    c = max_abs(x)
    if v == x.cols:
        kind = DENSE
    elif v > 0:
        kind = T1
    else:
        kind = T2
    return SparsityProfile(
        v=v, t1=t1, t2=t2, c=c,
        dense_cols=np.flatnonzero(dense_mask).tolist(),
        kind=kind,
    )


def to_dense(s: CSRMatrix) -> np.ndarray:
    out = np.zeros((s.rows, s.cols))
    out[_entry_rows(s), s.col_idx] = s.values
    return out


def as_dense(x) -> np.ndarray:
    """A CSR matrix densified, anything else checked by ``dense.as_matrix``."""
    if isinstance(x, CSRMatrix):
        return to_dense(x)
    return dense.as_matrix(x)


def from_dense(d) -> CSRMatrix:
    """Compress a dense matrix, dropping its zero entries."""
    d = dense.as_matrix(d)
    keep = np.abs(d) > 0.0
    rows, cols = np.nonzero(keep)
    row_ptr = np.zeros(d.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=d.shape[0]), out=row_ptr[1:])
    return CSRMatrix(d.shape[0], d.shape[1], row_ptr, cols, d[keep])


def max_abs(s: CSRMatrix) -> float:
    """Largest entry magnitude."""
    return float(np.max(np.abs(s.values))) if s.nnz else 0.0


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


def write_matrix_market(s: CSRMatrix, path) -> None:
    """Write CSR as "coordinate real general" with exact value round-trip."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"{s.rows} {s.cols} {s.nnz}\n")
        rows = _entry_rows(s)
        for i, j, v in zip(rows.tolist(), s.col_idx.tolist(), s.values.tolist()):
            handle.write(f"{i + 1} {j + 1} {v!r}\n")
