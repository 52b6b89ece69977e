import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from rcholqr import sparse
from rcholqr.errors import DimensionError, ParamError, ParseError
from rcholqr.generators import GeneratorSpec, generate, make_t1, make_t2


def csr(dense_rows):
    return sparse.from_dense(np.array(dense_rows, dtype=float))


def test_csr_validation():
    with pytest.raises(DimensionError):
        sparse.CSRMatrix(2, 2, np.array([0, 1, 1]), np.array([5]), np.array([1.0]))
    with pytest.raises(DimensionError):
        sparse.CSRMatrix(1, 3, np.array([0, 2]), np.array([1, 1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        sparse.CSRMatrix(1, 1, np.array([0, 1]), np.array([0]), np.array([np.inf]))


def test_profile_all_zero():
    z = sparse.CSRMatrix(10, 3, np.zeros(11, dtype=int), np.array([], dtype=int),
                         np.array([]))
    prof = sparse.profile_sparsity(z)
    assert (prof.v, prof.t1, prof.t2, prof.c) == (0, 0, 0, 0.0)
    assert prof.kind == sparse.T2


def test_profile_arrowhead_stack():
    x = make_t1(GeneratorSpec("t1", sigma=1e-4))
    prof = sparse.profile_sparsity(x)
    assert prof.v == 1 and prof.dense_cols == [0]
    assert prof.t1 == 20000 and prof.t2 == 2000
    assert prof.c == 10.0
    assert prof.kind == sparse.T1


def test_profile_t2_stack():
    x = make_t2(GeneratorSpec("t2", sigma=1e-4))
    prof = sparse.profile_sparsity(x)
    assert prof.v == 0 and prof.kind == sparse.T2
    assert prof.t2 == 3000


def test_profile_row_permutation_invariant():
    rng = np.random.default_rng(0)
    d = (rng.random((30, 4)) < 0.3) * rng.standard_normal((30, 4))
    a = sparse.from_dense(d)
    b = sparse.from_dense(d[rng.permutation(30)])
    pa, pb = sparse.profile_sparsity(a), sparse.profile_sparsity(b)
    assert (pa.v, pa.t1, pa.t2, pa.c, pa.kind) == (pb.v, pb.t1, pb.t2, pb.c, pb.kind)


def test_profile_scale_invariant_class():
    d = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    a = sparse.profile_sparsity(sparse.from_dense(d), dense_fraction=0.9)
    b = sparse.profile_sparsity(sparse.from_dense(-2.5 * d), dense_fraction=0.9)
    assert a.kind == b.kind
    assert b.c == 2.5 * a.c


def test_profile_dense_class():
    prof = sparse.profile_sparsity(csr(np.ones((4, 3))))
    assert prof.kind == sparse.DENSE and prof.v == 3


def test_profile_bad_fraction():
    with pytest.raises(ParamError):
        sparse.profile_sparsity(csr(np.ones((2, 2))), dense_fraction=0.0)


def test_round_trip_exact():
    rng = np.random.default_rng(4)
    d = (rng.random((8, 6)) < 0.5) * rng.standard_normal((8, 6))
    s = sparse.from_dense(d)
    assert np.array_equal(sparse.to_dense(s), d)
    assert sparse.from_dense(sparse.to_dense(s)) == s


def test_from_dense_exact_nnz():
    d = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert sparse.from_dense(d).nnz == 2


def test_round_trip_arrowhead_block():
    x = make_t1(GeneratorSpec("t1", sigma=0.5, block_count=3))
    assert sparse.from_dense(sparse.to_dense(x)) == x


def test_matrix_market_read(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% comment\n2 2 1\n1 1 3.5\n")
    s = sparse.read_matrix_market(path)
    assert (s.rows, s.cols, s.nnz) == (2, 2, 1)
    assert sparse.to_dense(s)[0, 0] == 3.5


def test_matrix_market_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    d = (rng.random((7, 4)) < 0.6) * rng.standard_normal((7, 4))
    s = sparse.from_dense(d)
    path = tmp_path / "rt.mtx"
    sparse.write_matrix_market(s, path)
    assert sparse.read_matrix_market(path) == s


def test_matrix_market_crlf_and_padding(tmp_path):
    path = tmp_path / "crlf.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\r\n"
                     b"2 2 2\r\n1 1 3.5\r\n% mid\r\n2 2 -1.0\r\n\r\n")
    s = sparse.read_matrix_market(path)
    assert s.nnz == 2
    assert sparse.to_dense(s)[0, 0] == 3.5


def test_matrix_market_entry_count_mismatch(tmp_path):
    path = tmp_path / "extra.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "1 1 1\n1 1 1.0\n1 1 2.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 4
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 1.0\n")
    with pytest.raises(ParseError):
        sparse.read_matrix_market(path)


def test_matrix_market_overstated_count_reads_only_what_is_there(tmp_path):
    # sizing the line scan by the size line would ask for 2.4e15 bytes
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 100000000000000\n1 1 1.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 3
    assert "expected 100000000000000 entries, found 1" in str(info.value)


def test_matrix_market_duplicates_summed(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 3\n1 1 1.5\n2 1 1.0\n1 1 2.0\n")
    s = sparse.read_matrix_market(path)
    assert s.nnz == 2
    assert sparse.to_dense(s)[0, 0] == 3.5


def test_matrix_market_rejects_variants(tmp_path):
    for banner in ("%%MatrixMarket matrix coordinate pattern general",
                   "%%MatrixMarket matrix coordinate complex general",
                   "%%MatrixMarket matrix array real general",
                   "%%MatrixMarket matrix coordinate real symmetric"):
        path = tmp_path / "bad.mtx"
        path.write_text(banner + "\n1 1 1\n1 1 1.0\n")
        with pytest.raises(ParseError) as info:
            sparse.read_matrix_market(path)
        assert info.value.line == 1


def test_matrix_market_index_out_of_range(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 1.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 3


def test_matrix_market_malformed_entry(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n1 x 1.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 3


_BANNER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("bad", ["2 2 1.0 % note", "1.0 2 1.0", "1.5 2 1.0",
                                 "2 1.0 1.0", "2 2"])
def test_matrix_market_bad_entry_line(tmp_path, bad):
    # A blank and a comment line come before the bad one, which is line 6.
    path = tmp_path / "bad.mtx"
    path.write_text(_BANNER + "2 2 3\n1 1 1.0\n\n% c\n" + bad + "\n2 1 1.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 6


def test_matrix_market_float_index_warning_is_an_error(tmp_path, monkeypatch):
    # numpy 1.23 parses '1.5' into an integer field, truncated, with a
    # DeprecationWarning; the line scan must still report the line.
    def loadtxt(body, dtype, **kwargs):
        list(body)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning)
        return np.array([(1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)], dtype=dtype)

    monkeypatch.setattr(sparse.np, "loadtxt", loadtxt)
    path = tmp_path / "bad.mtx"
    path.write_text(_BANNER + "2 2 3\n1 1 1.0\n\n% c\n1.5 2 1.0\n2 1 1.0\n")
    with pytest.raises(ParseError) as info:
        sparse.read_matrix_market(path)
    assert info.value.line == 6


def test_matrix_market_blank_and_comment_lines_in_body(tmp_path):
    path = tmp_path / "body.mtx"
    path.write_text(_BANNER + "% head\n2 3 3\n\n1 3 2.5\n  % indented\n"
                    "   \n2 1 -1.0\n%\n1 1 0.5\n\n")
    s = sparse.read_matrix_market(path)
    assert np.array_equal(sparse.to_dense(s), [[0.5, 0.0, 2.5], [-1.0, 0.0, 0.0]])


def test_matrix_market_no_entries_reads_without_warning(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text(_BANNER + "3 2 0\n% nothing\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = sparse.read_matrix_market(path)
    assert (s.rows, s.cols, s.nnz) == (3, 2, 0)


@pytest.fixture(scope="module")
def dense_family_file(tmp_path_factory):
    x = sparse.from_dense(generate(GeneratorSpec("dense", sigma=1.25e-9, seed=3)))
    path = tmp_path_factory.mktemp("mm") / "dense.mtx"
    sparse.write_matrix_market(x, path)
    return x, path


def test_matrix_market_dense_family_round_trip(dense_family_file):
    x, path = dense_family_file
    assert x.nnz == 400000
    got = sparse.read_matrix_market(path)
    assert got == x
    assert got.values.tobytes() == x.values.tobytes()


def test_matrix_market_read_peak_memory(dense_family_file):
    # The entries are parsed into one 24-byte record each (9.6 MB here);
    # the file's text is never held whole, and entries already in order
    # are not copied to be sorted (that alone peaks at 32 MB).
    _, path = dense_family_file
    tracemalloc.start()
    try:
        sparse.read_matrix_market(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("tail", [2, 15])
def test_matrix_market_duplicates_summed_left_to_right(tmp_path, tail):
    # np.add.reduceat adds the rest of a group to its first value, which
    # reads 1 + 2e-16 and (pairwise, past 8) 1 + 1.5e-15 here.
    path = tmp_path / "dup.mtx"
    path.write_text(_BANNER + f"2 2 {tail + 3}\n2 2 -0.0\n1 1 1.0\n"
                    + "1 1 1e-16\n" * tail + "2 1 0.5\n")
    s = sparse.read_matrix_market(path)
    total = 1.0
    for _ in range(tail):
        total += 1e-16
    assert total == 1.0
    assert s.values.tolist() == [1.0, 0.5, 0.0]
    assert np.signbit(s.values[2])


@pytest.fixture
def scan_calls(monkeypatch):
    """Arguments of each call to the Matrix Market line scan."""
    calls = []
    scan = sparse._scan_mm_entries

    def spy(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(sparse, "_scan_mm_entries", spy)
    return calls


def test_matrix_market_written_files_skip_the_line_scan(tmp_path, scan_calls,
                                                        dense_family_file):
    rng = np.random.default_rng(8)
    s = sparse.from_dense((rng.random((9, 5)) < 0.5) * rng.standard_normal((9, 5)))
    sparse.write_matrix_market(s, tmp_path / "w.mtx")
    assert sparse.read_matrix_market(tmp_path / "w.mtx") == s
    x, path = dense_family_file
    assert sparse.read_matrix_market(path) == x
    assert scan_calls == []


_TWO_BY_THREE = [[0.5, 0.0, 2.5], [-1.0, 0.0, 0.0]]


@pytest.mark.parametrize("name, text", [
    ("header.mtx", _BANNER + "% a\n\n%\n  \n2 3 3\n1 3 2.5\n2 1 -1.0\n1 1 0.5\n"),
    ("crlf.mtx", (_BANNER + "% a\n2 3 3\n1 3 2.5\n2 1 -1.0\n1 1 0.5\n")
     .replace("\n", "\r\n")),
    ("cr.mtx", (_BANNER + "% a\n2 3 3\n1 3 2.5\n2 1 -1.0\n1 1 0.5\n")
     .replace("\n", "\r")),
    ("blank.mtx", _BANNER + "2 3 3\n\n1 3 2.5\n  \n\t\n2 1 -1.0\n\n1 1 0.5\n\n"),
], ids=["header-comments", "crlf", "cr", "body-blanks"])
def test_matrix_market_fast_path_takes(tmp_path, scan_calls, name, text):
    # A wrong skiprows count would still read right, through the scan.
    path = tmp_path / name
    path.write_bytes(text.encode())
    s = sparse.read_matrix_market(path)
    assert np.array_equal(sparse.to_dense(s), _TWO_BY_THREE)
    assert scan_calls == []


@pytest.mark.parametrize("name, body", [
    ("comment.mtx", "1 3 2.5\n% mid\n2 1 -1.0\n1 1 0.5\n"),
    ("plain.mtx.gz", "1 3 2.5\n2 1 -1.0\n1 1 0.5\n"),
], ids=["body-comment", "plain-gz"])
def test_matrix_market_fast_path_misses_read_through_the_scan(
        tmp_path, scan_calls, name, body):
    path = tmp_path / name
    path.write_text(_BANNER + "% head\n2 3 3\n" + body)
    s = sparse.read_matrix_market(path)
    assert np.array_equal(sparse.to_dense(s), _TWO_BY_THREE)
    assert len(scan_calls) == 1 and scan_calls[0][4] == 3


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_matrix_market_reads_a_pipe(scan_calls):
    # More than one read buffer of text, so a second open of the pipe
    # would start mid-file.
    s = sparse.from_dense(np.arange(1.0, 3001.0).reshape(1500, 2))
    text = _BANNER + "1500 2 3000\n" + "".join(
        f"{k // 2 + 1} {k % 2 + 1} {v!r}\n" for k, v in enumerate(s.values.tolist()))
    assert len(text) > 8192
    r, w = os.pipe()

    def write():
        with open(w, "wb") as fh:
            fh.write(text.encode())

    writer = threading.Thread(target=write)
    writer.start()
    try:
        assert sparse.read_matrix_market(f"/dev/fd/{r}") == s
    finally:
        os.close(r)
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(scan_calls) == 1


def test_max_abs():
    s = csr(np.diag([1.0, -3.0, 2.0]))
    assert sparse.max_abs(s) == 3.0
