"""Sparse coordinate matrix loading and synthetic generation.

Two on-disk formats are accepted:

* Matrix Market coordinate files (``%%MatrixMarket matrix coordinate real
  general`` header, ``%`` comments, a ``m n nnz`` size line, then 1-based
  ``row col value`` triplets).
* ``csv-coo``: a ``m,n`` header line followed by 1-based ``row,col,value``
  lines; ``#`` comments and blank lines are skipped.

Only the header lines are read as text. The entry lines of either format
are parsed by one ``np.loadtxt`` call that reads the file in chunks, so no
per-line strings are made, and row range, column range and finiteness are
each checked once over the parsed arrays. Only a file that this parse or a
check rejects is re-read as lines (``str.splitlines``), where a locator walks
them to name the first bad one. A file holding a character that
``str.splitlines`` ends a line at but universal newlines do not (``\\v``,
``\\f``, ...) is read as lines too, so both reads split it alike, and so is
a path that is not a regular file (a pipe or a FIFO), which can be read only
once. Duplicate coordinates are summed on load, and entries come out sorted
row-major, so a row is one contiguous slice (``indptr``).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

from .randkit import DistributionSpec

__all__ = ["SparseFormatError", "SparseMatrix", "load_matrix", "synthetic_sparse"]

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


class SparseFormatError(ValueError):
    """A sparse matrix file failed validation; the message names the line (or the byte
    of a file that is not UTF-8 text)."""


@dataclass
class SparseMatrix:
    """COO triplets with 0-based indices, sorted row-major, duplicates already summed.

    A stored entry may hold 0.0 (an explicit zero, or duplicates that cancel);
    ``support`` and ``nonzero_rows`` leave such entries out.
    """

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        flat = self.rows * self.n + self.cols
        if flat.size and (np.any(flat[1:] <= flat[:-1]) or flat[0] < 0 or flat[-1] >= self.m * self.n
                          or self.cols.min() < 0 or self.cols.max() >= self.n):
            raise ValueError("entries must be in range, sorted row-major and without duplicates")

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def density(self) -> float:
        return self.nnz / (self.m * self.n)

    @cached_property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: row i's entries are ``[indptr[i], indptr[i + 1])``."""
        return np.searchsorted(self.rows, np.arange(self.m + 1))

    def dense_rows(self, idx) -> np.ndarray:
        """Rows ``idx`` as a dense ``len(idx) x n`` float64 array.

        A stored -0.0 reads as 0.0, as it does when summed into zeros.
        """
        out = np.zeros((len(idx), self.n))
        for k, i in enumerate(idx):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            out[k, self.cols[lo:hi]] = self.vals[lo:hi] + 0.0
        return out

    def support(self, i: int) -> np.ndarray:
        """Sorted columns where row ``i`` holds a nonzero value."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.cols[lo:hi][self.vals[lo:hi] != 0.0]

    def nonzero_rows(self) -> np.ndarray:
        """Ascending indices of the rows holding at least one nonzero value."""
        return np.flatnonzero(np.bincount(self.rows[self.vals != 0.0], minlength=self.m))


def _sorted_entries(n: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based rows, columns and values sorted row-major, duplicates summed in file order.

    A table already strictly increasing row-major, as a file written row by
    row is, skips the sort, and then ``flat`` is the one full-size temporary
    besides the output.
    """
    rows, cols = table["i"] - 1, table["j"] - 1
    flat = rows * n
    flat += cols
    if not np.any(flat[1:] <= flat[:-1]):
        del flat
        return rows, cols, table["v"].copy()
    del rows, cols
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    vals = table["v"][order]
    del order
    distinct = np.empty(flat.size, dtype=bool)  # True where a run of equal coordinates starts
    distinct[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=distinct[1:])
    if not distinct.all():
        starts = np.flatnonzero(distinct)
        vals = np.add.reduceat(vals, starts)
        flat = flat[starts]
    del distinct
    return *np.divmod(flat, n), vals


def _loadtxt(body, comment: str, sep: str | None, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without entries is no error
        return np.loadtxt(body, dtype=_TRIPLET, comments=comment, delimiter=sep, skiprows=skiprows,
                          encoding="utf-8", ndmin=1)


def _first_bad(table, m: int, n: int) -> tuple[int, str] | None:
    """Index of the first entry out of range or non-finite and what is wrong with it, or None."""
    i, j = table["i"], table["j"]
    rows = (i < 1) | (i > m)
    cols = (j < 1) | (j > n)
    bad = rows | cols | ~np.isfinite(table["v"])
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    i, j, _ = table[k]
    if rows[k]:
        return k, f"row index {i} outside 1..{m}"
    if cols[k]:
        return k, f"column index {j} outside 1..{n}"
    return k, "non-finite value"


def _entry_line(body, comment: str, k: int) -> int:
    """0-based index in ``body`` of its k-th entry line (the text before a comment not blank)."""
    return [pos for pos, line in enumerate(body) if line.partition(comment)[0].strip()][k]


def _check(table, body, first: int, comment: str, m: int, n: int) -> None:
    """Check every parsed entry at once; on failure name the first bad line."""
    found = _first_bad(table, m, n)
    if found is not None:
        k, what = found
        raise SparseFormatError(f"line {first + _entry_line(body, comment, k) + 1}: {what}")


def _raise_first_rejected(body, first: int, comment: str, sep: str | None, m: int, n: int) -> NoReturn:
    """Name the first line loadtxt rejects, unless an earlier line fails a check."""
    ok, bad = 0, len(body)  # body[:ok] parses and body[:bad] does not
    while bad - ok > 1:
        mid = (ok + bad) // 2
        try:
            _loadtxt(body[:mid], comment, sep)
            ok = mid
        except ValueError:
            bad = mid
    _check(_loadtxt(body[:ok], comment, sep), body, first, comment, m, n)
    if len(body[ok].partition(comment)[0].split(sep)) != 3:
        gap = sep or " "
        raise SparseFormatError(f"line {first + bad}: expected 'row{gap}col{gap}value'")
    raise SparseFormatError(f"line {first + bad}: non-numeric field")


def _parse_entries(lines, first: int, comment: str, sep: str | None, m: int, n: int) -> np.ndarray:
    """Parse ``lines[first:]`` as 1-based ``row col value`` triplets in one call and check them."""
    body = lines[first:]
    if sep:  # loadtxt skips whitespace-only lines only when it splits on whitespace
        body = [line.strip() for line in body]
    try:
        table = _loadtxt(body, comment, sep)
    except ValueError:
        table = None
    if table is None:
        _raise_first_rejected(body, first, comment, sep, m, n)
    _check(table, body, first, comment, m, n)
    return table


# format: (comment character, field separator; None splits on whitespace)
_SYNTAX = {"matrix-market": ("%", None), "csv-coo": ("#", ",")}


def _read_header(lines, fmt: str) -> tuple[str, int, int, int | None, int]:
    """Read a header from the iterator ``lines``, taking no line past it.

    Returns the format, ``m``, ``n``, the promised entry count (None for
    csv-coo) and the number of lines read, after which the entries start.
    """
    numbered = ((k, line.strip()) for k, line in enumerate(lines, start=1))
    lineno, header = next(((k, text) for k, text in numbered if text), (0, ""))
    if fmt == "auto":
        fmt = "matrix-market" if header.startswith("%%MatrixMarket") else "csv-coo"
    if fmt == "matrix-market":
        return (fmt, *_matrix_market_header(header, numbered))
    if fmt == "csv-coo":
        while header.startswith("#"):
            lineno, header = next(((k, text) for k, text in numbered if text), (lineno, ""))
        return (fmt, *_csv_coo_header(lineno, header))
    raise ValueError(f"unknown format {fmt!r}")


def _matrix_market_header(header: str, numbered) -> tuple[int, int, int, int]:
    if not header.startswith("%%MatrixMarket"):
        raise SparseFormatError("line 1: missing %%MatrixMarket header")
    fields = header.lower().split()
    if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
        raise SparseFormatError("line 1: only 'matrix coordinate' files are supported")
    if fields[3] not in ("real", "integer") or fields[4] != "general":
        raise SparseFormatError("line 1: only 'real general' or 'integer general' supported")
    size_line = next(((k, text) for k, text in numbered if text and not text.startswith("%")), None)
    if size_line is None:
        raise SparseFormatError("truncated file: no size line")
    lineno, text = size_line
    parts = text.split()
    if len(parts) != 3:
        raise SparseFormatError(f"line {lineno}: expected 'm n nnz'")
    try:
        m, n, nnz = (int(tok) for tok in parts)
    except ValueError:
        raise SparseFormatError(f"line {lineno}: non-integer size field") from None
    if m < 1 or n < 1 or nnz < 0:
        raise SparseFormatError(f"line {lineno}: sizes must be positive")
    return m, n, nnz, lineno


def _csv_coo_header(lineno: int, header: str) -> tuple[int, int, None, int]:
    if not header:
        raise SparseFormatError("truncated file: no dimension header")
    parts = header.split(",")
    if len(parts) != 2:
        raise SparseFormatError(f"line {lineno}: expected the 'm,n' header line")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise SparseFormatError(f"line {lineno}: non-integer dimension") from None
    if m < 1 or n < 1:
        raise SparseFormatError(f"line {lineno}: dimensions must be positive")
    return m, n, None, lineno


# np.loadtxt decompresses a path with these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# str.splitlines ends a line at these too, where the chunked reader's universal newlines do not
_OTHER_LINE_BREAKS = tuple(c.encode() for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _has_other_line_breaks(path) -> bool:
    with open(path, "rb") as handle:
        tail = b""
        while chunk := handle.read(1 << 16):
            window = tail + chunk  # a multi-byte break may straddle two reads
            # a one-byte search first: a multi-byte one is some 50 times slower
            if any(brk[:1] in window and brk in window for brk in _OTHER_LINE_BREAKS):
                return True
            tail = chunk[-2:]
    return False


def _load_chunked(path, fmt: str) -> SparseMatrix | None:
    """The matrix, with the entries read by loadtxt from the path in chunks, or
    None when the file needs the line path to be accepted or to name its error.

    Only a regular file is read this way: it is opened more than once, and a
    pipe or FIFO would be drained by the first read."""
    if not os.path.isfile(path) or _has_other_line_breaks(path):
        return None
    path = os.path.abspath(path)  # np.loadtxt would read a relative "http://..." as a URL
    if path.endswith(_COMPRESSED):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            fmt, m, n, nnz, first = _read_header(handle, fmt)
        table = _loadtxt(path, *_SYNTAX[fmt], skiprows=first)
    except ValueError:
        return None
    if _first_bad(table, m, n) is not None or (nnz is not None and table.size != nnz):
        return None
    rows, cols, vals = _sorted_entries(n, table)
    del table  # so that SparseMatrix checks the output without the table beside it
    return SparseMatrix(m, n, rows, cols, vals)


def _load_lines(path, fmt: str) -> SparseMatrix:
    """The matrix, read as lines; names the first bad line of a rejected file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.read().splitlines()
        except UnicodeDecodeError as exc:  # one read of the whole file, so exc.start is its byte offset
            raise SparseFormatError(f"byte {exc.start}: not UTF-8 text; "
                                    "sparse input must be uncompressed UTF-8") from None
    fmt, m, n, nnz, first = _read_header(iter(lines), fmt)
    table = _parse_entries(lines, first, *_SYNTAX[fmt], m, n)
    if nnz is not None and table.size != nnz:
        raise SparseFormatError(f"truncated file: header promised {nnz} entries, found {table.size}")
    return SparseMatrix(m, n, *_sorted_entries(n, table))


def load_matrix(path, fmt: str = "auto") -> SparseMatrix:
    """Load a sparse matrix file, summing duplicate coordinates."""
    matrix = _load_chunked(path, fmt)
    return matrix if matrix is not None else _load_lines(path, fmt)


def synthetic_sparse(
    m: int, n: int, density: float, spec: DistributionSpec, rng: np.random.Generator
) -> SparseMatrix:
    """Bernoulli(density) pattern with values drawn from ``spec``, in O(nnz) memory.

    The nonzero count is Binomial(m·n, density) and the positions a uniform
    subset of that size, which is the same law as an independent coin per entry.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    count = int(rng.binomial(m * n, density))
    flat = np.sort(rng.choice(m * n, size=count, replace=False, shuffle=False))
    return SparseMatrix(m, n, flat // n, flat % n, spec.sample(rng, count))
