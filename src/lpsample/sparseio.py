"""Sparse coordinate matrix loading and synthetic generation.

Two on-disk formats are accepted:

* Matrix Market coordinate files (``%%MatrixMarket matrix coordinate real
  general`` header, ``%`` comments, a ``m n nnz`` size line, then 1-based
  ``row col value`` triplets).
* ``csv-coo``: a ``m,n`` header line followed by 1-based ``row,col,value``
  lines; ``#`` comments and blank lines are skipped.

The entry lines of either format are parsed by one ``np.loadtxt`` call, and
row range, column range and finiteness are each checked once over the parsed
arrays. Only when the parse or a check fails does a locator walk the lines to
name the first bad one. Duplicate coordinates are summed on load, and entries
come out sorted row-major, so a row is one contiguous slice (``indptr``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NoReturn

import numpy as np

from .randkit import DistributionSpec

__all__ = ["SparseFormatError", "SparseMatrix", "load_matrix", "synthetic_sparse"]

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


class SparseFormatError(ValueError):
    """A sparse matrix file failed validation; the message names the line."""


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
        if flat.size and (np.any(flat[1:] <= flat[:-1]) or flat[0] < 0 or flat[-1] >= self.m * self.n):
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


def _to_matrix(m: int, n: int, table: np.ndarray) -> SparseMatrix:
    """0-based entries sorted row-major, duplicates summed in file order."""
    flat = (table["i"] - 1) * n + (table["j"] - 1)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    vals = np.add.reduceat(table["v"][order], starts) if flat.size else table["v"]
    flat = flat[starts]
    return SparseMatrix(m, n, flat // n, flat % n, vals)


def _loadtxt(body, comment: str, sep: str | None) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body without entries is no error
        return np.loadtxt(body, dtype=_TRIPLET, comments=comment, delimiter=sep, ndmin=1)


def _entry_line(body, comment: str, k: int) -> int:
    """0-based index in ``body`` of its k-th entry line (the text before a comment not blank)."""
    return [pos for pos, line in enumerate(body) if line.partition(comment)[0].strip()][k]


def _check(table, body, first: int, comment: str, m: int, n: int) -> None:
    """Check every parsed entry at once; on failure name the first bad line."""
    checks = (
        (table["i"] < 1) | (table["i"] > m),
        (table["j"] < 1) | (table["j"] > n),
        ~np.isfinite(table["v"]),
    )
    bad = checks[0] | checks[1] | checks[2]
    if not bad.any():
        return
    k = int(np.argmax(bad))
    i, j, _ = table[k]
    at = f"line {first + _entry_line(body, comment, k) + 1}"
    if checks[0][k]:
        raise SparseFormatError(f"{at}: row index {i} outside 1..{m}")
    if checks[1][k]:
        raise SparseFormatError(f"{at}: column index {j} outside 1..{n}")
    raise SparseFormatError(f"{at}: non-finite value")


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


def _load_matrix_market(lines) -> SparseMatrix:
    header = None
    body_start = 0
    for k, line in enumerate(lines):
        if line.strip():
            header = line.strip()
            body_start = k + 1
            break
    if header is None or not header.startswith("%%MatrixMarket"):
        raise SparseFormatError("line 1: missing %%MatrixMarket header")
    fields = header.lower().split()
    if len(fields) < 5 or fields[1] != "matrix" or fields[2] != "coordinate":
        raise SparseFormatError("line 1: only 'matrix coordinate' files are supported")
    if fields[3] not in ("real", "integer") or fields[4] != "general":
        raise SparseFormatError("line 1: only 'real general' or 'integer general' supported")

    size_line = None
    entries_start = 0
    for k in range(body_start, len(lines)):
        stripped = lines[k].strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = (k + 1, stripped)
        entries_start = k + 1
        break
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

    table = _parse_entries(lines, entries_start, "%", None, m, n)
    if table.size != nnz:
        raise SparseFormatError(f"truncated file: header promised {nnz} entries, found {table.size}")
    return _to_matrix(m, n, table)


def _load_csv_coo(lines) -> SparseMatrix:
    for k, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split(",")
        if len(parts) != 2:
            raise SparseFormatError(f"line {k + 1}: expected the 'm,n' header line")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise SparseFormatError(f"line {k + 1}: non-integer dimension") from None
        if m < 1 or n < 1:
            raise SparseFormatError(f"line {k + 1}: dimensions must be positive")
        return _to_matrix(m, n, _parse_entries(lines, k + 1, "#", ",", m, n))
    raise SparseFormatError("truncated file: no dimension header")


def load_matrix(path, fmt: str = "auto") -> SparseMatrix:
    """Load a sparse matrix file, summing duplicate coordinates."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if fmt == "auto":
        first = next((ln.strip() for ln in lines if ln.strip()), "")
        fmt = "matrix-market" if first.startswith("%%MatrixMarket") else "csv-coo"
    if fmt == "matrix-market":
        return _load_matrix_market(lines)
    if fmt == "csv-coo":
        return _load_csv_coo(lines)
    raise ValueError(f"unknown format {fmt!r}")


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
