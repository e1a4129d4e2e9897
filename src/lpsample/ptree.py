"""Array-backed weighted binary trees for p-norm index sampling.

A vector tree stores ``|x_i|**p`` at its leaves together with ``sign(x_i)``,
and every internal node holds the sum of its two children, so the root equals
``sum_i |x_i|**p``; the nodes form a 1-based heap (root 1, children ``2v`` and
``2v + 1``, slot 0 unused).  Sampling an index with probability
``|x_i|**p / root``, updating one entry, and reading an entry or the root are
all O(log n); these scalar operations walk a memoryview of the node buffer, on
Python floats, and an update recomputes each ancestor from its two children
with one read a level.
Every draw, scalar or batched, is one inverse-CDF descent of one uniform, so a
stream gives the same indices one at a time as in a batch.

The matrix variant is a layout of one vector tree: the entries in
column-major order, each column padded to a power-of-two stride, so every
column is a complete subtree (column j's root is node ``C + j``, C being n
rounded up to a power of two) and the levels above form the column-norm tree.
Drawing an entry is one descent from the root (a column by its p-norm power,
then a row within it); drawing a row of a given column is a descent from that
column's root.

Trees are single-writer: concurrent sampling and queries are safe only while
no update runs; nothing here synchronizes internally.  Parallel experiment
code should give each worker its own copy (or read-only shared access) and a
per-worker random stream.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = [
    "EmptyDistributionError",
    "TreeAuditError",
    "WeightedVectorTree",
    "WeightedMatrixTree",
    "build_vector_tree",
    "build_matrix_tree",
]


class EmptyDistributionError(ValueError):
    """Sampling was requested from a tree whose total weight is zero."""


class TreeAuditError(RuntimeError):
    """An internal node disagrees with the sum of its children."""


def _capacity_for(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def _check_exponent(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p < 1.0:
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")
    return p


_BOOLS = (bool, np.bool_)


def _check_index(i: int, size: int, what: str = "index") -> None:
    """Raise IndexError unless ``i`` lies in [0, size); a bool is never an index."""
    # a plain int, the common case, skips the isinstance test (about 0.2 us a call)
    if not 0 <= i < size or (type(i) is not int and isinstance(i, _BOOLS)):
        raise IndexError(f"{what} must be an integer in range({size}), got {i!r}")


def _magnitudes(values: np.ndarray, p: float) -> np.ndarray:
    """``|values|**p`` of a float64 array, as a new array."""
    if p == 1.0:
        return np.abs(values)
    if p == 2.0:
        return values * values
    mags = np.abs(values)
    mags **= p  # in place: one temporary fewer than np.abs(values) ** p
    return mags


def _signed_values(magnitudes: np.ndarray, signs: np.ndarray, p: float) -> np.ndarray:
    """Signed entries ``sign * magnitude**(1/p)`` from leaves, as a new array."""
    if p == 2.0:
        magnitudes = np.sqrt(magnitudes)
    elif p != 1.0:
        magnitudes = magnitudes ** (1.0 / p)
    return magnitudes * signs


def _apart(like: np.ndarray) -> np.ndarray:
    """Empty float64 array of ``like``'s length, half a 4 KiB page from it.

    A gather from indices in ``like`` into the result stalls on "4K aliasing"
    (an index load matching a pending store in the low 12 address bits) when
    the two sit a few elements apart, as consecutive heap arrays often do: at
    2^24 leaves, 15-23 ms a 65 536-draw walk against 8 ms half a page apart.
    """
    buf = np.empty(like.size + 512)
    shift = ((like.ctypes.data + 2048 - buf.ctypes.data) % 4096) // 8
    return buf[shift : shift + like.size]


class WeightedVectorTree:
    """Complete binary tree over ``|x_i|**p`` with signs, padded to a power of two.

    Entry indices are 0-based.  ``_nodes`` is a 1-based heap of
    ``2 * capacity`` slots: slot 0 is unused and zero, the root is slot 1,
    node v has children ``2v`` and ``2v + 1``, and entry i's leaf is slot
    ``capacity + i``; padding leaves are zero and can never be sampled.
    ``last_op_visits`` counts the nodes the last sample or update touched.
    """

    __slots__ = ("_p", "_n", "_capacity", "_depth", "_nodes", "_view", "_signs", "last_op_visits")

    def __init__(self, values, p: float):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("expected a one-dimensional sequence of values")
        if values.size == 0:
            raise ValueError("cannot build a tree over an empty vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("input values must all be finite")
        p = _check_exponent(p)
        # sign(-0.0) is -0.0 in numpy, which casts to int8 zero as required
        signs = np.sign(values).astype(np.int8)
        mags = _magnitudes(values, p)
        if not np.all(np.isfinite(mags)):
            raise ValueError("|value|**p overflows for some entry")
        # |value|**p can underflow to zero; such entries carry zero weight
        signs[mags == 0.0] = 0
        self._init_storage(mags, signs, p)

    @classmethod
    def _from_magnitudes(cls, magnitudes, signs, p: float) -> "WeightedVectorTree":
        """Build directly from ``|x_i|**p`` leaves (internal and test use)."""
        magnitudes = np.asarray(magnitudes, dtype=np.float64)
        signs = np.asarray(signs, dtype=np.int8)
        if magnitudes.ndim != 1 or magnitudes.size == 0:
            raise ValueError("expected a non-empty one-dimensional magnitude array")
        if magnitudes.shape != signs.shape:
            raise ValueError("magnitudes and signs must have matching length")
        if not np.all(np.isfinite(magnitudes)) or np.any(magnitudes < 0):
            raise ValueError("leaf magnitudes must be finite and nonnegative")
        if np.any((signs == 0) != (magnitudes == 0.0)):
            raise ValueError("sign must be zero exactly where the magnitude is zero")
        tree = cls.__new__(cls)
        tree._init_storage(magnitudes.copy(), signs.copy(), _check_exponent(p))
        return tree

    def _init_storage(self, magnitudes: np.ndarray, signs: np.ndarray, p: float) -> None:
        n = magnitudes.size
        capacity = _capacity_for(n)
        self._p = p
        self._n = n
        self._capacity = capacity
        self._depth = capacity.bit_length() - 1
        self._nodes = np.zeros(2 * capacity, dtype=np.float64)
        self._nodes[capacity : capacity + n] = magnitudes
        self._view = memoryview(self._nodes)  # shares _nodes' buffer; reads give floats
        self._signs = signs
        self.last_op_visits = 0
        self.rebuild()

    # -- read access ---------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    def __len__(self) -> int:
        return self._n

    @property
    def leaf_magnitudes(self) -> np.ndarray:
        """View of the n leaf values ``|x_i|**p`` (do not mutate)."""
        return self._nodes[self._capacity : self._capacity + self._n]

    @property
    def leaf_signs(self) -> np.ndarray:
        """View of the n entry signs in {-1, 0, +1} (do not mutate)."""
        return self._signs

    def query_pnorm_power(self) -> float:
        """Root value, equal to the p-th power of the p-norm of the vector."""
        return self._view[1]

    def query_entry(self, i: int) -> float:
        """Signed entry ``sign_i * magnitude_i**(1/p)``."""
        _check_index(i, self._n)
        return self._entry(i)

    def _entry(self, i: int) -> float:
        leaf = self._capacity + i
        mag = self._view[leaf]
        s = int(self._signs[i])
        if self._p == 1.0:
            return s * mag
        if self._p == 2.0:
            return s * math.sqrt(mag)
        # one-element slices take entries()' NumPy routine; see update_entry
        return float(_signed_values(self._nodes[leaf : leaf + 1], self._signs[i : i + 1], self._p)[0])

    def entries(self) -> np.ndarray:
        """All signed entries reconstructed from the leaves, as a new array."""
        return _signed_values(self.leaf_magnitudes, self._signs, self._p)

    def probabilities(self) -> np.ndarray:
        """Sampling distribution over indices, ``|x_i|**p / root``."""
        root = self._view[1]
        if root <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        return self.leaf_magnitudes / root

    # -- sampling ------------------------------------------------------------

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its leaf weight.

        One uniform scaled by the root's value walks down, going right iff
        it is at least the left child's value and subtracting that value as
        it goes (see :meth:`_descend`).
        """
        if self._view[1] <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        index = self._descend(rng, 1, self._depth)
        self.last_op_visits = self._depth + 1
        return index

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent indices, each with probability ``|x_i|**p / root``.

        On one stream, the indices that ``size`` calls of :meth:`sample_index`
        give, except when rounding lands a draw on a zero leaf, which is made
        again at the end of the batch (see :meth:`_descend_many`).
        """
        if self._view[1] <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        return self._descend_many(rng, np.ones(size, dtype=np.int64), self._depth)

    def _descend(self, rng: np.random.Generator, start: int, levels: int) -> int:
        """Draw one leaf ``levels`` levels below ``start``; return its entry index.

        The scalar form of :meth:`_descend_many`, on Python floats: the same
        uniform, comparisons and subtractions, so a draw that lands on a zero
        leaf is made again at once rather than at the end of a batch.  The
        caller checks that ``start`` has weight.
        """
        nodes = self._view
        while True:
            node = start
            u = rng.random() * nodes[start]
            for _ in range(levels):
                node += node  # the left child
                left = nodes[node]
                if u >= left:
                    u -= left
                    node += 1
            if nodes[node] != 0.0:
                return node - self._capacity

    def _descend_many(self, rng: np.random.Generator, start: np.ndarray, levels: int) -> np.ndarray:
        """Draw one leaf ``levels`` levels below each node in ``start``; return entry indices.

        An inverse-CDF walk: each draw takes one uniform, scaled by its start
        node's value, and at every level goes right iff it is at least the
        left child's value, subtracting that value as it goes, so each output
        depends on its own uniform only.  Rounding in the subtractions can
        carry a draw past its subtree's total into a zero leaf; such draws
        are made again, in draw order.  :meth:`_descend` follows the same
        rule one draw at a time.  The caller checks that every start node has
        weight, and hands over ``start``, which is walked in place.

        ``mode="clip"`` skips the bounds check and buffered output of
        ``mode="raise"`` and never clips: a start node ``levels`` levels up,
        doubled ``levels`` times with 0 or 1 added each time, lands in
        ``[capacity, 2 * capacity)``; so a redraw restarts at its leaf >> levels.
        """
        nodes = self._nodes
        idx = start
        u = rng.random(idx.size)
        left = _apart(idx)
        np.take(nodes, idx, out=left, mode="clip")
        u *= left
        go_right = np.empty(u.size, dtype=bool)
        for _ in range(levels):
            idx += idx  # the left child
            np.take(nodes, idx, out=left, mode="clip")
            np.greater_equal(u, left, out=go_right)
            # u - left where going right, u - 0.0 (exactly u) elsewhere; a
            # masked subtract (where=) is several times slower
            np.multiply(left, go_right, out=left)
            u -= left
            idx += go_right
        np.take(nodes, idx, out=left, mode="clip")
        stray = np.flatnonzero(left == 0.0)
        if stray.size:
            idx[stray] = self._descend_many(rng, idx[stray] >> levels, levels) + self._capacity
        idx -= self._capacity
        return idx

    # -- mutation ------------------------------------------------------------

    def update_entry(self, i: int, value: float) -> None:
        """Set entry i to ``value`` and refresh the sums along its root path."""
        _check_index(i, self._n)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"entry value must be finite, got {value}")
        if self._p == 1.0:
            mag = abs(value)
        elif self._p == 2.0:
            mag = value * value
        else:
            # At fractional p, Python's ** and NumPy's (SIMD) power can round one ulp
            # apart, so the general case goes through the constructor's own routine.
            # The p = 1 and p = 2 branches are already bit-identical to it and keep
            # the scalar path, about 0.9 us against 3.4 us for a one-element array.
            mag = float(_magnitudes(np.array([value]), self._p)[0])
        if math.isinf(mag):
            raise ValueError(f"|value|**p overflows for {value}")
        if mag == 0.0:
            sign = 0
        else:
            sign = 1 if value > 0 else -1
        self._signs[i] = sign
        nodes = self._view
        idx = self._capacity + i
        nodes[idx] = mag
        visits = 1
        # carry the sum just written up the path: each ancestor is its two children's
        # sum (IEEE addition commutes, so the bits are left + right), never a drifting delta
        while idx > 1:
            mag += nodes[idx ^ 1]  # the sibling
            idx >>= 1
            nodes[idx] = mag
            visits += 1
        self.last_op_visits = visits

    def rebuild(self) -> None:
        """Recompute every internal sum bottom-up from the leaves."""
        nodes = self._nodes
        size = self._capacity
        while size > 1:
            size //= 2
            children = nodes[2 * size : 4 * size]
            np.add(children[::2], children[1::2], out=nodes[size : 2 * size])  # no temporary

    def audit(self, rel_tol: float = 1e-9) -> None:
        """Check structural invariants; raise :class:`TreeAuditError` on failure."""
        nodes = self._nodes
        cap = self._capacity
        mags = self.leaf_magnitudes
        if np.any(mags < 0) or not np.all(np.isfinite(nodes)):
            raise TreeAuditError("leaf magnitudes must be finite and nonnegative")
        if nodes[0] != 0.0 or np.any(nodes[cap + self._n :] != 0.0):
            raise TreeAuditError("slot 0 and the padding leaves must stay zero")
        if np.any((self._signs == 0) != (mags == 0.0)):
            raise TreeAuditError("sign/magnitude zero pattern mismatch")
        if cap > 1:
            parents = nodes[1:cap]
            child_sums = nodes[2 : 2 * cap : 2] + nodes[3 : 2 * cap : 2]
            tol = rel_tol * np.maximum(np.abs(parents), np.abs(child_sums))
            bad = np.abs(parents - child_sums) > tol
            if np.any(bad):
                k = int(np.flatnonzero(bad)[0])
                raise TreeAuditError(
                    f"node {k + 1} holds {parents[k]!r} but its children sum to {child_sums[k]!r}"
                )

    # -- serialization -------------------------------------------------------

    _HEADER = struct.Struct("<dQ")

    def to_bytes(self) -> bytes:
        """Flat layout: p (f64), n (u64), n sign bytes, n leaf magnitudes (f64)."""
        return (
            self._HEADER.pack(self._p, self._n)
            + self._signs.tobytes()
            + self.leaf_magnitudes.astype("<f8").tobytes()
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "WeightedVectorTree":
        head = cls._HEADER.size
        if len(buf) < head:
            raise ValueError("buffer too short for tree header")
        p, n = cls._HEADER.unpack_from(buf)
        expected = head + n + 8 * n
        if len(buf) != expected:
            raise ValueError(f"expected {expected} bytes for n={n}, got {len(buf)}")
        signs = np.frombuffer(buf, dtype=np.int8, count=n, offset=head)
        mags = np.frombuffer(buf, dtype="<f8", count=n, offset=head + n)
        return cls._from_magnitudes(mags, signs, p)

    def __reduce__(self):
        # copy and pickle go through the flat layout, as a memoryview cannot be pickled
        return (self.from_bytes, (self.to_bytes(),))


class WeightedMatrixTree:
    """Matrix sampling structure: one vector tree over the entries in column-major order.

    Column j occupies leaves ``j * stride .. j * stride + m - 1``, where the
    stride is m rounded up to a power of two; the padding rows below each
    column hold zero.  Column j is then the complete subtree rooted at heap
    node ``C + j`` (C is n rounded up to a power of two), whose value is the
    column's p-norm power, and the levels above those roots form the
    column-norm tree.  One descent from the root therefore draws a column with
    probability proportional to its p-norm power and a row within it from the
    column's own distribution.
    """

    __slots__ = ("_m", "_n", "_stride", "_row_levels", "_column_root", "_tree")

    def __init__(self, entries, p: float):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise ValueError("expected a two-dimensional array of entries")
        m, n = entries.shape
        if m == 0 or n == 0:
            raise ValueError("matrix must have at least one row and one column")
        stride = _capacity_for(m)
        columns = np.zeros((n, stride))
        columns[:, :m] = entries.T
        self._tree = WeightedVectorTree(columns.reshape(-1), p)
        self._m = m
        self._n = n
        self._stride = stride
        self._row_levels = stride.bit_length() - 1
        self._column_root = _capacity_for(n)

    @property
    def p(self) -> float:
        return self._tree.p

    @property
    def shape(self) -> tuple[int, int]:
        return (self._m, self._n)

    def _grid(self, leaves: np.ndarray) -> np.ndarray:
        return leaves.reshape(self._n, self._stride)[:, : self._m].T

    def column_pnorm_powers(self) -> np.ndarray:
        """All n column p-norm powers, as a new array."""
        return self._tree._nodes[self._column_root : self._column_root + self._n].copy()

    def query_entry(self, i: int, j: int) -> float:
        _check_index(i, self._m, "row")
        _check_index(j, self._n, "column")
        return self._tree._entry(j * self._stride + i)

    def query_row(self, i: int) -> np.ndarray:
        """Signed entries of row i, as a new length-n array (n entry queries)."""
        _check_index(i, self._m, "row")
        tree = self._tree
        row = slice(i, None, self._stride)
        return _signed_values(tree.leaf_magnitudes[row], tree.leaf_signs[row], tree.p)

    def sample_row(self, j: int, rng: np.random.Generator) -> int:
        """Draw a row of column j with probability ``|A_ij|**p / ||A^(j)||_p^p``."""
        _check_index(j, self._n, "column")
        node = self._column_root + j
        if self._tree._view[node] <= 0.0:
            raise EmptyDistributionError(f"column {j} is all zero")
        return self._tree._descend(rng, node, self._row_levels) - j * self._stride

    def sample_rows(self, cols, rng: np.random.Generator) -> np.ndarray:
        """Draw one row for each column in ``cols``, from that column's distribution.

        On one stream, the rows that :meth:`sample_row` gives column by
        column: one uniform per draw, walked down from the column's root.
        """
        cols = np.asarray(cols)
        # a bool mask or a float array is no list of columns; [] arrives as float64
        if cols.dtype.kind not in "iu" and cols.size:
            raise IndexError(f"column indices must be integers, got {cols.dtype}")
        cols = cols.astype(np.int64, copy=False)
        if np.any((cols < 0) | (cols >= self._n)):
            raise IndexError(f"column index out of range for {self._n} columns")
        nodes = self._column_root + cols
        if np.any(self._tree._nodes[nodes] <= 0.0):
            raise EmptyDistributionError("a requested column is all zero")
        return self._tree._descend_many(rng, nodes, self._row_levels) - cols * self._stride

    def sample_entry(self, rng: np.random.Generator) -> tuple[int, int]:
        j, i = divmod(self._tree.sample_index(rng), self._stride)
        return i, j

    def sample_entries(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` (row, column) pairs in one vectorized descent from the root."""
        cols, rows = np.divmod(self._tree.sample_indices(rng, size), self._stride)
        return rows, cols

    def update_entry(self, i: int, j: int, value: float) -> None:
        """Set A[i, j] and refresh the sums along its root path."""
        _check_index(i, self._m, "row")
        _check_index(j, self._n, "column")
        self._tree.update_entry(j * self._stride + i, value)

    def dense(self) -> np.ndarray:
        """Signed entries reconstructed from the leaves, as a new (m, n) array."""
        return self._grid(self._tree.entries())

    def audit(self, rel_tol: float = 1e-9) -> None:
        """Check the vector tree's invariants and that every padding row is zero."""
        self._tree.audit(rel_tol)
        padding = self._tree.leaf_magnitudes.reshape(self._n, self._stride)[:, self._m :]
        if np.any(padding != 0.0):
            raise TreeAuditError("padding rows must stay zero")


def build_vector_tree(values, p: float) -> WeightedVectorTree:
    """Build the p-norm sampling tree over a vector."""
    return WeightedVectorTree(values, p)


def build_matrix_tree(entries, p: float) -> WeightedMatrixTree:
    """Build the column-major p-norm sampling tree over a dense matrix."""
    return WeightedMatrixTree(entries, p)
