"""Array-backed weighted binary trees for p-norm index sampling.

A vector tree stores ``sign(x_i) * |x_i|**p`` at its leaves, the sign in the
sign bit that a weight leaves free (at p = 1 a leaf is ``x_i + 0.0`` itself),
and every internal node holds the sum of its children's weights ``|leaf|``, so
the root equals ``sum_i |x_i|**p``; the nodes form a 1-based heap (root 1,
children ``2v`` and ``2v + 1``), except that the level above the leaves is not
stored: a node there reads as the sum of its two leaves' weights, the bits a
stored node would hold.
Sampling an index with probability ``|x_i|**p / root``, updating one entry, and
reading an entry or the root are all O(log n); these scalar operations walk a
memoryview of the node buffer, on Python floats, and an update recomputes each
stored ancestor from its children.  A tree is one float64 array: a build holds
the caller's input and that array, writes the signed leaves straight into their
slots, then sums each stored level in fixed-size blocks.
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
    if not 1.0 <= p < math.inf:  # nan compares false
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")
    return p


_BOOLS = (bool, np.bool_)


def _check_index(i: int, size: int, what: str = "index") -> None:
    """Raise IndexError unless ``i`` lies in [0, size); a bool is never an index."""
    # a plain int, the common case, skips the isinstance test (about 0.2 us a call)
    if not 0 <= i < size or (type(i) is not int and isinstance(i, _BOOLS)):
        raise IndexError(f"{what} must be an integer in range({size}), got {i!r}")


def _magnitudes(values: np.ndarray, p: float, out: np.ndarray | None = None) -> np.ndarray:
    """``|values|**p`` of a float64 array, into ``out`` (which may be ``values``) or a new array."""
    if p == 2.0:
        return np.multiply(values, values, out=out)
    mags = np.abs(values, out=out)
    if p != 1.0:
        mags **= p  # in place: one temporary fewer than np.abs(values) ** p
    return mags


def _signed_values(leaves: np.ndarray, p: float) -> np.ndarray:
    """Signed entries ``sign * |leaf|**(1/p)`` from signed leaves, as a new array."""
    if p == 1.0:
        return leaves.copy()
    values = np.abs(leaves)
    if p == 2.0:
        np.sqrt(values, out=values)
    else:
        values **= 1.0 / p
    return np.copysign(values, leaves, out=values)


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


_BLOCK = 1 << 11  # nodes a rebuild or audit pass sums at once: 16 KiB rows
# leaves a build at p != 1 writes at once, through one 128 KiB buffer; at 2^20
# leaves, p = 1.5, it builds in about 0.85x the time of _BLOCK-long runs
_FILL_BLOCK = 1 << 14


def _go_right(u: np.ndarray, left: np.ndarray, go_right: np.ndarray) -> np.ndarray:
    """One descent level: set ``go_right`` where ``u >= left`` and take ``left`` from ``u`` there."""
    np.greater_equal(u, left, out=go_right)
    # u - left where going right, u - 0.0 (exactly u) elsewhere; a
    # masked subtract (where=) is several times slower
    np.multiply(left, go_right, out=left)
    u -= left
    return go_right


class WeightedVectorTree:
    """Complete binary tree over signed leaves ``sign(x_i) * |x_i|**p``, padded to a power of two.

    Entry indices are 0-based and heap nodes 1-based: the root is node 1,
    node v has children ``2v`` and ``2v + 1``, and entry i's leaf is node
    ``capacity + i``; padding leaves are zero and can never be sampled.
    ``_nodes`` holds nodes ``0 .. _leaf0 - 1`` (slot 0 unused and zero), then
    the leaves.  ``_leaf0`` is ``capacity // 2``, leaving out the level above
    the leaves (12 bytes a leaf slot), unless that level is the root
    (capacity 1 or 2, ``_leaf0 = capacity``).  No node is ``-0.0``.
    ``last_op_visits`` counts the nodes the last sample or update touched.
    """

    __slots__ = ("_p", "_n", "_capacity", "_leaf0", "_depth", "_nodes", "_view", "last_op_visits")

    def __init__(self, values, p: float):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("expected a one-dimensional sequence of values")
        self._init_storage(values.size, _check_exponent(p))
        self._fill(values)

    def _init_storage(self, n: int, p: float) -> None:
        """Allocate zeroed nodes for n entries; :meth:`_fill` writes them."""
        if n == 0:
            raise ValueError("cannot build a tree over an empty vector")
        capacity = _capacity_for(n)
        self._p = p
        self._n = n
        self._capacity = capacity
        self._leaf0 = capacity // 2 if capacity >= 4 else capacity
        self._depth = capacity.bit_length() - 1
        self._nodes = np.zeros(self._leaf0 + capacity, dtype=np.float64)
        self._view = memoryview(self._nodes)  # shares _nodes' buffer; reads give floats
        self.last_op_visits = 0

    def _fill(self, values: np.ndarray) -> None:
        """Write the leaves ``copysign(|values|**p, values) + 0.0`` of a fresh heap, then
        sum it.  Adding 0.0 turns a ``-0.0`` entry, or one whose power underflows, into
        ``+0.0``.  ``values`` may be the leaves themselves; the power runs over contiguous
        blocks, so its bits are :func:`_magnitudes`'.  The root is the one value
        checked: a nan, inf or overflowing sum reaches it."""
        leaves = self._leaves
        if self._p == 1.0:
            np.add(values, 0.0, out=leaves)
        else:
            mags = np.empty(min(_FILL_BLOCK, values.size))
            for a in range(0, values.size, _FILL_BLOCK):
                block, out = values[a : a + _FILL_BLOCK], leaves[a : a + _FILL_BLOCK]
                np.copysign(_magnitudes(block, self._p, out=mags[: block.size]), block, out=out)
                out += 0.0
        self.rebuild()
        root = self.query_pnorm_power()
        if not math.isfinite(root):
            raise ValueError(f"the root sum_i |x_i|**p is {root}: values and their sum must be finite")

    # -- read access ---------------------------------------------------------

    @property
    def p(self) -> float:
        return self._p

    def __len__(self) -> int:
        return self._n

    @property
    def _leaves(self) -> np.ndarray:
        """View of the n leaves ``sign(x_i) * |x_i|**p`` (do not mutate)."""
        return self._nodes[self._leaf0 : self._leaf0 + self._n]

    def query_pnorm_power(self) -> float:
        """Root value, equal to the p-th power of the p-norm of the vector."""
        return abs(self._view[1])  # at n = 1 the root is the one signed leaf

    def _node(self, v: int) -> float:
        """Weight of heap node v: stored, ``|leaf|``, or (on the level not stored) its leaf pair's sum."""
        if v < self._leaf0:
            return self._view[v]
        if v >= self._capacity:
            return abs(self._view[v - self._capacity + self._leaf0])
        return self._node(2 * v) + self._node(2 * v + 1)

    def _node_values(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """:meth:`_node` of heap nodes ``v``, all on one level, into ``out`` or a new array."""
        if v.size and v[0] >= self._capacity:
            leaves = np.take(self._nodes[self._leaf0 :], v - self._capacity, out=out, mode="clip")
            return np.abs(leaves, out=leaves)
        if v.size and v[0] >= self._leaf0:
            return np.add(self._node_values(2 * v), self._node_values(2 * v + 1), out=out)
        return np.take(self._nodes, v, out=out, mode="clip")

    def query_entry(self, i: int) -> float:
        """Signed entry ``x_i``, read as ``sign(leaf) * |leaf|**(1/p)``."""
        _check_index(i, self._n)
        return self._entry(i)

    def _entry(self, i: int) -> float:
        leaf = self._leaf0 + i
        value = self._view[leaf]
        if self._p == 1.0:
            return value
        if self._p == 2.0:
            return math.copysign(math.sqrt(abs(value)), value)
        # one-element slices take entries()' NumPy routine; see update_entry
        return float(_signed_values(self._nodes[leaf : leaf + 1], self._p)[0])

    def entries(self) -> np.ndarray:
        """All signed entries reconstructed from the leaves, as a new array."""
        return _signed_values(self._leaves, self._p)

    def probabilities(self) -> np.ndarray:
        """Sampling distribution over indices, ``|x_i|**p / root``."""
        root = self.query_pnorm_power()
        if root <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        weights = np.abs(self._leaves)
        weights /= root
        return weights

    # -- sampling ------------------------------------------------------------

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw one index with probability proportional to its leaf weight.

        One uniform scaled by the root's value walks down, going right iff
        it is at least the left child's value and subtracting that value as
        it goes (see :meth:`_descend`).
        """
        root = abs(self._view[1])  # query_pnorm_power(), without the call
        if root <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        index = self._descend(rng, 1, self._depth, root)
        self.last_op_visits = self._depth + 1
        return index

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` independent indices, each with probability ``|x_i|**p / root``.

        On one stream, the indices that ``size`` calls of :meth:`sample_index`
        give, except when rounding lands a draw on a zero leaf, which is made
        again at the end of the batch (see :meth:`_descend_many`).
        """
        root = self.query_pnorm_power()
        if root <= 0.0:
            raise EmptyDistributionError("all entries are zero")
        return self._descend_many(rng, np.ones(size, dtype=np.int64), self._depth, root)

    def _descend(self, rng: np.random.Generator, start: int, levels: int, weight: float) -> int:
        """Draw one leaf ``levels`` levels below ``start``; return its entry index.

        The scalar form of :meth:`_descend_many`, on Python floats: the same
        uniform, comparisons and subtractions, so a draw that lands on a zero
        leaf is made again at once rather than at the end of a batch.  The
        caller passes the ``weight`` of ``start``, checked to be positive.
        """
        nodes = self._view
        shift = self._capacity - self._leaf0  # heap leaf v is slot v - shift
        while True:
            node = start
            u = rng.random() * weight
            for _ in range(levels - 2):
                node += node  # the left child
                left = nodes[node]
                if u >= left:
                    u -= left
                    node += 1
            leaf = (node << (2 if levels >= 2 else levels)) - shift  # the first leaf below
            if levels >= 2:  # the level not stored: the left child is a leaf pair
                left = abs(nodes[leaf]) + abs(nodes[leaf + 1])
                if u >= left:
                    u -= left
                    leaf += 2
            if levels:
                left = abs(nodes[leaf])
                if u >= left:
                    u -= left
                    leaf += 1
            if nodes[leaf] != 0.0:
                return leaf - self._leaf0

    def _descend_many(self, rng: np.random.Generator, start: np.ndarray, levels: int, weight) -> np.ndarray:
        """Draw one leaf ``levels`` levels below each node in ``start``; return entry indices.

        An inverse-CDF walk: each draw takes one uniform, scaled by its start
        node's value, and at every level goes right iff it is at least the
        left child's value, subtracting that value as it goes, so each output
        depends on its own uniform only.  Rounding in the subtractions can
        carry a draw past its subtree's total into a zero leaf; such draws
        are made again, in draw order.  :meth:`_descend` follows the same
        rule one draw at a time.  The caller hands over ``start`` (heap nodes
        on one level), which is walked in place, and ``weight``, the start
        nodes' values (an array, or one float for one start node), checked to
        be positive.  The last two levels read the leaves, as weights ``|leaf|``.

        ``mode="clip"`` skips the bounds check and buffered output of
        ``mode="raise"`` and never clips: a start node ``levels`` levels up,
        doubled ``levels`` times with 0 or 1 added each time, lands in
        ``[capacity, 2 * capacity)``, the leaves; so a redraw restarts at its leaf >> levels.
        """
        nodes, cap = self._nodes, self._capacity
        leaves = nodes[self._leaf0 :]  # heap leaf v is leaves[v - capacity]
        idx = start
        u = rng.random(idx.size)
        u *= weight
        left = _apart(idx)
        go_right = np.empty(u.size, dtype=bool)
        for _ in range(levels - 2):
            idx += idx  # the left child
            np.take(nodes, idx, out=left, mode="clip")
            idx += _go_right(u, left, go_right)
        idx <<= min(levels, 2)
        idx -= cap  # the entry index of the first leaf below
        if levels >= 2:  # the level not stored: the left child is a leaf pair
            right = np.take(leaves[1:], idx, out=_apart(idx), mode="clip")
            np.abs(np.take(leaves, idx, out=left, mode="clip"), out=left)
            np.add(left, np.abs(right, out=right), out=left)
            idx += _go_right(u, left, go_right)
            idx += go_right
        if levels:
            np.abs(np.take(leaves, idx, out=left, mode="clip"), out=left)
            idx += _go_right(u, left, go_right)
        np.take(leaves, idx, out=left, mode="clip")
        stray = np.flatnonzero(left == 0.0)
        if stray.size:
            again = (idx[stray] + cap) >> levels
            idx[stray] = self._descend_many(rng, again, levels, self._node_values(again))
        return idx

    # -- mutation ------------------------------------------------------------

    def update_entry(self, i: int, value: float) -> None:
        """Set entry i to ``value`` and refresh the sums along its root path; raise
        ``ValueError`` and leave the tree as it was if the root would not be finite."""
        _check_index(i, self._n)
        self._set(i, value)

    def _set(self, i: int, value: float) -> None:
        """:meth:`update_entry` for an index already checked."""
        value = float(value)
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
        nodes = self._view
        leaf = self._leaf0 + i
        old = nodes[leaf]
        nodes[leaf] = math.copysign(mag, value) + 0.0  # the leaf _fill writes
        idx = self._capacity + i
        visits = 1
        # carry the sum just written up the path: each ancestor is its two children's
        # sum (IEEE addition commutes, so the bits are left + right), never a drifting delta
        if leaf != idx:  # the parent is not stored: the grandparent sums its leaf quad
            leaf -= i & 3
            mag = (abs(nodes[leaf]) + abs(nodes[leaf + 1])) + (abs(nodes[leaf + 2]) + abs(nodes[leaf + 3]))
            idx >>= 2
            nodes[idx] = mag
            visits = 3
        elif idx > 1:  # capacity 2: the root sums the two leaves
            mag += abs(nodes[idx ^ 1])
            idx = 1
            nodes[1] = mag
            visits = 2
        while idx > 1:
            mag += nodes[idx ^ 1]  # the sibling
            idx >>= 1
            nodes[idx] = mag
            visits += 1
        self.last_op_visits = visits
        if not math.isfinite(mag):  # mag is now the root
            nodes[self._leaf0 + i] = old
            self.rebuild()  # each sum from its children again: the bits before this update, in O(n)
            raise ValueError(f"entry {value} would make the root {mag}; it must stay finite")

    def _children(self, from_root: bool, spare: np.ndarray):
        """Yield ``(a, b, children)`` level by level: runs of stored nodes ``a .. b - 1``
        and their children's values, interleaved.  Runs are at most ``_BLOCK`` long,
        half that on the lowest stored level, whose children's weights are written to
        ``spare`` (twice a block long): ``|leaf|``, or below the level not stored,
        leaf-pair sums ``|left| + |right|``."""
        nodes, leaf0 = self._nodes, self._leaf0
        shift = self._capacity - leaf0
        sizes = [1 << k for k in range(leaf0.bit_length() - 1)]
        for size in sizes if from_root else sizes[::-1]:
            lowest = 2 * size >= leaf0
            step = _BLOCK // 2 if lowest else _BLOCK
            for a in range(size, 2 * size, step):
                b = min(a + step, 2 * size)
                k = 2 * (b - a)
                if not lowest:
                    yield a, b, nodes[2 * a : 2 * b]
                elif not shift:
                    yield a, b, np.abs(nodes[2 * a : 2 * b], out=spare[:k])
                else:
                    leaves = nodes[4 * a - shift : 4 * b - shift]
                    pairs = np.abs(leaves[::2], out=spare[:k])
                    pairs += np.abs(leaves[1::2], out=spare[k : 2 * k])
                    yield a, b, pairs

    def rebuild(self) -> None:
        """Recompute every stored internal sum bottom-up from the leaves, a block at a time."""
        for a, b, children in self._children(False, np.empty(min(2 * _BLOCK, 2 * self._leaf0))):
            np.add(children[::2], children[1::2], out=self._nodes[a:b])

    def audit(self, rel_tol: float = 1e-9) -> None:
        """Check structural invariants; raise :class:`TreeAuditError` on failure."""
        nodes = self._nodes
        # no n-sized temporaries: min and max carry any nan or inf, and -0.0, whose
        # bits are the sign bit alone, is the one float that reads as the least int64
        if not (math.isfinite(nodes.min()) and math.isfinite(nodes.max())) or nodes[: self._leaf0].min() < 0:
            raise TreeAuditError("the sums must be finite and nonnegative, and the leaves finite")
        if nodes.view(np.int64).min() == np.iinfo(np.int64).min:
            raise TreeAuditError("no node may be -0.0: a zero leaf is +0.0")
        if nodes[0] != 0.0 or np.count_nonzero(nodes[self._leaf0 + self._n :]):
            raise TreeAuditError("slot 0 and the padding leaves must stay zero")
        # block by block from the root, so the first bad node found has the lowest heap
        # index; the work rows (sums, tolerances, gaps, two of leaf weights) hold a block
        work, bad = np.empty((5, _BLOCK)), np.empty(_BLOCK, dtype=bool)
        for a, b, children in self._children(True, work[3:].reshape(-1)):
            parents = nodes[a:b]
            sums, tol, gap = work[:3, : b - a]
            np.add(children[::2], children[1::2], out=sums)
            np.multiply(rel_tol, np.maximum(np.abs(parents, out=tol), np.abs(sums, out=gap), out=tol), out=tol)
            np.abs(np.subtract(parents, sums, out=gap), out=gap)
            if np.greater(gap, tol, out=bad[: b - a]).any():
                k = int(bad[: b - a].argmax())
                raise TreeAuditError(
                    f"node {a + k} holds {parents[k]!r} but its children sum to {sums[k]!r}"
                )


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
        self._tree = tree = WeightedVectorTree.__new__(WeightedVectorTree)
        tree._init_storage(n * stride, _check_exponent(p))
        leaves = tree._leaves
        leaves.reshape(n, stride)[:, :m] = entries.T  # padding rows stay zero
        tree._fill(leaves)
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

    def _columns(self) -> np.ndarray:
        """(n, m) view of the signed leaves: row j is column j, without its padding."""
        return self._tree._leaves.reshape(self._n, self._stride)[:, : self._m]

    def column_pnorm_powers(self) -> np.ndarray:
        """All n column p-norm powers, as a new array."""
        return self._tree._node_values(np.arange(self._column_root, self._column_root + self._n))

    def query_entry(self, i: int, j: int) -> float:
        _check_index(i, self._m, "row")
        _check_index(j, self._n, "column")
        return self._tree._entry(j * self._stride + i)

    def sample_row(self, j: int, rng: np.random.Generator) -> int:
        """Draw a row of column j with probability ``|A_ij|**p / ||A^(j)||_p^p``."""
        _check_index(j, self._n, "column")
        node = self._column_root + j
        weight = self._tree._node(node)
        if weight <= 0.0:
            raise EmptyDistributionError(f"column {j} is all zero")
        return self._tree._descend(rng, node, self._row_levels, weight) - j * self._stride

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
        weights = self._tree._node_values(nodes)
        if np.any(weights <= 0.0):
            raise EmptyDistributionError("a requested column is all zero")
        return self._tree._descend_many(rng, nodes, self._row_levels, weights) - cols * self._stride

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
        self._tree._set(j * self._stride + i, value)

    def dense(self) -> np.ndarray:
        """Signed entries reconstructed from the leaves, as a new (m, n) array."""
        return _signed_values(self._columns(), self.p).T

    def audit(self, rel_tol: float = 1e-9) -> None:
        """Check the vector tree's invariants and that every padding row is zero."""
        self._tree.audit(rel_tol)
        padding = self._tree._leaves.reshape(self._n, self._stride)[:, self._m :]
        if np.any(padding != 0.0):
            raise TreeAuditError("padding rows must stay zero")


def build_vector_tree(values, p: float) -> WeightedVectorTree:
    """Build the p-norm sampling tree over a vector."""
    return WeightedVectorTree(values, p)


def build_matrix_tree(entries, p: float) -> WeightedMatrixTree:
    """Build the column-major p-norm sampling tree over a dense matrix."""
    return WeightedMatrixTree(entries, p)
