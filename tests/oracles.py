"""Independent oracles the tests check library output against.

Everything here is deliberately written from first principles (dense
enumeration, state vectors, quadrature) and never calls back into the code
paths it verifies.
"""

import math
import struct

import numpy as np
from scipy import integrate


def enumerate_inner_product_estimator(x, y, p):
    """Exact (mean, variance) of the per-sample estimator value.

    The sampled value at index i is ``||x||_p^p * sgn(x_i) |x_i|^(1-p) y_i``
    with i drawn proportionally to ``|x_i|^p``; zero entries have zero
    probability and are excluded outright.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ax = np.abs(x)
    total = np.sum(ax**p)
    mean = 0.0
    second = 0.0
    for i in range(x.size):
        if x[i] == 0.0:
            continue
        prob = ax[i] ** p / total
        value = total * np.sign(x[i]) * ax[i] ** (1.0 - p) * y[i]
        mean += prob * value
        second += prob * value * value
    return mean, second - mean * mean


def enumerate_trace_estimator(A, x, y, p):
    """Exact mean of the two-level bilinear-form estimator."""
    A = np.asarray(A, dtype=float)
    total = np.sum(np.abs(A) ** p)
    mean = 0.0
    m, n = A.shape
    for i in range(m):
        for j in range(n):
            if A[i, j] == 0.0:
                continue
            prob = abs(A[i, j]) ** p / total
            value = total * x[i] * y[j] * np.sign(A[i, j]) * abs(A[i, j]) ** (1.0 - p)
            mean += prob * value
    return mean


def combination_distribution(A, x, p):
    """Directly normalized target distribution over rows of A @ x."""
    combo = np.asarray(A, dtype=float) @ np.asarray(x, dtype=float)
    weights = np.abs(combo) ** p
    return weights / weights.sum()


def acceptance_ratios(A, x, p):
    """Rejection sampler's per-row acceptance ratio from dense A,
    ``|(Ax)_i|^p / (n^(p-1) * sum_j |x_j A_ij|^p)``; rows no proposal can reach are zero."""
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    denom = x.size ** (p - 1.0) * np.sum(np.abs(A * x) ** p, axis=1)
    num = np.abs(A @ x) ** p
    out = np.zeros(A.shape[0])
    reachable = denom > 0.0
    out[reachable] = num[reachable] / denom[reachable]
    return out


def exact_m_one_p(A, x, p):
    """M(p) for one p, written as the plain NumPy formula with ``**`` powers.

    The library's grid form must equal this bit for bit: the sums keep the
    same order, and its p = 1 and p = 2 shortcuts round as ``**`` does.
    """
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    denominator = float(np.sum(np.abs(A @ x) ** p))
    numerator = float(np.abs(x) ** p @ np.sum(np.abs(A) ** p, axis=0))
    return x.size ** (p - 1.0) * numerator / denominator


def tv_distance(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


# -- dense quantum-state oracle (kept to a handful of qubits) -------------------


def w_state_vector(n):
    psi = np.zeros(1 << n)
    for i in range(n):
        psi[1 << i] = 1.0 / math.sqrt(n)
    return psi


def ghz_state_vector(n):
    psi = np.zeros(1 << n)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2)
    return psi


def pauli_expectation(psi, n, x_bits, z_bits):
    """<psi| i^(x.z) X^x Z^z |psi> by direct basis-state bookkeeping."""
    basis = np.arange(psi.size)
    t = (x_bits & z_bits).bit_count()
    phases = (1j) ** t * (-1.0) ** np.bitwise_count(basis & z_bits).astype(np.int64)
    value = np.sum(np.conj(psi[basis ^ x_bits]) * phases * psi[basis])
    assert abs(value.imag) < 1e-12
    return float(value.real)


def characteristic_table(psi, n):
    """chi values over all 4^n labels, keyed by (x_bits, z_bits)."""
    sqrt_d = math.sqrt(psi.size)
    table = {}
    for x in range(1 << n):
        for z in range(1 << n):
            table[(x, z)] = pauli_expectation(psi, n, x, z) / sqrt_d
    return table


# -- quadrature moments ----------------------------------------------------------


def quad_gaussian_abs_moment(sigma, p):
    """E|X|^p for X ~ N(0, sigma^2) by numerical integration."""
    pdf = lambda t: math.exp(-t * t / (2.0 * sigma * sigma)) / (sigma * math.sqrt(2.0 * math.pi))
    value, _ = integrate.quad(lambda t: 2.0 * t**p * pdf(t), 0.0, np.inf)
    return value


def quad_laplace_abs_moment(b, p):
    """E|X|^p for X ~ Laplace(0, b) by numerical integration."""
    value, _ = integrate.quad(lambda t: 2.0 * t**p * math.exp(-t / b) / (2.0 * b), 0.0, np.inf)
    return value


# -- inverse-CDF index draws -------------------------------------------------------


def inverse_cdf_indices(weights, u):
    """Index drawn for each uniform in ``u`` by inverting the cumulative weights.

    Index i is returned for ``u * total`` in ``[cumsum[i-1], cumsum[i])``, so
    zero weights are skipped.  With integer weights every sum is exact.
    """
    weights = np.asarray(weights, dtype=float)
    return np.searchsorted(np.cumsum(weights), np.asarray(u) * weights.sum(), side="right")


# -- the sampling tree's heap -------------------------------------------------------


def full_heap(tree):
    """The whole 1-based heap of ``2 * capacity`` weights that a vector tree's nodes stand for.

    Slot 0 is zero, node v has children ``2v`` and ``2v + 1``, and the leaves
    are slots ``capacity ..``, each the magnitude ``|x_i|**p``.  The tree stores
    the nodes below ``_leaf0`` and the signed leaves ``sign(x_i) * |x_i|**p``;
    the level it leaves out is restored as its leaf pairs' sums.
    """
    cap, leaf0, nodes = tree._capacity, tree._leaf0, tree._nodes
    heap = np.zeros(2 * cap)
    heap[:leaf0], heap[cap:] = nodes[:leaf0], np.abs(nodes[leaf0:])
    heap[leaf0:cap] = heap[2 * leaf0 :: 2] + heap[2 * leaf0 + 1 :: 2]
    return heap


def leaf_magnitudes(tree):
    """The n leaf weights ``|x_i|**p`` of a vector tree, as a new array."""
    return np.abs(tree._nodes[tree._leaf0 : tree._leaf0 + len(tree)])


def leaf_signs(tree):
    """The n entry signs in {-1, 0, +1} of a vector tree, read from its signed leaves, as int8."""
    return np.sign(tree._nodes[tree._leaf0 : tree._leaf0 + len(tree)]).astype(np.int8)


def flat_layout(tree):
    """A vector tree as sign and magnitude bytes: p (f64), n (u64), the n int8
    signs, then the n f64 magnitudes, all little-endian."""
    header = struct.pack("<dQ", tree.p, len(tree))
    return header + leaf_signs(tree).tobytes() + leaf_magnitudes(tree).astype("<f8").tobytes()


def heap_from_leaves(leaves, capacity):
    """A heap of ``2 * capacity`` slots summed node by node from the leaves, padding zero."""
    heap = np.zeros(2 * capacity)
    heap[capacity : capacity + len(leaves)] = leaves
    for v in range(capacity - 1, 0, -1):
        heap[v] = heap[2 * v] + heap[2 * v + 1]
    return heap


def heap_descent(heap, start, levels, u):
    """The heap leaf that uniform ``u`` reaches from ``start`` down ``levels`` levels.

    The inverse-CDF rule on Python floats: scale ``u`` by the start node, go
    right wherever it is at least the left child, and drop that child's value.
    """
    node, u = start, u * heap[start]
    for _ in range(levels):
        node *= 2
        if u >= heap[node]:
            u -= heap[node]
            node += 1
    return node


# -- sparse inputs -----------------------------------------------------------------


def to_dense(matrix):
    """Dense m x n array of a sparse matrix's triplets, duplicates summed into zeros."""
    out = np.zeros((matrix.m, matrix.n))
    np.add.at(out, (matrix.rows, matrix.cols), matrix.vals)
    return out


def parse_entry_lines(lines, first, comment, sep, m, n):
    """Per-line reference parse of ``lines[first:]`` into 0-based (row, col, value) triplets.

    Blank lines and lines starting with ``comment`` are skipped; any other line
    must hold exactly three ``sep``-separated fields (whitespace when ``sep`` is
    None), in range and finite. Raises ``ValueError`` naming the first bad line.
    """
    triplets = []
    for lineno, line in enumerate(lines[first:], start=first + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith(comment):
            continue
        parts = stripped.split(sep)
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected three fields")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field") from None
        if not (1 <= i <= m and 1 <= j <= n and math.isfinite(v)):
            raise ValueError(f"line {lineno}: entry out of range or non-finite")
        triplets.append((i - 1, j - 1, v))
    return triplets


def dense_from_triplets(m, n, triplets):
    out = np.zeros((m, n))
    for i, j, v in triplets:
        out[i, j] += v
    return out


def eligible_pairs_dense(dense, pairs, min_overlap, rng):
    """Row pairs ``(a, b, overlap)`` drawn as the CLI draws them, from a dense nonzero mask.

    Returns the pairs found within the attempt limit (possibly fewer than
    ``pairs``), or None when fewer than two rows hold a nonzero value.
    """
    nonzero = dense != 0.0
    candidates = np.flatnonzero(nonzero.sum(axis=1) > 0)
    if candidates.size < 2:
        return None
    found = []
    attempts = 0
    while len(found) < pairs and attempts < max(2000, 200 * pairs):
        attempts += 1
        a, b = rng.choice(candidates, size=2, replace=False)
        overlap = int(np.sum(nonzero[a] & nonzero[b]))
        if overlap >= min_overlap:
            found.append((int(a), int(b), overlap))
    return found
