"""Independent oracles the tests check library output against.

Everything here is deliberately written from first principles (dense
enumeration, state vectors, quadrature) and never calls back into the code
paths it verifies.
"""

import math

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


def quad_abs_moment(pdf, lo, hi, p):
    value, _ = integrate.quad(lambda t: abs(t) ** p * pdf(t), lo, hi, limit=200)
    return value


# -- inverse-CDF index draws -------------------------------------------------------


def inverse_cdf_indices(weights, u):
    """Index drawn for each uniform in ``u`` by inverting the cumulative weights.

    Index i is returned for ``u * total`` in ``[cumsum[i-1], cumsum[i])``, so
    zero weights are skipped.  With integer weights every sum is exact.
    """
    weights = np.asarray(weights, dtype=float)
    return np.searchsorted(np.cumsum(weights), np.asarray(u) * weights.sum(), side="right")
