"""Direct fidelity estimation simulator for W and GHZ targets.

Pauli operators are encoded by two bit vectors (X positions, Z positions)
under the Hermitian phase convention ``W = i^(x.z) X^x Z^z``, so Y sits where
both bits are set.  For the two supported targets the characteristic values
``tr(rho W) / sqrt(d)`` have closed forms:

* W state: ``(n - 2|z|) / (n sqrt(d))`` when no X bits are set,
  ``+2 / (n sqrt(d))`` when exactly two X bits are set and the X/Z overlap is
  even, zero otherwise.
* GHZ state: ``+-1 / sqrt(d)`` on the 2^n stabilizer labels (X part empty or
  full, Z weight even; the sign is ``i^|z|``), zero otherwise.

``TargetState.characteristic`` evaluates both, on int bit masks or on int64
arrays of them.

Pauli labels are drawn either proportionally to ``chi^2`` (the amplitude
scheme) or to ``|chi| / Z`` with ``Z = sum |chi|``; the latter tightens the
n^2 coefficient of the measurement budget by a factor of 4 for the W state.

``run_dfe`` draws ``l = ceil(1 / (eps^2 delta))`` labels, at most
``MAX_LEVELS``, in one vectorised pass. Level k measures its label b_k times;
the b_k outcomes of +-1 sum to ``2 Binomial(b_k, p_plus) - b_k``, so each level
mean is drawn as one binomial count and a run's memory is O(l) however many
measurements it simulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_LEVELS",
    "PauliLabel",
    "TargetState",
    "NoiseModel",
    "DfeRun",
    "BoundComparison",
    "WellConditionedReport",
    "w_state",
    "ghz_state",
    "depolarizing",
    "no_noise",
    "z_prime",
    "z_exact",
    "z_upper_bound",
    "sample_paulis",
    "run_dfe",
    "bound_comparison",
    "well_conditioned_check",
]

_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# int64 bit masks bound the simulable qubit count; the exact-integer Z
# identities below have no such limit
_MAX_SIM_QUBITS = 62
# Largest level count ceil(1 / (eps^2 delta)) run_dfe accepts; it admits
# eps = delta = 0.01. The W label draw holds a few levels x n arrays of 8-byte
# entries (a 146 MiB peak at 10^5 levels and n = 60), so memory grows with it.
MAX_LEVELS = 1_000_000


@dataclass(frozen=True)
class PauliLabel:
    """n-qubit Pauli operator as X-position and Z-position bit masks."""

    n: int
    x_bits: int
    z_bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        limit = 1 << self.n
        if not (0 <= self.x_bits < limit and 0 <= self.z_bits < limit):
            raise ValueError("bit masks exceed the qubit count")

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def pauli_string(self) -> str:
        """Letters for qubits 0..n-1, leftmost first."""
        return "".join(
            _PAULI_CHARS[((self.x_bits >> q) & 1, (self.z_bits >> q) & 1)]
            for q in range(self.n)
        )

    @classmethod
    def from_string(cls, text: str) -> "PauliLabel":
        x = z = 0
        for q, ch in enumerate(text.upper()):
            if ch in ("X", "Y"):
                x |= 1 << q
            if ch in ("Z", "Y"):
                z |= 1 << q
            if ch not in "IXYZ":
                raise ValueError(f"unsupported Pauli letter {ch!r}")
        return cls(len(text), x, z)


@dataclass(frozen=True)
class TargetState:
    """Pure target state with a closed-form characteristic function."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("w", "ghz"):
            raise ValueError(f"unsupported target kind {self.kind!r}")
        if self.kind == "w" and self.n < 3:
            raise ValueError("the W target needs n >= 3")
        if self.kind == "ghz" and self.n < 2:
            raise ValueError("the GHZ target needs n >= 2")

    @property
    def dim(self) -> int:
        return 1 << self.n

    def characteristic(self, x_bits, z_bits):
        """Signed ``tr(rho W) / sqrt(d)`` of the labels with these X and Z bit masks.

        Takes two ints (returns a float) or two int64 arrays (returns a float
        array of their broadcast shape).
        """
        x = np.asarray(x_bits, dtype=np.int64)
        z = np.asarray(z_bits, dtype=np.int64)
        n = self.n
        if np.any((x | z) >> n):
            raise ValueError("bit masks exceed the qubit count")
        sqrt_d = math.sqrt(self.dim)
        wz = np.bitwise_count(z).astype(np.int64)
        if self.kind == "w":
            wx = np.bitwise_count(x).astype(np.int64)
            overlap_even = np.bitwise_count(x & z) % 2 == 0
            out = np.where(x == 0, (n - 2 * wz) / (n * sqrt_d), 0.0)
            # under W = i^(x.z) X^x Z^z both even-overlap cases come out positive
            out = np.where((wx == 2) & overlap_even, 2.0 / (n * sqrt_d), out)
        else:
            full = (1 << n) - 1
            even = wz % 2 == 0
            sign = np.where(wz % 4 == 2, -1.0, 1.0)
            out = np.where(even & (x == 0), 1.0 / sqrt_d, 0.0)
            out = np.where(even & (x == full), sign / sqrt_d, out)
        return out if out.ndim else float(out)

    def l1_normalizer(self) -> float:
        """Sum of |chi| over all labels."""
        if self.kind == "w":
            return z_exact(self.n)
        return math.sqrt(self.dim)

    def conditioning_alpha(self) -> float:
        """Conditioning parameter: 1/n for the W state, 1 for GHZ."""
        return 1.0 / self.n if self.kind == "w" else 1.0

    def support(self) -> tuple[list[PauliLabel], np.ndarray]:
        """All labels with nonzero characteristic value, with their values.

        Enumerates 2^n-sized families, so it is intended for small n only.
        """
        if self.n > 14:
            raise ValueError("support enumeration is limited to n <= 14")
        n = self.n
        # chi vanishes outside these X parts; the zero labels within them
        # (odd overlap or Z weight, |z| = n/2 on the W diagonal) are dropped below
        if self.kind == "w":
            x_masks = [0] + [(1 << a) | (1 << b) for a in range(n) for b in range(a + 1, n)]
        else:
            x_masks = [0, (1 << n) - 1]
        grid = np.meshgrid(np.array(x_masks, dtype=np.int64), np.arange(1 << n, dtype=np.int64), indexing="ij")
        x, z = (axis.ravel() for axis in grid)
        chis = self.characteristic(x, z)
        keep = np.flatnonzero(chis)
        labels = [PauliLabel(n, int(x[i]), int(z[i])) for i in keep]
        return labels, chis[keep]


def w_state(n: int) -> TargetState:
    return TargetState("w", n)


def ghz_state(n: int) -> TargetState:
    return TargetState("ghz", n)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing channel (or none) applied to the prepared state."""

    kind: str
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("depolarizing", "none"):
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if self.kind == "depolarizing" and not 0.0 <= self.lam <= 1.0:
            raise ValueError("depolarizing strength must lie in [0, 1]")

    @property
    def shrink(self) -> float:
        """Factor multiplying every non-identity Pauli expectation."""
        return 1.0 - self.lam if self.kind == "depolarizing" else 1.0

    def true_fidelity(self, dim: int) -> float:
        if self.kind == "none":
            return 1.0
        return (1.0 - self.lam) + self.lam / dim


def depolarizing(lam: float) -> NoiseModel:
    return NoiseModel("depolarizing", lam)


def no_noise() -> NoiseModel:
    return NoiseModel("none")


# -- L1 normalizer identities --------------------------------------------------


def z_prime(n: int) -> int:
    """Exact integer value of ``sum_w C(n, w) |n - 2w|``."""
    if n < 1:
        raise ValueError("n must be positive")
    return 2 * n * math.comb(n - 1, n // 2)


def z_exact(n: int) -> float:
    """Exact L1 normalizer for the W state:
    ``(2 / sqrt(d)) C(n-1, floor(n/2)) + (n - 1) sqrt(d) / 2``.
    """
    if n < 3:
        raise ValueError("the W state needs n >= 3")
    sqrt_d = math.sqrt(2.0) ** n
    return 2.0 * math.comb(n - 1, n // 2) / sqrt_d + (n - 1) * sqrt_d / 2.0


def z_upper_bound(n: int) -> float:
    """Cauchy-Schwarz bound ``(n/2 + 1/sqrt(n) - 1/2) sqrt(d)``."""
    if n < 1:
        raise ValueError("n must be positive")
    return (n / 2.0 + 1.0 / math.sqrt(n) - 0.5) * math.sqrt(2.0) ** n


# -- label sampling ------------------------------------------------------------


def _choose_positions(rng: np.random.Generator, count: int, n: int, weights: np.ndarray) -> np.ndarray:
    """Bit masks with w_i set bits each, positions uniform; w_i ~ weights."""
    w = rng.choice(n + 1, size=count, p=weights)
    # rank trick: the w_i smallest uniforms in each row mark the chosen bits
    u = rng.random((count, n))
    ranks = np.argsort(np.argsort(u, axis=1), axis=1)
    mask = (ranks < w[:, None]).astype(np.int64)
    return mask @ (np.int64(1) << np.arange(n, dtype=np.int64))


def _uniform_bits(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    bits = rng.integers(0, 2, size=(count, n), dtype=np.int64)
    return bits @ (np.int64(1) << np.arange(n, dtype=np.int64))


def sample_paulis(
    target: TargetState, norm: str, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized label sampling; returns (x_bits, z_bits) int64 arrays.

    For the W state the amplitude scheme uses branch weights proportional to
    chi^2 and the L1 scheme weights proportional to |chi|; for GHZ both
    schemes coincide with the uniform distribution over the stabilizer
    labels.
    """
    if norm not in ("l1", "l2"):
        raise ValueError("norm must be 'l1' or 'l2'")
    n = target.n
    if n > _MAX_SIM_QUBITS:
        raise ValueError(f"sampling supports at most {_MAX_SIM_QUBITS} qubits")

    if target.kind == "ghz":
        full = np.int64((1 << n) - 1)
        x = np.where(rng.random(size) < 0.5, full, np.int64(0))
        head = rng.integers(0, 2, size=(size, n - 1), dtype=np.int64)
        parity = head.sum(axis=1) % 2
        z = head @ (np.int64(1) << np.arange(n - 1, dtype=np.int64))
        z |= parity.astype(np.int64) << (n - 1)
        return x, z

    d_sqrt = math.sqrt(target.dim)
    w_values = np.arange(n + 1)
    combs = np.array([math.comb(n, w) for w in w_values], dtype=np.float64)
    if norm == "l1":
        z_norm = z_exact(n)
        second_prob = (n - 1) * d_sqrt / (2.0 * z_norm)
        w_weights = combs * np.abs(n - 2 * w_values)
    else:
        second_prob = (n - 1) / n
        w_weights = combs * (n - 2 * w_values) ** 2
    w_weights = w_weights / w_weights.sum()

    second = rng.random(size) < second_prob
    x = np.zeros(size, dtype=np.int64)
    z = np.zeros(size, dtype=np.int64)

    count1 = int(size - second.sum())
    if count1:
        z[~second] = _choose_positions(rng, count1, n, w_weights)
    count2 = int(second.sum())
    if count2:
        pair_weights = np.zeros(n + 1)
        pair_weights[2] = 1.0
        x2 = _choose_positions(rng, count2, n, pair_weights)
        z2 = _uniform_bits(rng, count2, n)
        # flipping z at the lowest X position maps odd-overlap strings onto
        # even ones bijectively, so the restriction stays uniform
        odd = np.bitwise_count(x2 & z2) % 2 == 1
        z2 = np.where(odd, z2 ^ (x2 & -x2), z2)
        x[second] = x2
        z[second] = z2
    return x, z


# -- the estimator ---------------------------------------------------------------


@dataclass(frozen=True)
class DfeRun:
    """Configuration and outcome of one fidelity-estimation experiment."""

    target: TargetState
    noise: NoiseModel
    epsilon: float
    delta: float
    norm: str
    levels: int
    level_budgets: np.ndarray
    total_measurements: int
    estimate: float
    true_fidelity: float

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.kind,
            "n": self.target.n,
            "noise": {"kind": self.noise.kind, "lambda": self.noise.lam},
            "epsilon": self.epsilon,
            "delta": self.delta,
            "norm": self.norm,
            "l": self.levels,
            "total_measurements": self.total_measurements,
            "estimate": self.estimate,
            "true_fidelity": self.true_fidelity,
        }


def _level_budgets(
    target: TargetState, norm: str, epsilon: float, delta: float, levels: int, chi: np.ndarray
) -> np.ndarray:
    log_term = math.log(2.0 / delta)
    if norm == "l1":
        # the W budget bounds Z^2/d by n^2/4; for GHZ the exact value is 1
        scale = target.n ** 2 / 4.0 if target.kind == "w" else 1.0
        per_level = math.ceil(2.0 * log_term * scale / (levels * epsilon ** 2))
        return np.full(levels, per_level, dtype=np.int64)
    inv = 1.0 / (target.dim * chi ** 2)
    return np.ceil(2.0 * log_term * inv / (levels * epsilon ** 2)).astype(np.int64)


def _pauli_expectation(
    target: TargetState, noise: NoiseModel, x_bits: np.ndarray, z_bits: np.ndarray, chi: np.ndarray
) -> np.ndarray:
    """``tr(sigma W)`` of the noisy state for each label, given the labels' chi values."""
    identity = (x_bits == 0) & (z_bits == 0)
    expectation = np.where(identity, 1.0, noise.shrink * math.sqrt(target.dim) * chi)
    if np.any(np.abs(expectation) > 1.0 + 1e-12):
        raise RuntimeError("Pauli expectation outside [-1, 1]; inconsistent model")
    return expectation


def run_dfe(
    target: TargetState,
    noise: NoiseModel,
    epsilon: float,
    delta: float,
    norm: str,
    rng: np.random.Generator,
) -> DfeRun:
    """One full fidelity-estimation experiment.

    Draws ``l = ceil(1 / (eps^2 delta))`` Pauli labels under the chosen
    scheme (``ValueError`` above ``MAX_LEVELS``), draws each level's mean
    over its measurement budget as one binomial count, and aggregates the
    reweighted level means; the result satisfies
    ``Pr[|estimate - F| >= 2 eps] <= 2 delta``.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if norm not in ("l1", "l2"):
        raise ValueError("norm must be 'l1' or 'l2'")

    levels = math.ceil(1.0 / (epsilon ** 2 * delta))
    if levels > MAX_LEVELS:
        raise ValueError(
            f"epsilon {epsilon:g} and delta {delta:g} need {levels} levels, above the cap of {MAX_LEVELS}"
        )
    x_arr, z_arr = sample_paulis(target, norm, rng, levels)
    chi = target.characteristic(x_arr, z_arr)
    expectation = _pauli_expectation(target, noise, x_arr, z_arr, chi)
    budgets = _level_budgets(target, norm, epsilon, delta, levels, chi)
    sqrt_d = math.sqrt(target.dim)
    if norm == "l1":
        weights = target.l1_normalizer() * np.sign(chi) / sqrt_d
    else:
        weights = 1.0 / (sqrt_d * chi)

    # b outcomes of +-1 with Pr[+1] = p sum to 2 Binomial(b, p) - b, so each
    # level mean is one binomial count and memory stays O(levels)
    p_plus = np.clip((1.0 + expectation) / 2.0, 0.0, 1.0)
    level_means = (2 * rng.binomial(budgets, p_plus) - budgets) / budgets
    estimate = float(np.mean(weights * level_means))

    return DfeRun(
        target=target,
        noise=noise,
        epsilon=float(epsilon),
        delta=float(delta),
        norm=norm,
        levels=levels,
        level_budgets=budgets,
        total_measurements=int(budgets.sum()),
        estimate=estimate,
        true_fidelity=noise.true_fidelity(target.dim),
    )


# -- budget bounds and conditioning ---------------------------------------------


@dataclass(frozen=True)
class BoundComparison:
    """Closed-form measurement bounds for the two sampling schemes."""

    l2_bound: float
    l1_bound: float
    coefficient_ratio: float


def bound_comparison(n: int, epsilon: float, delta: float) -> BoundComparison:
    """Total-measurement bounds for the W state and the ratio of their n^2
    coefficients (exactly 4).
    """
    if n < 3:
        raise ValueError("the bounds are stated for n >= 3")
    common = math.log(2.0 / delta) / epsilon ** 2
    tail = 1.0 / (epsilon ** 2 * delta) + 1.0
    l2_coeff = 2.0 * common
    l1_coeff = 0.5 * common
    return BoundComparison(
        l2_bound=l2_coeff * n ** 2 + tail,
        l1_bound=l1_coeff * n ** 2 + tail,
        coefficient_ratio=l2_coeff / l1_coeff,
    )


@dataclass(frozen=True)
class WellConditionedReport:
    alpha: float
    z_value: float
    z_limit: float
    holds: bool


def well_conditioned_check(target: TargetState) -> WellConditionedReport:
    """Verify ``Z <= sqrt(d) / alpha`` for the target's conditioning parameter."""
    alpha = target.conditioning_alpha()
    z_value = target.l1_normalizer()
    z_limit = math.sqrt(target.dim) / alpha
    return WellConditionedReport(alpha, z_value, z_limit, z_value <= z_limit * (1.0 + 1e-12))
