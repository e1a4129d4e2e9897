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

A level's Pauli label is drawn either proportionally to ``chi^2`` (the
amplitude scheme) or to ``|chi| / Z`` with ``Z = sum |chi|``; the latter
tightens the n^2 coefficient of the measurement budget by a factor of 4 for
the W state.

Under depolarizing noise a level's outcome and budget depend on its label only
through chi and whether it is the identity, and both targets split their
support into O(n) label classes sharing both (``_label_classes``). ``run_dfe``
therefore draws how many of its ``l = ceil(1 / (eps^2 delta))`` levels fall in
each class as one multinomial count, and each class's outcomes as one binomial
count: the b outcomes of +-1 of a level sum to ``2 Binomial(b, p_plus) - b``,
and binomials with the same p add. A run's time and memory are O(n) whatever
l and the measurement count are, up to int64 counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TargetState",
    "NoiseModel",
    "DfeRun",
    "BoundComparison",
    "w_state",
    "ghz_state",
    "depolarizing",
    "no_noise",
    "z_prime",
    "z_exact",
    "z_upper_bound",
    "run_dfe",
    "bound_comparison",
]

# int64 bit masks bound the simulable qubit count; the exact-integer Z
# identities below have no such limit
_MAX_SIM_QUBITS = 62
# level and measurement counts are int64 in NumPy's multinomial and binomial
_MAX_COUNT = np.iinfo(np.int64).max


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


# -- label classes ----------------------------------------------------------------


def _label_classes(target: TargetState) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rep_x, rep_z, count, chi)`` of the classes of labels with nonzero chi.

    Every label in a class has the class's chi and is the identity exactly when
    the representative is. W: Z weight k with no X bits (k = 0..n), plus two X
    bits with even X/Z overlap. GHZ: X part empty or full times even Z weight.
    Representatives set the lowest bits; counts are floats.
    """
    n = target.n
    if n > _MAX_SIM_QUBITS:
        raise ValueError(f"label classes support at most {_MAX_SIM_QUBITS} qubits")
    weights = np.arange(n + 1)
    lowest = (np.int64(1) << weights) - 1  # the `weight` lowest bits set
    combs = np.array([math.comb(n, w) for w in weights], dtype=np.float64)
    if target.kind == "w":
        x = np.append(np.zeros(n + 1, dtype=np.int64), 0b11)
        z = np.append(lowest, 0)
        count = np.append(combs, math.comb(n, 2) * 2.0 ** (n - 1))
    else:
        x = np.repeat(np.array([0, (1 << n) - 1], dtype=np.int64), n // 2 + 1)
        z = np.tile(lowest[::2], 2)
        count = np.tile(combs[::2], 2)
    chi = target.characteristic(x, z)
    keep = chi != 0.0
    return x[keep], z[keep], count[keep], chi[keep]


def _class_weights(count: np.ndarray, chi: np.ndarray, norm: str) -> np.ndarray:
    """Total |chi| (``l1``) or chi^2 (``l2``) of each class's labels."""
    if norm not in ("l1", "l2"):
        raise ValueError("norm must be 'l1' or 'l2'")
    return count * (np.abs(chi) if norm == "l1" else chi**2)


# -- the estimator ---------------------------------------------------------------


@dataclass(frozen=True)
class DfeRun:
    """Configuration and outcome of one fidelity-estimation experiment: ``class_levels[c]``
    levels drew a label of class c (``_label_classes``), measured ``class_budgets[c]`` times each.
    """

    target: TargetState
    noise: NoiseModel
    epsilon: float
    delta: float
    norm: str
    levels: int
    class_levels: np.ndarray
    class_budgets: np.ndarray
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
    if norm == "l1":
        # the W budget bounds Z^2/d by n^2/4; for GHZ the exact value is 1
        inv = np.full(chi.shape, target.n ** 2 / 4.0 if target.kind == "w" else 1.0)
    else:
        inv = 1.0 / (target.dim * chi ** 2)
    return np.ceil(2.0 * math.log(2.0 / delta) * inv / (levels * epsilon ** 2)).astype(np.int64)


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

    Draws the label classes of ``l = ceil(1 / (eps^2 delta))`` levels under
    the chosen scheme, draws each class's summed outcomes over its levels'
    measurement budgets as one binomial count, and aggregates the reweighted
    level means; the result satisfies ``Pr[|estimate - F| >= 2 eps] <= 2 delta``.
    Raises ``ValueError`` when l or the measurement total exceeds int64.
    """
    if not (0.0 < epsilon < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")

    scale = epsilon ** 2 * delta  # tested first so that 1 / scale is finite
    levels = math.ceil(1.0 / scale) if scale * _MAX_COUNT >= 1.0 else _MAX_COUNT + 1
    if levels > _MAX_COUNT:
        raise ValueError(f"epsilon {epsilon:g} and delta {delta:g} need more than {_MAX_COUNT} levels")
    x, z, count, chi = _label_classes(target)
    class_weights = _class_weights(count, chi, norm)
    class_levels = rng.multinomial(levels, class_weights / class_weights.sum())
    budgets = _level_budgets(target, norm, epsilon, delta, levels, chi)
    total = sum(int(a) * int(b) for a, b in zip(class_levels, budgets))
    if total > _MAX_COUNT:
        raise ValueError(f"epsilon {epsilon:g} and delta {delta:g} need {total} measurements, above {_MAX_COUNT}")
    sqrt_d = math.sqrt(target.dim)
    if norm == "l1":  # class_weights sum to the l1 normalizer
        weights = class_weights.sum() * np.sign(chi) / sqrt_d
    else:
        weights = 1.0 / (sqrt_d * chi)

    # a class's levels take class_levels * budget outcomes of +-1 with the same
    # Pr[+1]; their level means sum to (2 Binomial(that count, p_plus) - count) / budget
    p_plus = np.clip((1.0 + _pauli_expectation(target, noise, x, z, chi)) / 2.0, 0.0, 1.0)
    outcomes = class_levels * budgets
    mean_sums = (2.0 * rng.binomial(outcomes, p_plus) - outcomes) / budgets
    estimate = float(np.sum(weights * mean_sums)) / levels

    return DfeRun(
        target=target,
        noise=noise,
        epsilon=float(epsilon),
        delta=float(delta),
        norm=norm,
        levels=levels,
        class_levels=class_levels,
        class_budgets=budgets,
        total_measurements=total,
        estimate=estimate,
        true_fidelity=noise.true_fidelity(target.dim),
    )


# -- budget bounds ----------------------------------------------------------------


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
