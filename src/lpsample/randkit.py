"""Seeded random streams, scalar distribution families, and moment profiles.

Streams are Philox counter-based generators keyed by ``(seed, stream_id)``;
equal keys reproduce the same draws and distinct stream ids give independent
streams, which is what the experiment drivers rely on for per-trial
parallelism and replay.  A stream is a single-owner mutable object: parallel
trials must each own their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSpec",
    "MomentProfile",
    "stream",
    "parse_distribution",
    "moment_profile",
    "gaussian_abs_moment",
    "normal",
    "uniform",
    "laplace",
    "exponential",
    "beta",
    "gamma",
]

_FAMILY_ARITY = {
    "normal": 2,
    "uniform": 2,
    "laplace": 2,
    "exponential": 1,
    "beta": 2,
    "gamma": 2,
}

# stream id reserved for moment-profile Monte Carlo so experiment trials
# (small ids) never share a stream with it
_MOMENT_STREAM_ID = 982_451_653
# Monte Carlo sample size of a moment profile
_MOMENT_SAMPLES = 200_000


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic random stream for ``(seed, stream_id)``."""
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))))


@dataclass(frozen=True)
class DistributionSpec:
    """A scalar distribution family with validated parameters."""

    family: str
    params: tuple

    def __post_init__(self):
        family = self.family
        params = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", params)
        if family not in _FAMILY_ARITY:
            raise ValueError(f"unknown distribution family {family!r}")
        if len(params) != _FAMILY_ARITY[family]:
            raise ValueError(f"{family} takes {_FAMILY_ARITY[family]} parameters, got {len(params)}")
        if any(not math.isfinite(v) for v in params):
            raise ValueError(f"{family} parameters must be finite")
        if family == "normal" and params[1] <= 0:
            raise ValueError("normal requires sigma > 0")
        if family == "uniform" and params[0] >= params[1]:
            raise ValueError("uniform requires a < b")
        if family == "laplace" and params[1] <= 0:
            raise ValueError("laplace requires scale > 0")
        if family == "exponential" and params[0] <= 0:
            raise ValueError("exponential requires rate > 0")
        if family == "beta" and (params[0] <= 0 or params[1] <= 0):
            raise ValueError("beta requires both shape parameters > 0")
        if family == "gamma" and (params[0] <= 0 or params[1] <= 0):
            raise ValueError("gamma requires shape > 0 and scale > 0")

    def label(self) -> str:
        """``family:params`` text that ``parse_distribution`` reads back to this spec.

        Each parameter is written short (``format(v, "g")``) where that
        round-trips, and in full (``repr``) where it would round.
        """
        return self.family + ":" + ",".join(
            format(v, "g") if float(format(v, "g")) == v else repr(v) for v in self.params
        )

    def sample(self, rng: np.random.Generator, size=None):
        f, q = self.family, self.params
        if f == "normal":
            return rng.normal(q[0], q[1], size)
        if f == "uniform":
            return rng.uniform(q[0], q[1], size)
        if f == "laplace":
            return rng.laplace(q[0], q[1], size)
        if f == "exponential":
            return rng.exponential(1.0 / q[0], size)
        if f == "beta":
            return rng.beta(q[0], q[1], size)
        return rng.gamma(q[0], q[1], size)

    def mean(self) -> float:
        f, q = self.family, self.params
        if f == "normal" or f == "laplace":
            return q[0]
        if f == "uniform":
            return (q[0] + q[1]) / 2.0
        if f == "exponential":
            return 1.0 / q[0]
        if f == "beta":
            return q[0] / (q[0] + q[1])
        return q[0] * q[1]

    def variance(self) -> float:
        f, q = self.family, self.params
        if f == "normal":
            return q[1] ** 2
        if f == "uniform":
            return (q[1] - q[0]) ** 2 / 12.0
        if f == "laplace":
            return 2.0 * q[1] ** 2
        if f == "exponential":
            return 1.0 / q[0] ** 2
        if f == "beta":
            a, b = q
            return a * b / ((a + b) ** 2 * (a + b + 1.0))
        k, theta = q
        return k * theta ** 2


def normal(mu: float, sigma: float) -> DistributionSpec:
    return DistributionSpec("normal", (mu, sigma))


def uniform(a: float, b: float) -> DistributionSpec:
    return DistributionSpec("uniform", (a, b))


def laplace(mu: float, scale: float) -> DistributionSpec:
    return DistributionSpec("laplace", (mu, scale))


def exponential(rate: float) -> DistributionSpec:
    return DistributionSpec("exponential", (rate,))


def beta(a: float, b: float) -> DistributionSpec:
    return DistributionSpec("beta", (a, b))


def gamma(shape: float, scale: float) -> DistributionSpec:
    return DistributionSpec("gamma", (shape, scale))


def parse_distribution(text: str) -> DistributionSpec:
    """Parse strings such as ``normal:0,1`` or ``beta:5,2``."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"expected '<family>:<params>', got {text!r}")
    family, _, rest = text.partition(":")
    try:
        params = tuple(float(tok) for tok in rest.split(",") if tok.strip() != "")
    except ValueError:
        raise ValueError(f"non-numeric parameter in {text!r}") from None
    return DistributionSpec(family.strip().lower(), params)


def gaussian_abs_moment(sigma: float, p: float) -> float:
    """E|X|**p for X ~ N(0, sigma**2)."""
    return sigma ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class MomentProfile:
    """Absolute-moment profile of a family at exponent p.

    ``mu_tilde_p`` is the absolute p-th moment of a centered Gaussian whose
    variance equals the square of the family variance; it is always computed
    from the closed Gamma-function form.
    """

    p: float
    sigma2: float
    mu_p: float
    sigma2_p: float
    mu_tilde_p: float
    method: str
    mu_p_stderr: float | None = None


def _closed_form_abs_moments(spec: DistributionSpec, p: float) -> tuple[float, float] | None:
    """(E|X|**p, Var|X|**p) where a simple closed form exists."""
    f, q = spec.family, spec.params
    if f == "normal" and q[0] == 0.0:
        m1 = gaussian_abs_moment(q[1], p)
        m2 = gaussian_abs_moment(q[1], 2.0 * p)
        return m1, m2 - m1 * m1
    if f == "uniform" and q[0] == -q[1]:
        a = q[1]
        m1 = a ** p / (p + 1.0)
        m2 = a ** (2.0 * p) / (2.0 * p + 1.0)
        return m1, m2 - m1 * m1
    return None


def moment_profile(spec: DistributionSpec, p, *, seed: int = 0) -> MomentProfile | list[MomentProfile]:
    """Moment profile via closed forms (zero-mean normal, symmetric uniform)
    or Monte Carlo for the remaining families.

    Takes one p (returns a profile) or a sequence of p (returns a list in grid
    order).  Monte Carlo draws and takes ``abs`` of one sample for the whole
    grid and raises it to each p, so every point has the bits of a one-p call.
    """
    grid = np.asarray(p, dtype=np.float64)
    sigma2 = spec.variance()
    magnitudes, profiles = None, []
    for q in grid.ravel().tolist():
        if not math.isfinite(q) or q < 1.0:
            raise ValueError(f"exponent p must be finite and >= 1, got {q}")
        mu_tilde = gaussian_abs_moment(sigma2, q)
        closed = _closed_form_abs_moments(spec, q)
        if closed is not None:
            profiles.append(MomentProfile(q, sigma2, *closed, mu_tilde, "closed-form"))
            continue
        if magnitudes is None:
            magnitudes = np.abs(spec.sample(stream(seed, _MOMENT_STREAM_ID), _MOMENT_SAMPLES))
        a = magnitudes ** q
        mu_p, var_p = float(a.mean()), float(a.var(ddof=1))
        method = f"monte-carlo(n={_MOMENT_SAMPLES},seed={seed})"
        stderr = math.sqrt(var_p / _MOMENT_SAMPLES)
        profiles.append(MomentProfile(q, sigma2, mu_p, var_p, mu_tilde, method, stderr))
    return profiles if grid.ndim else profiles[0]
