"""Seeded random streams, scalar distribution families, and closed-form moment profiles.

Streams are Philox counter-based generators keyed by ``(seed, stream_id)``;
equal keys reproduce the same draws and distinct stream ids give independent
streams, which is what the experiment drivers rely on for per-trial
parallelism and replay.  A stream is a single-owner mutable object: parallel
trials must each own their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ptree import _check_exponent

__all__ = [
    "DistributionSpec",
    "MomentProfile",
    "stream",
    "parse_distribution",
    "moment_profile",
    "gaussian_abs_moment",
    "normal",
    "uniform",
]

_FAMILY_ARITY = {
    "normal": 2,
    "uniform": 2,
    "laplace": 2,
    "exponential": 1,
    "beta": 2,
    "gamma": 2,
}


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic random stream for ``(seed, stream_id)``."""
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be nonnegative integers")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))))


def _finite_result(fn):
    """Make ``fn`` raise ``ValueError`` unless its float result is finite; an
    ``OverflowError`` (float ``**`` and ``math.gamma`` raise it) counts as inf."""

    @functools.wraps(fn)
    def checked(*args):
        try:
            value = fn(*args)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{fn.__name__.strip('_')} is not finite: got {value}")
        return value

    return checked


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

    @_finite_result
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


@_finite_result
def gaussian_abs_moment(sigma: float, p: float) -> float:
    """E|X|**p for X ~ N(0, sigma**2)."""
    return sigma ** p * 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class MomentProfile:
    """Absolute-moment profile of a zero-mean family at exponent p.

    ``mu_p`` is the family's E|X|**p, and ``mu_tilde_p`` the absolute p-th
    moment of a centered Gaussian whose variance equals the square of the
    family variance.
    """

    p: float
    mu_p: float
    mu_tilde_p: float


@_finite_result
def _abs_moment(spec: DistributionSpec, p: float) -> float:
    """E|X|**p of a zero-mean normal, uniform or laplace family, in closed form."""
    f, q = spec.family, spec.params
    if spec.mean() == 0.0:
        if f == "normal":
            return gaussian_abs_moment(q[1], p)
        if f == "uniform":
            return q[1] ** p / (p + 1.0)
        if f == "laplace":  # |X| is exponential with mean b
            return q[1] ** p * math.gamma(p + 1.0)
    raise ValueError(f"{spec.label()} is not a zero-mean normal, uniform or laplace family")


def moment_profile(spec: DistributionSpec, p) -> MomentProfile | list[MomentProfile]:
    """Closed-form moment profile of a zero-mean normal, uniform or laplace family.

    Takes one p (returns a profile) or a sequence of p (returns a list in grid
    order).  Raises ``ValueError`` for any other family, and where a moment
    overflows.
    """
    grid = np.asarray(p, dtype=np.float64)
    sigma2 = spec.variance()
    profiles = []
    for q in grid.ravel().tolist():
        _check_exponent(q)
        profiles.append(MomentProfile(q, _abs_moment(spec, q), gaussian_abs_moment(sigma2, q)))
    return profiles if grid.ndim else profiles[0]
