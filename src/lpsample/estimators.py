"""Sampling-based inner-product estimation over p-norm sampling trees.

The core estimator draws indices i with probability ``|x_i|**p / ||x||_p^p``
and averages ``||x||_p^p * sgn(x_i) * |x_i|**(1-p) * y_i``, whose expectation
is the inner product <x, y>.  Robust aggregation uses the median of
ceil(6 ln(1/delta)) group means with ceil(9 / (2 eps^2)) samples per group,
which pins the additive error to eps times the error scale
``||x||_p^(p/2) * sqrt(<x^(2-p), y^(2)>)`` with probability at least
1 - delta.  As x^T A y is the inner product of vec(A) with x (x) y, the trace
estimator is this estimator on the matrix tree's flat leaves.  The other side
(y, or x_i * y_j) is an array of exact length, read only at the sampled indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptree import WeightedMatrixTree, WeightedVectorTree
from .randkit import DistributionSpec, _finite_result

__all__ = [
    "EstimateReport",
    "UndefinedScaleError",
    "estimate_inner_product",
    "estimate_trace_inner_product",
    "error_scale",
    "f_curve",
    "empirical_improvement_factor",
    "mom_counts",
]

class UndefinedScaleError(ValueError):
    """The error scale is undefined: p > 2 with x_i = 0 but y_i != 0."""


def mom_counts(epsilon: float, delta: float) -> tuple[int, int]:
    """(groups, samples per group) for the median-of-means aggregation."""
    if not 0.0 < epsilon < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    groups = math.ceil(6.0 * math.log(1.0 / delta))
    per_group = math.ceil(4.5 / (epsilon * epsilon))
    return groups, per_group


def _median_of_means(values: np.ndarray, groups: int, per_group: int) -> float:
    """Lower median of the group means; raise ``ValueError`` unless it is finite."""
    means = values.reshape(groups, per_group).mean(axis=1)
    means.sort()
    # lower median keeps the output deterministic for even group counts
    estimate = float(means[(groups - 1) // 2])
    if not math.isfinite(estimate):
        raise ValueError(f"the estimate {estimate} is not finite: a weighted sample overflowed")
    return estimate


def _side(values, size: int, name: str) -> np.ndarray:
    """``values`` as a float64 array, which must hold exactly ``size`` entries."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {values.shape}")
    return values


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one median-of-means estimation run."""

    estimate: float
    error_scale: float | None
    total_samples: int


def _draw_weights(tree: WeightedVectorTree, epsilon: float, delta: float, rng: np.random.Generator):
    """Median-of-means counts, ``groups * per_group`` indices i drawn from ``tree`` (never
    at x_i = 0) and their weights ``||x||_p^p * sgn(x_i) * |x_i|**(1-p)``."""
    groups, per_group = mom_counts(epsilon, delta)
    idx = tree.sample_indices(rng, groups * per_group)  # raises EmptyDistributionError at x = 0
    leaves = tree._leaves[idx]  # sgn(x_i) * |x_i|**p, never zero at a drawn index
    weights = np.copysign(tree.query_pnorm_power(), leaves)
    p = tree.p
    if p != 1.0:
        # at p = 1 no per-sample power: the weight is sgn(x_i) * ||x||_1
        weights *= np.abs(leaves, out=leaves) ** ((1.0 - p) / p)
    return groups, per_group, idx, weights


def estimate_inner_product(
    tree: WeightedVectorTree,
    y,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
    *,
    compute_scale: bool = True,
) -> EstimateReport:
    """Estimate <x, y> given the sampling tree for x and the entries of y.

    ``y`` must have one entry per entry of x.  When ``compute_scale`` is set
    the report carries the error scale, which costs n extra queries of y and
    is meant for diagnostics, not for the estimate itself.
    """
    y = _side(y, len(tree), "y")
    groups, per_group, idx, weights = _draw_weights(tree, epsilon, delta, rng)
    estimate = _median_of_means(weights * y[idx], groups, per_group)
    scale = error_scale(tree.entries(), y, tree.p) if compute_scale else None
    return EstimateReport(estimate, scale, groups * per_group)


def estimate_trace_inner_product(
    matrix_tree: WeightedMatrixTree,
    x,
    y,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> EstimateReport:
    """Estimate the bilinear form x^T A y, the inner product of vec(A) with x (x) y.

    The vector estimator on the matrix tree's flat leaves: each drawn entry
    (i, j) of A is weighed as an entry of vec(A), times ``x_i * y_j``.  ``x``
    and ``y`` must have m and n entries for an m-by-n A.
    """
    m, n = matrix_tree.shape
    x = _side(x, m, "x")
    y = _side(y, n, "y")
    groups, per_group, idx, weights = _draw_weights(matrix_tree._tree, epsilon, delta, rng)
    cols, rows = np.divmod(idx, matrix_tree._stride)
    estimate = _median_of_means(weights * x[rows] * y[cols], groups, per_group)
    return EstimateReport(estimate, None, groups * per_group)


@_finite_result
def error_scale(x, y, p: float) -> float:
    """Additive error scale ``||x||_p^(p/2) * sqrt(sum |x_i|^(2-p) y_i^2)``.

    Terms with x_i = 0 contribute nothing (those indices are never sampled, so
    their y_i is never read). For p > 2 a zero x_i facing a nonzero y_i leaves
    the scale undefined, and is reported as an error rather than given a
    value. A scale that is not finite raises ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional with equal length")
    nonzero = x != 0.0
    if not np.any(nonzero):
        raise ValueError("x must be nonzero")
    if p > 2.0 and np.any(~nonzero & (y != 0.0)):
        raise UndefinedScaleError(
            "error scale undefined: p > 2 with a zero x entry at a nonzero y entry"
        )
    ax = np.abs(x[nonzero])
    cross = float(np.sum(ax ** (2.0 - p) * y[nonzero] ** 2))
    return math.sqrt(float(np.sum(np.abs(x) ** p))) * math.sqrt(cross)


@_finite_result
def f_curve(x, p: float) -> float:
    """Sample-cost curve ``sum |x_i|^p * sum |x_i|^(2-p)`` over nonzero entries.

    Minimized at p = 1 for every vector whose nonzero entries are not all of
    equal magnitude; constant in p otherwise. A value that is not finite
    raises ``ValueError``.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x[x != 0.0])
    if ax.size == 0:
        return 0.0
    return float(np.sum(ax ** p) * np.sum(ax ** (2.0 - p)))


# rows of x per batch: the draws do not depend on it, the rounding of the sums does
_IMPROVEMENT_CHUNK = 4096


def empirical_improvement_factor(
    spec: DistributionSpec,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Average sample-efficiency gain of p = 1 over p = 2, by Monte Carlo.

    Draws ``trials`` vectors x of length n, averages the estimator-variance
    proxy ``f(p, x) - ||x||^2`` at p = 2 and p = 1, and returns the ratio,
    which converges to E[X^2] / (E|X|)^2 for zero-mean families (pi/2 for a
    normal, 4/3 for a uniform, 2 for a laplace).
    """
    if spec.mean() != 0.0:
        raise ValueError("the averaged identity requires a zero-mean family")
    sum_s2 = 0.0
    sum_s1_sq = 0.0
    done = 0
    while done < trials:
        count = min(_IMPROVEMENT_CHUNK, trials - done)
        x = spec.sample(rng, (count, n))
        sum_s2 += float((x * x).sum())
        sum_s1_sq += float((np.abs(x).sum(axis=1) ** 2).sum())
        done += count
    mean_s2 = sum_s2 / trials
    mean_s1_sq = sum_s1_sq / trials
    return (n - 1) * mean_s2 / (mean_s1_sq - mean_s2)
