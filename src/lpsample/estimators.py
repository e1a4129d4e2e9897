"""Sampling-based inner-product estimation over p-norm sampling trees.

The core estimator draws indices i with probability ``|x_i|**p / ||x||_p^p``
and averages ``||x||_p^p * sgn(x_i) * |x_i|**(1-p) * y_i``, whose expectation
is the inner product <x, y>.  Robust aggregation uses the median of
ceil(6 ln(1/delta)) group means with ceil(9 / (2 eps^2)) samples per group,
which pins the additive error to eps times the error scale
``||x||_p^(p/2) * sqrt(<x^(2-p), y^(2)>)`` with probability at least
1 - delta.  The other side of each product (y, or x and y for a bilinear
form) is an array, read only at the sampled indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptree import EmptyDistributionError, WeightedMatrixTree, WeightedVectorTree
from .randkit import DistributionSpec

__all__ = [
    "EstimateReport",
    "UndefinedScaleError",
    "estimate_inner_product",
    "estimate_trace_inner_product",
    "error_scale",
    "f_curve",
    "improvement_factor",
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
    means = values.reshape(groups, per_group).mean(axis=1)
    means.sort()
    # lower median keeps the output deterministic for even group counts
    return float(means[(groups - 1) // 2])


def _gather(y, indices: np.ndarray) -> np.ndarray:
    return np.asarray(y, dtype=np.float64)[indices]


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one median-of-means estimation run."""

    estimate: float
    epsilon: float
    delta: float
    error_scale: float | None
    groups: int
    samples_per_group: int
    total_samples: int


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

    Indices with x_i = 0 are never sampled, so the negative power of zero in
    the per-sample weight cannot occur.  When ``compute_scale`` is set the
    report carries the error scale, which costs n extra queries of y and is
    meant for diagnostics, not for the estimate itself.
    """
    groups, per_group = mom_counts(epsilon, delta)
    total = groups * per_group
    root = tree.query_pnorm_power()
    if root <= 0.0:
        raise EmptyDistributionError("cannot estimate against an all-zero x")

    idx = tree.sample_indices(rng, total)
    signs = tree.leaf_signs[idx]
    yv = _gather(y, idx)
    p = tree.p
    if p == 1.0:
        # no per-sample division or power: the weight is sgn(x_i) * ||x||_1
        values = root * signs * yv
    else:
        mags = tree.leaf_magnitudes[idx]
        values = root * signs * mags ** ((1.0 - p) / p) * yv
    estimate = _median_of_means(values, groups, per_group)

    scale = None
    if compute_scale:
        x_vals = tree.entries()
        y_full = _gather(y, np.arange(len(tree)))
        scale = error_scale(x_vals, y_full, p)
    return EstimateReport(estimate, float(epsilon), float(delta), scale, groups, per_group, total)


def estimate_trace_inner_product(
    matrix_tree: WeightedMatrixTree,
    x,
    y,
    epsilon: float,
    delta: float,
    rng: np.random.Generator,
) -> EstimateReport:
    """Estimate the bilinear form x^T A y from two-level (row, column) samples.

    Each sample (i, j) drawn from the matrix distribution contributes
    ``x_i * y_j * sgn(A_ij) * |A_ij|**(1-p)`` scaled by the total p-norm
    power, which is unbiased for x^T A y; aggregation matches
    :func:`estimate_inner_product`.
    """
    groups, per_group = mom_counts(epsilon, delta)
    total_samples = groups * per_group
    total_power = matrix_tree.total_pnorm_power()
    if total_power <= 0.0:
        raise EmptyDistributionError("cannot estimate against an all-zero matrix")

    rows, cols = matrix_tree.sample_entries(rng, total_samples)
    p = matrix_tree.p
    xv = _gather(x, rows)
    yv = _gather(y, cols)
    signs = matrix_tree.leaf_signs[rows, cols]
    weight = 1.0 if p == 1.0 else matrix_tree.leaf_magnitudes[rows, cols] ** ((1.0 - p) / p)
    values = total_power * signs * weight * xv * yv
    estimate = _median_of_means(values, groups, per_group)
    return EstimateReport(
        estimate, float(epsilon), float(delta), None, groups, per_group, total_samples
    )


def error_scale(x, y, p: float) -> float:
    """Additive error scale ``||x||_p^(p/2) * sqrt(sum |x_i|^(2-p) y_i^2)``.

    Terms with x_i = 0 contribute nothing (those indices are never sampled).
    For p > 2 a zero x_i facing a nonzero y_i leaves the scale undefined, and
    is reported as an error rather than given a value.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be one-dimensional with equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("inputs must be finite")
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


def f_curve(x, p: float) -> float:
    """Sample-cost curve ``sum |x_i|^p * sum |x_i|^(2-p)`` over nonzero entries.

    Minimized at p = 1 for every vector whose nonzero entries are not all of
    equal magnitude; constant in p otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input must be finite")
    ax = np.abs(x[x != 0.0])
    if ax.size == 0:
        return 0.0
    return float(np.sum(ax ** p) * np.sum(ax ** (2.0 - p)))


def improvement_factor(spec: DistributionSpec) -> float:
    """Average sample-efficiency gain of p=1 over p=2: E[X^2] / (E|X|)^2."""
    abs_mean = spec.abs_mean()
    if abs_mean == 0.0:
        raise ValueError("degenerate spec: E|X| = 0")
    return spec.second_moment() / (abs_mean * abs_mean)


# rows of x per batch: the draws do not depend on it, the rounding of the sums does
_IMPROVEMENT_CHUNK = 4096


def empirical_improvement_factor(
    spec: DistributionSpec,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo version of :func:`improvement_factor`.

    Draws x repeatedly, averages the estimator-variance proxy
    ``f(p, x) - ||x||^2`` at p = 2 and p = 1, and returns the ratio, which
    converges to E[X^2] / (E|X|)^2 for zero-mean families.
    """
    if abs(spec.mean()) > 1e-12:
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
