"""Rejection sampling from the p-norm distribution of a linear combination.

Given the matrix sampling structure for A and the coefficients x, a proposal
draws column j proportional to ``|x_j|^p ||A^(j)||_p^p`` and then a row i
from column j's own distribution; the proposal is accepted with ratio

    r_i = |sum_j x_j A_ij|^p / (n^(p-1) * sum_j |x_j A_ij|^p),

which Hoelder's inequality keeps in [0, 1].  Accepted rows follow the target
distribution exactly, and the expected number of proposals per accepted
sample is the closed-form constant computed by :func:`exact_m`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ptree import EmptyDistributionError, WeightedMatrixTree, WeightedVectorTree, _magnitudes, _signed_values
from .randkit import DistributionSpec, MomentProfile, _finite_result, moment_profile, stream

__all__ = [
    "NonTerminationError",
    "RejectionSampleResult",
    "MpReport",
    "RatioExperimentReport",
    "MpCurvePoint",
    "CombinationSampler",
    "exact_m",
    "measure_mp",
    "theoretical_limit",
    "theoretical_mp",
    "run_ratio_experiment",
    "mp_curve",
]

# fresh (A, x) draws allowed per trial while Ax is exactly zero
_MAX_REDRAWS = 100


class NonTerminationError(RuntimeError):
    """The rejection loop hit its iteration cap."""

    def __init__(self, iterations: int):
        super().__init__(
            f"no proposal accepted after {iterations} iterations; "
            "the combination Ax may be zero or vanishingly small"
        )
        self.iterations = iterations


@dataclass(frozen=True)
class RejectionSampleResult:
    """One accepted sample: its row index, proposals consumed, queries spent."""

    index: int
    iterations: int
    queries: int


@dataclass(frozen=True)
class MpReport:
    """Exact and measured expected iterations per accepted sample."""

    exact: float
    empirical: float | None
    stderr: float | None = None


@dataclass(frozen=True)
class RatioExperimentReport:
    """Mean M(1), M(2) and their per-instance ratio over random draws."""

    m1: MpReport
    m2: MpReport
    mean_ratio: float
    stderr_ratio: float | None
    redraws: int
    outside_theory: bool


@dataclass(frozen=True)
class MpCurvePoint:
    """One (p, n) cell of the iteration-count curve with its Gaussian-limit prediction."""

    p: float
    n: int
    m: int
    trials: int
    mean_m: float
    stderr_m: float | None
    theory_m: float | None


# exact_m and the sampler check only their sums of |.|^p terms: a non-finite
# entry of A or x reaches those as inf or nan (0 * inf is nan), so the same
# check that catches overflow also rejects non-finite input.
_NOT_FINITE = "A and x must be finite, and |.|^p must not overflow"


@_finite_result
def _proposals_per_sample(n: int, p: float, numerator: float, denominator: float) -> float:
    return n ** (p - 1.0) * numerator / denominator


def exact_m(A, x, p):
    """Closed-form expected proposals per accepted sample,
    ``n^(p-1) * sum_ij |x_j A_ij|^p / sum_i |(Ax)_i|^p``.

    Takes one p (returns a float) or a sequence of p (returns a float array
    in the same order); ``A @ x`` is computed once for the whole grid.
    """
    A = np.asarray(A, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if A.ndim != 2 or x.ndim != 1 or A.shape[1] != x.size:
        raise ValueError("A must be (m, n) and x length n")
    n = x.size
    combo = A @ x
    grid = np.asarray(p, dtype=np.float64)
    out = np.empty(grid.shape)
    for k, q in enumerate(grid.ravel().tolist()):
        denominator = float(np.sum(_magnitudes(combo, q)))
        numerator = float(_magnitudes(x, q) @ np.sum(_magnitudes(A, q), axis=0))
        if not (math.isfinite(numerator) and math.isfinite(denominator)):
            raise ValueError(_NOT_FINITE)
        if denominator == 0.0:
            raise ValueError("Ax is zero: the target distribution is undefined")
        out.flat[k] = _proposals_per_sample(n, q, numerator, denominator)
    return out if out.ndim else float(out)


class CombinationSampler:
    """Reusable rejection sampler for one (matrix structure, coefficients) pair.

    Construction performs the proposal setup and tabulates the acceptance
    ratio of every row.  The proposal tree is a p = 1 tree over the weights
    ``|x_j|^p ||A^(j)||_p^p``, from n coefficient and n column-norm queries; its
    build rejects a non-finite coefficient (the weights' sum is then inf or nan),
    and weights that are all zero raise :class:`EmptyDistributionError`.
    The ratios come from one pass over the tree's leaves, the same order of
    work as the tree build: the denominators are ``n^(p-1) * (|x|^p @ |leaves|)``
    and need no power, and only the m numerators ``|(Ax)_i|^p`` take one.
    Rows that no proposal can reach get ratio 0.  The sum of the denominators
    over the sum of the numerators is M, the expected proposals per accepted
    sample (:func:`exact_m` to within rounding), and the sampling loops raise
    :class:`NonTerminationError` after ``10^4 * ceil(M)`` proposals.  Ax = 0,
    where every numerator is zero, raises ``ValueError``, and so does a sum
    that is not finite.  Each :meth:`sample`
    iteration then costs one column draw, one row draw and one table read.
    The ``queries`` it reports still count the sample-and-query model, 2n
    setup queries plus n entry queries per iteration, not leaf reads.

    A sampler is a snapshot of its tree: after ``update_entry``, build a new one.
    """

    def __init__(self, matrix_tree: WeightedMatrixTree, x):
        self._mt = matrix_tree
        m, n = matrix_tree.shape
        p = matrix_tree.p
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (n,):
            raise ValueError(f"coefficients must have length {n}")

        x_powers = _magnitudes(x, p)
        self._proposal_tree = WeightedVectorTree(x_powers * matrix_tree.column_pnorm_powers(), 1.0)
        if self._proposal_tree.query_pnorm_power() == 0.0:
            raise EmptyDistributionError("every term x_j * column_j is zero")
        self._n = n

        # the module docstring's r_i for every row, over the (n, m) view of the signed leaves
        leaves = matrix_tree._columns()
        denominators = n ** (p - 1.0) * (x_powers @ np.abs(leaves))
        numerators = _magnitudes(x @ _signed_values(leaves, p), p)
        numerator_sum, denominator_sum = float(numerators.sum()), float(denominators.sum())
        if not (math.isfinite(numerator_sum) and math.isfinite(denominator_sum)):
            raise ValueError(_NOT_FINITE)
        if numerator_sum == 0.0:
            raise ValueError("Ax is zero: the target distribution is undefined")
        self._cap = 10_000 * math.ceil(denominator_sum / numerator_sum)
        self._ratios = np.zeros(m)
        np.divide(numerators, denominators, out=self._ratios, where=denominators > 0.0)

    def sample(self, rng: np.random.Generator) -> RejectionSampleResult:
        """Draw one index from the target distribution.

        Query accounting: 2n setup queries (charged to every result) plus n
        row queries per iteration.
        """
        iterations = 0
        while iterations < self._cap:
            iterations += 1
            j = self._proposal_tree.sample_index(rng)
            i = self._mt.sample_row(j, rng)
            if rng.random() < self._ratios[i]:
                return RejectionSampleResult(i, iterations, (2 + iterations) * self._n)
        raise NonTerminationError(iterations)

    def sample_many(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, int]:
        """Draw ``count`` accepted indices, batching proposals in chunks.

        Returns (indices, total proposals consumed through the last
        acceptance).  Per-sample query accounting does not apply; use
        :meth:`sample` for that.
        """
        ratios = self._ratios
        accepted = np.empty(count, dtype=np.int64)
        got = 0
        proposals = 0
        chunk = max(256, min(1 << 18, 2 * count))
        while got < count:
            cols = self._proposal_tree.sample_indices(rng, chunk)
            rows = self._mt.sample_rows(cols, rng)
            keep = rng.random(chunk) < ratios[rows]
            kept = rows[keep]
            take = min(count - got, kept.size)
            accepted[got : got + take] = kept[:take]
            if got + take == count:
                # final chunk: count proposals only through the one that
                # produced the last sample we keep
                position = np.flatnonzero(keep)[take - 1] + 1
                proposals += int(position)
            else:
                proposals += chunk
                if kept.size == 0 and proposals >= self._cap:
                    raise NonTerminationError(proposals)
            got += take
        return accepted, proposals


def measure_mp(A, x, p: float, samples: int, rng: np.random.Generator) -> MpReport:
    """Run the rejection sampler and compare measured iterations to the closed form.

    With ``samples`` = 0 only the closed form is reported (``empirical`` and
    ``stderr`` are ``None``) and ``rng`` is not used.
    """
    A = np.asarray(A, dtype=np.float64)
    exact = exact_m(A, x, p)
    if samples == 0:
        return MpReport(exact, None)
    sampler = CombinationSampler(WeightedMatrixTree(A, p), x)
    _, proposals = sampler.sample_many(rng, samples)
    empirical = proposals / samples
    # proposals per accepted sample are geometric with mean M
    stderr = math.sqrt(max(exact * (exact - 1.0), 0.0) / samples)
    return MpReport(exact, empirical, stderr)


@_finite_result
def theoretical_limit(profile: MomentProfile) -> float:
    """Large-size limit of M(p) / n^(p/2) for i.i.d. zero-mean entries."""
    return profile.mu_p ** 2 / profile.mu_tilde_p


@_finite_result
def theoretical_mp(profile: MomentProfile, n: int) -> float:
    """Limit prediction for M(p) at width n: ``n^(p/2) * mu_p^2 / mu_tilde_p``."""
    return n ** (profile.p / 2.0) * theoretical_limit(profile)


def _stderr(values) -> float | None:
    """Standard error of the mean of ``values``; ``None`` below two values."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return None
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _draw_instance(spec_a, spec_x, m, n, rng):
    """Draw (A, x) and redraw while Ax is exactly zero; returns redraw count."""
    redraws = 0
    while True:
        A = spec_a.sample(rng, (m, n))
        x = spec_x.sample(rng, n)
        if np.any(A @ x != 0.0):
            return A, x, redraws
        redraws += 1
        if redraws > _MAX_REDRAWS:
            raise NonTerminationError(redraws)


def _trial_table(spec_a, spec_x, m, n, p_grid, trials, seed):
    """M(p) of each trial's fresh (A, x) as a (len(p_grid), trials) table, and the redraws.
    Trial t owns stream (seed, t), so results replay under any parallel schedule."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    table = np.empty((len(p_grid), trials))
    redraws = 0
    for t in range(trials):
        A, x, extra = _draw_instance(spec_a, spec_x, m, n, stream(seed, t))
        redraws += extra
        table[:, t] = exact_m(A, x, p_grid)
    return table, redraws


def run_ratio_experiment(
    m: int,
    n: int,
    spec_a: DistributionSpec,
    spec_x: DistributionSpec,
    trials: int,
    seed: int,
) -> RatioExperimentReport:
    """Average M(1), M(2) and the per-instance ratio M(2)/M(1) over fresh draws."""
    (m1, m2), redraws = _trial_table(spec_a, spec_x, m, n, [1.0, 2.0], trials, seed)
    ratio = m2 / m1

    def _report(vals):
        return MpReport(float(vals.mean()), None, _stderr(vals))

    return RatioExperimentReport(
        m1=_report(m1),
        m2=_report(m2),
        mean_ratio=float(ratio.mean()),
        stderr_ratio=_stderr(ratio),
        redraws=redraws,
        outside_theory=spec_a.mean() != 0.0,
    )


def mp_curve(
    m: int,
    n,
    spec: DistributionSpec,
    p_grid,
    trials: int,
    seed: int,
) -> list[MpCurvePoint]:
    """Empirical mean of M(p) across a p grid, with the limit prediction.

    Takes one width ``n`` or a sequence of widths (points width by width, each
    over the whole grid); the moment profiles are computed once for all.
    Both the matrix and the coefficients are drawn from ``spec``; the theory
    column is emitted only for zero-mean families, where the limit applies.
    """
    p_grid = [float(p) for p in p_grid]
    if not p_grid:
        raise ValueError("p grid must be non-empty")
    profiles = moment_profile(spec, p_grid) if spec.mean() == 0.0 else None
    tables = [(w, _trial_table(spec, spec, m, w, p_grid, trials, seed)[0]) for w in np.atleast_1d(n).tolist()]
    return [
        MpCurvePoint(p, w, m, trials, float(table[k].mean()), _stderr(table[k]),
                     None if profiles is None else theoretical_mp(profiles[k], w))
        for w, table in tables
        for k, p in enumerate(p_grid)
    ]
