import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpsample.estimators import (
    UndefinedScaleError,
    empirical_improvement_factor,
    error_scale,
    estimate_inner_product,
    estimate_trace_inner_product,
    f_curve,
    mom_counts,
)
from lpsample.ptree import EmptyDistributionError, build_matrix_tree, build_vector_tree
from lpsample.randkit import exponential, laplace, normal, stream, uniform

from oracles import enumerate_inner_product_estimator, enumerate_trace_estimator


class TestMomCounts:
    def test_literal_constants(self):
        groups, per = mom_counts(0.01, 0.01)
        assert groups == math.ceil(6 * math.log(100))
        assert groups == 28
        assert per == math.ceil(4.5 / 0.01**2)
        assert per == 45000

    def test_report_counts_consistent(self):
        tree = build_vector_tree([1.0, 2.0], 1)
        rep = estimate_inner_product(tree, [1.0, 1.0], 0.2, 0.2, stream(0, 0))
        assert rep.total_samples == rep.groups * rep.samples_per_group

    def test_invalid_epsilon_delta(self):
        for eps, delta in ((0.0, 0.1), (0.1, 0.0), (1.0, 0.1), (0.1, 1.5)):
            with pytest.raises(ValueError):
                mom_counts(eps, delta)

    def test_even_group_count_takes_lower_median(self):
        from lpsample.estimators import _median_of_means

        values = np.repeat([4.0, 1.0, 3.0, 2.0], 2)
        assert _median_of_means(values, 4, 2) == 2.0


class TestUnbiasedness:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_enumerated_expectation_equals_inner_product(self, p):
        rng = stream(101, int(p * 2))
        for trial in range(25):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=n)
            x[rng.random(n) < 0.25] = 0.0
            if not np.any(x):
                x[0] = 1.0
            y = rng.normal(size=n)
            mean, _ = enumerate_inner_product_estimator(x, y, p)
            assert mean == pytest.approx(float(x @ y), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_enumerated_variance_below_scale(self, p):
        rng = stream(102, int(p * 2))
        for trial in range(25):
            n = int(rng.integers(2, 7))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            _, var = enumerate_inner_product_estimator(x, y, p)
            assert var <= error_scale(x, y, p) ** 2 + 1e-12

    def test_all_ones_x_p1(self):
        # every sample value is n * y_i, so the expectation telescopes to sum(y)
        y = np.array([0.3, -1.2, 2.0, 0.7])
        x = np.ones(4)
        mean, _ = enumerate_inner_product_estimator(x, y, 1.0)
        assert mean == pytest.approx(y.sum(), rel=1e-14)
        tree = build_vector_tree(x, 1)
        rep = estimate_inner_product(tree, y, 0.05, 0.05, stream(1, 0))
        assert abs(rep.estimate - y.sum()) <= 0.05 * rep.error_scale


class TestEstimateInnerProduct:
    def test_point_mass_exact(self):
        x = np.array([1.0, 0.0, 0.0])
        tree = build_vector_tree(x, 1.7)
        rep = estimate_inner_product(tree, x, 0.5, 0.5, stream(2, 0))
        assert rep.estimate == 1.0

    def test_example_within_error_scale(self):
        x = np.array([1.0, -2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        tree = build_vector_tree(x, 2)
        rep = estimate_inner_product(tree, y, 0.01, 0.01, stream(3, 0))
        scale = math.sqrt(14) * math.sqrt(77)
        assert rep.error_scale == pytest.approx(scale, rel=1e-12)
        assert abs(rep.estimate - 12.0) <= 0.01 * scale

    def test_zero_x_rejected(self):
        tree = build_vector_tree([0.0, 0.0], 2)
        with pytest.raises(EmptyDistributionError):
            estimate_inner_product(tree, [1.0, 1.0], 0.1, 0.1, stream(0, 0))

    def test_scale_opt_out(self):
        tree = build_vector_tree([1.0, 2.0], 2)
        rep = estimate_inner_product(tree, [1.0, 1.0], 0.2, 0.2, stream(5, 0), compute_scale=False)
        assert rep.error_scale is None

    def test_overflowing_estimate_rejected(self):
        # every weighted sample ||x||_1 * y_i is 2e200 * 1e200, past the largest float
        big = [1e200, 1e200]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="estimate inf is not finite"):
            estimate_inner_product(build_vector_tree(big, 1.0), big, 0.2, 0.2, stream(7, 0))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="estimate inf is not finite"):
            estimate_trace_inner_product(build_matrix_tree([big], 1.0), [1.0], big, 0.2, 0.2, stream(7, 1))

    @pytest.mark.parametrize("length", [1, 2, 5])
    def test_wrong_length_y_rejected_before_drawing(self, length):
        tree = build_vector_tree([1.0, -2.0, 3.0], 1.5)
        rng = stream(4, 0)
        with pytest.raises(ValueError, match=r"y must have shape \(3,\)"):
            estimate_inner_product(tree, np.ones(length), 0.2, 0.2, rng)
        assert rng.random() == stream(4, 0).random()

    def test_failure_rate_smoke(self):
        rng_data = stream(6, 0)
        x = rng_data.normal(size=128)
        y = rng_data.normal(size=128)
        tree = build_vector_tree(x, 1)
        scale = error_scale(x, y, 1.0)
        true = float(x @ y)
        failures = sum(
            abs(estimate_inner_product(tree, y, 0.1, 0.1, stream(6, k + 1), compute_scale=False).estimate - true)
            > 0.1 * scale
            for k in range(300)
        )
        assert failures / 300 <= 0.1


class TestErrorScale:
    def test_p2_reduces_to_norm_product(self):
        x = np.array([3.0, -4.0])
        y = np.array([1.0, 2.0])
        assert error_scale(x, y, 2.0) == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_p2_norm_product_property(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 0.1  # keep entries away from zero
        y = rng.normal(size=n)
        assert error_scale(x, y, 2.0) == pytest.approx(
            np.linalg.norm(x) * np.linalg.norm(y), rel=1e-10
        )

    def test_p1_examples(self):
        assert error_scale([1, 1], [1, 1], 1.0) == pytest.approx(2.0, rel=1e-14)
        p1 = error_scale([3, 4], [1, 1], 1.0)
        p2 = error_scale([3, 4], [1, 1], 2.0)
        assert p1 == pytest.approx(7.0, rel=1e-14)
        assert p2 == pytest.approx(5 * math.sqrt(2), rel=1e-14)
        assert p1 < p2

    def test_zero_contributes_zero(self):
        # at p = 2 the zero-x positions are excluded from the y term
        assert error_scale([0, 1], [5, 1], 2.0) == pytest.approx(1.0, rel=1e-14)
        # a y_i facing x_i = 0 is never read, so it may be non-finite
        assert error_scale([0, 1], [np.inf, 1], 1.0) == error_scale([0, 1], [np.nan, 1], 2.0) == 1.0

    @pytest.mark.parametrize("x,y", [([1e200, 1e200], [1, 1]), ([1.0, np.inf], [1, 1]), ([1, 1], [1.0, np.nan])])
    def test_non_finite_scale_rejected(self, x, y):
        # |x_i|^2 = 1e400 overflows; a non-finite entry that is read makes the scale non-finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="error_scale is not finite"):
            error_scale(x, y, 2.0)

    def test_p_above_two_guard(self):
        with pytest.raises(UndefinedScaleError):
            error_scale([0.0, 1.0], [1.0, 1.0], 2.5)
        # fine when y vanishes on the zero support
        assert error_scale([0.0, 1.0], [0.0, 1.0], 2.5) == pytest.approx(1.0, rel=1e-14)

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            error_scale([0.0, 0.0], [1.0, 1.0], 1.0)


class TestFCurve:
    def test_constant_magnitude_is_flat(self):
        lam = 0.37
        x = np.array([1, -1, 1, 1]) * math.exp(lam)
        for p in (0.2, 0.7, 1.0, 1.6, 2.0, 3.0):
            assert f_curve(x, p) == pytest.approx(16 * math.exp(2 * lam), rel=1e-12)

    def test_examples_one_two(self):
        x = [1.0, 2.0]
        assert f_curve(x, 1.0) == pytest.approx(9.0, rel=1e-14)
        assert f_curve(x, 2.0) == pytest.approx(10.0, rel=1e-14)
        expected_half = (1 + math.sqrt(2)) * (1 + 2**1.5)
        assert f_curve(x, 0.5) == pytest.approx(expected_half, rel=1e-14)
        assert f_curve(x, 0.5) > f_curve(x, 1.0)

    def test_zero_entries_excluded(self):
        assert f_curve([0.0, 1.0, 2.0], 0.5) == pytest.approx(f_curve([1.0, 2.0], 0.5), rel=1e-14)

    @pytest.mark.parametrize("x", [[1e200, 1e200], [1.0, np.inf], [1.0, np.nan]])
    def test_non_finite_value_rejected(self, x):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="f_curve is not finite"):
            f_curve(x, 2.0)

    def test_grid_argmin_at_one(self):
        grid = np.round(np.arange(0.2, 1.81, 0.1), 10)
        rng = stream(7, 0)
        for trial in range(30):
            x = rng.normal(size=int(rng.integers(2, 40)))
            values = [f_curve(x, p) for p in grid]
            assert grid[int(np.argmin(values))] == 1.0


class TestImprovementFactor:
    def test_gaussian_and_uniform_constants(self):
        # E[X^2] / (E|X|)^2 does not depend on the scale
        for k, (spec, expected) in enumerate([(normal(0, 3.7), math.pi / 2), (uniform(-1, 1), 4.0 / 3.0),
                                             (uniform(-2.5, 2.5), 4.0 / 3.0)]):
            value = empirical_improvement_factor(spec, 64, 20_000, stream(10, k))
            assert value == pytest.approx(expected, rel=0.05)

    def test_laplace_closed_form(self):
        # E X^2 = 2 b^2 and E|X| = b for the centered laplace
        value = empirical_improvement_factor(laplace(0, 1), 64, 20_000, stream(11, 0))
        assert value == pytest.approx(2.0, rel=0.05)

    def test_monte_carlo_identity_quick(self):
        value = empirical_improvement_factor(normal(0, 1), 64, 20_000, stream(8, 0))
        assert value == pytest.approx(math.pi / 2, rel=0.05)

    def test_nonzero_mean_rejected(self):
        for spec in (exponential(1), normal(1e-13, 1)):
            with pytest.raises(ValueError):
                empirical_improvement_factor(spec, 16, 20_000, stream(9, 0))


class TestTraceEstimator:
    def test_rank_one_exact(self):
        A = np.zeros((3, 3))
        A[0, 0] = 1.0
        mt = build_matrix_tree(A, 2)
        x = np.array([2.0, 5.0, 7.0])
        y = np.array([3.0, -1.0, 4.0])
        rep = estimate_trace_inner_product(mt, x, y, 0.3, 0.3, stream(10, 0))
        assert rep.estimate == pytest.approx(6.0, rel=1e-12)

    def test_identity_expectation(self):
        A = np.eye(2)
        x = np.array([1.0, 1.0])
        assert enumerate_trace_estimator(A, x, x, 2.0) == pytest.approx(2.0, rel=1e-12)
        mt = build_matrix_tree(A, 2)
        rep = estimate_trace_inner_product(mt, x, x, 0.05, 0.05, stream(11, 0))
        assert abs(rep.estimate - 2.0) <= 0.05 * 4.0

    def test_all_ones_expectation(self):
        A = np.ones((2, 2))
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        assert enumerate_trace_estimator(A, x, y, 1.0) == pytest.approx(1.0, rel=1e-12)
        mt = build_matrix_tree(A, 1)
        rep = estimate_trace_inner_product(mt, x, y, 0.05, 0.05, stream(12, 0))
        assert abs(rep.estimate - 1.0) <= 0.05 * 4.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_enumeration_unbiasedness(self, p):
        rng = stream(13, int(2 * p))
        for trial in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            A = rng.normal(size=(m, n))
            A[rng.random((m, n)) < 0.2] = 0.0
            if not np.any(A):
                A[0, 0] = 1.0
            x = rng.normal(size=m)
            y = rng.normal(size=n)
            mean = enumerate_trace_estimator(A, x, y, p)
            assert mean == pytest.approx(float(x @ A @ y), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x_len,y_len", [(2, 2), (4, 2), (3, 1), (3, 3), (2, 1), (6, 2)])
    def test_wrong_lengths_rejected_before_drawing(self, x_len, y_len):
        mt = build_matrix_tree([[1.0, 0.0], [0.0, 2.0], [3.0, -1.0]], 1.5)
        rng = stream(14, 0)
        with pytest.raises(ValueError, match="must have shape"):
            estimate_trace_inner_product(mt, np.ones(x_len), np.ones(y_len), 0.2, 0.2, rng)
        assert rng.random() == stream(14, 0).random()

    def test_zero_matrix_rejected(self):
        mt = build_matrix_tree(np.zeros((2, 2)), 1)
        with pytest.raises(EmptyDistributionError):
            estimate_trace_inner_product(mt, [1, 1], [1, 1], 0.1, 0.1, stream(0, 0))


class TestEstimatorGolden:
    """sha256 of both estimators' reports (``estimate`` as ``float.hex``,
    ``groups``, ``samples_per_group``, ``total_samples``, ``error_scale``) on
    vectors and matrices with zero entries, the matrices' columns padded.  The
    code behind the estimators may move; their bits may not.  The scale is
    asked for only at p <= 2: p = 3 with a zero x_i facing a nonzero y_i has
    none (``UndefinedScaleError``)."""

    GOLDEN = {
        1.0: "89608b7958d4899e2b3982fb9434ff7e3af237d27be51569e872355038e084f7",
        1.5: "9334e91fe5b6f3bea50750bcdb5ad1b7d6fad85349203b4b2e5271fbc0ac0e99",
        2.0: "abe33575af3f39dcba8fc38ea2b80a1c4de5b7dfbc28fce9b1afb48e87b31628",
        3.0: "5644fe34bfd0aa3e22fe494afbd5f4aec4d4cbb9ac2fda963e89a33f8ebe02c3",
    }

    @staticmethod
    def reports_digest(p):
        tolerances = ((0.3, 0.2), (0.2, 0.1), (0.1, 0.05))
        reports = []
        for k, n in enumerate((1, 5, 1000)):
            x = stream(91, k).normal(size=n)
            x[1::3] = 0.0
            y = stream(92, k).normal(size=n)
            tree = build_vector_tree(x, p)
            reports.append(estimate_inner_product(tree, y, *tolerances[k], stream(93, k), compute_scale=p <= 2.0))
        for k, (m, n) in enumerate(((7, 3), (300, 5))):
            A = stream(94, k).normal(size=(m, n))
            A[::4] = 0.0
            x = stream(95, k).normal(size=m)
            x[2::5] = 0.0
            y = stream(96, k).normal(size=n)
            mt = build_matrix_tree(A, p)
            reports.append(estimate_trace_inner_product(mt, x, y, *tolerances[k], stream(97, k)))
        digest = hashlib.sha256()
        for rep in reports:
            scale = None if rep.error_scale is None else rep.error_scale.hex()
            fields = (rep.estimate.hex(), rep.groups, rep.samples_per_group, rep.total_samples, scale)
            digest.update(repr(fields).encode())
        return digest.hexdigest()

    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_reports_golden(self, p):
        assert self.reports_digest(p) == self.GOLDEN[p]
