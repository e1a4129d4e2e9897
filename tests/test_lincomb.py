import math

import numpy as np
import pytest

import lpsample.lincomb as lincomb
from lpsample.lincomb import (
    CombinationSampler,
    NonTerminationError,
    exact_m,
    measure_mp,
    mp_curve,
    run_ratio_experiment,
    theoretical_limit,
    theoretical_mp,
)
from lpsample.ptree import EmptyDistributionError, build_matrix_tree
from lpsample.randkit import DistributionSpec, moment_profile, normal, parse_distribution, stream, uniform

from oracles import acceptance_ratios, combination_distribution, exact_m_one_p, tv_distance

COUNTER_A = np.array([[1.0, 1.0], [2.0, -2.0]])
COUNTER_X = np.array([1.0, -1.0])
GRID = [1.0, 1.25, 1.5, 2.0, 3.0]


class TestExactM:
    def test_counterexample(self):
        assert exact_m(COUNTER_A, COUNTER_X, 1.0) == pytest.approx(1.5, abs=1e-12)
        assert exact_m(COUNTER_A, COUNTER_X, 2.0) == pytest.approx(1.25, abs=1e-12)

    def test_sign_aligned_rows_give_unit_m1(self):
        rng = stream(42, 0)
        x = rng.normal(size=6)
        sign_x = np.sign(x)
        rows = []
        for i in range(9):
            row_sign = sign_x if i % 2 == 0 else -sign_x
            rows.append(row_sign * np.abs(rng.normal(size=6)))
        A = np.array(rows)
        assert exact_m(A, x, 1.0) == pytest.approx(1.0, abs=1e-12)
        for p in (1.3, 2.0, 2.8):
            assert exact_m(A, x, p) >= 1.0 - 1e-12

    def test_single_nonzero_column(self):
        for n in (2, 5, 11):
            A = np.zeros((4, n))
            A[:, 0] = [1.0, -2.0, 0.5, 3.0]
            x = np.zeros(n)
            x[0] = 2.0
            assert exact_m(A, x, 2.0) == pytest.approx(float(n), rel=1e-12)

    def test_zero_combination_rejected(self):
        with pytest.raises(ValueError):
            exact_m(np.array([[1.0, -1.0]]), np.array([1.0, 1.0]), 2.0)

    @pytest.mark.parametrize(
        "A,x",
        [
            ([[1e200, 0.0]], [1.0, 1.0]),  # |A_ij|^2 overflows
            ([[1.0, 1.0]], [1e200, 0.0]),  # |x_j|^2 overflows
            ([[math.inf, 1.0]], [0.0, 1.0]),
            ([[math.nan, 1.0]], [1.0, 1.0]),
            ([[1.0, 0.0]], [1.0, math.inf]),
            ([[1.0, 1.0]], [math.nan, math.nan]),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_and_overflow_rejected(self, A, x):
        with pytest.raises(ValueError):
            exact_m(A, x, 2.0)
        with pytest.raises(ValueError) as caught:
            CombinationSampler(build_matrix_tree(A, 2.0), x)
        assert not isinstance(caught.value, EmptyDistributionError)

    def test_overflowing_m_rejected(self):
        # for A = I and x = 1 the sums are finite, but M(200) = 100^199 is past the largest float
        with pytest.raises(ValueError, match="not finite"):
            exact_m(np.eye(100), np.ones(100), 200.0)
        with pytest.raises(ValueError, match="not finite"):
            exact_m(np.eye(100), np.ones(100), [2.0, 200.0])

    def test_grid_equals_one_p_oracle_bit_for_bit(self):
        rng = stream(56, 0)
        checked = 0
        for size in range(1, 41):
            for m, n in ((size, int(rng.integers(1, 41))), (int(rng.integers(1, 41)), size)):
                A = rng.normal(size=(m, n)) * rng.exponential(1.0)
                x = rng.normal(size=n)
                if n >= 2:
                    A[:, 0] = 0.0  # a zero column
                if n >= 3:
                    x[1] = 0.0  # a zero coefficient on a nonzero column
                if not np.any(A @ x != 0.0):
                    continue
                expected = [exact_m_one_p(A, x, p) for p in GRID]
                assert exact_m(A, x, GRID).tolist() == expected, (m, n)
                assert [exact_m(A, x, p) for p in GRID] == expected, (m, n)
                checked += 1
        assert checked >= 70

    def test_one_p_gives_a_float_and_a_grid_an_array(self):
        assert type(exact_m(COUNTER_A, COUNTER_X, 2.0)) is float
        assert type(exact_m(COUNTER_A, COUNTER_X, np.float64(1.0))) is float
        grid = exact_m(COUNTER_A, COUNTER_X, (2, 1))
        assert isinstance(grid, np.ndarray) and grid.dtype == np.float64
        assert grid.tolist() == [1.25, 1.5]

    @pytest.mark.parametrize("p", GRID)
    def test_grid_rejects_overflow_and_non_finite_at_each_p(self, p):
        big = 1e308 ** (1.0 / p)  # |big|^p is near 1e308, so a sum of two overflows
        grid = [q for q in GRID if q < p] + [p]  # every earlier point is finite
        with np.errstate(over="ignore", invalid="ignore"):
            for A, x in (([[big, big]], [1.0, 1.0]), ([[math.nan, 1.0]], [1.0, 1.0])):
                with pytest.raises(ValueError, match="finite"):
                    exact_m(A, x, p)
                with pytest.raises(ValueError, match="finite"):
                    exact_m(A, x, grid)
            if p > 1.0:
                assert math.isfinite(exact_m([[big, big]], [1.0, 1.0], grid[0]))

    def test_acceptance_ratios_shape_checked(self):
        # the sampler tabulates the ratios, so its inputs carry the shape checks
        with pytest.raises(ValueError):
            CombinationSampler(build_matrix_tree(np.ones((2, 3)), 1.0), np.ones(1))
        with pytest.raises(ValueError):
            build_matrix_tree(np.ones(3), 1.0)

    def test_holder_probes(self):
        # 10^5 row-level probes of r_i <= 1 and M >= 1 across random p in [1, 3]
        rng = stream(43, 0)
        rows_checked = 0
        while rows_checked < 100_000:
            m = int(rng.integers(1, 40))
            n = int(rng.integers(1, 12))
            A = rng.normal(size=(m, n)) * rng.exponential(1.0)
            x = rng.normal(size=n)
            if not np.any(A @ x != 0.0):
                continue
            p = float(rng.uniform(1.0, 3.0))
            ratios = CombinationSampler(build_matrix_tree(A, p), x)._ratios
            assert np.all(ratios <= 1.0 + 1e-9)
            assert exact_m(A, x, p) >= 1.0 - 1e-9
            rows_checked += m


class TestRatioTable:
    """The sampler's table, read from the tree's leaves, against the dense oracle."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_table_matches_oracle(self, p):
        rng = stream(58, int(2 * p))
        for m, n in ((13, 7), (5, 3), (1, 4), (37, 11)):  # stride 16, 8, 1, 64: padding rows
            A = rng.normal(size=(m, n)) * rng.exponential(1.0)
            A[1::4] = 0.0  # all-zero rows
            x = rng.normal(size=n)
            x[0] = 0.0  # a zero coefficient
            ratios = CombinationSampler(build_matrix_tree(A, p), x)._ratios
            expected = acceptance_ratios(A, x, p)
            assert ratios.shape == (m,)
            assert np.all(ratios[1::4] == 0.0)
            # the denominators sum in another order, so allow a few ulps of 1, the ratios' bound
            np.testing.assert_allclose(ratios, expected, rtol=0, atol=8 * np.finfo(float).eps)

    def test_scaled_denominator_overflow_rejected(self):
        # |A_ij|^3 sums to a finite 1.02e308 a row, and n^(p-1) = 2^20 carries it past the
        # largest float; the alternating signs cancel, so only the denominator overflows
        n = 1024
        A = np.where(np.arange(n) % 2, -1.0, 1.0)[None, :] * 1e305 ** (1.0 / 3.0)
        mt = build_matrix_tree(A, 3.0)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflow"):
            CombinationSampler(mt, np.ones(n))

    def test_sampler_reads_no_dense_copy(self, monkeypatch):
        mt = build_matrix_tree(COUNTER_A, 1.5)

        def refuse(self):
            raise AssertionError("dense() called")

        monkeypatch.setattr(type(mt), "dense", refuse)
        sampler = CombinationSampler(mt, COUNTER_X)
        sampler.sample(stream(59, 0))
        assert sampler.sample_many(stream(59, 1), 10)[0].size == 10


class TestRejectionSampler:
    def test_single_column_accepts_first_try(self):
        for p in (1.0, 1.5, 2.0):
            mt = build_matrix_tree(np.array([[1.0], [2.0], [-1.0]]), p)
            for k in range(20):
                res = CombinationSampler(mt, [3.0]).sample(stream(44, k))
                assert res.iterations == 1

    def test_counterexample_always_accepts_second_row(self):
        mt = build_matrix_tree(COUNTER_A, 2.0)
        sampler = CombinationSampler(mt, COUNTER_X)
        results = [sampler.sample(stream(45, k)) for k in range(60)]
        assert all(r.index == 1 for r in results)

    def test_counterexample_mean_iterations(self):
        sampler = CombinationSampler(build_matrix_tree(COUNTER_A, 2.0), COUNTER_X)
        samples = 20_000
        _, proposals = sampler.sample_many(stream(46, 0), samples)
        se = math.sqrt(1.25 * 0.25 / samples)
        assert abs(proposals / samples - 1.25) <= 3 * se

    def test_disjoint_columns_p1_never_rejects(self):
        A = np.array(
            [
                [1.0, 0.0, 0.0],
                [-2.0, 0.0, 0.0],
                [0.0, 3.0, 0.0],
                [0.0, 0.0, -1.0],
                [0.0, 0.0, 2.0],
            ]
        )
        mt = build_matrix_tree(A, 1.0)
        x = np.array([1.0, -0.5, 2.0])
        sampler = CombinationSampler(mt, x)
        for k in range(100):
            assert sampler.sample(stream(47, k)).iterations == 1

    def test_query_accounting(self):
        mt = build_matrix_tree(COUNTER_A, 1.0)
        res = CombinationSampler(mt, COUNTER_X).sample(stream(48, 0))
        n = 2
        assert res.queries == 2 * n + res.iterations * n

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_accepted_distribution_matches_target(self, p):
        rng = stream(49, int(p))
        for trial in range(3):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            target = combination_distribution(A, x, p)
            sampler = CombinationSampler(build_matrix_tree(A, p), x)
            idx, _ = sampler.sample_many(stream(50, trial), 30_000)
            freq = np.bincount(idx, minlength=m) / idx.size
            assert tv_distance(freq, target) < 0.02

    def test_scalar_sampler_distribution(self):
        A = np.array([[1.0, 0.5], [-2.0, 1.0], [0.3, -0.8]])
        x = np.array([0.7, -1.2])
        target = combination_distribution(A, x, 1.0)
        sampler = CombinationSampler(build_matrix_tree(A, 1.0), x)
        rng = stream(51, 0)
        counts = np.zeros(3)
        for _ in range(12_000):
            counts[sampler.sample(rng).index] += 1
        assert tv_distance(counts / counts.sum(), target) < 0.02

    def test_zero_combination_rejected_at_construction(self):
        mt = build_matrix_tree(np.array([[1.0, -1.0]]), 1.0)
        with pytest.raises(ValueError, match="Ax is zero"):
            CombinationSampler(mt, [1.0, 1.0])

    def test_cap_is_ten_thousand_times_ceil_exact_m(self):
        rng = stream(58, 0)
        for trial in range(200):
            m, n = (int(k) for k in rng.integers(2, 9, size=2))
            A = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            p = (1.0, 1.5, 2.0, 3.0)[trial % 4]
            expected = exact_m(A, x, p)
            # away from an integer, so the ceiling pins M to within a few ulps
            assert math.ceil(expected * (1 - 1e-14)) == math.ceil(expected * (1 + 1e-14))
            assert CombinationSampler(build_matrix_tree(A, p), x)._cap == 10_000 * math.ceil(expected)

    def test_a_loop_that_never_accepts_stops_at_the_cap(self):
        # M = 1.5 at p = 1, so the cap is 20 000 proposals
        sampler = CombinationSampler(build_matrix_tree(COUNTER_A, 1.0), COUNTER_X)
        sampler._ratios[:] = 0.0
        with pytest.raises(NonTerminationError) as caught:
            sampler.sample(stream(52, 0))
        assert caught.value.iterations == 20_000

    def test_zero_weights_rejected(self):
        mt = build_matrix_tree(np.array([[1.0, 1.0]]), 1.0)
        with pytest.raises(EmptyDistributionError):
            CombinationSampler(mt, [0.0, 0.0])


class TestMeasureMp:
    def test_matches_exact_on_random_instances(self):
        rng = stream(54, 0)
        for trial in range(5):
            A = rng.normal(size=(8, 4))
            x = rng.normal(size=4)
            p = float(rng.choice([1.0, 1.5, 2.0]))
            report = measure_mp(A, x, p, 20_000, stream(55, trial))
            assert report.empirical == pytest.approx(report.exact, abs=3 * report.stderr + 1e-9)

    def test_zero_samples_reports_the_closed_form_only(self):
        rng = stream(57, 0)
        report = measure_mp(COUNTER_A, COUNTER_X, 2.0, 0, rng)
        assert report.exact == exact_m(COUNTER_A, COUNTER_X, 2.0)
        assert (report.empirical, report.stderr) == (None, None)
        assert rng.random() == stream(57, 0).random()  # the stream was not advanced


class TestTheory:
    def test_normal_limits(self):
        prof2 = moment_profile(normal(0, 1), 2)
        assert theoretical_limit(prof2) == pytest.approx(1.0, rel=1e-12)
        prof1 = moment_profile(normal(0, 1), 1)
        assert theoretical_limit(prof1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)

    def test_overflowing_limit_rejected(self):
        # E|Z|^200 is about 1e187, so its square overflows; the limit at p = 100 is
        # E|Z|^100, about 3e78, and n^50 = 1e300 at n = 10^6
        with pytest.raises(ValueError, match="theoretical_limit is not finite"):
            theoretical_limit(moment_profile(normal(0, 1), 200))
        with pytest.raises(ValueError, match="theoretical_mp is not finite"):
            theoretical_mp(moment_profile(normal(0, 1), 100), 10**6)

    def test_table_ratio_at_1024(self):
        prof1 = moment_profile(normal(0, 1), 1)
        prof2 = moment_profile(normal(0, 1), 2)
        ratio = theoretical_mp(prof2, 1024) / theoretical_mp(prof1, 1024)
        assert ratio == pytest.approx(40.106, abs=0.01)

    def test_ratio_experiment_deterministic(self):
        a = run_ratio_experiment(16, 8, normal(0, 1), normal(0, 1), 25, seed=99)
        b = run_ratio_experiment(16, 8, normal(0, 1), normal(0, 1), 25, seed=99)
        assert a == b
        assert a.redraws == 0
        assert not a.outside_theory

    def test_ratio_experiment_flags_nonzero_mean(self):
        rep = run_ratio_experiment(12, 4, parse_distribution("exponential:1"), normal(0, 1), 10, seed=3)
        assert rep.outside_theory

    def test_redraw_counting(self):
        class FirstDrawZero:
            """Delegates to a normal spec but zeroes the first matrix draw."""

            def __init__(self):
                self.calls = 0
                self.inner = normal(0, 1)

            def sample(self, rng, size=None):
                out = self.inner.sample(rng, size)
                if isinstance(size, tuple):
                    self.calls += 1
                    if self.calls == 1:
                        return np.zeros(size)
                return out

            def mean(self):
                return 0.0

            def label(self):
                return "patched-normal"

        rep = run_ratio_experiment(4, 3, FirstDrawZero(), normal(0, 1), 5, seed=1)
        assert rep.redraws == 1

    def test_mp_curve_monotone_in_p(self):
        points = mp_curve(64, 16, normal(0, 1), [1.0, 1.25, 1.5, 1.75, 2.0], 60, seed=7)
        means = [pt.mean_m for pt in points]
        assert all(b >= a for a, b in zip(means, means[1:]))
        assert all(pt.theory_m is not None for pt in points)

    def test_mp_curve_and_ratio_experiment_share_their_draws(self):
        rep = run_ratio_experiment(16, 8, normal(0, 1), normal(0, 1), 12, seed=5)
        m1, m2 = mp_curve(16, 8, normal(0, 1), [1.0, 2.0], 12, seed=5)
        assert (m1.mean_m, m1.stderr_m) == (rep.m1.exact, rep.m1.stderr)
        assert (m2.mean_m, m2.stderr_m) == (rep.m2.exact, rep.m2.stderr)

    def test_mp_curve_over_widths_profiles_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return moment_profile(*args, **kwargs)

        monkeypatch.setattr(lincomb, "moment_profile", counted)
        spec = parse_distribution("laplace:0,1")
        both = mp_curve(16, [4, 8], spec, [1.0, 1.5], 5, seed=3)
        assert len(calls) == 1
        assert both == mp_curve(16, 4, spec, [1.0, 1.5], 5, seed=3) + mp_curve(
            16, 8, spec, [1.0, 1.5], 5, seed=3
        )
        assert [(pt.n, pt.p) for pt in both] == [(4, 1.0), (4, 1.5), (8, 1.0), (8, 1.5)]

    @pytest.mark.parametrize("b", [0.5, 3.0])
    def test_laplace_theory_is_the_closed_form_limit(self, b):
        # mu_p = b^p Gamma(p + 1), and mu~_p = E|Z|^p for Z ~ N(0, (2 b^2)^2)
        for pt in mp_curve(8, [4, 16], DistributionSpec("laplace", (0, b)), [1.0, 1.5, 2.0, 3.0], 2, seed=1):
            p, n = pt.p, pt.n
            mu_tilde = (2 * b * b) ** p * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)
            expected = n ** (p / 2) * math.gamma(p + 1) ** 2 * b ** (2 * p) / mu_tilde
            assert abs(pt.theory_m - expected) <= 4 * math.ulp(expected), (p, n)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            mp_curve(4, 3, normal(0, 1), [1.0], 0, seed=1)
        with pytest.raises(ValueError, match="trials"):
            run_ratio_experiment(4, 3, normal(0, 1), normal(0, 1), 0, seed=1)

    def test_mp_curve_no_theory_for_nonzero_mean(self):
        points = mp_curve(16, 8, parse_distribution("exponential:1"), [1.0, 2.0], 10, seed=1)
        assert all(pt.theory_m is None for pt in points)

    def test_uniform_small_n_prediction_below_truth(self):
        # small-n check of the direction of the limit's bias for uniform data;
        # trials chosen so the ~0.011 gap sits several stderr out
        points = mp_curve(1024, 2, uniform(-1, 1), [1.0], 3000, seed=11)
        pt = points[0]
        assert pt.theory_m < pt.mean_m - 2 * pt.stderr_m

    def test_convergence_toward_limit(self):
        errs = []
        for n in (16, 64):
            rep = run_ratio_experiment(256, n, normal(0, 1), normal(0, 1), 150, seed=13)
            errs.append(abs(rep.m2.exact / n - 1.0))
        assert errs[1] < errs[0] + 0.05
