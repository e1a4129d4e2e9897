import math

import numpy as np
import pytest

from lpsample.randkit import (
    DistributionSpec,
    beta,
    exponential,
    gamma,
    gaussian_abs_moment,
    laplace,
    moment_profile,
    normal,
    parse_distribution,
    stream,
    uniform,
)

from oracles import quad_gaussian_abs_moment, quad_laplace_abs_moment

ALL_SPECS = [
    normal(0, 1),
    normal(2, 0.5),
    uniform(-1, 1),
    uniform(1, 5),
    laplace(0, 1),
    laplace(1, 1),
    exponential(1),
    beta(2, 2),
    beta(5, 2),
    gamma(2, 2),
]


class TestStream:
    def test_same_key_same_draws(self):
        a = stream(42, 3).random(100)
        b = stream(42, 3).random(100)
        assert np.array_equal(a, b)

    def test_distinct_ids_differ(self):
        assert not np.array_equal(stream(42, 0).random(100), stream(42, 1).random(100))

    def test_seed_zero_accepted(self):
        assert stream(0, 0).random() >= 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stream(-1, 0)


class TestSpecValidation:
    def test_parse_round_trip(self):
        spec = parse_distribution("normal:0,1")
        assert spec == normal(0, 1)
        assert parse_distribution("beta:5,2") == beta(5, 2)
        assert parse_distribution(" Uniform:-1,1 ") == uniform(-1, 1)
        assert parse_distribution("exponential:1").label() == "exponential:1"

    @pytest.mark.parametrize("text", ["normal:0,1.23456789", "uniform:0.1,0.30000000000000004", "gamma:2,1e-07"])
    def test_label_parses_back_to_the_spec(self, text):
        spec = parse_distribution(text)
        assert parse_distribution(spec.label()) == spec

    def test_label_keeps_round_tripping_params_short(self):
        assert [spec.label() for spec in ALL_SPECS] == [
            "normal:0,1", "normal:2,0.5", "uniform:-1,1", "uniform:1,5", "laplace:0,1",
            "laplace:1,1", "exponential:1", "beta:2,2", "beta:5,2", "gamma:2,2",
        ]
        assert parse_distribution("uniform:0.1,0.30000000000000004").label() == "uniform:0.1,0.30000000000000004"

    def test_parse_errors(self):
        for bad in ("cauchy:0,1", "normal", "normal:0,x", "normal:0", "uniform:2,1"):
            with pytest.raises(ValueError):
                parse_distribution(bad)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            normal(0, 0)
        with pytest.raises(ValueError):
            laplace(0, -1)
        with pytest.raises(ValueError):
            exponential(0)
        with pytest.raises(ValueError):
            beta(0, 1)
        with pytest.raises(ValueError):
            gamma(1, 0)


class TestDraws:
    def test_uniform_symmetric_mean(self):
        x = uniform(-1, 1).sample(stream(1, 0), 1_000_000)
        assert abs(x.mean()) < 0.005

    def test_normal_absolute_mean(self):
        # closed form sqrt(2/pi), cross-checked against quadrature
        target = quad_gaussian_abs_moment(1.0, 1.0)
        assert target == pytest.approx(math.sqrt(2 / math.pi), abs=1e-10)
        x = normal(0, 1).sample(stream(2, 0), 1_000_000)
        assert abs(np.abs(x).mean() - target) < 0.005

    def test_exponential_mean(self):
        x = exponential(1).sample(stream(3, 0), 1_000_000)
        assert abs(x.mean() - 1.0) < 0.005

    @pytest.mark.parametrize("case", list(enumerate(ALL_SPECS)), ids=lambda c: c[1].label())
    def test_sample_variance_matches_family(self, case):
        k, spec = case
        x = spec.sample(stream(5, k), 1_000_000)
        var = x.var(ddof=1)
        # standard error of the sample variance from the sample's own moments
        m4 = np.mean((x - x.mean()) ** 4)
        se = math.sqrt(max(m4 - var**2, 1e-30) / x.size)
        assert abs(var - spec.variance()) <= 3 * se

    @pytest.mark.parametrize("case", list(enumerate(ALL_SPECS)), ids=lambda c: c[1].label())
    def test_sample_mean_matches_family(self, case):
        k, spec = case
        x = spec.sample(stream(6, k), 400_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - spec.mean()) <= 4 * se


class TestMomentProfile:
    def test_standard_normal_p2(self):
        prof = moment_profile(normal(0, 1), 2)
        assert prof.mu_p == pytest.approx(1.0, abs=1e-14)
        assert prof.mu_tilde_p == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_uniform_p1(self):
        prof = moment_profile(uniform(-1, 1), 1)
        assert prof.mu_p == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_uniform_p2_mu_tilde(self):
        # oracle: E|X|^2 for X ~ N(0, sigma_f^4) with sigma_f^2 = 1/3
        prof = moment_profile(uniform(-1, 1), 2)
        oracle = quad_gaussian_abs_moment(1.0 / 3.0, 2.0)
        assert prof.mu_tilde_p == pytest.approx(oracle, rel=1e-10)
        assert prof.mu_tilde_p == pytest.approx(1.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_mu_tilde_matches_quadrature(self, p):
        for sigma2 in (0.25, 1.0, 3.0):
            assert gaussian_abs_moment(sigma2, p) == pytest.approx(
                quad_gaussian_abs_moment(sigma2, p), rel=1e-8, abs=1e-8
            )

    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0])
    def test_laplace_matches_quadrature(self, b):
        # |X| is exponential with mean b, so E|X|^p = b^p Gamma(p + 1)
        for prof in moment_profile(laplace(0, b), [1.0, 1.5, 2.0, 3.0]):
            assert prof.mu_p == pytest.approx(quad_laplace_abs_moment(b, prof.p), rel=1e-10)
            # the variance is 2 b^2, so mu~_p is E|Z|^p for Z ~ N(0, (2 b^2)^2)
            assert prof.mu_tilde_p == pytest.approx(quad_gaussian_abs_moment(2.0 * b * b, prof.p), rel=1e-10)

    @pytest.mark.parametrize("text", ["normal:0,2", "uniform:-1.5,1.5", "laplace:0,1"])
    def test_grid_equals_one_p_calls(self, text):
        spec = parse_distribution(text)
        grid = [1.0, 1.25, 1.5, 2.0, 3.0]
        assert moment_profile(spec, grid) == [moment_profile(spec, p) for p in grid]

    @pytest.mark.parametrize("spec", [beta(5, 2), gamma(2, 2), exponential(1), normal(1, 1), laplace(1, 1)],
                             ids=lambda spec: spec.label())
    def test_no_closed_form_raises(self, spec):
        with pytest.raises(ValueError, match="not a zero-mean normal, uniform or laplace family"):
            moment_profile(spec, [1.0, 2.0])

    @pytest.mark.parametrize(
        "spec,p",
        [(normal(0, 1e100), 2.0), (laplace(0, 1e200), 1.0), (uniform(-1e120, 1e120), 3.0),
         (laplace(0, 1), 200.0), (normal(0, 1), 1000.0)],
        ids=["normal-float-pow", "laplace-variance", "uniform-mu-p", "laplace-gamma", "normal-gamma"],
    )
    def test_overflowing_moment_raises_value_error(self, spec, p):
        # float ** and math.gamma raise OverflowError, which must surface as ValueError
        with pytest.raises(ValueError, match="is not finite: got inf"):
            moment_profile(spec, p)

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            moment_profile(normal(0, 1), 0.5)


class TestGoodmanIdentity:
    def test_product_variance(self):
        # Var(XY) = (sx^2 + mx^2)(sy^2 + my^2) - mx^2 my^2 for independent X, Y
        spec_x, spec_y = gamma(2, 2), normal(1, 2)
        rng = stream(31, 0)
        x = spec_x.sample(rng, 2_000_000)
        y = spec_y.sample(rng, 2_000_000)
        prod = x * y
        expected = (spec_x.variance() + spec_x.mean() ** 2) * (
            spec_y.variance() + spec_y.mean() ** 2
        ) - spec_x.mean() ** 2 * spec_y.mean() ** 2
        var = prod.var(ddof=1)
        m4 = np.mean((prod - prod.mean()) ** 4)
        se = math.sqrt((m4 - var**2) / prod.size)
        assert abs(var - expected) <= 4 * se
