import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from lpsample.dfe import (
    PauliLabel,
    TargetState,
    bound_comparison,
    depolarizing,
    ghz_state,
    no_noise,
    run_dfe,
    sample_paulis,
    w_state,
    well_conditioned_check,
    z_exact,
    z_prime,
    z_upper_bound,
)
from lpsample.dfe import _pauli_expectation
from lpsample.randkit import stream

from oracles import characteristic_table, ghz_state_vector, pauli_expectation, tv_distance, w_state_vector


class TestPauliLabel:
    def test_string_round_trip(self):
        label = PauliLabel.from_string("IXYZ")
        assert label.x_bits == 0b0110
        assert label.z_bits == 0b1100
        assert label.pauli_string() == "IXYZ"
        assert label.weight == 3
        assert not label.is_identity
        assert PauliLabel(2, 0, 0).is_identity

    def test_validation(self):
        with pytest.raises(ValueError):
            PauliLabel(2, 4, 0)
        with pytest.raises(ValueError):
            PauliLabel.from_string("XQ")


class TestTargets:
    def test_construction_limits(self):
        with pytest.raises(ValueError):
            w_state(2)
        with pytest.raises(ValueError):
            ghz_state(1)
        with pytest.raises(ValueError):
            TargetState("dicke", 4)

    def test_dim(self):
        assert w_state(5).dim == 32


class TestCharacteristicClosedForms:
    def test_w_identity(self):
        assert w_state(3).characteristic(0, 0) == pytest.approx(1 / math.sqrt(8), rel=1e-14)

    def test_w_single_z(self):
        label = PauliLabel.from_string("ZII")
        chi = w_state(3).characteristic(label.x_bits, label.z_bits)
        assert abs(chi) == pytest.approx(1 / (3 * math.sqrt(8)), rel=1e-14)

    def test_w_odd_overlap_is_zero(self):
        label = PauliLabel.from_string("XYII")  # |x| = 2, overlap 1
        assert w_state(4).characteristic(label.x_bits, label.z_bits) == 0.0

    def test_ghz_examples(self):
        def chi(text):
            label = PauliLabel.from_string(text)
            return ghz_state(label.n).characteristic(label.x_bits, label.z_bits)

        assert chi("XX") == pytest.approx(0.5)
        assert chi("ZI") == 0.0
        assert chi("ZZ") == pytest.approx(0.5)
        assert chi("YY") == pytest.approx(-0.5)
        for n in (2, 3, 4):
            assert ghz_state(n).characteristic(0, 0) == pytest.approx(1 / math.sqrt(1 << n), rel=1e-14)

    @pytest.mark.parametrize("target", [w_state(4), ghz_state(3)], ids=["w4", "ghz3"])
    def test_array_call_matches_scalar_calls(self, target):
        x, z = np.divmod(np.arange(4**target.n, dtype=np.int64), target.dim)
        values = target.characteristic(x, z)
        assert values.shape == x.shape
        assert values.tolist() == [target.characteristic(int(a), int(b)) for a, b in zip(x, z)]

    def test_rejects_masks_beyond_the_qubit_count(self):
        with pytest.raises(ValueError):
            w_state(3).characteristic(8, 0)
        with pytest.raises(ValueError):
            ghz_state(2).characteristic(np.array([0, 1]), np.array([0, -1]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_w_matches_state_vector_oracle(self, n):
        table = characteristic_table(w_state_vector(n), n)
        target = w_state(n)
        for (x, z), chi in table.items():
            assert target.characteristic(x, z) == pytest.approx(chi, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ghz_matches_state_vector_oracle(self, n):
        table = characteristic_table(ghz_state_vector(n), n)
        target = ghz_state(n)
        for (x, z), chi in table.items():
            assert target.characteristic(x, z) == pytest.approx(chi, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_support_normalization_by_enumeration(self, n):
        target = w_state(n)
        labels, chis = target.support()
        assert np.all(chis != 0.0)
        assert float(np.sum(chis**2)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum(np.abs(chis))) == pytest.approx(z_exact(n), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 25, 40])
    def test_normalization_by_counting(self, n):
        # diagonal branch plus the two-X branch, all via exact combinatorics
        d = 1 << n
        diag = sum(math.comb(n, w) * (n - 2 * w) ** 2 for w in range(n + 1)) / (n * n * d)
        pairs = math.comb(n, 2) * (1 << (n - 1)) * 4 / (n * n * d)
        assert diag + pairs == pytest.approx(1.0, abs=1e-9)


class TestNormalizerIdentities:
    @pytest.mark.parametrize("n", range(3, 41))
    def test_z_prime_closed_form(self, n):
        direct = sum(math.comb(n, w) * abs(n - 2 * w) for w in range(n + 1))
        assert z_prime(n) == direct

    def test_z_exact_three(self):
        assert z_exact(3) == pytest.approx(3 * math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_z_bounds(self, n):
        sqrt_d = math.sqrt(1 << n)
        assert z_exact(n) <= z_upper_bound(n) + 1e-9
        assert z_exact(n) <= (n / 2) * sqrt_d + 1e-9

    def test_upper_bound_example(self):
        assert z_upper_bound(3) == pytest.approx((1.5 + 1 / math.sqrt(3) - 0.5) * math.sqrt(8), rel=1e-12)
        assert z_upper_bound(3) >= z_exact(3)


class TestSamplers:
    def test_l1_calibration_w3(self):
        target = w_state(3)
        labels, chis = target.support()
        z_norm = z_exact(3)
        expected = {(lab.x_bits, lab.z_bits): abs(c) / z_norm for lab, c in zip(labels, chis)}
        x, z = sample_paulis(target, "l1", stream(60, 0), 1_000_000)
        counts = {}
        for xi, zi in zip(x.tolist(), z.tolist()):
            counts[(xi, zi)] = counts.get((xi, zi), 0) + 1
        assert set(counts) <= set(expected)
        emp = np.array([counts.get(key, 0) / x.size for key in expected])
        assert tv_distance(emp, np.array(list(expected.values()))) < 0.005

    def test_l1_branch_probability_w3(self):
        # probability of the two-X branch is (n-1) sqrt(d) / 2Z = 2/3 at n = 3
        x, _ = sample_paulis(w_state(3), "l1", stream(61, 0), 400_000)
        frac = float(np.mean(x != 0))
        assert frac == pytest.approx(2.0 / 3.0, abs=0.003)

    def test_l2_identity_probability(self):
        # amplitude sampling hits the identity with probability 1/d
        target = w_state(3)
        x, z = sample_paulis(target, "l2", stream(62, 0), 400_000)
        frac = float(np.mean((x == 0) & (z == 0)))
        assert frac == pytest.approx(1.0 / 8.0, abs=0.004)

    def test_l2_calibration_w3(self):
        target = w_state(3)
        labels, chis = target.support()
        expected = {(lab.x_bits, lab.z_bits): float(c * c) for lab, c in zip(labels, chis)}
        x, z = sample_paulis(target, "l2", stream(63, 0), 400_000)
        counts = {}
        for xi, zi in zip(x.tolist(), z.tolist()):
            counts[(xi, zi)] = counts.get((xi, zi), 0) + 1
        assert set(counts) <= set(expected)
        emp = np.array([counts.get(key, 0) / x.size for key in expected])
        assert tv_distance(emp, np.array(list(expected.values()))) < 0.01

    def test_ghz_uniform_and_norm_independent(self):
        target = ghz_state(3)
        labels, _ = target.support()
        assert len(labels) == 8
        keys = {(lab.x_bits, lab.z_bits) for lab in labels}
        for norm in ("l1", "l2"):
            x, z = sample_paulis(target, norm, stream(64, 0), 200_000)
            counts = {}
            for xi, zi in zip(x.tolist(), z.tolist()):
                counts[(xi, zi)] = counts.get((xi, zi), 0) + 1
            assert set(counts) <= keys
            emp = np.array([counts.get(key, 0) / x.size for key in keys])
            assert tv_distance(emp, np.full(8, 1 / 8)) < 0.01

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            sample_paulis(w_state(3), "l3", stream(0, 0), 1)


def expectation_of(target, noise, text):
    """The noisy expectation ``run_dfe`` simulates for one label given as a Pauli string."""
    label = PauliLabel.from_string(text)
    x, z = np.array([label.x_bits]), np.array([label.z_bits])
    return float(_pauli_expectation(target, noise, x, z, target.characteristic(x, z))[0])


class TestMeasurements:
    def test_identity_always_plus_one(self):
        assert expectation_of(w_state(3), depolarizing(0.7), "III") == 1.0

    def test_fully_mixed_is_fair_coin(self):
        assert expectation_of(w_state(3), depolarizing(1.0), "ZII") == 0.0

    def test_noiseless_z_mean(self):
        # oracle: tr(rho Z x I x I) = 1/3 for the three-qubit W state
        label = PauliLabel.from_string("ZII")
        oracle = pauli_expectation(w_state_vector(3), 3, label.x_bits, label.z_bits)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert expectation_of(w_state(3), no_noise(), "ZII") == pytest.approx(oracle, abs=1e-12)


class TestRunDfe:
    def test_perfect_state_estimates_one(self):
        runs = [run_dfe(w_state(4), no_noise(), 0.1, 0.2, "l1", stream(70, k)) for k in range(30)]
        mean = float(np.mean([r.estimate for r in runs]))
        assert mean == pytest.approx(1.0, abs=0.02)
        assert all(abs(r.estimate - 1.0) <= 0.2 for r in runs)
        assert all(r.true_fidelity == 1.0 for r in runs)

    def test_level_budget_formulas(self):
        eps, delta = 0.05, 0.1
        run = run_dfe(w_state(5), depolarizing(0.1), eps, delta, "l1", stream(71, 0))
        levels = math.ceil(1.0 / (eps**2 * delta))
        assert run.levels == levels == 4000
        per_level = math.ceil(math.log(2 / delta) * 25 / (2 * levels * eps**2))
        assert np.all(run.level_budgets == per_level)
        assert run.total_measurements == levels * per_level

    def test_l2_budgets_follow_sampled_chi(self):
        eps, delta = 0.1, 0.2
        rng = stream(72, 0)
        run = run_dfe(w_state(3), depolarizing(0.05), eps, delta, "l2", rng)
        assert run.level_budgets.min() >= 1
        # every budget must be one of the admissible per-chi values
        target = w_state(3)
        _, chis = target.support()
        admissible = {
            math.ceil(2 * math.log(2 / delta) / (eps**2 * run.levels * target.dim * c**2))
            for c in chis
        }
        assert set(run.level_budgets.tolist()) <= admissible

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_exact_unbiasedness_by_enumeration(self, norm):
        # expectation of one level's contribution over the label distribution,
        # computed with no Monte Carlo, must equal the true fidelity
        target = w_state(3)
        noise = depolarizing(0.13)
        labels, chis = target.support()
        sqrt_d = math.sqrt(target.dim)
        z_norm = target.l1_normalizer()
        total = 0.0
        for label, chi in zip(labels, chis):
            expectation = 1.0 if label.is_identity else noise.shrink * sqrt_d * chi
            if norm == "l1":
                prob = abs(chi) / z_norm
                weight = z_norm * math.copysign(1.0, chi) / sqrt_d
            else:
                prob = chi * chi
                weight = 1.0 / (sqrt_d * chi)
            total += prob * weight * expectation
        assert total == pytest.approx(noise.true_fidelity(target.dim), abs=1e-12)

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_estimate_mean_and_variance_match_enumeration(self, norm):
        # a level with weight w, expectation e and budget b has mean M over its
        # b outcomes with E[w M] = w e and E[(w M)^2] = w^2 (e^2 + (1 - e^2) / b);
        # the estimate averages l such levels. Over 500 runs the sample variance
        # has a relative standard deviation of about sqrt(2 / 499) = 0.063, so
        # 0.25 is four of them; one outcome per level instead of b reads 2.7 (l1)
        target, noise = w_state(3), depolarizing(0.2)
        eps, delta, runs = 0.3, 0.3, 500
        levels = math.ceil(1 / (eps**2 * delta))
        sqrt_d, z_norm, log_term = math.sqrt(target.dim), target.l1_normalizer(), math.log(2 / delta)
        labels, chis = target.support()
        mean = second = 0.0
        for label, chi in zip(labels, chis):
            e = 1.0 if label.is_identity else noise.shrink * sqrt_d * chi
            if norm == "l1":
                prob, weight = abs(chi) / z_norm, z_norm * math.copysign(1.0, chi) / sqrt_d
                budget = math.ceil(2 * log_term * (target.n**2 / 4) / (levels * eps**2))
            else:
                prob, weight = chi * chi, 1 / (sqrt_d * chi)
                budget = math.ceil(2 * log_term * (1 / (target.dim * chi**2)) / (levels * eps**2))
            mean += prob * weight * e
            second += prob * weight**2 * (e * e + (1 - e * e) / budget)
        variance = (second - mean**2) / levels
        assert mean == pytest.approx(noise.true_fidelity(target.dim), abs=1e-12)

        estimates = np.array([run_dfe(target, noise, eps, delta, norm, stream(80, k)).estimate for k in range(runs)])
        assert abs(estimates.mean() - mean) < 4 * math.sqrt(variance / runs)
        assert estimates.var(ddof=1) / variance == pytest.approx(1.0, abs=0.25)

    def test_memory_is_o_levels_not_o_measurements(self):
        tracemalloc.start()
        try:
            run = run_dfe(w_state(60), depolarizing(0.1), 0.05, 0.1, "l1", stream(81, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float per simulated measurement would be 2.16e6 * 8 B = 16.5 MiB alone
        assert run.total_measurements == 4000 * 540
        assert peak < 12 * 2**20

    def test_depolarized_fidelity_closed_form(self):
        run = run_dfe(w_state(5), depolarizing(0.1), 0.1, 0.2, "l1", stream(73, 0))
        assert run.true_fidelity == pytest.approx(0.903125, abs=1e-12)

    def test_estimates_concentrate(self):
        noise = depolarizing(0.1)
        runs = [run_dfe(w_state(4), noise, 0.1, 0.1, "l1", stream(74, k)) for k in range(40)]
        failures = sum(abs(r.estimate - r.true_fidelity) > 0.2 for r in runs)
        assert failures <= 8  # 2*delta would allow 8 in expectation

    def test_ghz_budgets_norm_independent(self):
        a = run_dfe(ghz_state(4), depolarizing(0.1), 0.1, 0.2, "l1", stream(75, 0))
        b = run_dfe(ghz_state(4), depolarizing(0.1), 0.1, 0.2, "l2", stream(75, 0))
        assert np.array_equal(a.level_budgets, b.level_budgets)
        assert a.total_measurements == b.total_measurements

    def test_json_schema(self):
        run = run_dfe(ghz_state(3), depolarizing(0.2), 0.2, 0.2, "l2", stream(76, 0))
        record = run.to_json_dict()
        assert record["target"] == "ghz"
        assert record["n"] == 3
        assert record["noise"] == {"kind": "depolarizing", "lambda": 0.2}
        assert set(record) == {
            "target",
            "n",
            "noise",
            "epsilon",
            "delta",
            "norm",
            "l",
            "total_measurements",
            "estimate",
            "true_fidelity",
        }

    def test_deterministic_given_stream(self):
        a = run_dfe(w_state(4), depolarizing(0.1), 0.1, 0.2, "l1", stream(77, 5))
        b = run_dfe(w_state(4), depolarizing(0.1), 0.1, 0.2, "l1", stream(77, 5))
        assert a.estimate == b.estimate

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_dfe(w_state(3), no_noise(), 0.0, 0.1, "l1", stream(0, 0))
        with pytest.raises(ValueError):
            run_dfe(w_state(3), no_noise(), 0.1, 0.1, "linf", stream(0, 0))


class TestBounds:
    def test_coefficient_ratio_exact(self):
        for n, eps, delta in ((3, 0.1, 0.1), (10, 0.05, 0.02), (20, 0.2, 0.3)):
            assert bound_comparison(n, eps, delta).coefficient_ratio == 4.0

    def test_l2_bound_example(self):
        comp = bound_comparison(10, 0.1, 0.1)
        expected = 2 * math.log(20) / 0.01 * 100 + 1000 + 1
        assert comp.l2_bound == pytest.approx(expected, rel=1e-12)

    def test_l1_below_l2(self):
        for n in range(3, 31):
            comp = bound_comparison(n, 0.1, 0.1)
            assert comp.l1_bound < comp.l2_bound

    def test_measured_l1_budget_within_bounds(self):
        eps, delta = 0.05, 0.1
        comp = bound_comparison(5, eps, delta)
        for k in range(5):
            run = run_dfe(w_state(5), depolarizing(0.1), eps, delta, "l1", stream(78, k))
            assert run.total_measurements <= comp.l1_bound
            assert run.total_measurements <= comp.l2_bound


class TestWellConditioned:
    def test_w_alpha(self):
        for n in range(3, 21):
            report = well_conditioned_check(w_state(n))
            assert report.alpha == pytest.approx(1.0 / n, rel=1e-14)
            assert report.holds
            assert report.z_value <= report.z_limit * (1 + 1e-12)

    def test_ghz_equality(self):
        for n in (2, 3, 4, 8, 16):
            report = well_conditioned_check(ghz_state(n))
            assert report.alpha == 1.0
            assert report.z_value == pytest.approx(report.z_limit, rel=1e-12)
            assert report.holds

    def test_w5_explicit_bound(self):
        report = well_conditioned_check(w_state(5))
        assert report.z_value <= 5 * math.sqrt(32) + 1e-9
