import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from lpsample.dfe import (
    TargetState,
    bound_comparison,
    depolarizing,
    ghz_state,
    no_noise,
    run_dfe,
    w_state,
    z_exact,
    z_prime,
    z_upper_bound,
)
from lpsample.dfe import _label_classes, _pauli_expectation
from lpsample.randkit import stream

from oracles import characteristic_table, ghz_state_vector, pauli_expectation, tv_distance, w_state_vector


def pauli_bits(text):
    """(x_bits, z_bits) of a Pauli string such as ``"IXYZ"``, qubit 0 leftmost."""
    x = z = 0
    for q, ch in enumerate(text):
        x |= (ch in "XY") << q
        z |= (ch in "YZ") << q
    return x, z


def support(target):
    """(x, z, chi) arrays of every label with nonzero chi, by enumerating all 4^n labels."""
    x, z = np.divmod(np.arange(4**target.n, dtype=np.int64), target.dim)
    chi = target.characteristic(x, z)
    keep = chi != 0.0
    return x[keep], z[keep], chi[keep]


def tally(chi, identity, weights):
    """Total weight per (chi, is-identity) key, the key a label class shares."""
    out = {}
    for key, weight in zip(zip(chi.tolist(), identity.tolist()), weights.tolist()):
        out[key] = out.get(key, 0) + weight
    return out


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
        chi = w_state(3).characteristic(*pauli_bits("ZII"))
        assert abs(chi) == pytest.approx(1 / (3 * math.sqrt(8)), rel=1e-14)

    def test_w_odd_overlap_is_zero(self):
        assert w_state(4).characteristic(*pauli_bits("XYII")) == 0.0  # |x| = 2, overlap 1

    def test_ghz_examples(self):
        def chi(text):
            return ghz_state(len(text)).characteristic(*pauli_bits(text))

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
        _, _, chis = support(w_state(n))
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


class TestLabelClasses:
    @pytest.mark.parametrize(
        "target",
        [w_state(n) for n in range(3, 10)] + [ghz_state(n) for n in range(2, 10)],
        ids=lambda t: f"{t.kind}{t.n}",
    )
    def test_classes_match_the_support(self, target):
        # group the enumerated support by (chi, is-identity), the class table likewise
        x, z, chis = support(target)
        expected = tally(chis, (x == 0) & (z == 0), np.ones(chis.size))
        x, z, count, chi = _label_classes(target)
        assert np.array_equal(chi, target.characteristic(x, z))
        assert tally(chi, (x == 0) & (z == 0), count) == expected

    @pytest.mark.parametrize("n", range(3, 63))
    def test_w_l1_sum_is_z_exact(self, n):
        _, _, count, chi = _label_classes(w_state(n))
        assert float(np.sum(count * np.abs(chi))) == pytest.approx(z_exact(n), rel=1e-12)

    def test_rejects_more_qubits_than_a_label_holds(self):
        with pytest.raises(ValueError):
            _label_classes(w_state(63))
        with pytest.raises(ValueError):
            run_dfe(ghz_state(63), no_noise(), 0.1, 0.1, "l1", stream(0, 0))


def class_shares(target, norm, seed):
    """Share of the levels each (chi, is-identity) class took in one run of 10^6 levels."""
    run = run_dfe(target, depolarizing(0.1), 0.01, 0.01, norm, stream(seed, 0))
    assert run.levels == 10**6
    x, z, _, chi = _label_classes(target)
    return tally(chi, (x == 0) & (z == 0), run.class_levels / run.levels)


def support_shares(target, norm):
    """Each class's share of the label law, summed over the enumerated support."""
    x, z, chi = support(target)
    weights = np.abs(chi) if norm == "l1" else chi**2
    return tally(chi, (x == 0) & (z == 0), weights / weights.sum())


def tv_between(observed, expected):
    assert set(observed) == set(expected)
    return tv_distance(np.array([observed[k] for k in expected]), np.array(list(expected.values())))


class TestSamplers:
    """The label law ``run_dfe`` draws: its class counts over 10^6 levels (standard
    error below 0.0005 per share) against the enumerated support."""

    def test_l1_calibration_w3(self):
        # each class takes count * |chi| / Z, so each label |chi| / Z
        target = w_state(3)
        expected = support_shares(target, "l1")
        assert np.sum(np.abs(support(target)[2])) == pytest.approx(z_exact(3), rel=1e-12)
        assert tv_between(class_shares(target, "l1", 60), expected) < 0.003

    def test_l1_branch_probability_w3(self):
        # probability of the two-X branch is (n-1) sqrt(d) / 2Z = 2/3 at n = 3
        run = run_dfe(w_state(3), depolarizing(0.1), 0.01, 0.01, "l1", stream(61, 0))
        x, _, _, _ = _label_classes(w_state(3))
        assert run.class_levels[x != 0].sum() / run.levels == pytest.approx(2.0 / 3.0, abs=0.002)

    def test_l2_identity_probability(self):
        # amplitude sampling hits the identity with probability 1/d
        run = run_dfe(w_state(3), depolarizing(0.1), 0.01, 0.01, "l2", stream(62, 0))
        x, z, _, _ = _label_classes(w_state(3))
        identity = (x == 0) & (z == 0)
        assert identity.sum() == 1
        assert run.class_levels[identity].sum() / run.levels == pytest.approx(1.0 / 8.0, abs=0.002)

    def test_l2_calibration_w3(self):
        target = w_state(3)
        assert tv_between(class_shares(target, "l2", 63), support_shares(target, "l2")) < 0.003

    def test_ghz_uniform_and_norm_independent(self):
        # both laws are uniform over the 8 stabilizer labels
        target = ghz_state(3)
        x, z, chis = support(target)
        assert chis.size == 8
        expected = support_shares(target, "l1")
        assert expected == pytest.approx(tally(chis, (x == 0) & (z == 0), np.full(8, 1 / 8)), rel=1e-12)
        assert expected == pytest.approx(support_shares(target, "l2"), rel=1e-12)
        for norm in ("l1", "l2"):
            assert tv_between(class_shares(target, norm, 64), expected) < 0.003

    def test_bad_norm(self):
        with pytest.raises(ValueError):
            run_dfe(w_state(3), no_noise(), 0.1, 0.1, "l3", stream(0, 0))


def expectation_of(target, noise, text):
    """The noisy expectation ``run_dfe`` simulates for one label given as a Pauli string."""
    x, z = (np.array([bits]) for bits in pauli_bits(text))
    return float(_pauli_expectation(target, noise, x, z, target.characteristic(x, z))[0])


class TestMeasurements:
    def test_identity_always_plus_one(self):
        assert expectation_of(w_state(3), depolarizing(0.7), "III") == 1.0

    def test_fully_mixed_is_fair_coin(self):
        assert expectation_of(w_state(3), depolarizing(1.0), "ZII") == 0.0

    def test_noiseless_z_mean(self):
        # oracle: tr(rho Z x I x I) = 1/3 for the three-qubit W state
        oracle = pauli_expectation(w_state_vector(3), 3, *pauli_bits("ZII"))
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
        assert run.levels == levels == 4000 == run.class_levels.sum()
        per_level = math.ceil(math.log(2 / delta) * 25 / (2 * levels * eps**2))
        assert np.all(run.class_budgets == per_level)
        assert run.total_measurements == levels * per_level

    def test_l2_budgets_follow_sampled_chi(self):
        eps, delta = 0.1, 0.2
        rng = stream(72, 0)
        run = run_dfe(w_state(3), depolarizing(0.05), eps, delta, "l2", rng)
        assert run.class_budgets.min() >= 1
        assert run.total_measurements == int(run.class_levels @ run.class_budgets)
        # every budget must be one of the admissible per-chi values
        target = w_state(3)
        _, _, chis = support(target)
        admissible = {
            math.ceil(2 * math.log(2 / delta) / (eps**2 * run.levels * target.dim * c**2))
            for c in chis
        }
        assert set(run.class_budgets.tolist()) <= admissible

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_exact_unbiasedness_by_enumeration(self, norm):
        # expectation of one level's contribution over the label distribution,
        # computed with no Monte Carlo, must equal the true fidelity
        target = w_state(3)
        noise = depolarizing(0.13)
        x, z, chis = support(target)
        sqrt_d = math.sqrt(target.dim)
        z_norm = float(np.sum(np.abs(chis)))
        total = 0.0
        for identity, chi in zip(((x == 0) & (z == 0)).tolist(), chis.tolist()):
            expectation = 1.0 if identity else noise.shrink * sqrt_d * chi
            if norm == "l1":
                prob = abs(chi) / z_norm
                weight = z_norm * math.copysign(1.0, chi) / sqrt_d
            else:
                prob = chi * chi
                weight = 1.0 / (sqrt_d * chi)
            total += prob * weight * expectation
        assert total == pytest.approx(noise.true_fidelity(target.dim), abs=1e-12)

    @pytest.mark.parametrize(
        "target, norm",
        [(w_state(3), "l1"), (w_state(3), "l2"), (ghz_state(3), "l1"), (ghz_state(3), "l2")],
        ids=["l1", "l2", "ghz3-l1", "ghz3-l2"],
    )
    def test_estimate_mean_and_variance_match_enumeration(self, target, norm):
        # a level with weight w, expectation e and budget b has mean M over its
        # b outcomes with E[w M] = w e and E[(w M)^2] = w^2 (e^2 + (1 - e^2) / b);
        # the estimate averages l such levels. Over 500 runs the sample variance
        # has a relative standard deviation of about sqrt(2 / 499) = 0.063, so
        # 0.25 is four of them; one outcome per level instead of b reads 2.7 (W, l1)
        noise = depolarizing(0.2)
        eps, delta, runs = 0.3, 0.3, 500
        levels = math.ceil(1 / (eps**2 * delta))
        x, z, chis = support(target)
        sqrt_d, z_norm, log_term = math.sqrt(target.dim), float(np.sum(np.abs(chis))), math.log(2 / delta)
        l1_scale = target.n**2 / 4 if target.kind == "w" else 1.0
        mean = second = 0.0
        for identity, chi in zip(((x == 0) & (z == 0)).tolist(), chis.tolist()):
            e = 1.0 if identity else noise.shrink * sqrt_d * chi
            if norm == "l1":
                prob, weight = abs(chi) / z_norm, z_norm * math.copysign(1.0, chi) / sqrt_d
                budget = math.ceil(2 * log_term * l1_scale / (levels * eps**2))
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

    @pytest.mark.parametrize(
        "call, limit",
        [(lambda: run_dfe(w_state(60), depolarizing(0.1), 0.01, 0.1, "l1", stream(82, 0)), 2**20)],
        ids=["run_dfe-w60-eps0.01"],
    )
    def test_memory_is_o_n_per_level_draw(self, call, limit):
        # 10^5 levels of 60 qubits; a levels x n array of 8-byte entries is 46 MiB.
        # The warm-up call takes the first call's one-time allocations (about 1 MiB)
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_10_to_the_15_levels_run(self):
        run = run_dfe(w_state(5), depolarizing(0.1), 1e-5, 1e-5, "l1", stream(84, 0))
        assert run.levels == run.class_levels.sum() == math.ceil(1 / (1e-5**2 * 1e-5))
        assert run.total_measurements == run.levels * int(run.class_budgets[0])
        assert abs(run.estimate - run.true_fidelity) < 1e-3

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
        assert np.array_equal(a.class_budgets, b.class_budgets)
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
    """``Z <= sqrt(d) / alpha`` with conditioning parameter alpha = 1/n for W and 1 for GHZ."""

    def test_w_alpha(self):
        for n in range(3, 21):
            assert z_exact(n) <= n * math.sqrt(1 << n) * (1 + 1e-12)

    def test_ghz_equality(self):
        for n in (2, 3, 4, 8, 16):
            _, _, count, chi = _label_classes(ghz_state(n))
            assert float(np.sum(count * np.abs(chi))) == pytest.approx(math.sqrt(1 << n), rel=1e-12)

    def test_w5_explicit_bound(self):
        assert z_exact(5) <= 5 * math.sqrt(32) + 1e-9
