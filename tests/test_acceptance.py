"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value below is either exact arithmetic, an independently
computed oracle (enumeration, state vectors, quadrature), or a published
reference number with its stated tolerance.
"""

import csv
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from lpsample.cli import EXIT_OK, main as cli_main
from lpsample.dfe import (
    bound_comparison,
    depolarizing,
    ghz_state,
    run_dfe,
    w_state,
    z_exact,
    z_prime,
    z_upper_bound,
)
from lpsample.estimators import (
    empirical_improvement_factor,
    error_scale,
    estimate_inner_product,
    f_curve,
)
from lpsample.lincomb import CombinationSampler, exact_m, run_ratio_experiment
from lpsample.ptree import build_matrix_tree, build_vector_tree
from lpsample.randkit import normal, stream, uniform

from oracles import (
    characteristic_table,
    combination_distribution,
    enumerate_inner_product_estimator,
    ghz_state_vector,
    tv_distance,
    w_state_vector,
)

SEED = 20260808


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


def test_01_counterexample_exactness():
    with criterion(1, "counterexample M(1)=1.5, M(2)=1.25"):
        A = np.array([[1.0, 1.0], [2.0, -2.0]])
        x = np.array([1.0, -1.0])
        assert abs(exact_m(A, x, 1.0) - 1.5) <= 1e-12
        assert abs(exact_m(A, x, 2.0) - 1.25) <= 1e-12


def test_02_ratio_table_spot_checks():
    with criterion(2, "reference ratio grid within 15%"):
        coeffs = normal(0, 1)
        targets = {2: 1.58, 64: 9.99, 1024: 40.1}
        for n, target in targets.items():
            report = run_ratio_experiment(1024, n, normal(0, 1), coeffs, 200, seed=SEED)
            assert abs(report.mean_ratio - target) <= 0.15 * target, (n, report.mean_ratio)
        report = run_ratio_experiment(1024, 2048, uniform(-1, 1), coeffs, 200, seed=SEED)
        assert abs(report.mean_ratio - 52.3) <= 0.15 * 52.3, report.mean_ratio


def test_03_limit_convergence():
    with criterion(3, "iteration-count limit convergence 64 -> 1024"):
        c = math.sqrt(2.0 / math.pi)
        errors = {}
        for n in (64, 1024):
            report = run_ratio_experiment(1024, n, normal(0, 1), normal(0, 1), 600, seed=SEED)
            errors[n] = (
                abs(report.m2.exact / n - 1.0),
                abs(report.m1.exact / math.sqrt(n) - c),
            )
        assert errors[1024][0] <= 0.1, errors
        assert errors[1024][1] <= 0.08, errors
        assert errors[1024][0] < errors[64][0], errors
        assert errors[1024][1] < errors[64][1], errors


def test_04_rejection_sampler_oracle():
    with criterion(4, "rejection sampler matches normalized target"):
        rng = stream(SEED, 400)
        accepted_per_instance = 100_000
        for trial in range(10):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(m, n))
            x = rng.normal(size=n)
            p = 1.0 if trial % 2 == 0 else 2.0
            target = combination_distribution(A, x, p)
            expected_m = exact_m(A, x, p)
            sampler = CombinationSampler(build_matrix_tree(A, p), x)
            idx, proposals = sampler.sample_many(stream(SEED, 401 + trial), accepted_per_instance)
            freq = np.bincount(idx, minlength=m) / idx.size
            assert tv_distance(freq, target) < 0.01, trial
            se = math.sqrt(max(expected_m * (expected_m - 1.0), 0.0) / accepted_per_instance)
            assert abs(proposals / accepted_per_instance - expected_m) <= 3 * se + 1e-9, trial


def test_05_inner_product_calibration():
    with criterion(5, "estimator calibration and exact small-size checks"):
        # exact enumeration at n <= 6: unbiasedness and the variance bound
        enum_rng = stream(SEED, 500)
        for p in (1.0, 1.5, 2.0):
            for _ in range(20):
                n = int(enum_rng.integers(2, 7))
                x = enum_rng.normal(size=n)
                y = enum_rng.normal(size=n)
                mean, var = enumerate_inner_product_estimator(x, y, p)
                assert mean == pytest.approx(float(x @ y), rel=1e-12, abs=1e-12)
                assert var <= error_scale(x, y, p) ** 2 + 1e-12

        # failure-rate calibration at n = 512
        data_rng = stream(SEED, 501)
        x = data_rng.normal(size=512)
        y = data_rng.normal(size=512)
        true_value = float(x @ y)
        runs = 2000
        threshold = stats.binom.isf(0.01, runs, 0.1)
        for p in (1.0, 2.0):
            tree = build_vector_tree(x, p)
            scale = error_scale(x, y, p)
            failures = 0
            for k in range(runs):
                rep = estimate_inner_product(tree, y, 0.1, 0.1, stream(SEED, 1000 + k), compute_scale=False)
                failures += abs(rep.estimate - true_value) > 0.1 * scale
            assert failures <= threshold, (p, failures, threshold)


def test_06_optimality_curve_and_improvement_factors():
    with criterion(6, "cost curve minimized at p=1; gain factors pi/2 and 4/3"):
        grid = np.round(np.arange(0.2, 1.81, 0.1), 10)
        rng = stream(SEED, 600)
        for _ in range(100):
            x = rng.normal(size=int(rng.integers(2, 50)))
            values = [f_curve(x, p) for p in grid]
            assert grid[int(np.argmin(values))] == 1.0
        gain_normal = empirical_improvement_factor(normal(0, 1), 256, 100_000, stream(SEED, 601))
        gain_uniform = empirical_improvement_factor(uniform(-1, 1), 256, 100_000, stream(SEED, 602))
        assert abs(gain_normal - math.pi / 2) <= 0.03 * math.pi / 2, gain_normal
        assert abs(gain_uniform - 4.0 / 3.0) <= 0.03 * 4.0 / 3.0, gain_uniform


def test_07_tree_properties():
    with criterion(7, "tree audits, sampling fit, and visit bounds"):
        # parent sums after 10^4 random updates
        rng = stream(SEED, 700)
        tree = build_vector_tree(rng.normal(size=73), 1.5)
        for k in range(10_000):
            tree.update_entry(int(rng.integers(73)), float(rng.normal()))
            if k % 1000 == 999:
                tree.audit()
        tree.audit()

        # goodness of fit: 10^6 draws against the exact distribution
        values = stream(SEED, 701).normal(size=64)
        values[stream(SEED, 702).random(64) < 0.2] = 0.0
        tree = build_vector_tree(values, 1.5)
        probs = tree.probabilities()
        idx = tree.sample_indices(stream(SEED, 703), 1_000_000)
        counts = np.bincount(idx, minlength=64)
        freq = counts / idx.size
        assert tv_distance(freq, probs) < 0.005
        support = probs > 0
        chi = stats.chisquare(counts[support], probs[support] * idx.size)
        assert chi.pvalue >= 0.001, chi

        # node-visit bound for sampling and updates
        for n in (2, 5, 17, 64):
            bound = math.ceil(math.log2(n)) + 1
            t = build_vector_tree(np.arange(1, n + 1.0), 2)
            sample_rng = stream(SEED, 704 + n)
            for _ in range(100):
                t.sample_index(sample_rng)
                assert t.last_op_visits <= bound
            t.update_entry(n // 2, 2.5)
            assert t.last_op_visits <= bound


def test_08_dfe_exact_identities():
    with criterion(8, "normalizer identities and the factor-4 budget ratio"):
        for n in range(3, 41):
            direct = sum(math.comb(n, w) * abs(n - 2 * w) for w in range(n + 1))
            assert z_prime(n) == direct
        assert abs(z_exact(3) - 3 * math.sqrt(2)) <= 1e-12
        for n in range(3, 21):
            assert z_exact(n) <= (n / 2) * math.sqrt(1 << n) + 1e-9
            assert z_exact(n) <= z_upper_bound(n) + 1e-9
        for n, eps, delta in ((3, 0.1, 0.1), (10, 0.05, 0.25), (15, 0.01, 0.02)):
            assert bound_comparison(n, eps, delta).coefficient_ratio == 4.0


def test_09_characteristic_oracle():
    with criterion(9, "closed-form characteristics match state vectors"):
        for n in (3, 4, 5):
            table = characteristic_table(w_state_vector(n), n)
            target = w_state(n)
            worst = max(abs(target.characteristic(x, z) - chi) for (x, z), chi in table.items())
            assert worst <= 1e-12, (n, worst)
            total = sum(chi * chi for chi in table.values())
            assert abs(total - 1.0) <= 1e-9, (n, total)
        for n in (3, 4):
            table = characteristic_table(ghz_state_vector(n), n)
            target = ghz_state(n)
            worst = max(abs(target.characteristic(x, z) - chi) for (x, z), chi in table.items())
            assert worst <= 1e-12, (n, worst)
            total = sum(chi * chi for chi in table.values())
            assert abs(total - 1.0) <= 1e-9, (n, total)


def test_10_dfe_end_to_end():
    with criterion(10, "fidelity-estimation coverage and budgets"):
        eps, delta = 0.05, 0.1
        runs = 200
        noise = depolarizing(0.1)
        threshold = stats.binom.isf(0.01, runs, 2 * delta)
        bounds = bound_comparison(5, eps, delta)

        target = w_state(5)
        true_f = noise.true_fidelity(target.dim)
        assert true_f == pytest.approx(0.903125, abs=1e-12)
        for norm, base in (("l1", 10_000), ("l2", 20_000)):
            results = [
                run_dfe(target, noise, eps, delta, norm, stream(SEED, base + k)) for k in range(runs)
            ]
            failures = sum(abs(r.estimate - true_f) > 2 * eps for r in results)
            assert failures <= threshold, (norm, failures, threshold)
            if norm == "l1":
                assert all(r.total_measurements <= bounds.l1_bound for r in results)
                assert all(r.total_measurements <= bounds.l2_bound for r in results)

        ghz = ghz_state(4)
        estimates = {}
        for norm, base in (("l1", 30_000), ("l2", 40_000)):
            estimates[norm] = np.array(
                [run_dfe(ghz, noise, eps, delta, norm, stream(SEED, base + k)).estimate for k in range(runs)]
            )
        ks = stats.ks_2samp(estimates["l1"], estimates["l2"])
        assert ks.pvalue > 0.01, ks


def test_11_synthetic_property_runs(tmp_path):
    with criterion(11, "synthetic sparse protocol properties"):
        # the p=1 error scale beats p=2 on overlap-heavy nonnegative data
        ip_out = tmp_path / "ip.json"
        code = cli_main(
            [
                "inner-product",
                "--synthetic",
                "m=60,n=400,density=0.35,dist=uniform:1,5",
                "--pairs",
                "25",
                "--min-overlap",
                "50",
                "--epsilon",
                "0.1",
                "--delta",
                "0.1",
                "--p",
                "1",
                "--seed",
                str(SEED),
                "--out",
                str(ip_out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(ip_out.read_text())
        assert payload["aggregate"]["pairs"] == 25
        assert payload["aggregate"]["mean_scale_ratio"] > 1.0
        assert all(r["scale_ratio"] > 1.0 for r in payload["records"])

        # near-disjoint columns push the amplitude scheme's cost toward n
        lc_out = tmp_path / "lc.json"
        code = cli_main(
            [
                "lincomb",
                "--synthetic",
                "m=300,n=3000,density=0.005,dist=uniform:1,5",
                "--n-users",
                "5",
                "10",
                "20",
                "--trials",
                "15",
                "--p",
                "1",
                "2",
                "--samples-per-trial",
                "0",
                "--seed",
                str(SEED),
                "--out",
                str(lc_out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(lc_out.read_text())
        by_key = {(r["n_users"], r["p"]): r["mean_exact_m"] for r in payload["results"]}
        ratios = {n: by_key[(n, 2.0)] / by_key[(n, 1.0)] for n in (5, 10, 20)}
        for n, ratio in ratios.items():
            assert 0.6 * n <= ratio <= 1.4 * n, ratios
        assert ratios[10] > ratios[5]
        assert ratios[20] > ratios[10]
