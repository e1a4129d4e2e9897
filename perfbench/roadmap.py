"""Re-measure the ROADMAP's baseline table at its own shapes.

    python3 perfbench/roadmap.py

Each row times one lpsample call at the shape the ROADMAP's baseline table
states, ``REPEATS`` times untraced, and once more under the tracer.  It
prints a Markdown table with the untraced median and quartiles, the value
normalised per item (ns per draw, us per update, ms per exact_m, ns per DFE
measurement, ...), the traced self time of the layer, and the ROADMAP's
figure.  A row reproduces when the ROADMAP figure lies within
max(15%, two quartile spreads) of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from run import RESULTS, import_lpsample

RULE_FRAC = 0.15
REPEATS = 5
SEED = 0


def rows(lpsample, seed):
    """(label, shape, ROADMAP seconds (lo, hi), layer span, call, items, unit, per-item scale)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    big = lpsample.build_vector_tree(rng.normal(size=1 << 20), 1.0)
    small = lpsample.build_vector_tree(rng.normal(size=1 << 10), 1.0)
    square = lpsample.build_matrix_tree(rng.normal(size=(512, 512)), 1.0)
    ratings = (rng.random((300, 3000)) < 0.005) * rng.uniform(1.0, 5.0, (300, 3000))
    users = np.flatnonzero(ratings.any(axis=1))[:50]
    combo = ratings[users].T
    coeffs = rng.normal(size=combo.shape[1])
    combo_tree = lpsample.build_matrix_tree(combo, 1.0)
    A, x = rng.normal(size=(1024, 1024)), rng.normal(size=1024)
    normal = lpsample.randkit.normal(0.0, 1.0)
    w30, noise = lpsample.w_state(30), lpsample.depolarizing(0.1)
    draws = 1 << 20
    positions = rng.integers(0, 1 << 20, 1000).tolist()
    return [
        ("WeightedVectorTree.sample_indices", "2^20 draws, 2^20 leaves", (1.09, 1.09), "ptree.sample_indices",
         lambda r: big.sample_indices(r, draws), draws, "ns/draw", 1e9),
        ("WeightedVectorTree.sample_indices", "2^20 draws, 2^10 leaves", (0.47, 0.47), "ptree.sample_indices",
         lambda r: small.sample_indices(r, draws), draws, "ns/draw", 1e9),
        ("WeightedVectorTree.sample_index (scalar loop)", "1000 draws, 2^20 leaves", (0.034, 0.034),
         "ptree.sample_index", lambda r: [big.sample_index(r) for _ in range(1000)], 1000, "ns/draw", 1e9),
        ("WeightedVectorTree.update_entry", "1000 updates, 2^20 leaves", (0.007, 0.007), "ptree.update_entry",
         lambda r: [big.update_entry(i, 1.5) for i in positions], 1000, "us/update", 1e6),
        ("WeightedMatrixTree.sample_entries", "2^20 draws, 512x512", (1.27, 1.42), "ptree.sample_entries",
         lambda r: square.sample_entries(r, draws), draws, "ns/draw", 1e9),
        ("build_matrix_tree", "300x3000, density 0.005, densified", (0.100, 0.100), "ptree.build",
         lambda r: lpsample.build_matrix_tree(ratings, 1.0), 1, "ms/build", 1e3),
        ("exact_m", "1024x1024, one p", (0.011, 0.012), "lincomb.exact_m",
         lambda r: lpsample.exact_m(A, x, 1.0), 1, "ms/call", 1e3),
        ("CombinationSampler.sample", f"100 samples, n = 50 ({combo.shape[0]}x50 ratings slice)",
         (0.029, 0.029), "lincomb.sample",
         lambda r: [s.sample(r) for s in [lpsample.CombinationSampler(combo_tree, coeffs)] for _ in range(100)],
         100, "ms/sample", 1e3),
        ("run_ratio_experiment", "m = n = 1024, 20 trials", (0.96, 0.96), "lincomb.run_ratio_experiment",
         lambda r: lpsample.run_ratio_experiment(1024, 1024, normal, normal, 20, seed), 20, "ms/trial", 1e3),
        ("run_dfe", "W, n = 30, eps = 0.02, delta = 0.05, l1", (0.145, 0.145), "dfe.run_dfe",
         lambda r: lpsample.run_dfe(w30, noise, 0.02, 0.05, "l1", r), None, "ns/measurement", 1e9),
    ]


def main() -> int:
    lpsample = import_lpsample()
    import numpy as np

    from spans import Tracer

    report = []
    print("| layer | shape | ROADMAP | median (q1-q3) | per item | traced self time | reproduces |")
    print("|---|---|---|---|---|---|---|")
    for label, shape, (lo, hi), span, call, items, unit, scale in rows(lpsample, SEED):
        times = []
        for k in range(REPEATS):
            rng = np.random.default_rng([SEED, k])
            t0 = time.perf_counter()
            result = call(rng)
            times.append(time.perf_counter() - t0)
        if items is None:  # run_dfe: per simulated measurement
            items = result.total_measurements
        with Tracer() as tracer:
            call(np.random.default_rng([SEED, REPEATS]))
        table, _ = tracer.layer_times()
        q1, med, q3 = statistics.quantiles(times, n=4)
        slack = max(RULE_FRAC * med, 2.0 * (q3 - q1))
        reproduces = lo - slack <= med <= hi + slack
        roadmap = f"{lo:.3g} s" if lo == hi else f"{lo:.3g}-{hi:.3g} s"
        print(f"| `{label}` | {shape} | {roadmap} | {med:.4g} s ({q1:.4g}-{q3:.4g}) | "
              f"{med / items * scale:.4g} {unit} | {table[span]['busy_s']:.4g} s | "
              f"{'yes' if reproduces else 'no'} ({med / ((lo + hi) / 2):.2f}x) |", flush=True)
        report.append({"layer": label, "shape": shape, "roadmap_s": [lo, hi], "median_s": med,
                       "q1_s": q1, "q3_s": q3, "per_item": med / items * scale, "unit": unit,
                       "traced_self_s": table[span]["busy_s"], "reproduces": reproduces})
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "roadmap.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
