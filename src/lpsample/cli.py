"""Experiment command-line harness.

Every command resolves its parameters as flags > config file (JSON) >
defaults, writes machine-readable outputs (CSV for grids, JSON/JSONL for
per-run records), and drops a replayable manifest next to each output.
Numeric outputs are byte-reproducible for a fixed seed; timestamps live only
in the manifest.

Exit codes: 0 success, 2 usage, 3 data error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dfe import TargetState, bound_comparison, depolarizing, no_noise, run_dfe
from .estimators import error_scale, estimate_inner_product
from .lincomb import (
    CombinationSampler,
    NonTerminationError,
    exact_m,
    mp_curve,
    run_ratio_experiment,
)
from .ptree import EmptyDistributionError, TreeAuditError, WeightedMatrixTree, WeightedVectorTree
from .randkit import DistributionSpec, normal, parse_distribution, stream
from .sparseio import SparseFormatError, SparseMatrix, load_matrix, synthetic_sparse

SCHEMA_VERSION = 1
SEED_ENV_VAR = "LPSAMPLE_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class DataError(Exception):
    """Input data made the requested computation impossible."""


def _dist_arg(text: str) -> DistributionSpec:
    try:
        return parse_distribution(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _p_grid_arg(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive ends) or a comma list of p values."""
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            count = int(round((stop - start) / step))
            grid = [round(start + k * step, 12) for k in range(count + 1)]
            return [p for p in grid if p <= stop + 1e-12]
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad p grid {text!r}; use start:stop:step") from None


def _target_arg(text: str) -> TargetState:
    kind, _, num = text.partition(":")
    try:
        return TargetState(kind.strip().lower(), int(num))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _noise_arg(text: str):
    kind, _, num = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "none":
            return no_noise()
        if kind == "depolarizing":
            return depolarizing(float(num))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"unknown noise {text!r}")


def _synthetic_arg(text: str) -> dict:
    """Parse 'm=256,n=512,density=0.05,dist=uniform:1,5'."""
    out: dict = {}
    try:
        for chunk in text.split(","):
            if "=" not in chunk:
                # distribution params contain commas; glue them back on
                out["dist"] = out["dist"] + "," + chunk
                continue
            key, _, value = chunk.partition("=")
            out[key.strip()] = value.strip()
        spec = {
            "m": int(out["m"]),
            "n": int(out["n"]),
            "density": float(out["density"]),
            "dist": parse_distribution(out["dist"]),
        }
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad synthetic spec {text!r}; use m=..,n=..,density=..,dist=family:params ({exc})"
        ) from None
    return spec


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError(f"config {path} must hold a JSON object")
    return config


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV_VAR)
    return int(env) if env else 0


def _resolve(args, config: dict, name: str, default):
    value = getattr(args, name)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _write_manifest(out_path: Path, command: str, params: dict, seed: int, outputs: list[str],
                    started: float) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "params": params,
        "seed": seed,
        "started_at": started,
        "finished_at": time.time(),
        "outputs": outputs,
    }
    path = out_path.with_name(out_path.name + ".manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_input_matrix(args, seed: int) -> SparseMatrix:
    if getattr(args, "matrix", None):
        try:
            return load_matrix(args.matrix)
        except OSError as exc:
            raise DataError(f"cannot read {args.matrix}: {exc}") from exc
    if getattr(args, "synthetic", None):
        spec = args.synthetic
        rng = stream(seed, 2_000_000_000)
        return synthetic_sparse(spec["m"], spec["n"], spec["density"], spec["dist"], rng)
    raise DataError("provide either --matrix or --synthetic")


# -- commands -------------------------------------------------------------------


def cmd_mp_curve(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    trials = _resolve(args, config, "trials", 100)
    m = _resolve(args, config, "m", 256)
    dist = args.dist if args.dist is not None else config.get("dist")
    if dist is None:
        raise DataError("no distribution given: pass --dist or set 'dist' in the config")
    if isinstance(dist, str):
        try:
            dist = parse_distribution(dist)
        except ValueError as exc:
            raise DataError(f"bad 'dist' in config: {exc}") from None
    args.dist = dist
    started = time.time()

    rows = []
    for n in args.n:
        points = mp_curve(m, n, args.dist, args.p_grid, trials, seed)
        for pt in points:
            bias = ""
            if pt.theory_m is not None:
                band = 2.0 * pt.stderr_m
                if pt.theory_m > pt.mean_m + band:
                    bias = "positive"
                elif pt.theory_m < pt.mean_m - band:
                    bias = "negative"
            rows.append(
                [pt.p, pt.n, pt.m, pt.trials, _fmt(pt.mean_m), _fmt(pt.stderr_m), _fmt(pt.theory_m), bias]
            )
    out = Path(args.out)
    _write_csv(out, ["p", "n", "m", "trials", "mean_M", "stderr_M", "theory_M", "theory_bias"], rows)
    _write_manifest(
        out,
        "mp-curve",
        {
            "dist": args.dist.label(),
            "m": m,
            "n": list(args.n),
            "p_grid": args.p_grid,
            "trials": trials,
            "schema_version": SCHEMA_VERSION,
        },
        seed,
        [str(out)],
        started,
    )
    return EXIT_OK


def cmd_ratio_table(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    # desk-scale defaults keep CI fast; --full restores the reference scale
    trials = _resolve(args, config, "trials", 1000 if args.full else 100)
    m = _resolve(args, config, "m", 1024 if args.full else 256)
    started = time.time()
    coeff_spec = normal(0.0, 1.0)

    rows = []
    for dist in args.dists:
        for n in args.n_list:
            report = run_ratio_experiment(m, n, dist, coeff_spec, trials, seed)
            rows.append(
                [
                    dist.label(),
                    n,
                    m,
                    trials,
                    _fmt(report.m1.exact),
                    _fmt(report.m1.stderr),
                    _fmt(report.m2.exact),
                    _fmt(report.m2.stderr),
                    _fmt(report.mean_ratio),
                    _fmt(report.stderr_ratio),
                    report.redraws,
                    "outside-theory" if report.outside_theory else "",
                ]
            )
    out = Path(args.out)
    _write_csv(
        out,
        [
            "distribution",
            "n",
            "m",
            "trials",
            "mean_M1",
            "stderr_M1",
            "mean_M2",
            "stderr_M2",
            "mean_ratio",
            "stderr_ratio",
            "redraws",
            "theory_note",
        ],
        rows,
    )
    _write_manifest(
        out,
        "ratio-table",
        {
            "dists": [d.label() for d in args.dists],
            "m": m,
            "n_list": list(args.n_list),
            "trials": trials,
            "schema_version": SCHEMA_VERSION,
        },
        seed,
        [str(out)],
        started,
    )
    return EXIT_OK


def _eligible_pairs(dense: np.ndarray, pairs: int, min_overlap: int, rng) -> list[tuple[int, int]]:
    nonzero = dense != 0.0
    row_weight = nonzero.sum(axis=1)
    candidates = np.flatnonzero(row_weight > 0)
    if candidates.size < 2:
        raise DataError("matrix has fewer than two nonzero rows")
    found: list[tuple[int, int]] = []
    attempts = 0
    limit = max(2000, 200 * pairs)
    while len(found) < pairs and attempts < limit:
        attempts += 1
        a, b = rng.choice(candidates, size=2, replace=False)
        overlap = int(np.sum(nonzero[a] & nonzero[b]))
        if overlap >= min_overlap:
            found.append((int(a), int(b)))
    if len(found) < pairs:
        raise DataError(
            f"no eligible pairs: found {len(found)} of {pairs} with overlap >= {min_overlap}"
        )
    return found


def cmd_inner_product(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    epsilon = _resolve(args, config, "epsilon", 0.1)
    delta = _resolve(args, config, "delta", 0.1)
    pairs = _resolve(args, config, "pairs", 20)
    min_overlap = _resolve(args, config, "min_overlap", 50)
    p = _resolve(args, config, "p", 1.0)
    started = time.time()

    matrix = _load_input_matrix(args, seed)
    dense = matrix.to_dense()
    records = []
    if pairs > 0:
        rng = stream(seed, 1_000_000_000)
        for k, (a, b) in enumerate(_eligible_pairs(dense, pairs, min_overlap, rng)):
            x, y = dense[a], dense[b]
            tree = WeightedVectorTree(x, p)
            report = estimate_inner_product(tree, y, epsilon, delta, stream(seed, k), compute_scale=False)
            scale1 = error_scale(x, y, 1.0)
            scale2 = error_scale(x, y, 2.0)
            records.append(
                {
                    "row_a": a,
                    "row_b": b,
                    "overlap": int(np.sum((x != 0) & (y != 0))),
                    "true_inner_product": float(x @ y),
                    "estimate": report.estimate,
                    "total_samples": report.total_samples,
                    "scale_p1": scale1,
                    "scale_p2": scale2,
                    "scale_ratio": scale2 / scale1,
                }
            )
    aggregate = {
        "pairs": len(records),
        "mean_scale_ratio": float(np.mean([r["scale_ratio"] for r in records])) if records else None,
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "p": p,
            "epsilon": epsilon,
            "delta": delta,
            "pairs": pairs,
            "min_overlap": min_overlap,
            "matrix": {"m": matrix.m, "n": matrix.n, "nnz": matrix.nnz},
        },
        "records": records,
        "aggregate": aggregate,
    }
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(out, "inner-product", payload["params"], seed, [str(out)], started)
    return EXIT_OK


def cmd_lincomb(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    trials = _resolve(args, config, "trials", 20)
    samples = _resolve(args, config, "samples_per_trial", 50)
    p_values = args.p or [1.0, 2.0]
    started = time.time()

    matrix = _load_input_matrix(args, seed)
    dense = matrix.to_dense()
    user_rows = np.flatnonzero((dense != 0).any(axis=1))
    results = []
    for n_users in args.n_users:
        if n_users > user_rows.size:
            raise DataError(f"matrix has only {user_rows.size} nonzero rows, need {n_users}")
        per_p = {p: {"exact": [], "iters": []} for p in p_values}
        for t in range(trials):
            rng = stream(seed, t)
            chosen = rng.choice(user_rows, size=n_users, replace=False)
            combo_matrix = dense[chosen].T  # items become rows, users columns
            coeffs = rng.normal(0.0, 1.0, n_users)
            if not np.any(combo_matrix @ coeffs != 0.0):
                continue
            for p in p_values:
                try:
                    # overflow is reported once, as the DataError below
                    with np.errstate(over="ignore", invalid="ignore"):
                        exact = exact_m(combo_matrix, coeffs, p)
                except ValueError as exc:
                    raise DataError(f"cannot compute M({p:g}): {exc}") from exc
                per_p[p]["exact"].append(exact)
                if samples > 0:
                    sampler = CombinationSampler(
                        WeightedMatrixTree(combo_matrix, p), coeffs, expected_iterations=exact
                    )
                    _, proposals = sampler.sample_many(rng, samples)
                    per_p[p]["iters"].append(proposals / samples)
        for p in p_values:
            exact_arr = np.array(per_p[p]["exact"])
            iters_arr = np.array(per_p[p]["iters"]) if per_p[p]["iters"] else None
            results.append(
                {
                    "n_users": n_users,
                    "p": p,
                    "trials": int(exact_arr.size),
                    "mean_exact_m": float(exact_arr.mean()),
                    "stderr_exact_m": float(exact_arr.std(ddof=1) / np.sqrt(exact_arr.size))
                    if exact_arr.size > 1
                    else None,
                    "mean_iterations": float(iters_arr.mean()) if iters_arr is not None else None,
                    "samples_per_trial": samples,
                }
            )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "n_users": list(args.n_users),
            "trials": trials,
            "p": list(p_values),
            "samples_per_trial": samples,
            "matrix": {"m": matrix.m, "n": matrix.n, "nnz": matrix.nnz},
        },
        "results": results,
    }
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(out, "lincomb", payload["params"], seed, [str(out)], started)
    return EXIT_OK


def cmd_dfe(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    runs = _resolve(args, config, "runs", 20)
    epsilon = _resolve(args, config, "epsilon", 0.05)
    delta = _resolve(args, config, "delta", 0.1)
    started = time.time()

    target = args.target
    noise = args.noise
    out = Path(args.out)
    runs_path = out.with_name(out.name + ".jsonl")
    summary_path = out.with_name(out.name + ".summary.json")

    records = []
    with open(runs_path, "w", encoding="utf-8") as handle:
        for k in range(runs):
            run = run_dfe(target, noise, epsilon, delta, args.norm, stream(seed, k))
            record = run.to_json_dict()
            record["seed"] = seed
            record["run"] = k
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            records.append(run)

    covered = sum(1 for r in records if abs(r.estimate - r.true_fidelity) <= 2.0 * epsilon)
    bounds = bound_comparison(target.n, epsilon, delta) if target.kind == "w" else None
    summary = {
        "schema_version": SCHEMA_VERSION,
        "target": target.kind,
        "n": target.n,
        "norm": args.norm,
        "epsilon": epsilon,
        "delta": delta,
        "runs": runs,
        "true_fidelity": records[0].true_fidelity if records else None,
        "coverage": covered / runs if runs else None,
        "mean_total_measurements": float(np.mean([r.total_measurements for r in records]))
        if records
        else None,
        "bounds": {
            "l2_bound": bounds.l2_bound,
            "l1_bound": bounds.l1_bound,
            "coefficient_ratio": bounds.coefficient_ratio,
        }
        if bounds
        else None,
    }
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _write_manifest(
        out,
        "dfe",
        {
            "target": f"{target.kind}:{target.n}",
            "noise": {"kind": noise.kind, "lambda": noise.lam},
            "epsilon": epsilon,
            "delta": delta,
            "norm": args.norm,
            "runs": runs,
            "schema_version": SCHEMA_VERSION,
        },
        seed,
        [str(runs_path), str(summary_path)],
        started,
    )
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        matrix = load_matrix(args.path, args.format)
    except OSError as exc:
        raise DataError(f"cannot read {args.path}: {exc}") from exc
    print(f"rows: {matrix.m}")
    print(f"cols: {matrix.n}")
    print(f"nnz: {matrix.nnz}")
    print(f"density: {matrix.density:.6g}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpsample",
        description="Benchmarks for p-norm sampling structures and their estimators.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help=f"default: ${SEED_ENV_VAR} or 0")
    common.add_argument("--config", default=None, help="JSON file with default parameters")

    p_curve = sub.add_parser("mp-curve", parents=[common], help="iteration-count curve over p")
    p_curve.add_argument("--dist", type=_dist_arg, default=None)
    p_curve.add_argument("--m", type=int, default=None)
    p_curve.add_argument("--n", type=int, nargs="+", required=True)
    p_curve.add_argument("--p-grid", type=_p_grid_arg, default=[1.0, 1.25, 1.5, 1.75, 2.0])
    p_curve.add_argument("--trials", type=int, default=None)
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=cmd_mp_curve)

    p_ratio = sub.add_parser("ratio-table", parents=[common], help="M(2)/M(1) ratio grid")
    p_ratio.add_argument("--dists", type=_dist_arg, nargs="+", required=True)
    p_ratio.add_argument("--m", type=int, default=None)
    p_ratio.add_argument("--n-list", type=int, nargs="+", required=True)
    p_ratio.add_argument("--trials", type=int, default=None)
    p_ratio.add_argument("--full", action="store_true", help="reference scale: m=1024, trials=1000")
    p_ratio.add_argument("--out", required=True)
    p_ratio.set_defaults(func=cmd_ratio_table)

    p_ip = sub.add_parser("inner-product", parents=[common], help="row-pair estimation report")
    p_ip.add_argument("--matrix", default=None)
    p_ip.add_argument("--synthetic", type=_synthetic_arg, default=None)
    p_ip.add_argument("--p", type=float, default=None)
    p_ip.add_argument("--epsilon", type=float, default=None)
    p_ip.add_argument("--delta", type=float, default=None)
    p_ip.add_argument("--pairs", type=int, default=None)
    p_ip.add_argument("--min-overlap", dest="min_overlap", type=int, default=None)
    p_ip.add_argument("--out", required=True)
    p_ip.set_defaults(func=cmd_inner_product)

    p_lc = sub.add_parser("lincomb", parents=[common], help="linear-combination sampling cost")
    p_lc.add_argument("--matrix", default=None)
    p_lc.add_argument("--synthetic", type=_synthetic_arg, default=None)
    p_lc.add_argument("--n-users", dest="n_users", type=int, nargs="+", required=True)
    p_lc.add_argument("--trials", type=int, default=None)
    p_lc.add_argument("--p", type=float, nargs="+", default=None)
    p_lc.add_argument("--samples-per-trial", dest="samples_per_trial", type=int, default=None)
    p_lc.add_argument("--out", required=True)
    p_lc.set_defaults(func=cmd_lincomb)

    p_dfe = sub.add_parser("dfe", parents=[common], help="fidelity-estimation runs")
    p_dfe.add_argument("--target", type=_target_arg, required=True, help="w:5 or ghz:4")
    p_dfe.add_argument("--noise", type=_noise_arg, default=no_noise(), help="depolarizing:0.1 or none")
    p_dfe.add_argument("--epsilon", type=float, default=None)
    p_dfe.add_argument("--delta", type=float, default=None)
    p_dfe.add_argument("--norm", choices=["l1", "l2"], required=True)
    p_dfe.add_argument("--runs", type=int, default=None)
    p_dfe.add_argument("--out", required=True)
    p_dfe.set_defaults(func=cmd_dfe)

    p_ing = sub.add_parser("ingest", parents=[common], help="validate a sparse matrix file")
    p_ing.add_argument("path")
    p_ing.add_argument("--format", choices=["auto", "matrix-market", "csv-coo"], default="auto")
    p_ing.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, SparseFormatError, NonTerminationError, EmptyDistributionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TreeAuditError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
