"""Experiment command-line harness.

The five commands that write files run through one runner, ``_run``: it loads
``--config``, resolves the seed and every optional parameter (flag > config
key under the flag's dest name, parsed like the flag's text > the command's
declared default), calls ``cmd_<name>`` (which only computes and returns
``{path: text}``), writes those files, then a replayable
``<out>.manifest.json`` whose ``params`` hold every resolved parameter, the
input source included. A command that raises writes no file. Numeric outputs
are byte-reproducible for a fixed seed; timestamps live only in the manifest.

Exit codes: 0 success; 2 usage (a bad flag, a seed, count, exponent or
probability out of range, neither or both of --matrix/--synthetic); 3 data
error (a bad config value or ``$LPSAMPLE_SEED``, a DFE run whose counts or
labels exceed int64, or a moment or result that overflows, included); 4
internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .dfe import NoiseModel, TargetState, bound_comparison, depolarizing, no_noise, run_dfe
from .estimators import error_scale, estimate_inner_product
from .lincomb import NonTerminationError, _stderr, measure_mp, mp_curve, run_ratio_experiment
from .ptree import EmptyDistributionError, TreeAuditError, WeightedVectorTree
from .randkit import DistributionSpec, normal, parse_distribution, stream
from .sparseio import SparseFormatError, SparseMatrix, load_matrix, synthetic_sparse

SCHEMA_VERSION = 1
SEED_ENV_VAR = "LPSAMPLE_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

# most steps a start:stop:step p grid may take; each point costs a full mp_curve pass
MAX_P_GRID = 10_000

# namespace entries that are plumbing, not parameters of the computation
_NOT_PARAMS = {"command", "func", "declared", "config", "seed", "out"}


class DataError(Exception):
    """Input data made the requested computation impossible."""


def _arg_type(parse):
    """Report a parser's ``ValueError`` as an argparse usage error (exit 2)."""

    def wrapped(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapped


def _bounded(convert, ok, what: str):
    @_arg_type
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {what}, got {value}")
        return value

    return parse


def _is_exponent(p: float) -> bool:
    return math.isfinite(p) and p >= 1.0


_count = _bounded(int, lambda v: v >= 1, ">= 1")  # trials, runs, m, n, n_list, n_users, min_overlap
_size = _bounded(int, lambda v: v >= 0, ">= 0")  # seed, pairs, samples per trial
_probability = _bounded(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")  # epsilon, delta
_exponent = _bounded(float, _is_exponent, "finite and >= 1")  # p
_dist_arg = _arg_type(parse_distribution)


def _p_grid_arg(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive ends) or a comma list of p values, each finite and >= 1."""
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError
            span = (stop - start) / step
            if span > MAX_P_GRID:  # checked before the list exists
                raise argparse.ArgumentTypeError(f"p grid {text!r} takes more than {MAX_P_GRID} steps")
            count = int(round(span))
            grid = [round(start + k * step, 12) for k in range(count + 1)]
            grid = [p for p in grid if p <= stop + 1e-12]
        else:
            grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"bad p grid {text!r}; use start:stop:step") from None
    if not grid or not all(map(_is_exponent, grid)):
        raise argparse.ArgumentTypeError(f"p grid {text!r} must hold p values, each finite and >= 1")
    return grid


@_arg_type
def _target_arg(text: str) -> TargetState:
    kind, _, num = text.partition(":")
    return TargetState(kind.strip().lower(), int(num))


@_arg_type
def _noise_arg(text: str) -> NoiseModel:
    kind, _, num = text.partition(":")
    kind = kind.strip().lower()
    if kind == "none":
        return no_noise()
    if kind == "depolarizing":
        return depolarizing(float(num))
    raise ValueError(f"unknown noise {text!r}")


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
        if spec["m"] < 1 or spec["n"] < 1 or not 0.0 < spec["density"] <= 1.0:
            raise ValueError("need m, n >= 1 and density in (0, 1]")
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad synthetic spec {text!r}; use m=..,n=..,density=..,dist=family:params ({exc})"
        ) from None
    return spec


def _jsonable(value):
    """A resolved parameter as JSON; parsed specs go back to their flag text."""
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    if isinstance(value, DistributionSpec):
        return value.label()
    if isinstance(value, TargetState):
        return f"{value.kind}:{value.n}"
    if isinstance(value, NoiseModel):
        return value.kind if value.kind == "none" else f"{value.kind}:{value.lam!r}"
    return value


def _json(payload) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # strict JSON has no inf or nan
        raise DataError(f"a result is not finite: {exc}") from None


@contextlib.contextmanager
def _data_errors(what: str):
    """Report a library ``ValueError`` as a ``DataError`` about ``what``. numpy's
    overflow warnings are silenced: a value that overflows is reported once, by
    the result check that raises that error or by ``_json``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ValueError as exc:
        raise DataError(f"{what}: {exc}") from exc


def _csv(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows([header, *rows])
    return buffer.getvalue()


def _fmt(value) -> str:
    return "" if value is None else str(value)  # str(float) is its shortest round-trip repr


# -- runner -----------------------------------------------------------------------


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError(f"config {path} must hold a JSON object")
    return config


def _from_config(action: argparse.Action, value):
    """Parse a config value like the flag's text (each element, for a list flag)."""
    if action.type is None:  # a switch such as --full takes a JSON boolean
        if not isinstance(value, bool):
            raise ValueError(f"expected true or false, got {value!r}")
        return value
    if action.nargs is None:
        return action.type(str(value))
    return [action.type(str(v)) for v in (value if isinstance(value, list) else [value])]


def _env_seed(args) -> int:
    """The seed in ``$LPSAMPLE_SEED``, parsed like ``--seed``; 0 when unset or empty."""
    try:
        return _size(os.environ.get(SEED_ENV_VAR) or "0")
    except argparse.ArgumentTypeError as exc:
        raise DataError(f"bad ${SEED_ENV_VAR}: {exc}") from None


def _declare(parser: argparse.ArgumentParser, func, **defaults) -> None:
    """Bind a command and its optional flags' defaults, resolved in order after the seed:
    a value, a function of the namespace, or ``None`` (the flag or config must set it)."""
    actions = {action.dest: action for action in parser._actions}
    defaults = {"seed": _env_seed, **defaults}
    parser.set_defaults(func=func, declared={dest: (actions[dest], d) for dest, d in defaults.items()})


def _run(args) -> int:
    """Resolve parameters, run ``args.func``, then write its files and the manifest."""
    config = _load_config(args.config)
    for dest, (action, default) in args.declared.items():
        if getattr(args, dest) is not None:
            continue
        if dest in config:
            try:
                value = _from_config(action, config[dest])
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise DataError(f"bad {dest!r} in config: {exc}") from None
        else:
            value = default(args) if callable(default) else default
        if value is None:
            flag = action.option_strings[0]
            raise DataError(f"no {dest} given: pass {flag} or set {dest!r} in the config")
        setattr(args, dest, value)

    started = time.time()
    files = args.func(args)
    for path, text in files.items():
        path.write_text(text, encoding="utf-8", newline="")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": args.command,
        "params": {k: _jsonable(v) for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": args.seed,
        "started_at": started,
        "finished_at": time.time(),
        "outputs": [str(path) for path in files],
    }
    out = Path(args.out)
    out.with_name(out.name + ".manifest.json").write_text(_json(manifest), encoding="utf-8")
    return EXIT_OK


def _load_input_matrix(args) -> SparseMatrix:
    if args.matrix is not None:
        return load_matrix(args.matrix)
    spec = args.synthetic
    rng = stream(args.seed, 2_000_000_000)
    return synthetic_sparse(spec["m"], spec["n"], spec["density"], spec["dist"], rng)


# -- commands: each returns the text of every file it writes, keyed by path -------


def cmd_mp_curve(args) -> dict[Path, str]:
    with _data_errors(args.dist.label()):
        points = mp_curve(args.m, args.n, args.dist, args.p_grid, args.trials, args.seed)
    rows = []
    for pt in points:
        bias = ""
        if pt.theory_m is not None and pt.stderr_m is not None:
            band = 2.0 * pt.stderr_m
            if pt.theory_m > pt.mean_m + band:
                bias = "positive"
            elif pt.theory_m < pt.mean_m - band:
                bias = "negative"
        rows.append([pt.p, pt.n, pt.m, pt.trials, _fmt(pt.mean_m), _fmt(pt.stderr_m), _fmt(pt.theory_m), bias])
    header = ["p", "n", "m", "trials", "mean_M", "stderr_M", "theory_M", "theory_bias"]
    return {Path(args.out): _csv(header, rows)}


def cmd_ratio_table(args) -> dict[Path, str]:
    coeff_spec = normal(0.0, 1.0)
    rows = []
    for dist in args.dists:
        for n in args.n_list:
            with _data_errors(dist.label()):
                rep = run_ratio_experiment(args.m, n, dist, coeff_spec, args.trials, args.seed)
            rows.append([dist.label(), n, args.m, args.trials, _fmt(rep.m1.exact), _fmt(rep.m1.stderr),
                         _fmt(rep.m2.exact), _fmt(rep.m2.stderr), _fmt(rep.mean_ratio), _fmt(rep.stderr_ratio),
                         rep.redraws, "outside-theory" if rep.outside_theory else ""])
    header = ["distribution", "n", "m", "trials", "mean_M1", "stderr_M1", "mean_M2", "stderr_M2", "mean_ratio",
              "stderr_ratio", "redraws", "theory_note"]
    return {Path(args.out): _csv(header, rows)}


def _overlap(matrix: SparseMatrix, a: int, b: int) -> int:
    """Number of columns where rows a and b are both nonzero."""
    return np.intersect1d(matrix.support(a), matrix.support(b), assume_unique=True).size


def _eligible_pairs(matrix: SparseMatrix, pairs: int, min_overlap: int, rng) -> list[tuple[int, int]]:
    candidates = matrix.nonzero_rows()
    if candidates.size < 2:
        raise DataError("matrix has fewer than two nonzero rows")
    found: list[tuple[int, int]] = []
    attempts = 0
    limit = max(2000, 200 * pairs)
    while len(found) < pairs and attempts < limit:
        attempts += 1
        a, b = rng.choice(candidates, size=2, replace=False)
        if _overlap(matrix, a, b) >= min_overlap:
            found.append((int(a), int(b)))
    if len(found) < pairs:
        raise DataError(
            f"no eligible pairs: found {len(found)} of {pairs} with overlap >= {min_overlap}"
        )
    return found


def cmd_inner_product(args) -> dict[Path, str]:
    matrix = _load_input_matrix(args)
    records = []
    if args.pairs > 0:
        rng = stream(args.seed, 1_000_000_000)
        for k, (a, b) in enumerate(_eligible_pairs(matrix, args.pairs, args.min_overlap, rng)):
            x, y = matrix.dense_rows([a, b])
            support = np.flatnonzero(x)  # the tree needs only row a's support: zeros are never drawn
            with _data_errors(f"rows {a} and {b}"):
                report = estimate_inner_product(
                    WeightedVectorTree(x[support], args.p), y[support], args.epsilon, args.delta,
                    stream(args.seed, k), compute_scale=False,
                )
                scale1 = error_scale(x, y, 1.0)
                scale2 = error_scale(x, y, 2.0)
                inner = float(x @ y)
            if scale1 == 0.0:
                raise DataError(f"rows {a} and {b}: the p = 1 error scale underflows to zero")
            records.append(
                {
                    "row_a": a,
                    "row_b": b,
                    "overlap": _overlap(matrix, a, b),
                    "true_inner_product": inner,
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
            "p": args.p,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "pairs": args.pairs,
            "min_overlap": args.min_overlap,
            "matrix": {"m": matrix.m, "n": matrix.n, "nnz": matrix.nnz},
        },
        "records": records,
        "aggregate": aggregate,
    }
    return {Path(args.out): _json(payload)}


def cmd_lincomb(args) -> dict[Path, str]:
    matrix = _load_input_matrix(args)
    user_rows = matrix.nonzero_rows()
    results = []
    for n_users in args.n_users:
        if n_users > user_rows.size:
            raise DataError(f"matrix has only {user_rows.size} nonzero rows, need {n_users}")
        per_p = {p: {"exact": [], "iters": []} for p in args.p}
        for t in range(args.trials):
            rng = stream(args.seed, t)
            chosen = rng.choice(user_rows, size=n_users, replace=False)
            combo_matrix = matrix.dense_rows(chosen).T  # items become rows, users columns
            coeffs = rng.normal(0.0, 1.0, n_users)
            if not np.any(combo_matrix @ coeffs != 0.0):
                continue
            for p in args.p:
                with _data_errors(f"cannot compute M({p:g})"):
                    report = measure_mp(combo_matrix, coeffs, p, args.samples_per_trial, rng)
                per_p[p]["exact"].append(report.exact)
                if report.empirical is not None:
                    per_p[p]["iters"].append(report.empirical)
        for p in args.p:
            exact_arr = np.array(per_p[p]["exact"])
            iters_arr = np.array(per_p[p]["iters"]) if per_p[p]["iters"] else None
            results.append(
                {
                    "n_users": n_users,
                    "p": p,
                    "trials": int(exact_arr.size),
                    "mean_exact_m": float(exact_arr.mean()),
                    "stderr_exact_m": _stderr(exact_arr),
                    "mean_iterations": float(iters_arr.mean()) if iters_arr is not None else None,
                    "samples_per_trial": args.samples_per_trial,
                }
            )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": {
            "n_users": list(args.n_users),
            "trials": args.trials,
            "p": list(args.p),
            "samples_per_trial": args.samples_per_trial,
            "matrix": {"m": matrix.m, "n": matrix.n, "nnz": matrix.nnz},
        },
        "results": results,
    }
    return {Path(args.out): _json(payload)}


def cmd_dfe(args) -> dict[Path, str]:
    target, epsilon = args.target, args.epsilon
    # ValueError: more levels or measurements than int64 holds, or more qubits than a label
    with _data_errors(f"{target.kind}:{target.n}"):
        records = [
            run_dfe(target, args.noise, epsilon, args.delta, args.norm, stream(args.seed, k))
            for k in range(args.runs)
        ]
    lines = [
        json.dumps({**run.to_json_dict(), "seed": args.seed, "run": k}, sort_keys=True) + "\n"
        for k, run in enumerate(records)
    ]
    covered = sum(1 for r in records if abs(r.estimate - r.true_fidelity) <= 2.0 * epsilon)
    bounds = bound_comparison(target.n, epsilon, args.delta) if target.kind == "w" else None
    summary = {
        "schema_version": SCHEMA_VERSION,
        "target": target.kind,
        "n": target.n,
        "norm": args.norm,
        "epsilon": epsilon,
        "delta": args.delta,
        "runs": args.runs,
        "true_fidelity": records[0].true_fidelity,
        "coverage": covered / args.runs,
        "mean_total_measurements": float(np.mean([r.total_measurements for r in records])),
        "bounds": asdict(bounds) if bounds else None,
    }
    out = Path(args.out)
    return {
        out.with_name(out.name + ".jsonl"): "".join(lines),
        out.with_name(out.name + ".summary.json"): _json(summary),
    }


def cmd_ingest(args) -> int:
    matrix = load_matrix(args.path, args.format)
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

    seeded = argparse.ArgumentParser(add_help=False)  # ingest takes --seed and ignores it
    seeded.add_argument("--seed", type=_size, help=f"default: ${SEED_ENV_VAR} or 0")
    writes = argparse.ArgumentParser(add_help=False, parents=[seeded])  # the runner's commands
    writes.add_argument("--config", help="JSON file whose keys (flag dest names) fill unset flags")
    writes.add_argument("--out", required=True)
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix")
    group.add_argument("--synthetic", type=_synthetic_arg)
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--epsilon", type=_probability)
    tolerance.add_argument("--delta", type=_probability)
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=_count)

    p_curve = sub.add_parser("mp-curve", parents=[writes, trials], help="iteration-count curve over p")
    p_curve.add_argument("--dist", type=_dist_arg)
    p_curve.add_argument("--m", type=_count)
    p_curve.add_argument("--n", type=_count, nargs="+", required=True)
    p_curve.add_argument("--p-grid", type=_p_grid_arg)
    _declare(p_curve, cmd_mp_curve, dist=None, m=256, p_grid=[1.0, 1.25, 1.5, 1.75, 2.0], trials=100)

    p_ratio = sub.add_parser("ratio-table", parents=[writes, trials], help="M(2)/M(1) ratio grid")
    p_ratio.add_argument("--dists", type=_dist_arg, nargs="+", required=True)
    p_ratio.add_argument("--m", type=_count)
    p_ratio.add_argument("--n-list", type=_count, nargs="+", required=True)
    p_ratio.add_argument("--full", action="store_true", default=None,
                         help="reference scale: m=1024, trials=1000")
    # desk-scale defaults keep CI fast; --full restores the reference scale
    _declare(p_ratio, cmd_ratio_table, full=False,
             m=lambda args: 1024 if args.full else 256, trials=lambda args: 1000 if args.full else 100)

    p_ip = sub.add_parser("inner-product", parents=[writes, source, tolerance],
                          help="row-pair estimation report")
    p_ip.add_argument("--p", type=_exponent)
    p_ip.add_argument("--pairs", type=_size)
    p_ip.add_argument("--min-overlap", dest="min_overlap", type=_count)
    _declare(p_ip, cmd_inner_product, p=1.0, epsilon=0.1, delta=0.1, pairs=20, min_overlap=50)

    p_lc = sub.add_parser("lincomb", parents=[writes, source, trials],
                          help="linear-combination sampling cost")
    p_lc.add_argument("--n-users", dest="n_users", type=_count, nargs="+", required=True)
    p_lc.add_argument("--p", type=_exponent, nargs="+")
    p_lc.add_argument("--samples-per-trial", dest="samples_per_trial", type=_size)
    _declare(p_lc, cmd_lincomb, trials=20, p=[1.0, 2.0], samples_per_trial=50)

    p_dfe = sub.add_parser("dfe", parents=[writes, tolerance], help="fidelity-estimation runs")
    p_dfe.add_argument("--target", type=_target_arg, required=True, help="w:5 or ghz:4")
    p_dfe.add_argument("--noise", type=_noise_arg, help="depolarizing:0.1 or none")
    p_dfe.add_argument("--norm", choices=["l1", "l2"], required=True)
    p_dfe.add_argument("--runs", type=_count)
    _declare(p_dfe, cmd_dfe, noise=no_noise(), epsilon=0.05, delta=0.1, runs=20)

    p_ing = sub.add_parser("ingest", parents=[seeded], help="validate a sparse matrix file")
    p_ing.add_argument("path")
    p_ing.add_argument("--format", choices=["auto", "matrix-market", "csv-coo"], default="auto")
    p_ing.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # ingest only prints; every other command writes files through the runner
        return args.func(args) if args.command == "ingest" else _run(args)
    except (DataError, SparseFormatError, NonTerminationError, EmptyDistributionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TreeAuditError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
