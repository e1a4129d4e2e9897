"""lpsample benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload sample-serve --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed`` (several times, to time set-up),
then issues requests one after another for ``--seconds`` seconds, checking
every output.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` the per-layer metrics of a run
whose last set-up and second half are traced (see ``spans.py``).  The lines before it give
the run record and the details behind each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def import_lpsample():
    """Pin the BLAS pool, then import lpsample from this checkout's ``src`` and only from there."""
    # one client and no helper threads: fix the pool before NumPy loads it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    try:
        import lpsample
    except ImportError as exc:
        raise SystemExit(f"cannot import lpsample from {SRC}: {exc}")
    if not Path(lpsample.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lpsample was imported from {lpsample.__file__}, not from {SRC}")
    return lpsample


def end_to_end_metrics(setup_times, phase: Phase, peak_rss_mb):
    """The six end-to-end metrics, plus the details printed beside them."""
    attempted = len(phase.latencies)
    failed = len(phase.failures)
    ordered = sorted(phase.latencies)
    # the highest percentile that still has TAIL_BEYOND samples beyond it
    tail_index = max(attempted - TAIL_BEYOND - 1, 0)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_rps": ((attempted - failed) / phase.elapsed, "1/s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
        "latency_tail_ms": (ordered[tail_index] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_frac": ((attempted - failed) / attempted, "frac"),
    }
    details = {
        "setup_s": f"median of {len(setup_times)} set-ups: " + ", ".join(f"{t:.3f}" for t in setup_times),
        "latency_tail_ms": f"p{100.0 * (tail_index + 1) / attempted:.2f}, {attempted - tail_index - 1} "
                           f"of {attempted} requests beyond it",
        "success_frac": f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} requests failed)",
    }
    return metrics, details


PER_LAYER = {
    # span name: stats taken from the span table (calls, busy_s) or counters
    "ptree.build": ("calls", "items", "busy_s"),
    "ptree.sample_indices": ("calls", "items", "busy_s"),
    "ptree.sample_entries": ("calls", "items", "busy_s"),
    "ptree.sample_index": ("calls", "busy_s"),
    "ptree.update_entry": ("calls", "busy_s"),
    "ptree.query_entry": ("calls", "busy_s"),
    "estimators.estimate_inner_product": ("calls", "items", "busy_s"),
    "estimators.estimate_trace_inner_product": ("calls", "items", "busy_s"),
    "lincomb.sample_many": ("calls", "items", "proposals", "busy_s"),
    "lincomb.sample": ("calls", "iterations", "queries", "busy_s"),
    "lincomb.sampler_init": ("calls", "busy_s"),
    "lincomb.exact_m": ("calls", "items", "busy_s"),
    "lincomb.run_ratio_experiment": ("calls", "items", "busy_s"),
    "lincomb.mp_curve": ("calls", "items", "busy_s"),
    "randkit.sample": ("calls", "items", "busy_s"),
    "randkit.stream": ("calls", "busy_s"),
    "randkit.moment_profile": ("calls", "busy_s"),
    "sparseio.load_matrix": ("calls", "items", "busy_s"),
    "sparseio.to_dense": ("calls", "bytes", "busy_s"),
    "dfe.run_dfe": ("calls", "items", "busy_s"),
    "dfe.sample_paulis": ("calls", "items", "busy_s"),
    **{f"cli.{c}": ("calls", "busy_s")
       for c in ("ratio-table", "mp-curve", "inner-product", "lincomb", "dfe", "ingest", "main")},
}
_STAT_UNITS = {"busy_s": "s", "bytes": "B"}
# ratios and their bases, from checked outputs or counters
EXTRA_UNITS = {
    "ptree.visits_per_op": "visits/op",
    "ptree.depth_plus_one": "visits/op",
    "lincomb.accept_rate": "ratio",
    "lincomb.inv_exact_m": "ratio",
    "dfe.coverage": "frac",
    "dfe.coverage_floor": "frac",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    "trace.timed_s": "s",
    "trace.harness_s": "s",
    "trace.other_busy_s": "s",
    "trace.accounted_frac": "frac",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.{stat}": _STAT_UNITS.get(stat, "count")
             for name, stats in PER_LAYER.items() for stat in stats}
    units.update(EXTRA_UNITS)
    return units


def layer_metrics(tracer, workload, traced: Phase, overhead_frac):
    table, spans_s = tracer.layer_times()
    counters = tracer.counters
    values = {}
    for name, stats in PER_LAYER.items():
        row = table.get(name, {"calls": 0, "busy_s": 0.0})
        for stat in stats:
            values[f"{name}.{stat}"] = row[stat] if stat in row else counters.get(f"{name}.{stat}", 0)
    ops = sum(counters.get(f"ptree.{op}.visit_ops", 0) for op in ("sample_index", "update_entry"))
    for key in ("visits", "depth_plus_one"):
        total = sum(counters.get(f"ptree.{op}.{key}", 0) for op in ("sample_index", "update_entry"))
        values["ptree.visits_per_op" if key == "visits" else "ptree.depth_plus_one"] = total / ops if ops else 0.0
    # ratios from checked outputs; 0 where the workload has none
    values.update(dict.fromkeys(("lincomb.accept_rate", "lincomb.inv_exact_m", "dfe.coverage",
                                 "dfe.coverage_floor"), 0.0))
    values.update(workload.layer_extras())
    # the benchmark's own time: outside the request calls, and the tracer's inside them
    harness_s = traced.elapsed - sum(traced.latencies) + tracer.bookkeeping_s
    values["trace.overhead_frac"] = overhead_frac
    values["trace.spans"] = len(tracer)
    values["trace.timed_s"] = traced.elapsed
    values["trace.harness_s"] = harness_s
    values["trace.other_busy_s"] = sum(row["busy_s"] for n, row in table.items() if n not in PER_LAYER)
    # request time that no span covers reads as a shortfall below 1
    values["trace.accounted_frac"] = (spans_s + harness_s) / traced.elapsed
    units = per_layer_units()
    return {name: (values[name], units[name]) for name in units}


@dataclass
class Phase:
    """What one timed phase observed, request by request."""

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0


def timed_phase(workload, seconds, first, tracer=None) -> Phase:
    """Issue requests back to back until ``seconds`` have passed."""
    phase = Phase()
    r = first
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        request = workload.request(r)
        if tracer is not None:
            tracer.request_id = r
        t0 = time.perf_counter()
        try:
            output = request.call()
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        phase.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.request_id = -1
        phase.kinds.append(request.kind)
        if error is None:
            try:
                request.check(output)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        phase.ok.append(error is None)
        if error is not None:
            phase.failures.append(f"request {r} ({request.kind}): {error}")
        r += 1
    phase.elapsed = time.perf_counter() - start
    return phase


def by_kind(latencies, kinds) -> dict[str, str]:
    """Request count, median and maximum latency of each request kind."""
    groups: dict[str, list[float]] = {}
    for latency, kind in zip(latencies, kinds):
        groups.setdefault(kind, []).append(latency * 1e3)
    return {kind: f"{len(v)} requests, median {statistics.median(v):.3f} ms, max {max(v):.3f} ms"
            for kind, v in sorted(groups.items())}


def tracing_overhead(plain: Phase, traced: Phase) -> float:
    """Traced request time over the untraced mean time of the same request kinds, minus 1.

    Comparing kind by kind keeps a different request mix in the two halves
    from reading as overhead.
    """
    groups: dict[str, list[float]] = {}
    for latency, kind in zip(plain.latencies, plain.kinds):
        groups.setdefault(kind, []).append(latency)
    mean = {kind: sum(v) / len(v) for kind, v in groups.items()}
    pairs = [(t, mean[kind]) for t, kind in zip(traced.latencies, traced.kinds) if kind in mean]
    if not pairs:
        return 0.0
    return sum(t for t, _ in pairs) / sum(m for _, m in pairs) - 1.0


def run_record(lpsample, args):
    import numpy as np

    from environment import blas_threads, cache_sizes, git_sha, source_lines

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": git_sha(ROOT),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "src_lines": source_lines(SRC / "lpsample"),
        "lpsample_version": lpsample.__version__,
    }


def run(workload_name, seed, seconds, trace, tiny=False, workdir=None):
    """Set up, run and check one workload; returns (result dict, printable details)."""
    from spans import Tracer
    from workloads import WORKLOADS

    workdir = workdir or RESULTS / f"work-{workload_name}-{os.getpid()}"
    workload = WORKLOADS[workload_name](seed, tiny, workdir)
    try:
        tracer = Tracer() if trace else None
        setup_times = []
        repeats = 1 if tiny else SETUP_REPEATS
        for k in range(repeats):
            gc.collect()
            # a traced run traces its last set-up, which builds the structures it uses
            traced_setup = tracer is not None and k == repeats - 1
            with tracer if traced_setup else contextlib.nullcontext():
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
        gc.collect()
        if trace:
            phase = timed_phase(workload, seconds / 2.0, 0)
            with tracer:
                traced = timed_phase(workload, seconds / 2.0, len(phase.latencies), tracer)
        else:
            phase = timed_phase(workload, seconds, 0)
        run_failures = workload.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, details = end_to_end_metrics(setup_times, phase, peak_rss_mb)
        phases = [phase]
        if trace:
            phases.append(traced)
            overhead = tracing_overhead(phase, traced)
            metrics = layer_metrics(tracer, workload, traced, overhead)
            RESULTS.mkdir(exist_ok=True)
            tracer.save(RESULTS / f"spans-{workload_name}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [f for p in phases for f in p.failures]
    latencies = [t for p in phases for t in p.latencies]
    result = {
        "correct": not failures and not run_failures,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    notes = {"details": details, "kinds": by_kind(latencies, [k for p in phases for k in p.kinds]),
             "request_failures": failures[:20], "run_failures": run_failures}
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sample-serve", "update-stream", "paper-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    lpsample = import_lpsample()
    record = run_record(lpsample, args)
    result, notes = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    record.update(notes)
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    for key in ("git_sha", "python", "numpy", "openblas", "blas_threads", "nproc", "caches", "src_lines"):
        print(f"record {key}: {record[key]}")
    for name, metric in result["metrics"].items():
        note = notes["details"].get(name)
        print(f"{name} = {metric['value']:.6g} {metric['unit']}" + (f"  ({note})" if note else ""))
    for kind, summary in notes["kinds"].items():
        print(f"kind {kind}: {summary}")
    for line in notes["request_failures"] + notes["run_failures"]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
