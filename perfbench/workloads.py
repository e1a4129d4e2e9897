"""The benchmark's three closed-loop workloads over lpsample.

A workload owns its generated inputs.  ``setup()`` (re)builds them from the
workload seed; ``request(r)`` returns request ``r`` of an endless seeded
rotation as a call to time plus a check of its output; ``finish()`` runs the
per-run checks and returns the failures it found; ``layer_extras()`` gives
the ratios that come from checked outputs rather than from spans.

Library calls go through module attributes (``lpsample.x``, ``cli.main``)
so that the tracer's wrappers see them.  Checks use the benchmark's own
NumPy code, never lpsample's.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import lpsample
from lpsample import cli


class CheckFailed(Exception):
    """A program output failed the benchmark's check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def seeded(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def heavy_tailed(rng: np.random.Generator, size: int) -> np.ndarray:
    """Signed Pareto(2.5) magnitudes on [1, inf), with one entry in 20 zero."""
    values = rng.random(size)
    np.power(values, -1.0 / 2.5, out=values)
    code = rng.integers(0, 20, size, dtype=np.int8)
    values[code % 2 == 1] *= -1.0
    values[code == 0] = 0.0
    return values


def last_writes(positions: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct positions of a burst with the value written there last."""
    distinct, first_from_end = np.unique(positions[::-1], return_index=True)
    return distinct, values[::-1][first_from_end]


def depth_plus_one(n: int) -> int:
    capacity = 1 if n <= 1 else 1 << (n - 1).bit_length()
    return capacity.bit_length()


def closed_form_m(A: np.ndarray, x: np.ndarray, p: float) -> float:
    """Expected proposals per accepted sample, ``n^(p-1) sum|x_j A_ij|^p / sum|(Ax)_i|^p``."""
    numerator = float(np.sum(np.abs(A * x) ** p))
    return x.size ** (p - 1.0) * numerator / float(np.sum(np.abs(A @ x) ** p))


def closed_form_scale(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Median-of-means error scale ``||x||_p^(p/2) sqrt(sum_{x_i != 0} |x_i|^(2-p) y_i^2)``."""
    nz = x != 0.0
    ax = np.abs(x[nz])
    return math.sqrt(float(np.sum(ax ** p))) * math.sqrt(float(np.sum(ax ** (2.0 - p) * y[nz] ** 2)))


@dataclass
class Tally:
    """Estimates outside ``eps * scale`` against the ``delta`` that bounds their share."""

    delta: float
    outside: int = 0
    total: int = 0

    def add(self, estimate: float, truth: float, bound: float) -> None:
        require(math.isfinite(estimate), f"non-finite estimate {estimate}")
        self.outside += abs(estimate - truth) > bound
        self.total += 1

    def failure(self, label: str) -> str | None:
        n, d = self.total, self.delta
        allowed = d * n + 3.0 * math.sqrt(n * d * (1.0 - d)) + 1.0
        if self.outside > allowed:
            return f"{label}: {self.outside} of {n} estimates outside eps*scale (allowed {allowed:.1f})"
        return None


@dataclass
class Proposals:
    """Accepted samples and the proposals they took, against the closed-form M."""

    accepted: int = 0
    proposals: float = 0.0
    expected: float = 0.0  # sum of M over accepted samples

    def add(self, accepted: int, proposals: float, m: float) -> None:
        self.accepted += accepted
        self.proposals += proposals
        self.expected += accepted * m

    def extras(self) -> dict[str, float]:
        if not self.accepted:
            return {}
        return {
            "lincomb.accept_rate": self.accepted / self.proposals,
            "lincomb.inv_exact_m": self.accepted / self.expected,
        }


# -- sample-serve ---------------------------------------------------------------


@dataclass
class _Vector:
    x: np.ndarray
    trees: dict = field(default_factory=dict)
    y: np.ndarray | None = None
    truth: float = 0.0
    scale: dict = field(default_factory=dict)


class SampleServe:
    """Read-heavy use of prebuilt trees: estimates, draws, rejection samples."""

    name = "sample-serve"
    # one rotation; each kind cycles through its own variants.  The counts put
    # the median latency mid-way through the cluster of 2^20-leaf estimates.
    ROTATION = ("ip", "burst", "draws", "ip", "ip", "sample", "ip", "trace", "burst",
                "ip", "draws", "ip", "sample_many")

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.sizes = (1 << 6, 1 << 8, 1 << 10) if tiny else (1 << 10, 1 << 20, 1 << 24)
        self.side = 32 if tiny else 512
        self.draws = 1 << 8 if tiny else 1 << 16
        self.burst = 16 if tiny else 128
        self.batch = 10 if tiny else 100
        self.vectors: list[_Vector] = []
        self.estimates = Tally(delta=0.05)
        self.trace_estimates = Tally(delta=0.1)
        self.proposals = Proposals()

    def setup(self) -> None:
        self.vectors = []
        self.mtree = self.sampler = None
        rng = seeded(self.seed, 0)
        for n in self.sizes:
            x = heavy_tailed(rng, n)
            v = _Vector(x, {1.0: lpsample.build_vector_tree(x, 1.0)})
            if n != self.sizes[-1]:
                v.trees[2.0] = lpsample.build_vector_tree(x, 2.0)
                v.y = rng.normal(size=n)
                v.truth = float(x @ v.y)
                v.scale = {p: closed_form_scale(x, v.y, p) for p in (1.0, 2.0)}
            self.vectors.append(v)
        side = self.side
        A = rng.normal(size=(side, side))
        self.mtree = lpsample.build_matrix_tree(A, 1.0)
        self.u, self.w = rng.normal(size=side), rng.normal(size=side)
        self.trace_truth = float(self.u @ A @ self.w)
        self.trace_scale = math.sqrt(float(np.abs(A).sum())) * math.sqrt(
            float((self.u ** 2) @ np.abs(A) @ (self.w ** 2)))
        coeffs = rng.normal(size=side)
        self.sampler = lpsample.CombinationSampler(self.mtree, coeffs)
        self.sampler.sample_many(rng, 1)  # warms the acceptance-ratio cache
        self.m_exact = closed_form_m(A, coeffs, 1.0)
        self.reachable = A @ coeffs != 0.0

    def request(self, r: int) -> Request:
        per = len(self.ROTATION)
        kind = self.ROTATION[r % per]
        nth = (r // per) * self.ROTATION.count(kind) + self.ROTATION[: r % per].count(kind)
        return getattr(self, "_" + kind)(seeded(self.seed, 1, r), nth)

    def _ip(self, rng, nth):
        size, p = ((1, 1.0), (1, 2.0), (0, 1.0), (1, 1.0), (1, 2.0), (0, 2.0))[nth % 6]
        v = self.vectors[size]
        tree, eps = v.trees[p], 0.05

        def call():
            return lpsample.estimate_inner_product(tree, v.y, eps, self.estimates.delta, rng,
                                                   compute_scale=False)

        def check(report):
            self.estimates.add(report.estimate, v.truth, eps * v.scale[p])

        return Request(f"ip-{v.x.size}-p{p:g}", call, check)

    def _draws(self, rng, nth):
        v = self.vectors[nth % 3]
        tree, n = v.trees[1.0], v.x.size

        def check(idx):
            require(len(idx) == self.draws, "wrong number of draws")
            require(bool(np.all((idx >= 0) & (idx < n))), "sampled index out of range")
            require(bool(np.all(v.x[idx] != 0.0)), "sampled index has zero weight")

        return Request(f"draws-{n}", lambda: tree.sample_indices(rng, self.draws), check)

    def _burst(self, rng, nth):
        v = self.vectors[(0, 2)[nth % 2]]
        tree, n = v.trees[1.0], v.x.size

        def call():
            out = []
            for _ in range(self.burst):
                i = tree.sample_index(rng)
                out.append((i, tree.last_op_visits, tree.query_entry(i)))
            return out

        def check(out):
            for i, visits, value in out:
                require(0 <= i < n, f"sampled index {i} out of range")
                require(v.x[i] != 0.0, f"sampled index {i} has zero weight")
                require(visits == depth_plus_one(n), f"{visits} visits, expected depth + 1")
                require(value == v.x[i], f"query_entry({i}) returned {value}, stored {v.x[i]}")

        return Request(f"burst-{n}", call, check)

    def _trace(self, rng, nth):
        eps = 0.1

        def call():
            return lpsample.estimate_trace_inner_product(
                self.mtree, self.u, self.w, eps, self.trace_estimates.delta, rng)

        def check(report):
            self.trace_estimates.add(report.estimate, self.trace_truth, eps * self.trace_scale)

        return Request("trace", call, check)

    def _check_rows(self, rows) -> None:
        rows = np.asarray(rows)
        require(bool(np.all((rows >= 0) & (rows < self.side))), "sampled row out of range")
        require(bool(np.all(self.reachable[rows])), "sampled row has zero weight in Ax")

    def _sample_many(self, rng, nth):
        def check(result):
            rows, proposals = result
            require(len(rows) == self.batch, "wrong number of samples")
            self._check_rows(rows)
            self.proposals.add(self.batch, proposals, self.m_exact)

        return Request("sample_many", lambda: self.sampler.sample_many(rng, self.batch), check)

    def _sample(self, rng, nth):
        def check(results):
            self._check_rows([res.index for res in results])
            for res in results:
                require(res.queries == (2 + res.iterations) * self.side, "query accounting is off")
                self.proposals.add(1, res.iterations, self.m_exact)

        return Request("sample", lambda: [self.sampler.sample(rng) for _ in range(3)], check)

    def finish(self) -> list[str]:
        failures = [self.estimates.failure("estimate_inner_product"),
                    self.trace_estimates.failure("estimate_trace_inner_product")]
        got = self.proposals
        if got.accepted:
            m = self.m_exact
            measured = got.proposals / got.accepted
            band = 5.0 * math.sqrt(m * (m - 1.0) / got.accepted)
            if abs(measured - m) > band:
                failures.append(f"{measured:.3f} proposals per sample, closed form M = {m:.3f} +- {band:.3f}")
        return [f for f in failures if f]

    def layer_extras(self) -> dict[str, float]:
        return self.proposals.extras()


# -- update-stream ----------------------------------------------------------------


class UpdateStream:
    """Bursts of seeded updates, each followed by one small read."""

    name = "update-stream"
    # 0: 2^10-leaf tree, 1: 2^20-leaf tree, 2: matrix.  Most bursts go to the
    # cache-resident tree, so the median does not depend on how much of the
    # shared L3 the larger trees get.
    TARGETS = (0, 1, 0, 2, 0, 0)

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.sizes = (1 << 6, 1 << 10) if tiny else (1 << 10, 1 << 20)
        self.side = 32 if tiny else 512
        self.burst = 32 if tiny else 16384

    def setup(self) -> None:
        self.trees = self.mtree = None
        rng = seeded(self.seed, 0)
        # shadow copies the benchmark keeps in step with every update
        self.shadows = [heavy_tailed(rng, n) for n in self.sizes]
        self.trees = [lpsample.build_vector_tree(x, p) for x, p in zip(self.shadows, (1.0, 2.0))]
        self.ys = [rng.normal(size=n) for n in self.sizes]
        self.shadow_matrix = heavy_tailed(rng, self.side * self.side).reshape(self.side, self.side)
        self.mtree = lpsample.build_matrix_tree(self.shadow_matrix, 2.0)
        self.u, self.w = rng.normal(size=self.side), rng.normal(size=self.side)

    def request(self, r: int) -> Request:
        rng = seeded(self.seed, 1, r)
        target = self.TARGETS[r % len(self.TARGETS)]
        coarse = (r // len(self.TARGETS)) % 2 == 1
        if target == 2:
            return self._matrix(rng, coarse)
        shadow, tree = self.shadows[target], self.trees[target]
        n = shadow.size
        pos = rng.integers(0, n, self.burst)
        vals = heavy_tailed(rng, self.burst)
        updates = list(zip(pos.tolist(), vals.tolist()))
        last_pos, last_vals = last_writes(pos, vals)
        y = self.ys[target]

        def call():
            for i, value in updates:
                tree.update_entry(i, value)
            visits = tree.last_op_visits
            if coarse:
                return visits, lpsample.estimate_inner_product(tree, y, 0.3, 0.3, rng,
                                                               compute_scale=False).estimate
            i = tree.sample_index(rng)
            return visits, (i, tree.query_entry(i))

        def check(out):
            shadow[last_pos] = last_vals
            visits, read = out
            require(visits == depth_plus_one(n), f"{visits} visits, expected depth + 1")
            if coarse:
                require(math.isfinite(read), f"non-finite estimate {read}")
                return
            i, value = read
            require(0 <= i < n and shadow[i] != 0.0, f"sampled index {i} invalid or zero weight")
            require(value == shadow[i], f"query_entry({i}) returned {value}, stored {shadow[i]}")

        return Request(f"update-{n}", call, check)

    def _matrix(self, rng, coarse: bool) -> Request:
        side, mt, shadow = self.side, self.mtree, self.shadow_matrix
        flat = rng.integers(0, side * side, self.burst)
        vals = heavy_tailed(rng, self.burst)
        burst_rows, burst_cols = np.divmod(flat, side)
        updates = list(zip(burst_rows.tolist(), burst_cols.tolist(), vals.tolist()))
        last_flat, last_vals = last_writes(flat, vals)
        rows, cols = np.divmod(last_flat, side)

        def call():
            for i, j, value in updates:
                mt.update_entry(i, j, value)
            if coarse:
                return lpsample.estimate_trace_inner_product(mt, self.u, self.w, 0.3, 0.3, rng).estimate
            i, j = mt.sample_entry(rng)
            return i, j, mt.query_entry(i, j)

        def check(out):
            shadow[rows, cols] = last_vals
            if coarse:
                require(math.isfinite(out), f"non-finite estimate {out}")
                return
            i, j, value = out
            require(0 <= i < side and 0 <= j < side and shadow[i, j] != 0.0,
                    f"sampled entry ({i}, {j}) invalid or zero weight")
            require(value == shadow[i, j], f"query_entry({i}, {j}) returned {value}, stored {shadow[i, j]}")

        return Request("update-matrix", call, check)

    def finish(self) -> list[str]:
        failures = []
        pairs = [(f"vector tree {k}", t, s, t.entries) for k, (t, s) in enumerate(zip(self.trees, self.shadows))]
        pairs.append(("matrix tree", self.mtree, self.shadow_matrix, self.mtree.dense))
        for label, tree, shadow, read in pairs:
            try:
                tree.audit()
            except lpsample.TreeAuditError as exc:
                failures.append(f"{label}: audit failed: {exc}")
            if not np.array_equal(read(), shadow):
                failures.append(f"{label}: entries differ from the shadow copy")
        return failures

    def layer_extras(self) -> dict[str, float]:
        return {}


# -- paper-cli --------------------------------------------------------------------


def write_ratings(path: Path, rng: np.random.Generator, users: int, items: int, per_user: int) -> int:
    """Ratings-style Matrix Market file with skewed item popularity; returns nnz.

    Item j is picked with weight ``1/(j+1)``, so popular items are shared
    by many users and row pairs overlap, as in real ratings data.
    """
    weights = 1.0 / np.arange(1, items + 1)
    weights /= weights.sum()
    lines = []
    for user in range(users):
        count = int(rng.integers(per_user // 2, 2 * per_user))
        chosen = np.sort(rng.choice(items, count, replace=False, p=weights))
        stars = rng.integers(1, 6, count)
        lines.extend(f"{user + 1} {j + 1} {s}\n" for j, s in zip(chosen.tolist(), stars.tolist()))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        handle.write(f"% synthetic ratings, {users} users x {items} items\n")
        handle.write(f"{users} {items} {len(lines)}\n")
        handle.writelines(lines)
    return len(lines)


class PaperCli:
    """In-process ``lpsample`` commands that reproduce the paper's tables."""

    name = "paper-cli"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.hashes: dict[tuple, str] = {}
        self.inner = Tally(delta=0.1)
        self.covered = 0
        self.dfe_runs = 0
        self.dfe_delta = 0.1
        self.proposals = Proposals()
        self.lincomb_failures: list[str] = []

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = seeded(self.seed, 0)
        self.shape = (200, 100) if self.tiny else (4000, 2000)
        self.matrix_path = self.workdir / "ratings.mtx"
        self.nnz = write_ratings(self.matrix_path, rng, *self.shape, per_user=15)
        self.commands = self._commands()

    def _commands(self) -> list[tuple[str, list[str], Callable]]:
        mtx = str(self.matrix_path)
        tiny = self.tiny
        # sizes chosen so that each command kind takes a similar share of a rotation
        m_draw = "32" if tiny else "256"
        n_list = ["8", "16"] if tiny else ["32", "128"]
        trials, mc_trials = ("3", "3") if tiny else ("80", "40")
        dfe_n = "4" if tiny else "10"
        w_runs, ghz_runs = ("3", "3") if tiny else ("40", "120")
        pairs = "4" if tiny else "20"
        dfe = ["--noise", "depolarizing:0.1", "--epsilon", "0.05", "--delta", str(self.dfe_delta)]
        return [
            ("ratio-table", ["ratio-table", "--dists", "normal:0,1", "uniform:-1,1", "--n-list", *n_list,
                             "--m", m_draw, "--trials", trials], self._check_ratio_table),
            ("mp-curve", ["mp-curve", "--dist", "normal:0,1", "--m", m_draw, "--n", *n_list,
                          "--p-grid", "1:2:0.25", "--trials", trials], self._check_mp_curve),
            ("mp-curve-mc", ["mp-curve", "--dist", "laplace:0,1", "--m", m_draw, "--n", *n_list,
                             "--p-grid", "1:2:0.25", "--trials", mc_trials], self._check_mp_curve),
            ("inner-product-p1", ["inner-product", "--matrix", mtx, "--p", "1", "--epsilon", "0.1",
                                  "--delta", str(self.inner.delta), "--pairs", pairs, "--min-overlap", "5"],
             self._check_inner_product),
            ("inner-product-p2", ["inner-product", "--matrix", mtx, "--p", "2", "--epsilon", "0.1",
                                  "--delta", str(self.inner.delta), "--pairs", pairs, "--min-overlap", "5"],
             self._check_inner_product),
            ("lincomb", ["lincomb", "--matrix", mtx, "--n-users", "5", "10" if tiny else "20",
                         "--trials", "3" if tiny else "5", "--p", "1", "2"], self._check_lincomb),
            ("ingest", ["ingest", mtx], self._check_ingest),
            ("dfe-w-l1", ["dfe", "--target", f"w:{dfe_n}", "--norm", "l1", "--runs", w_runs, *dfe],
             self._check_dfe),
            ("dfe-w-l2", ["dfe", "--target", f"w:{dfe_n}", "--norm", "l2", "--runs", w_runs, *dfe],
             self._check_dfe),
            ("dfe-ghz-l1", ["dfe", "--target", f"ghz:{dfe_n}", "--norm", "l1", "--runs", ghz_runs, *dfe],
             self._check_dfe),
            ("dfe-ghz-l2", ["dfe", "--target", f"ghz:{dfe_n}", "--norm", "l2", "--runs", ghz_runs, *dfe],
             self._check_dfe),
        ]

    def request(self, r: int) -> Request:
        per = len(self.commands)
        kind, args, checker = self.commands[r % per]
        # every argv is issued twice in a row of rotations, so replays can be compared
        seed = str(self.seed * 1000 + (r // per) // 2)
        out = self.workdir / kind / "out"
        out.parent.mkdir(exist_ok=True)
        argv = list(args) + ["--seed", seed] + ([] if kind == "ingest" else ["--out", str(out)])

        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            return code, stdout.getvalue(), stderr.getvalue()

        def check(result):
            code, stdout, stderr = result
            require(code == 0, f"{kind} exited {code}: {stderr.strip()}")
            files = sorted(p for p in out.parent.iterdir() if not p.name.endswith(".manifest.json"))
            digest = hashlib.sha256(stdout.encode())
            for path in files:
                digest.update(path.read_bytes())
            key = tuple(argv)
            first = key not in self.hashes
            if first:
                self.hashes[key] = digest.hexdigest()
            require(self.hashes[key] == digest.hexdigest(), f"{kind}: replay is not byte-identical")
            checker(out, stdout, first)

        return Request(kind, call, check)

    # -- output checks; statistical ones count only the first of identical runs

    @staticmethod
    def _rows(path: Path) -> list[dict]:
        with open(path, encoding="utf-8") as handle:
            return list(csv.DictReader(handle))

    def _check_ratio_table(self, out, stdout, first):
        rows = self._rows(out)
        require(len(rows) == 4, f"ratio-table wrote {len(rows)} rows")
        for row in rows:
            for key in ("mean_M1", "mean_M2", "mean_ratio"):
                value = float(row[key])
                require(math.isfinite(value) and value >= 1.0 - 1e-9, f"ratio-table {key} = {value}")

    def _check_mp_curve(self, out, stdout, first):
        rows = self._rows(out)
        require(len(rows) == 10, f"mp-curve wrote {len(rows)} rows")
        for row in rows:
            mean_m, theory = float(row["mean_M"]), float(row["theory_M"])
            require(math.isfinite(mean_m) and mean_m >= 1.0 - 1e-9, f"mp-curve mean_M = {mean_m}")
            require(math.isfinite(theory) and theory > 0.0, f"mp-curve theory_M = {theory}")

    def _check_inner_product(self, out, stdout, first):
        payload = json.loads(out.read_text())
        params = payload["params"]
        records = payload["records"]
        require(len(records) == params["pairs"], "inner-product returned too few pairs")
        scale_key = "scale_p1" if params["p"] == 1 else "scale_p2"
        for rec in records:
            require(math.isfinite(rec["estimate"]), "non-finite inner-product estimate")
            if first:
                self.inner.add(rec["estimate"], rec["true_inner_product"], params["epsilon"] * rec[scale_key])

    def _check_lincomb(self, out, stdout, first):
        payload = json.loads(out.read_text())
        for res in payload["results"]:
            m, got, trials = res["mean_exact_m"], res["mean_iterations"], res["trials"]
            require(math.isfinite(m) and m >= 1.0 - 1e-9 and math.isfinite(got), f"lincomb result {res}")
            if not first:
                continue
            samples = res["samples_per_trial"] * trials
            spread = (res["stderr_exact_m"] or 0.0) ** 2 * trials
            band = 5.0 * math.sqrt(max(m * m + spread - m, 0.0) / samples)
            if abs(got - m) > band:
                self.lincomb_failures.append(
                    f"lincomb n_users={res['n_users']} p={res['p']}: {got:.3f} iterations, M = {m:.3f} +- {band:.3f}")
            self.proposals.add(samples, got * samples, m)

    def _check_ingest(self, out, stdout, first):
        expected = f"rows: {self.shape[0]}\ncols: {self.shape[1]}\nnnz: {self.nnz}\n"
        require(stdout.startswith(expected), f"ingest printed {stdout!r}")

    def _check_dfe(self, out, stdout, first):
        summary = json.loads(out.with_name("out.summary.json").read_text())
        runs = [json.loads(line) for line in out.with_name("out.jsonl").read_text().splitlines()]
        require(len(runs) == summary["runs"], "dfe wrote the wrong number of runs")
        for run in runs:
            require(math.isfinite(run["estimate"]), "non-finite fidelity estimate")
        if first:
            eps = summary["epsilon"]
            self.covered += sum(abs(r["estimate"] - r["true_fidelity"]) <= 2.0 * eps for r in runs)
            self.dfe_runs += len(runs)

    def finish(self) -> list[str]:
        failures = [self.inner.failure("inner-product")] + self.lincomb_failures
        if self.dfe_runs:
            floor = 1.0 - 2.0 * self.dfe_delta
            slack = 3.0 * math.sqrt(floor * (1.0 - floor) / self.dfe_runs)
            coverage = self.covered / self.dfe_runs
            if coverage < floor - slack:
                failures.append(f"dfe coverage {coverage:.3f} below {floor:.2f} - {slack:.3f}")
        return [f for f in failures if f]

    def layer_extras(self) -> dict[str, float]:
        extras = self.proposals.extras()
        if self.dfe_runs:
            extras["dfe.coverage"] = self.covered / self.dfe_runs
            extras["dfe.coverage_floor"] = 1.0 - 2.0 * self.dfe_delta
        return extras


WORKLOADS = {w.name: w for w in (SampleServe, UpdateStream, PaperCli)}
