"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lpsample  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import traced_targets  # noqa: E402

WORKLOADS = ["sample-serve", "update-stream", "paper-cli"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = {line.split(" = ")[0]: line.split(" = ")[1] for line in out[:-1] if " = " in line}
    for name, unit in wanted.items():
        assert printed[name].split()[1] == unit


def test_per_layer_names_match_the_spec():
    assert run.per_layer_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert len(SPEC["per_layer"]) <= 128


def test_injected_wrong_output_is_counted_as_failed(monkeypatch, tmp_path):
    original = lpsample.estimate_inner_product

    def not_finite(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), estimate=float("nan"))

    monkeypatch.setattr(lpsample, "estimate_inner_product", not_finite)
    result, notes = run.run("sample-serve", seed=3, seconds=0.5, trace=0, tiny=True, workdir=tmp_path / "w")
    assert result["failed"] > 0
    assert not result["correct"]
    assert result["metrics"]["success_frac"]["value"] < 1.0
    assert any("non-finite estimate" in line for line in notes["request_failures"])


def test_wrong_stored_entry_fails_the_update_stream_check(monkeypatch, tmp_path):
    original = lpsample.WeightedVectorTree.query_entry
    monkeypatch.setattr(lpsample.WeightedVectorTree, "query_entry", lambda self, i: original(self, i) + 1.0)
    result, _ = run.run("update-stream", seed=3, seconds=0.5, trace=0, tiny=True, workdir=tmp_path / "w")
    assert result["failed"] > 0 and not result["correct"]


def _bindings():
    """Every attribute of every lpsample module and traced class, by identity."""
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "lpsample" or name.startswith("lpsample."):
            snapshot[name] = dict(vars(module))
    for _, owner, _, _ in traced_targets():
        if inspect.isclass(owner):
            snapshot[owner.__qualname__] = dict(vars(owner))
    return snapshot


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_wrapped_function(workload, tmp_path):
    before = _bindings()
    assert len(traced_targets()) > 50
    result, _ = run.run(workload, seed=3, seconds=0.5, trace=1, tiny=True, workdir=tmp_path / "w")
    assert result["correct"]
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert result["metrics"]["ptree.build.calls"]["value"] > 0  # the last set-up is traced
    assert 0.0 < result["metrics"]["trace.accounted_frac"]["value"] <= 1.0
    after = _bindings()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        changed = [a for a, obj in attrs.items() if after[owner].get(a) is not obj]
        assert not changed, f"{owner}: {changed} not restored"


def test_request_time_outside_every_span_lowers_accounted_frac(monkeypatch, tmp_path):
    original = workloads.SampleServe.request

    def slowed(self, r):
        request = original(self, r)

        def call():
            time.sleep(0.02)  # stands for lpsample work that no wrapper sees
            return request.call()

        return dataclasses.replace(request, call=call)

    monkeypatch.setattr(workloads.SampleServe, "request", slowed)
    result, _ = run.run("sample-serve", seed=3, seconds=0.5, trace=1, tiny=True, workdir=tmp_path / "w")
    assert result["correct"]
    assert result["metrics"]["trace.accounted_frac"]["value"] < 0.5


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
