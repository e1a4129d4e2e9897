import argparse
import csv
import gzip
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import lpsample.cli as cli
from lpsample.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, DataError, main
from lpsample.randkit import stream
from lpsample.sparseio import load_matrix
from oracles import eligible_pairs_dense, to_dense


def run(args):
    return main([str(a) for a in args])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_of(path):
    return json.loads((path.parent / (path.name + ".manifest.json")).read_text())


@pytest.fixture
def ratings_file(tmp_path):
    # small but dense enough that row pairs share many nonzero positions
    rng = np.random.default_rng(5)
    m, n = 30, 120
    lines = [f"{m},{n}"]
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.6:
                lines.append(f"{i + 1},{j + 1},{rng.integers(1, 6)}")
    path = tmp_path / "ratings.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


MATRIX = object()  # stands for the ratings_file path in an argv

# sha256 of every file each argv writes (manifests aside), recorded before the
# CLI plumbing moved into one runner; integer p only, so no SIMD pow rounding,
# except "mp-curve-mc", recorded later: fractional p and the laplace closed-form profile
GOLDEN = {
    "mp-curve": (
        ["mp-curve", "--dist", "normal:0,1", "--m", 16, "--n", 4, 8, "--p-grid", "1:2:1",
         "--trials", 6, "--seed", 7],
        {"out": "f7c8c12af3a1b4dc23578ced18c9701d65bcd2c2a5177433b67183e810e7e50c"},
    ),
    "mp-curve-mc": (
        ["mp-curve", "--dist", "laplace:0,1", "--m", 16, "--n", 4, 8, "--p-grid", "1:2:0.25",
         "--trials", 6, "--seed", 7],
        {"out": "0a565d7a38fff2a04042df283fb6f170b97d622b594679d1dc4b4870cea0b051"},
    ),
    "ratio-table": (
        ["ratio-table", "--dists", "normal:0,1", "exponential:1", "--m", 16, "--n-list", 2, 4,
         "--trials", 5, "--seed", 5],
        {"out": "191aac05f6bae6566787cd7bbadb24bdfd518c04ed8f4435a2a5a1fa91e25332"},
    ),
    "inner-product-p1": (
        ["inner-product", "--matrix", MATRIX, "--p", 1, "--pairs", 3, "--min-overlap", 30, "--seed", 2],
        {"out": "05ad931f1467935295c3245aaec57776916002ad5cfd99b526d84ea1c955acb4"},
    ),
    "inner-product-p2": (
        ["inner-product", "--matrix", MATRIX, "--p", 2, "--pairs", 3, "--min-overlap", 30, "--seed", 2],
        {"out": "5f610005ac7d9e83e678e0bc037cd3fcc14df9ff6e678025570e9d68a59b61a4"},
    ),
    "lincomb": (
        ["lincomb", "--matrix", MATRIX, "--n-users", 1, 4, "--trials", 3, "--p", 1, 2,
         "--samples-per-trial", 10, "--seed", 4],
        {"out": "73fd17e4af19b094175d63cfe7d25df1f03c83c7aaf882e6fed9f7407e4dbf21"},
    ),
    "dfe-w-l1": (
        ["dfe", "--target", "w:3", "--noise", "depolarizing:0.1", "--epsilon", 0.2, "--delta", 0.2,
         "--norm", "l1", "--runs", 3, "--seed", 6],
        {
            "out.jsonl": "250402d68805d44e23457d0a03476783a57e73885c8a9806f4824c1a3e7ca015",
            "out.summary.json": "c472a5c7ef9ffb17275cd6e0de61eac843483ea61cd0515dcdc9ab7025c77005",
        },
    ),
    "dfe-ghz-l2": (
        ["dfe", "--target", "ghz:3", "--noise", "depolarizing:0.1", "--epsilon", 0.2, "--delta", 0.2,
         "--norm", "l2", "--runs", 3, "--seed", 6],
        {
            "out.jsonl": "6fe95fefc67d6685777b89e77e35606b12e791fedc5425b925d46330dad54cc4",
            "out.summary.json": "f3461e5a36954d67443c3b06962ebb1d5df9f092347e3e23bf79a473705bb1a8",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, ratings_file, tmp_path):
    argv, expected = GOLDEN[name]
    out_dir = tmp_path / name
    out_dir.mkdir()
    argv = [ratings_file if a is MATRIX else a for a in argv]
    assert run(argv + ["--out", out_dir / "out"]) == EXIT_OK
    written = {p.name: file_hash(p) for p in out_dir.iterdir() if not p.name.endswith(".manifest.json")}
    assert written == expected


class TestMpCurve:
    def test_csv_schema_and_manifest(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run(
            ["mp-curve", "--dist", "normal:0,1", "--m", 32, "--n", 8, 16, "--p-grid", "1:2:0.5",
             "--trials", 25, "--seed", 7, "--out", out]
        )
        assert code == EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6  # two n values, three p values
        assert set(rows[0]) == {"p", "n", "m", "trials", "mean_M", "stderr_M", "theory_M", "theory_bias"}
        assert all(float(r["theory_M"]) > 0 for r in rows)
        manifest = manifest_of(out)
        assert manifest["command"] == "mp-curve"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(out)]

    def test_deterministic_output(self, tmp_path):
        args = ["mp-curve", "--dist", "uniform:-1,1", "--m", 16, "--n", 8, "--trials", 10, "--seed", 3]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", out_a]) == EXIT_OK
        assert run(args + ["--out", out_b]) == EXIT_OK
        assert file_hash(out_a) == file_hash(out_b)
        ma, mb = manifest_of(out_a), manifest_of(out_b)
        for m in (ma, mb):
            m.pop("started_at")
            m.pop("finished_at")
            m.pop("outputs")
        assert ma == mb

    def test_p2_theory_close_at_large_n(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(
            ["mp-curve", "--dist", "normal:0,1", "--m", 256, "--n", 256, "--p-grid", "2:2:1",
             "--trials", 50, "--seed", 11, "--out", out]
        ) == EXIT_OK
        with open(out) as handle:
            row = next(csv.DictReader(handle))
        ratio = float(row["mean_M"]) / float(row["theory_M"])
        assert 0.9 <= ratio <= 1.1

    def test_uniform_small_n_flagged_negative(self, tmp_path):
        out = tmp_path / "u2.csv"
        assert run(
            ["mp-curve", "--dist", "uniform:-1,1", "--m", 1024, "--n", 2, "--p-grid", "1:1:1",
             "--trials", 3000, "--seed", 11, "--out", out]
        ) == EXIT_OK
        with open(out) as handle:
            row = next(csv.DictReader(handle))
        assert row["theory_bias"] == "negative"

    def test_single_trial_has_no_stderr_and_no_bias(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(
            ["mp-curve", "--dist", "normal:0,1", "--m", 8, "--n", 4, "--p-grid", "1:1:1", "--trials", 1,
             "--out", out]
        ) == EXIT_OK
        with open(out) as handle:
            row = next(csv.DictReader(handle))
        assert float(row["theory_M"]) > 0
        assert row["stderr_M"] == "" and row["theory_bias"] == ""

    def test_manifest_dist_replays_the_given_parameters(self, tmp_path):
        args = ["mp-curve", "--m", 8, "--n", 4, "--p-grid", "1:2:1", "--trials", 3, "--seed", 2]
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        assert run(args + ["--dist", "normal:0,1.23456789", "--out", first]) == EXIT_OK
        dist = manifest_of(first)["params"]["dist"]
        assert dist == "normal:0,1.23456789"
        assert run(args + ["--dist", dist, "--out", replay]) == EXIT_OK
        assert file_hash(replay) == file_hash(first)

    def test_missing_n_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["mp-curve", "--dist", "normal:0,1", "--n", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2

    def test_bad_distribution_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["mp-curve", "--dist", "cauchy:0,1", "--n", 4, "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2


class TestRatioTable:
    def test_grid_shape(self, tmp_path):
        out = tmp_path / "table.csv"
        code = run(
            ["ratio-table", "--dists", "normal:0,1", "laplace:0,1", "exponential:1", "--m", 32,
             "--n-list", 2, 4, "--trials", 20, "--seed", 5, "--out", out]
        )
        assert code == EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        normal_rows = [r for r in rows if r["distribution"] == "normal:0,1"]
        assert normal_rows[0]["theory_note"] == ""
        exp_rows = [r for r in rows if r["distribution"] == "exponential:1"]
        assert exp_rows[0]["theory_note"] == "outside-theory"
        by_n = {int(r["n"]): float(r["mean_ratio"]) for r in normal_rows}
        assert by_n[4] > by_n[2] > 1.0
        laplace_by_n = {int(r["n"]): float(r["mean_ratio"]) for r in rows if r["distribution"] == "laplace:0,1"}
        assert laplace_by_n[4] > laplace_by_n[2] > 1.0

    def test_single_cell(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(
            ["ratio-table", "--dists", "uniform:-1,1", "--m", 16, "--n-list", 2,
             "--trials", 5, "--seed", 1, "--out", out]
        ) == EXIT_OK
        with open(out) as handle:
            assert len(list(csv.DictReader(handle))) == 1

    def test_single_trial_has_no_stderr(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(
            ["ratio-table", "--dists", "normal:0,1", "--m", 8, "--n-list", 2, "--trials", 1, "--out", out]
        ) == EXIT_OK
        with open(out) as handle:
            row = next(csv.DictReader(handle))
        assert float(row["mean_ratio"]) > 0
        assert row["stderr_M1"] == row["stderr_M2"] == row["stderr_ratio"] == ""


class TestInnerProduct:
    def test_report_fields(self, ratings_file, tmp_path):
        out = tmp_path / "ip.json"
        code = run(
            ["inner-product", "--matrix", ratings_file, "--p", 1, "--epsilon", 0.1,
             "--delta", 0.1, "--pairs", 6, "--min-overlap", 30, "--seed", 2, "--out", out]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["pairs"] == 6
        for record in payload["records"]:
            assert record["overlap"] >= 30
            assert record["scale_ratio"] == pytest.approx(record["scale_p2"] / record["scale_p1"])
        assert payload["aggregate"]["mean_scale_ratio"] > 1.0

    def test_zero_pairs_is_success(self, ratings_file, tmp_path):
        out = tmp_path / "ip.json"
        assert run(
            ["inner-product", "--matrix", ratings_file, "--pairs", 0, "--out", out]
        ) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["records"] == []

    def test_unreachable_overlap_is_data_error(self, ratings_file, tmp_path, capsys):
        code = run(
            ["inner-product", "--matrix", ratings_file, "--pairs", 2,
             "--min-overlap", 10_000, "--out", tmp_path / "ip.json"]
        )
        assert code == EXIT_DATA
        assert "no eligible pairs" in capsys.readouterr().err

    def test_underflowing_error_scale_is_data_error(self, tmp_path, capsys):
        # |x_i| * y_i^2 = 1e-600 underflows, so the p = 1 scale is exactly zero
        matrix = tmp_path / "m.csv"
        matrix.write_text("3,4\n1,1,1e-200\n1,2,1e-200\n2,1,1e-200\n2,2,1e-200\n")
        out = tmp_path / "ip.json"
        code = run(["inner-product", "--matrix", matrix, "--pairs", 1, "--min-overlap", 1, "--out", out])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv"]

    @pytest.mark.parametrize("p", [2, 1])
    def test_overflowing_entry_is_data_error(self, tmp_path, capsys, p):
        # at p = 2 the tree over row a cannot be built (|x|^2 overflows); at p = 1 it
        # can, but its estimate overflows to inf
        mtx = tmp_path / "big.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                       "1 1 1e200\n1 2 1e200\n2 1 1e200\n2 2 1e200\n")
        out = tmp_path / "ip.json"
        code = run(["inner-product", "--matrix", mtx, "--p", p, "--pairs", 1, "--min-overlap", 1,
                    "--out", out])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "finite" in lines[0]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["big.mtx"]

    def test_synthetic_source(self, tmp_path):
        out = tmp_path / "ip.json"
        assert run(
            ["inner-product", "--synthetic", "m=40,n=200,density=0.5,dist=uniform:1,5",
             "--pairs", 4, "--min-overlap", 40, "--seed", 3, "--out", out]
        ) == EXIT_OK
        assert json.loads(out.read_text())["aggregate"]["mean_scale_ratio"] > 1.0


class TestLincomb:
    def test_synthetic_run(self, tmp_path):
        out = tmp_path / "lc.json"
        code = run(
            ["lincomb", "--synthetic", "m=60,n=400,density=0.02,dist=uniform:1,5",
             "--n-users", 1, 5, "--trials", 6, "--p", 1, 2, "--samples-per-trial", 20,
             "--seed", 4, "--out", out]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        rows = {(r["n_users"], r["p"]): r for r in payload["results"]}
        assert rows[(1, 1.0)]["mean_exact_m"] == pytest.approx(1.0, abs=1e-9)
        assert rows[(1, 2.0)]["mean_exact_m"] == pytest.approx(1.0, abs=1e-9)
        assert rows[(5, 2.0)]["mean_exact_m"] > rows[(5, 1.0)]["mean_exact_m"]
        assert rows[(5, 2.0)]["mean_iterations"] is not None

    def test_too_many_users_is_data_error(self, tmp_path, capsys):
        code = run(
            ["lincomb", "--synthetic", "m=5,n=10,density=0.5,dist=uniform:1,5",
             "--n-users", 50, "--out", tmp_path / "lc.json"]
        )
        assert code == EXIT_DATA


    @pytest.mark.parametrize("samples", [50, 0])
    def test_overflowing_entry_is_data_error(self, tmp_path, capsys, samples):
        mtx = tmp_path / "big.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1e200\n")
        out = tmp_path / "lc.json"
        code = run(["lincomb", "--matrix", mtx, "--p", 2, "--n-users", 1, "--trials", 2,
                    "--samples-per-trial", samples, "--out", out])
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["mp-curve", "--dist", "normal:0,1e100", "--m", 4, "--n", 2, "--p-grid", "1,2", "--trials", 2],
        ["mp-curve", "--dist", "laplace:0,1e200", "--m", 4, "--n", 2, "--p-grid", "1,2", "--trials", 2],
        ["mp-curve", "--dist", "normal:0,1", "--m", 4, "--n", 100, "--p-grid", "200", "--trials", 2],
        ["mp-curve", "--dist", "normal:0,1", "--m", 4, "--n", 4, "--p-grid", "200", "--trials", 2],
        ["ratio-table", "--dists", "normal:0,1e160", "--m", 4, "--n-list", 2, "--trials", 2],
    ],
    ids=["mu-tilde", "variance", "exact-m", "theory", "ratio-table"],
)
def test_overflow_is_data_error(argv, tmp_path, capsys):
    # a moment, M(p) or its limit past the largest float: one error line, no file
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(argv + ["--out", out_dir / "out.csv"]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]
    assert list(out_dir.iterdir()) == []


class TestDfe:
    def test_run_records_and_summary(self, tmp_path):
        out = tmp_path / "dfe"
        code = run(
            ["dfe", "--target", "w:3", "--noise", "depolarizing:0.1", "--epsilon", 0.2,
             "--delta", 0.2, "--norm", "l1", "--runs", 5, "--seed", 6, "--out", out]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "dfe.jsonl").read_text().splitlines()
        assert len(lines) == 5
        record = json.loads(lines[0])
        assert record["target"] == "w" and record["n"] == 3
        assert record["seed"] == 6
        summary = json.loads((tmp_path / "dfe.summary.json").read_text())
        assert summary["runs"] == 5
        assert summary["bounds"]["coefficient_ratio"] == 4.0
        assert summary["true_fidelity"] == pytest.approx(0.9 + 0.1 / 8)

    def test_byte_identical_rerun(self, tmp_path):
        args = ["dfe", "--target", "ghz:3", "--noise", "none", "--epsilon", 0.2, "--delta", 0.2,
                "--norm", "l2", "--runs", 1, "--seed", 9]
        assert run(args + ["--out", tmp_path / "a"]) == EXIT_OK
        assert run(args + ["--out", tmp_path / "b"]) == EXIT_OK
        assert file_hash(tmp_path / "a.jsonl") == file_hash(tmp_path / "b.jsonl")
        assert file_hash(tmp_path / "a.summary.json") == file_hash(tmp_path / "b.summary.json")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--target", "w:5", "--epsilon", 1e-10, "--delta", 0.1],
            ["--target", "w:5", "--epsilon", 5e-10, "--delta", 0.9],
            ["--target", "w:5", "--epsilon", 1e-200],
            ["--target", "w:63"],
        ],
        ids=["levels-above-cap", "measurements-above-cap", "eps-squared-underflows", "qubits-above-int64"],
    )
    def test_run_too_large_to_simulate_is_data_error(self, argv, tmp_path, capsys):
        # 1e21 levels; 4.4e18 levels (below 2^63) of 9 measurements each; eps^2 delta == 0.0
        assert math.ceil(1 / (1e-10**2 * 0.1)) > 2**63 - 1 > math.ceil(1 / (5e-10**2 * 0.9))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        tracemalloc.start()
        try:
            code = run(["dfe", "--norm", "l1", "--runs", 1, *argv, "--out", out_dir / "dfe"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert list(out_dir.iterdir()) == []
        assert peak < 2**20  # refused before any outcome is drawn

    def test_10_to_the_15_levels_run_in_constant_memory(self, tmp_path):
        out = tmp_path / "dfe"
        tracemalloc.start()
        try:
            code = run(["dfe", "--target", "w:5", "--norm", "l1", "--epsilon", 1e-5, "--delta", 1e-5,
                        "--runs", 1, "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert json.loads((tmp_path / "dfe.jsonl").read_text())["l"] == 10**15
        assert peak < 4 * 2**20

    def test_w_below_three_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["dfe", "--target", "w:2", "--norm", "l1", "--out", tmp_path / "x"])
        assert exc.value.code == 2


class TestIngest:
    def test_prints_stats(self, ratings_file, capsys):
        assert run(["ingest", ratings_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rows: 30" in out
        assert "cols: 120" in out
        assert "nnz:" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n9,9,1\n")
        assert run(["ingest", bad]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["ingest", tmp_path / "nope.csv"]) == EXIT_DATA

    @pytest.mark.parametrize("name, data", [
        ("a.mtx.gz", gzip.compress(b"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 2\n", mtime=0)),
        ("b.csv", b"2,2\n# caf\xe9\n1,1,2\n"),
    ], ids=["gzip", "latin-1-comment"])
    def test_a_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert run(["ingest", path]) == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "not UTF-8 text" in lines[0]

    def test_config_is_a_usage_error(self, ratings_file, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            run(["ingest", ratings_file, "--config", config])
        assert exc.value.code == EXIT_USAGE

    def test_seed_is_accepted(self, ratings_file, capsys):
        assert run(["ingest", ratings_file, "--seed", 4]) == EXIT_OK
        assert "rows: 30" in capsys.readouterr().out


class TestConfigAndEnv:
    def test_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LPSAMPLE_SEED", "123")
        out_env = tmp_path / "env.csv"
        out_flag = tmp_path / "flag.csv"
        base = ["mp-curve", "--dist", "normal:0,1", "--m", 8, "--n", 4, "--trials", 5]
        assert run(base + ["--out", out_env]) == EXIT_OK
        assert run(base + ["--seed", 123, "--out", out_flag]) == EXIT_OK
        assert file_hash(out_env) == file_hash(out_flag)
        assert manifest_of(out_env)["seed"] == 123

    def test_config_defaults_and_flag_precedence(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 7, "m": 8, "seed": 11, "dist": "uniform:-2,2"}))
        out = tmp_path / "cfg.csv"
        assert run(
            ["mp-curve", "--n", 4, "--config", config, "--trials", 9, "--out", out]
        ) == EXIT_OK
        manifest = manifest_of(out)
        assert manifest["params"]["trials"] == 9  # flag wins
        assert manifest["params"]["m"] == 8  # config fills the gap
        assert manifest["params"]["dist"] == "uniform:-2,2"
        assert manifest["seed"] == 11

    def test_missing_dist_everywhere_is_data_error(self, tmp_path, capsys):
        assert run(["mp-curve", "--n", 4, "--out", tmp_path / "x.csv"]) == EXIT_DATA

    def test_ratio_table_full_flag_defaults(self, tmp_path):
        out = tmp_path / "full.csv"
        assert run(
            ["ratio-table", "--dists", "normal:0,1", "--n-list", 2, "--trials", 3,
             "--full", "--seed", 1, "--out", out]
        ) == EXIT_OK
        manifest = manifest_of(out)
        assert manifest["params"]["m"] == 1024  # --full default, trials flag still wins
        assert manifest["params"]["trials"] == 3


# the smallest argv of each command: required flags only, so a config can set the rest
MINIMAL = {
    "mp-curve": ["mp-curve", "--dist", "normal:0,1", "--m", 8, "--n", 4, "--p-grid", "1:2:1"],
    "ratio-table": ["ratio-table", "--dists", "normal:0,1", "--m", 8, "--n-list", 2],
    "inner-product": ["inner-product", "--matrix", MATRIX, "--min-overlap", 30],
    "lincomb": ["lincomb", "--matrix", MATRIX, "--n-users", 2],
    "dfe": ["dfe", "--target", "w:3", "--norm", "l1"],
    "ingest": ["ingest", MATRIX],
}


def minimal_argv(command, ratings_file, out):
    argv = [ratings_file if a is MATRIX else a for a in MINIMAL[command]]
    return argv if command == "ingest" else argv + ["--out", out]


@pytest.mark.parametrize("command", sorted(MINIMAL))
def test_commands_are_looked_up_when_called(command, ratings_file, tmp_path, monkeypatch):
    # per-layer tracing wraps the module attributes cmd_*; a table of function
    # references taken at import time would bypass such a wrapper
    attr = "cmd_" + command.replace("-", "_")
    original = getattr(cli, attr)
    calls = []

    def wrapper(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, attr, wrapper)
    assert run(minimal_argv(command, ratings_file, tmp_path / "out")) == EXIT_OK
    assert calls == [command]


BAD_VALUES = [
    ("mp-curve", "m", 0),
    ("mp-curve", "m", -3),
    ("mp-curve", "p_grid", ","),
    ("mp-curve", "p_grid", "0.5"),
    ("mp-curve", "p_grid", "1,inf"),
    ("mp-curve", "p_grid", "0.5:2:0.5"),
    ("mp-curve", "p_grid", "1:100001:0.1"),
    ("mp-curve", "p_grid", "1:1e300:1e-300"),
    ("mp-curve", "trials", 0),
    ("ratio-table", "m", 0),
    ("ratio-table", "trials", 0),
    ("lincomb", "trials", 0),
    ("lincomb", "samples_per_trial", -1),
    ("inner-product", "pairs", -1),
    ("inner-product", "min_overlap", 0),
    ("inner-product", "min_overlap", -1),
    ("inner-product", "epsilon", 0),
    ("inner-product", "epsilon", 1.5),
    ("inner-product", "delta", 1),
    ("inner-product", "p", 0.5),
    ("inner-product", "p", "nan"),
    ("lincomb", "p", 0.5),
    ("lincomb", "p", "inf"),
    ("dfe", "epsilon", 0),
    ("dfe", "delta", -0.1),
    ("dfe", "runs", 0),
    ("dfe", "runs", -1),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command,dest,value", BAD_VALUES)
def test_bad_count_or_probability_is_rejected(command, dest, value, source, ratings_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = minimal_argv(command, ratings_file, out_dir / "out")
    flag = "--" + dest.replace("_", "-")
    if flag in argv:  # drop the minimal argv's own value, which a config could not override
        del argv[argv.index(flag) : argv.index(flag) + 2]
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, value])
        assert exc.value.code == EXIT_USAGE
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({dest: value}))
        assert run(argv + ["--config", config]) == EXIT_DATA
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and repr(dest) in lines[0]
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize(
    "source,value,code",
    [("flag", -1, EXIT_USAGE), ("flag", "abc", EXIT_USAGE), ("config", -2, EXIT_DATA), ("config", 1.5, EXIT_DATA),
     ("env", "-1", EXIT_DATA), ("env", "abc", EXIT_DATA)],
)
@pytest.mark.parametrize("command", sorted(set(MINIMAL) - {"ingest"}))
def test_bad_seed_is_rejected(command, source, value, code, ratings_file, tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = minimal_argv(command, ratings_file, out_dir / "out")
    if source == "flag":
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", value])
        assert exc.value.code == code
    else:
        if source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"seed": value}))
            argv += ["--config", config]
        else:
            monkeypatch.setenv("LPSAMPLE_SEED", value)
        assert run(argv) == code
        lines = capsys.readouterr().err.strip().splitlines()
        named = "'seed'" if source == "config" else "$LPSAMPLE_SEED"
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]
    assert list(out_dir.iterdir()) == []


def test_p_grid_size_is_bounded_before_the_grid_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError, match=f"more than {cli.MAX_P_GRID} steps"):
            cli._p_grid_arg("1:1e7:1e-3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # 10^10 floats were asked for
    assert len(cli._p_grid_arg(f"1:{1 + cli.MAX_P_GRID}:1")) == cli.MAX_P_GRID + 1


@pytest.mark.parametrize("seed", range(12))
def test_eligible_pairs_match_a_dense_mask_oracle(seed, tmp_path):
    # small matrices full of explicit zeros, -0.0 and cancelling duplicates
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 12)), int(rng.integers(1, 10))
    lines = [f"{m},{n}"]
    for _ in range(int(rng.integers(0, 3 * m * n))):
        value = rng.choice(["0", "-0.0", "1", "-1", "2.5"])
        lines.append(f"{rng.integers(1, m + 1)},{rng.integers(1, n + 1)},{value}")
    path = tmp_path / "z.csv"
    path.write_text("\n".join(lines) + "\n")
    matrix = load_matrix(path)
    for pairs, min_overlap in ((1, 0), (3, 1), (4, 2), (2, n + 1)):
        expected = eligible_pairs_dense(to_dense(matrix), pairs, min_overlap, stream(seed, 1))
        if expected is None or len(expected) < pairs:
            with pytest.raises(DataError):
                cli._eligible_pairs(matrix, pairs, min_overlap, stream(seed, 1))
        else:
            assert cli._eligible_pairs(matrix, pairs, min_overlap, stream(seed, 1)) == expected


# the dense form of this matrix is 800 MB, and the old Bernoulli mask another 900 MB
LARGE_SYNTHETIC = "m=20000,n=5000,density=0.001,dist=uniform:1,5"


@pytest.mark.parametrize("argv", [
    ["inner-product", "--synthetic", LARGE_SYNTHETIC, "--pairs", 3, "--min-overlap", 1],
    ["lincomb", "--synthetic", LARGE_SYNTHETIC, "--n-users", 5, 20, "--trials", 3],
], ids=["inner-product", "lincomb"])
def test_large_sparse_input_runs_in_order_nnz_memory(argv, tmp_path):
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        code = run(argv + ["--seed", 1, "--out", out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert json.loads(out.read_text())["params"]["matrix"]["nnz"] > 90_000
    assert peak < 50 * 2**20


# required flags, which a config cannot set
BAD_FLAGS = [
    ["mp-curve", "--dist", "normal:0,1", "--n", 0],
    ["mp-curve", "--dist", "normal:0,1", "--n", 4, -1],
    ["ratio-table", "--dists", "normal:0,1", "--n-list", 0],
    ["lincomb", "--matrix", MATRIX, "--n-users", 0],
    ["inner-product", "--synthetic", "m=0,n=4,density=0.5,dist=normal:0,1"],
    ["inner-product", "--synthetic", "m=4,n=0,density=0.5,dist=normal:0,1"],
    ["lincomb", "--synthetic", "m=4,n=4,density=0,dist=normal:0,1", "--n-users", 1],
    ["lincomb", "--synthetic", "m=4,n=4,density=1.5,dist=normal:0,1", "--n-users", 1],
    ["inner-product", "--synthetic", "m=100000000000,n=100000000000,density=0.3,dist=normal:0,1"],
    ["inner-product", "--synthetic", f"m=2,n={2**62},density=0.3,dist=normal:0,1"],  # m * n is 2^63
]


@pytest.mark.parametrize(
    "argv",
    BAD_FLAGS,
    ids=["n-0", "n-negative", "n-list-0", "n-users-0", "synthetic-m-0", "synthetic-n-0", "synthetic-density-0",
         "synthetic-density-above-1", "synthetic-size-beyond-int64", "synthetic-size-2-to-the-63"],
)
def test_bad_required_flag_is_usage_error(argv, ratings_file, tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [ratings_file if a is MATRIX else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", out_dir / "out"])
    assert exc.value.code == EXIT_USAGE
    assert list(out_dir.iterdir()) == []


# each asks for more than a 48-bit address space holds, so nothing is allocated
TOO_LARGE = [
    ["inner-product", "--synthetic", "m=30,n=40,density=0.3,dist=normal:0,1", "--pairs", 1, "--min-overlap", 1,
     "--epsilon", 1e-7],
    ["ratio-table", "--dists", "normal:0,1", "--n-list", 2, "--m", 10**16],
    ["lincomb", "--synthetic", "m=5,n=10,density=0.5,dist=uniform:1,5", "--n-users", 1,
     "--samples-per-trial", 10**16],
    ["inner-product", "--synthetic", f"m=7,n={(2**63 - 1) // 7},density=0.3,dist=normal:0,1"],  # the largest m * n
]


@pytest.mark.parametrize("argv", TOO_LARGE, ids=["inner-product-epsilon", "ratio-table-m", "lincomb-samples",
                                                 "synthetic-nonzeros"])
def test_request_too_large_for_memory_is_data_error(argv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run(argv + ["--out", out_dir / "out"]) == EXIT_DATA
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("source", [[], ["--matrix", MATRIX, "--synthetic", "m=4,n=4,density=0.5,dist=normal:0,1"]])
def test_matrix_source_is_exactly_one_of_matrix_or_synthetic(source, ratings_file, tmp_path):
    argv = [ratings_file if a is MATRIX else a for a in source]
    with pytest.raises(SystemExit) as exc:
        run(["inner-product", *argv, "--out", tmp_path / "ip.json"])
    assert exc.value.code == EXIT_USAGE


class TestConfigValuesTakeEffect:
    def write_config(self, tmp_path, **values):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        return path

    def test_mp_curve_p_grid(self, ratings_file, tmp_path):
        config = self.write_config(tmp_path, p_grid="1:2:0.5")
        argv = ["mp-curve", "--dist", "normal:0,1", "--m", 8, "--n", 4, "--trials", 2, "--config", config]
        for extra, grid in (([], [1.0, 1.5, 2.0]), (["--p-grid", "2:2:1"], [2.0])):
            out = tmp_path / "curve.csv"
            assert run(argv + extra + ["--out", out]) == EXIT_OK
            with open(out) as handle:
                assert [float(row["p"]) for row in csv.DictReader(handle)] == grid
            assert manifest_of(out)["params"]["p_grid"] == grid

    def test_lincomb_p(self, ratings_file, tmp_path):
        config = self.write_config(tmp_path, p=[2])
        argv = ["lincomb", "--matrix", ratings_file, "--n-users", 2, "--trials", 2, "--config", config]
        for extra, ps in (([], [2.0]), (["--p", 1, 3], [1.0, 3.0])):
            out = tmp_path / "lc.json"
            assert run(argv + extra + ["--out", out]) == EXIT_OK
            assert [r["p"] for r in json.loads(out.read_text())["results"]] == ps
            assert manifest_of(out)["params"]["p"] == ps

    def test_dfe_noise(self, tmp_path):
        config = self.write_config(tmp_path, noise="depolarizing:0.5")
        argv = ["dfe", "--target", "w:3", "--norm", "l1", "--runs", 1, "--config", config]
        for extra, fidelity, text in (([], 0.5 + 0.5 / 8, "depolarizing:0.5"), (["--noise", "none"], 1.0, "none")):
            out = tmp_path / "dfe"
            assert run(argv + extra + ["--out", out]) == EXIT_OK
            summary = json.loads((tmp_path / "dfe.summary.json").read_text())
            assert summary["true_fidelity"] == pytest.approx(fidelity)
            assert manifest_of(out)["params"]["noise"] == text

    def test_ratio_table_full_switch(self, tmp_path, capsys):
        argv = ["ratio-table", "--dists", "normal:0,1", "--n-list", 2, "--trials", 2, "--out", tmp_path / "t.csv"]
        assert run(argv + ["--config", self.write_config(tmp_path, full=True)]) == EXIT_OK
        assert manifest_of(tmp_path / "t.csv")["params"]["m"] == 1024
        assert run(argv + ["--config", self.write_config(tmp_path, full="no")]) == EXIT_DATA
        assert "'full'" in capsys.readouterr().err

    def test_manifest_names_the_input_source(self, ratings_file, tmp_path):
        out = tmp_path / "ip.json"
        assert run(["inner-product", "--matrix", ratings_file, "--pairs", 0, "--out", out]) == EXIT_OK
        params = manifest_of(out)["params"]
        assert params["matrix"] == str(ratings_file) and params["synthetic"] is None
        spec = "m=40,n=200,density=0.5,dist=uniform:1,5"
        assert run(["lincomb", "--synthetic", spec, "--n-users", 2, "--trials", 1, "--out", out]) == EXIT_OK
        params = manifest_of(out)["params"]
        assert params["matrix"] is None
        assert params["synthetic"] == {"m": 40, "n": 200, "density": 0.5, "dist": "uniform:1,5"}


def test_failing_command_writes_no_file(tmp_path, monkeypatch):
    real_run_dfe = cli.run_dfe
    calls = []

    def run_dfe_then_fail(*args):
        calls.append(1)
        if len(calls) == 2:
            raise DataError("second run fails")
        return real_run_dfe(*args)

    monkeypatch.setattr(cli, "run_dfe", run_dfe_then_fail)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run(["dfe", "--target", "w:3", "--norm", "l1", "--runs", 3, "--out", out_dir / "dfe"])
    assert code == EXIT_DATA
    assert list(out_dir.iterdir()) == []
