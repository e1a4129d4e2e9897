import csv
import hashlib
import json

import numpy as np
import pytest

from lpsample.cli import EXIT_DATA, EXIT_OK, main


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
