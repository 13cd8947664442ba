"""CLI behavior: exit codes, reproducibility, config merging, output files."""

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fls.cli import _COMMANDS, _build_parser, _resolve_options, main
from test_acceptance import BENCH_KWARGS


def run(argv):
    return main(list(argv))


# random landmarks, sigma auto, affine flats on the raw points and one
# k-means restart, as --config keys and as flags: the setting the cluster
# cases below run, named since the defaults are the reference configuration
RANDOM_AFFINE_CONFIG = {
    "method": "random",
    "sigma": "auto",
    "linear": False,
    "drop_first": False,
    "normalize_sphere": False,
    "restarts": 1,
}
RANDOM_AFFINE_FLAGS = [
    "--method", "random",
    "--sigma", "auto",
    "--no-linear",
    "--no-drop-first",
    "--no-normalize-sphere",
    "--restarts", "1",
]


def gen_args(out_dir, seed=5, pts=6):
    return [
        "gen",
        "--dims", "1,1",
        "--ambient", "3",
        "--pts", str(pts),
        "--out", str(out_dir),
        "--seed", str(seed),
    ]


@pytest.fixture
def data_dir(tmp_path):
    out = tmp_path / "data"
    assert run(gen_args(out, seed=5, pts=10)) == 0
    return out


class TestGen:
    def test_byte_identical_for_same_seed(self, tmp_path):
        assert run(gen_args(tmp_path / "a")) == 0
        assert run(gen_args(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "points.csv").read_bytes()
        b = (tmp_path / "b" / "points.csv").read_bytes()
        assert a == b
        ja = (tmp_path / "a" / "model.json").read_bytes()
        jb = (tmp_path / "b" / "model.json").read_bytes()
        assert ja == jb

    def test_different_seed_differs(self, tmp_path):
        assert run(gen_args(tmp_path / "a", seed=5)) == 0
        assert run(gen_args(tmp_path / "b", seed=6)) == 0
        a = (tmp_path / "a" / "points.csv").read_bytes()
        b = (tmp_path / "b" / "points.csv").read_bytes()
        assert a != b

    def test_model_json_records_inputs(self, tmp_path):
        assert run(gen_args(tmp_path / "a", seed=9)) == 0
        doc = json.loads((tmp_path / "a" / "model.json").read_text())
        assert doc["dims"] == [1, 1]
        assert doc["ambient"] == 3
        assert doc["seed"] == 9

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        rc = run(["gen", "--dims", "1,1", "--ambient", "3"])  # no --out
        assert rc == 2
        assert "--out is required" in capsys.readouterr().err

    def test_bad_dims_is_usage_error(self, tmp_path):
        rc = run(["gen", "--dims", "1,x", "--ambient", "3", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestCluster:
    def base_args(self, data_dir):
        return [
            "cluster",
            "--in", str(data_dir / "points.csv"),
            "--k", "2",
            "--d", "1",
            "--landmarks", "8",
            "--seed", "3",
            *RANDOM_AFFINE_FLAGS,
        ]

    def test_end_to_end_json_stdout(self, data_dir, capsys):
        capsys.readouterr()  # drop the gen fixture's status line
        for sigma in ("auto", "0.3"):
            rc = run(self.base_args(data_dir) + ["--sigma", sigma])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            assert len(doc["labels"]) == 20
            assert set(doc["labels"]) == {0, 1}
            assert doc["config"]["k"] == 2
            assert doc["config"]["seed"] == 3
            assert len(doc["singular_values"]) == 2
            assert set(doc["timings"]) == {
                "landmarks", "flats", "sigma", "embed", "svd", "kmeans"
            }
            # the result's own record of sigma and the ladder repeats the config's
            assert doc["sigma"] == doc["config"]["sigma"]
            assert doc["ladder"] == [doc["config"]["neighbors"], doc["config"]["scales"]]

    def test_out_file_and_embedding_csv(self, data_dir, tmp_path, capsys):
        out = tmp_path / "result.json"
        emb = tmp_path / "embedding.csv"
        capsys.readouterr()
        rc = run(
            self.base_args(data_dir)
            + ["--out", str(out), "--embedding-csv", str(emb)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert len(doc["labels"]) == 20
        rows = emb.read_text().strip().splitlines()
        assert len(rows) == 21  # header + one row per point
        assert len(rows[1].split(",")) == 2

    def test_deterministic_output(self, data_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(self.base_args(data_dir) + ["--out", str(a)]) == 0
        assert run(self.base_args(data_dir) + ["--out", str(b)]) == 0
        da = json.loads(a.read_text())
        db = json.loads(b.read_text())
        assert da["labels"] == db["labels"]
        assert da["singular_values"] == db["singular_values"]

    def test_sigma_auto_reports_resolved_number(self, data_dir, capsys):
        capsys.readouterr()
        assert run(self.base_args(data_dir) + ["--sigma", "auto"]) == 0
        sigma = json.loads(capsys.readouterr().out)["config"]["sigma"]
        assert isinstance(sigma, float) and sigma >= 1e-6

    def test_config_block_states_linear_and_ladder(self, data_dir, capsys):
        capsys.readouterr()
        assert run(self.base_args(data_dir)) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        # n = 20, d = 1: S = 2 (d + 1) = 4, T = ceil(log2(20 / 4)) + 1 = 4
        assert (config["linear"], config["neighbors"], config["scales"]) == (False, 4, 4)
        flags = ["--linear", "--neighbors", "3", "--scales", "2"]
        assert run(self.base_args(data_dir) + flags) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["linear"], config["neighbors"], config["scales"]) == (True, 3, 2)

    def test_sigma_zero_is_usage_error(self, data_dir, capsys):
        rc = run(self.base_args(data_dir) + ["--sigma", "0"])
        assert rc == 2
        assert "sigma" in capsys.readouterr().err

    def test_k_exceeding_n_is_pipeline_error(self, data_dir, capsys):
        args = self.base_args(data_dir)
        args[args.index("--k") + 1] = "40"
        rc = run(args)
        assert rc == 3
        assert "40" in capsys.readouterr().err

    def test_drop_first_with_one_cluster_is_usage_error(self, data_dir, capsys):
        # a usage error, refused before any stage runs
        args = self.base_args(data_dir)
        args[args.index("--k") + 1] = "1"
        assert run(args + ["--drop-first"]) == 2
        err = capsys.readouterr().err
        assert "drop_first" in err and "stage" not in err

    def test_one_cluster_needs_no_drop_first(self, data_dir, capsys):
        # drop-first is a default, so one cluster asks for its --no- form by name
        args = ["cluster", "--in", str(data_dir / "points.csv"), "--k", "1", "--d", "1"]
        args += ["--landmarks", "8"]
        capsys.readouterr()
        assert run(args) == 2
        assert "--no-drop-first" in capsys.readouterr().err
        assert run(args + ["--no-drop-first"]) == 0
        assert json.loads(capsys.readouterr().out)["labels"] == [0] * 20

    def test_defaults_hold_rate_on_five_planes(self, tmp_path, capsys):
        # `cluster --k 5 --d 2` and nothing else, five 2-planes in R^10 with
        # 5 % outliers at n = 10 500: random landmarks, sigma auto and
        # affine flats rated a median of 0.921 here
        from fls.datagen import load_csv
        from fls.evaluation import clustering_rate

        rates = []
        for seed in range(5):
            out = tmp_path / f"data{seed}"
            gen = ["gen", "--dims", "2,2,2,2,2", "--ambient", "10", "--pts", "2000"]
            assert run(gen + ["--outliers", "0.05", "--out", str(out), "--seed", str(seed)]) == 0
            points = str(out / "points.csv")
            capsys.readouterr()
            cluster = ["cluster", "--in", points, "--k", "5", "--d", "2"]
            assert run(cluster + ["--seed", str(seed)]) == 0
            labels = json.loads(capsys.readouterr().out)["labels"]
            truth = load_csv(points)
            assert truth.n == 10_500
            rates.append(clustering_rate(labels, truth.labels, truth.outlier_mask).rate)
        rates.sort()
        assert rates[2] >= 0.97 and rates[0] >= 0.94, rates

    def test_flat_of_the_data_dimension_is_usage_error(self, tmp_path, capsys):
        # --d 6 on points in R^6: refused before any stage runs
        out = tmp_path / "r6"
        gen = ["gen", "--dims", "2,2", "--ambient", "6", "--pts", "30", "--out", str(out)]
        assert run(gen) == 0
        capsys.readouterr()
        for sigma in ("auto", "0.3"):
            args = ["cluster", "--in", str(out / "points.csv"), "--k", "2", "--d", "6"]
            assert run(args + ["--landmarks", "20", *RANDOM_AFFINE_FLAGS, "--sigma", sigma]) == 2
            assert "flat_dim=6" in capsys.readouterr().err

    def test_missing_input_file_is_runtime_error(self, tmp_path):
        rc = run(["cluster", "--in", str(tmp_path / "nope.csv"), "--k", "2", "--d", "1"])
        assert rc == 3

    def test_bad_method_choice_is_usage_error(self, data_dir):
        assert run(self.base_args(data_dir) + ["--method", "bogus"]) == 2
        # one SVD path, and no flag to choose it
        assert run(self.base_args(data_dir) + ["--svd", "gram"]) == 2


class TestConfigFile:
    def test_config_supplies_options(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = {"k": 2, "d": 1, "landmarks": 8, "seed": 3, **RANDOM_AFFINE_CONFIG}
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run(["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["k"] == 2
        assert doc["config"]["landmarks"] == 8

    def test_explicit_flag_overrides_config(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # config asks for an impossible k; the flag must win
        doc = {"k": 40, "d": 1, "landmarks": 8, "seed": 3, **RANDOM_AFFINE_CONFIG}
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run(
            ["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg), "--k", "2"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["config"]["k"] == 2

    def test_in_key_accepted(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = {"in": str(data_dir / "points.csv"), "k": 2, "d": 1, "landmarks": 8, "seed": 3}
        doc.update(RANDOM_AFFINE_CONFIG)
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["cluster", "--config", str(cfg)]) == 0
        assert len(json.loads(capsys.readouterr().out)["labels"]) == 20

    @pytest.mark.parametrize("sigma", ["auto", "0.3"])
    def test_result_config_block_round_trips(self, data_dir, tmp_path, sigma):
        # the config block of a cluster run, fed back as --config with the
        # same --in, repeats the run: the resolved sigma and ladder included
        points = str(data_dir / "points.csv")
        first, again, cfg = (tmp_path / name for name in ("first.json", "again.json", "cfg.json"))
        flags = ["--k", "2", "--d", "1", "--landmarks", "8", "--seed", "3", "--drop-first"]
        flags += ["--method", "random", "--no-linear", "--no-normalize-sphere", "--restarts", "1"]
        assert run(["cluster", "--in", points, "--sigma", sigma, "--out", str(first)] + flags) == 0
        doc = json.loads(first.read_text())
        cfg.write_text(json.dumps(doc["config"]))
        assert run(["cluster", "--in", points, "--config", str(cfg), "--out", str(again)]) == 0
        redo = json.loads(again.read_text())
        for key in ("labels", "singular_values", "config"):
            assert redo[key] == doc[key], key

    @pytest.mark.parametrize(
        "key, value",
        [
            ("linear", "false"),  # a string, not a JSON boolean
            ("seed", "abc"),
            ("k", "two"),
            ("restarts", 2.7),  # not an integer
            ("method", "bogus"),
        ],
    )
    def test_config_value_parsed_like_its_flag(self, data_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "d": 1, "landmarks": 8, "seed": 3, key: value}))
        rc = run(["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg)])
        assert rc == 2
        assert f"--{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, flag",
        [
            ("linear", "false", "--no-linear"),
            ("seed", "abc", "--seed"),
            ("k", "two", "--k"),
            ("restarts", 2.7, "--restarts"),
            ("method", "bogus", "--method"),
        ],
    )
    def test_config_value_checked_under_its_flag(
        self, data_dir, tmp_path, capsys, key, value, flag
    ):
        # a malformed value exits 2 even where a flag overrides it: every
        # flag below is given, in RANDOM_AFFINE_FLAGS or beside them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "d": 1, "landmarks": 8, "seed": 3, key: value}))
        argv = ["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg)]
        argv += ["--k", "2", "--seed", "3", *RANDOM_AFFINE_FLAGS]
        assert flag in argv
        capsys.readouterr()
        assert run(argv) == 2
        assert f"config key {key!r} sets --{key} to {value!r}" in capsys.readouterr().err

    def test_config_list_value_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [1, 1], "ambient": 3, "pts": 6, "seed": 5}))
        assert run(["gen", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert run(gen_args(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "points.csv").read_bytes()
        assert a == (tmp_path / "b" / "points.csv").read_bytes()

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "d": 1, "bandwidth": 0.5}))
        rc = run(["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg)])
        assert rc == 2
        assert "bandwidth" in capsys.readouterr().err

    def test_config_not_json_rejected(self, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        rc = run(["cluster", "--in", str(data_dir / "points.csv"), "--config", str(cfg)])
        assert rc == 2

    def test_config_missing_file_rejected(self, data_dir, tmp_path):
        rc = run(
            [
                "cluster",
                "--in", str(data_dir / "points.csv"),
                "--config", str(tmp_path / "absent.json"),
            ]
        )
        assert rc == 2


class TestBench:
    def suite_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps([{"dims": [1, 1], "ambient": 3, "pts_per_subspace": 8}])
        )
        return path

    def test_custom_suite_json_report(self, tmp_path, capsys):
        rc = run(
            [
                "bench",
                "--suite", str(self.suite_file(tmp_path)),
                "--trials", "1",
                "--landmarks", "6",
                "--format", "json",
                "--seed", "0",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 1
        assert len(doc["models"]) == 1
        row = doc["models"][0]
        assert row["model"] == "(1,1) in R^3"
        assert len(row["rates"]) == 1
        assert 0.0 <= row["mean_rate"] <= 1.0

    def test_per_trial_csv(self, tmp_path, capsys):
        per = tmp_path / "per.csv"
        rc = run(
            [
                "bench",
                "--suite", str(self.suite_file(tmp_path)),
                "--trials", "2",
                "--landmarks", "6",
                "--per-trial", str(per),
                "--seed", "0",
            ]
        )
        assert rc == 0
        with open(per, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "trial", "rate", "time_s", "failure"]
        assert len(rows) == 3
        # the label's comma must survive as one field
        assert [r[0] for r in rows[1:]] == ["(1,1) in R^3"] * 2
        assert [r[1] for r in rows[1:]] == ["0", "1"]
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])
        assert [r[4] for r in rows[1:]] == ["", ""]

    def test_failed_trial_is_reported_and_suite_goes_on(self, tmp_path, capsys):
        # without sphere normalization one synthetic5 trial's kernel has a
        # point of zero degree, so its svd stage fails
        per = tmp_path / "per.csv"
        rc = run(
            [
                "bench",
                "--suite", "synthetic5",
                "--trials", "1",
                "--landmarks", "30",
                "--no-normalize-sphere",
                "--seed", "2",
                "--format", "json",
                "--per-trial", str(per),
            ]
        )
        assert rc == 0
        models = json.loads(capsys.readouterr().out)["models"]
        assert len(models) == 4
        failed = [m for m in models if m["failures"]]
        assert failed
        for m in failed:
            assert m["rates"] == [] and m["mean_rate"] is None
            assert m["failures"][0]["trial"] == 0
            assert m["failures"][0]["stage"] == "svd"
            assert "degree" in m["failures"][0]["message"]
        completed = [m for m in models if not m["failures"]]
        assert completed
        assert all(0.0 <= m["mean_rate"] <= 1.0 for m in completed)
        with open(per, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 4
        assert sum(r[2] == "" and r[4].startswith("stage 'svd'") for r in rows) == len(failed)

    def test_csv_format(self, tmp_path, capsys):
        rc = run(
            [
                "bench",
                "--suite", str(self.suite_file(tmp_path)),
                "--trials", "1",
                "--landmarks", "6",
                "--format", "csv",
                "--seed", "0",
            ]
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["model", "mean_rate", "mean_time_s", "failed"]
        assert rows[1][0] == "(1,1) in R^3"
        assert 0.0 <= float(rows[1][1]) <= 1.0
        assert rows[1][3] == "0"

    def test_csv_format_counts_failed_trials(self, capsys):
        # the synthetic5 run of test_failed_trial_is_reported_and_suite_goes_on
        rc = run(
            [
                "bench",
                "--suite", "synthetic5",
                "--trials", "1",
                "--landmarks", "30",
                "--no-normalize-sphere",
                "--seed", "2",
                "--format", "csv",
            ]
        )
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        failed = [r for r in rows if r["failed"] == "1"]
        assert failed
        assert all(r["mean_rate"] == "nan" for r in failed)
        for r in rows:
            if r not in failed:
                assert r["failed"] == "0" and 0.0 <= float(r["mean_rate"]) <= 1.0

    def test_unknown_suite_is_usage_error(self, capsys):
        rc = run(["bench", "--suite", "nonsense-name", "--trials", "1"])
        assert rc == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [1],
            [{"dims": 2, "ambient": 6}],
            [{"dims": [2], "ambient": "six"}],
            [{"dims": [2], "ambient": 6, "pts_per_subspace": None}],
            [{"dims": [1, 1], "ambient": 3.7}],
            [{"dims": [1.5, 1], "ambient": 3}],
            [{"dims": [1, 1], "ambient": 3, "pts_per_subspace": 30.9}],
            [{"dims": [1, 1], "ambient": 3, "outlier_ration": 0.1}],
            [{"ambient": 3}],
            [{"dims": [1, 1], "ambient": 3, "noise_sigma": float("nan")}],
        ],
    )
    def test_malformed_suite_entry_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([{"dims": [1, 1], "ambient": 3}] + doc))
        rc = run(["bench", "--suite", str(path), "--trials", "1"])
        assert rc == 2
        assert "suite model 1" in capsys.readouterr().err

    def test_negative_trials_is_usage_error(self, tmp_path):
        rc = run(["bench", "--suite", str(self.suite_file(tmp_path)), "--trials", "-1"])
        assert rc == 2

    def test_zero_trials_empty_report(self, tmp_path, capsys):
        rc = run(
            [
                "bench",
                "--suite", str(self.suite_file(tmp_path)),
                "--trials", "0",
                "--format", "json",
            ]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["models"] == []


# SHA-256 of each verify report on 2 BLAS threads, json then table: a
# change that moves a report's bytes updates its pin and says why
VERIFY_REPORTS = {
    "kernel --family subspace": (
        "7e055388bbbd2e30a5ef402a618ce7a7e0cb6a45cb9f780d67271544148457b8",
        "2e8c8bbafdeaf023871c92d2e35f3bac67e656477a33418dd1e83ea2baa558a1",
    ),
    "kernel --family landmark": (
        "f3a9872bcb62d51dbe0289f58a7ee3169255c1a30cfbe6e873ff2f24e25e77cf",
        "6d3a221ebca4c6205fa43f14e7ee46a5bf14c1e7d56032306ac54c438d48c99e",
    ),
    "kernel --family rff --eps 0.1,0.2 --hoeffding-reps 50": (
        "3abe433dee25892c0993ff644af3800f615de40542d1bec0b1f0b77265c87320",
        "c30047bcd67eb5278bc1278c91ed51130a5170f4de427aab11bae7915d387e9a",
    ),
    "perturbation --repeats 2": (
        "ecd5c693354755252b68a6985e16d1db00f56718cd78791400c46f0c5393dae7",
        "58b6507fbf79e99c0cf50753ab112b0e5851783a0b0c32f89afb96eabb8f23cc",
    ),
    "eigvec --seed 1": (
        "418de56d7bd68335edd9983ae480bfb60a212c2c510116e98374097c2564cedf",
        "4c97ae349a7000fe1c60708013f4a967f2570b221039c32b868b6b10b206449a",
    ),
    "eigvec --seed 3 --repeats 2": (
        "a177a4b93fc54858efe35b23ebb97361a65f8007a66433b26f06ea6dc2c803ff",
        "8645d66b4efc4dc07e54ddf2682480cf6c2fb780d1f046ddabbb8beaed3bfc44",
    ),
    "rotation --pairs 10 --count 2000 --flat-dim 2": (
        "7379b47defd74593b8ad2300af6832ad285336067b70cd8c8c984f3fa803e123",
        "7da1e7ae07faaee91f5bd41803bb3663d581d49a0703e74e743c93089b34cbc9",
    ),
}


class TestVerifyCommands:
    def test_kernel_smoke_json(self, capsys):
        rc = run(
            [
                "verify", "kernel",
                "--family", "rff",
                "--counts", "50,100",
                "--reps", "2",
                "--grid-points", "15",
                "--seed", "0",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["count"] for d in doc["decay"]] == [50, 100]
        assert all(d["median_max_error"] > 0 for d in doc["decay"])

    def test_kernel_eps_requires_rff(self, capsys, monkeypatch):
        # refused before the convergence study runs
        def fail(*args, **kwargs):
            raise AssertionError("verify_kernel_convergence ran before the usage check")

        monkeypatch.setattr("fls.evaluation.verify_kernel_convergence", fail)
        rc = run(
            [
                "verify", "kernel",
                "--family", "subspace",
                "--counts", "50",
                "--reps", "1",
                "--grid-points", "8",
                "--eps", "0.1",
                "--seed", "0",
            ]
        )
        assert rc == 2

    def test_kernel_eps_zero_is_usage_error(self, capsys):
        # at eps = 0 the bound is 2, so every tail check passed vacuously
        small = ["--counts", "20", "--reps", "1", "--grid-points", "5", "--hoeffding-reps", "2"]
        assert run(["verify", "kernel", *small, "--eps", "0", "--seed", "0"]) == 2
        assert "eps" in capsys.readouterr().err

    def test_rotation_smoke(self, capsys):
        rc = run(
            [
                "verify", "rotation",
                "--pairs", "4",
                "--count", "2000",
                "--seed", "1",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["pairs"]) == 4
        assert 0.0 <= doc["fraction_within"] <= 1.0

    def test_eigvec_smoke(self, capsys):
        rc = run(
            [
                "verify", "eigvec",
                "--n", "30",
                "--dims", "1,1",
                "--ambient", "3",
                "--counts", "50,400",
                "--ref-count", "4000",
                "--sigma", "0.5",
                "--flat-dim", "1",
                "--seed", "0",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1 and len(doc[0]) == 2
        assert doc[0][0]["eigengap"] > 0

    def test_eigvec_readme_example_reports(self, capsys):
        # the README's verify eigvec line, flags as printed, exits 0 with a
        # report (a reference eigengap below 1e-3 exits 3 by design)
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            line = next(row for row in fh if row.startswith("fls verify eigvec "))
        argv = line.split("#")[0].split()[1:]
        assert argv == [
            "verify", "eigvec", "--counts", "100,400,1600", "--ref-count", "50000", "--seed", "1"
        ]
        assert run(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split() == ["count", "eigvec_l2_error", "eigengap"]
        assert [row.split()[0] for row in rows[1:]] == ["100", "400", "1600"]

    def test_perturbation_smoke(self, capsys):
        rc = run(
            [
                "verify", "perturbation",
                "--n", "30",
                "--dims", "1,1",
                "--ambient", "3",
                "--count", "200",
                "--ref-count", "4000",
                "--sigma", "0.5",
                "--flat-dim", "1",
                "--seed", "0",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1
        assert doc[0]["bounds_hold"] is True

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["rotation", "--pairs", "0"], "n_pairs"),
            (["rotation", "--count", "1"], "count"),
            (["kernel", "--reps", "0"], "reps"),
            (["kernel", "--hoeffding-reps", "0", "--eps", "0.1"], "reps"),
            (["kernel", "--grid-points", "0"], "point"),
        ],
        ids=[
            "rotation-pairs-0",
            "rotation-count-1",
            "kernel-reps-0",
            "kernel-hoeffding-reps-0",
            "kernel-grid-points-0",
        ],
    )
    def test_unusable_count_is_usage_error(self, capsys, argv, name):
        small = ["--counts", "20", "--grid-points", "5"] if argv[0] == "kernel" else []
        rc = run(["verify", *argv[:1], *small, *argv[1:], "--seed", "0", "--format", "json"])
        assert rc == 2
        assert name in capsys.readouterr().err

    def test_rotation_flat_of_the_ambient_dimension_is_usage_error(self, capsys):
        argv = ["verify", "rotation", "--dim", "3", "--flat-dim", "3", "--pairs", "1"]
        assert run([*argv, "--count", "50"]) == 2
        assert "flat_dim=3 not in [1, 2]" in capsys.readouterr().err

    @pytest.mark.threads
    def test_reports_keep_their_bytes_on_two_threads(self, tmp_path):
        # every report of VERIFY_REPORTS in both formats, written by one
        # fresh process on 2 BLAS threads, hashes to its pinned value
        jobs = [
            (f"{i}.{fmt}", ["verify", *args.split(), "--format", fmt])
            for i, args in enumerate(VERIFY_REPORTS)
            for fmt in ("json", "table")
        ]
        script = (
            "import sys\n"
            "from fls.cli import main\n"
            f"for name, argv in {jobs!r}:\n"
            "    assert main([*argv, '--out', sys.argv[1] + '/' + name]) == 0, argv\n"
        )
        env = dict(subprocess_env(), OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        for i, (args, pinned) in enumerate(VERIFY_REPORTS.items()):
            got = tuple(
                hashlib.sha256((tmp_path / f"{i}.{fmt}").read_bytes()).hexdigest()
                for fmt in ("json", "table")
            )
            assert got == pinned, args

    def test_missing_verify_subcommand(self):
        rc = run(["verify"])
        assert rc == 2


class TestEnvAndThreads:
    def test_fls_seed_env_matches_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLS_SEED", "5")
        assert run(gen_args(tmp_path / "env")[:-2]) == 0  # strip --seed 5
        monkeypatch.delenv("FLS_SEED")
        assert run(gen_args(tmp_path / "flag", seed=5)) == 0
        a = (tmp_path / "env" / "points.csv").read_bytes()
        b = (tmp_path / "flag" / "points.csv").read_bytes()
        assert a == b

    def test_fls_seed_env_must_be_int(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FLS_SEED", "abc")
        rc = run(gen_args(tmp_path / "x")[:-2])  # strip --seed 5
        assert rc == 2
        assert "FLS_SEED" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, data_dir, tmp_path, monkeypatch, capsys):
        # an int that numpy's SeedSequence refuses: a named error, not its traceback
        args = TestCluster().base_args(data_dir)
        args[args.index("--seed") + 1] = "-1"
        capsys.readouterr()
        assert run(args) == 2
        assert "seed -1" in capsys.readouterr().err
        monkeypatch.setenv("FLS_SEED", "-3")
        assert run(gen_args(tmp_path / "x")[:-2]) == 2  # strip --seed 5
        assert "seed -3" in capsys.readouterr().err

    def test_threads_zero_is_usage_error(self, capsys):
        rc = run(["bench", "--suite", "synthetic5", "--trials", "0", "--threads", "0"])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err

    def test_threads_env_invalid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLS_THREADS", "many")
        rc = run(gen_args(tmp_path / "x"))
        assert rc == 2

    def test_threads_flag_sets_blas_env(self, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("FLS_THREADS", "2")
        assert run(gen_args(tmp_path / "x")) == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)

    def test_threads_flag_warns_once_numpy_is_loaded(self, tmp_path, monkeypatch, capsys):
        # numpy sized its BLAS pools when this process loaded it, so here
        # the flag only warns; a fresh process sets it before numpy loads
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "2")  # restored after the test
        assert "numpy" in sys.modules
        capsys.readouterr()
        assert run(gen_args(tmp_path / "x") + ["--threads", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1
        assert "--threads 1 cannot take effect in this process" in err
        proc = subprocess.run(
            [sys.executable, "-m", "fls.cli", *gen_args(tmp_path / "y"), "--threads", "1"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.threads
    def test_cluster_output_independent_of_threads(self, tmp_path):
        # one five-plane CSV (21 000 points) clustered in two processes,
        # one and two BLAS threads: labels, spectrum and sigma agree exactly
        assert run(
            [
                "gen",
                "--dims", "2,2,2,2,2",
                "--ambient", "10",
                "--pts", "4000",
                "--outliers", "0.05",
                "--out", str(tmp_path / "data"),
                "--seed", "3",
            ]
        ) == 0
        docs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "fls.cli", "cluster",
                    "--in", str(tmp_path / "data" / "points.csv"),
                    "--k", "5",
                    "--d", "2",
                    "--landmarks", "200",
                    "--method", "kmeans",
                    "--sigma", "auto",
                    "--linear",
                    "--drop-first",
                    "--normalize-sphere",
                    "--restarts", "1",
                    "--threads", threads,
                    "--out", str(out),
                ],
                capture_output=True,
                text=True,
                env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            docs.append(json.loads(out.read_text()))
        one, two = docs
        assert one["n_points"] == 21_000
        assert one["labels"] == two["labels"]
        assert one["singular_values"] == two["singular_values"]
        assert one["config"]["sigma"] == two["config"]["sigma"]


class TestOptionTable:
    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_subcommand_help_lists_every_option(self, capsys, name):
        assert run([*name.split(), "--help"]) == 0
        out = capsys.readouterr().out
        for opt in _COMMANDS[name].options:
            assert opt.flag in out
        assert "--config" in out

    def test_bench_defaults_are_the_reference_configuration(self, monkeypatch):
        # one configuration is the default of every entry point, and the
        # benchmark's fixed settings restate it
        import fls.evaluation
        from fls.cluster import fls_cluster
        from fls.landmarks import LandmarkConfig

        def resolved(argv):
            opts = _resolve_options(_build_parser().parse_args(argv))
            names = {"landmarks": "n_landmarks", "restarts": "kmeans_restarts"}
            return {names.get(key, key): value for key, value in opts.items()}

        def reference(settings, keys=BENCH_KWARGS):
            return {key: settings[key] for key in keys}

        cluster = ["cluster", "--in", "points.csv", "--k", "2", "--d", "1"]
        assert reference(resolved(cluster)) == BENCH_KWARGS
        assert reference(resolved(["bench"])) == BENCH_KWARGS
        library = {f.name: f.default for f in dataclasses.fields(LandmarkConfig)}
        library.update((k, p.default) for k, p in inspect.signature(fls_cluster).parameters.items())
        # a LandmarkConfig is given its n_landmarks
        given = [key for key in BENCH_KWARGS if key != "n_landmarks"]
        assert reference(library, given) == reference(BENCH_KWARGS, given)
        suite = inspect.signature(fls.evaluation.benchmark_suite).parameters
        assert reference({key: suite[key].default for key in BENCH_KWARGS}) == BENCH_KWARGS
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import replay
        import workloads

        flags = workloads.Settings(k=2, d=1, landmarks=8, method="random", sigma=None).cli_flags()
        fixed = ("linear", "drop_first", "normalize_sphere", "kmeans_restarts")
        assert reference(resolved(cluster + flags), fixed) == reference(BENCH_KWARGS, fixed)
        assert replay.RESTARTS == BENCH_KWARGS["kmeans_restarts"]

        calls = []

        def fake_suite(models, **kwargs):
            calls.append(kwargs)
            return []

        monkeypatch.setattr(fls.evaluation, "benchmark_suite", fake_suite)
        assert run(["bench", "--trials", "0", "--format", "json"]) == 0
        assert {key: calls[0][key] for key in BENCH_KWARGS} == BENCH_KWARGS


def subprocess_env():
    """The environment, with the directory this process imported fls from on PYTHONPATH."""
    import fls

    src = os.path.dirname(os.path.dirname(fls.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


class TestReadme:
    def test_library_quickstart_runs(self):
        # both python blocks of the README's Library quickstart, as printed
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
        assert len(blocks) == 2
        clustered, kernel = {}, {}
        exec(blocks[0], clustered)
        exec(blocks[1], kernel)
        assert clustered["report"].rate >= 0.99
        assert abs(kernel["k_hat"] - kernel["k"]) < 0.05


class TestEntryPoint:
    def test_every_export_resolves(self):
        # each lazily exported name must exist in the module it is listed under
        import fls

        for name in fls.__all__:
            value = getattr(fls, name) if name == "__version__" else fls.__getattr__(name)
            assert value is not None, name

    def test_console_script_runs(self, tmp_path):
        out = tmp_path / "d"
        proc = subprocess.run(
            [sys.executable, "-m", "fls.cli"] + gen_args(out),
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert (out / "points.csv").exists()
        assert "wrote 12 points" in proc.stdout

    def test_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fls.cli", "--help"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "bench" in proc.stdout
