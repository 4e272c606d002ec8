import csv
import json

import numpy as np
import pytest

from dynfuse.cli import main
from dynfuse.ingest import write_matrix
from dynfuse.synth import SynthSpec


def tiny_spec_dict(**overrides):
    spec = dict(
        n_techniques=3, queries=12, database_size=40,
        peak_strength=1.0, alias_strength=0.4, noise_sigma=0.0,
        r_window=1, seed=5,
    )
    spec.update(overrides)
    return spec


def write_benchmark(tmp_path, **overrides):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec_dict(**overrides)))
    data_dir = tmp_path / "data"
    code = main(["synth", "--spec", str(spec_path), "--out", str(data_dir)])
    assert code == 0
    return data_dir


class TestSynthCommand:
    def test_writes_matrices_and_manifest(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        assert (data_dir / "ground_truth.json").exists()
        assert (data_dir / "manifest.json").exists()
        assert (data_dir / "tech-00.f32").exists()
        assert (data_dir / "tech-00.f32.meta.json").exists()

    def test_missing_spec_is_config_error(self, tmp_path, capsys):
        code = main(["synth", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "d")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"] == "ConfigError"

    def test_invalid_spec_reported(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_spec_dict(peak_strength=2.0)))
        code = main(["synth", "--spec", str(spec_path),
                     "--out", str(tmp_path / "d")])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["error"] == "InvalidSpecError"


class TestRunCommand:
    def test_noiseless_benchmark_runs_clean(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--workers", "1"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 0
        results = data_dir / "results"
        for name in ("dyn-mpf", "full-mpf"):
            assert (results / f"result_{name}.json").exists()
            assert (results / f"recall_{name}.json").exists()
            assert (results / f"recall_{name}.csv").exists()
            assert (results / f"histogram_{name}.csv").exists()
        summary = json.loads((results / "run_summary.json").read_text())
        # noiseless benchmark with clean peaks: both strategies are perfect
        assert summary["strategies"]["dyn-mpf"]["recall_at"]["1"] == 1.0
        assert summary["strategies"]["full-mpf"]["recall_at"]["1"] == 1.0
        assert "timings_seconds" in summary
        assert out["status"] == "ok"

    def test_result_json_schema(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        main(["run", "--config", str(data_dir / "manifest.json"),
              "--workers", "1"])
        capsys.readouterr()
        payload = json.loads(
            (data_dir / "results" / "result_dyn-mpf.json").read_text()
        )
        assert payload["strategy"] == "dyn-mpf"
        assert payload["techniques"] == ["tech-00", "tech-01", "tech-02"]
        rec = payload["records"][0]
        for key in ("query", "subset", "weights", "ratio_score",
                    "match_index", "valid"):
            assert key in rec
        assert all(isinstance(s, str) for s in rec["subset"])

    def test_missing_ground_truth_names_field(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["ground_truth"] = "missing.json"
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        assert out["error"] == "ConfigError"
        assert out["field"] == "ground_truth"

    @pytest.mark.parametrize("field, value", [
        ("r_window", "2"),
        ("r_window", 2.5),
        ("r_window", True),
        ("frame_separation_f", "3"),
        ("min_subset_size", 2.0),
        ("max_subset_size", "4"),
        ("rng_seed", False),
        ("epsilon", "1e-12"),
        ("epsilon", None),
        ("epsilon", True),
        ("tie_break", 1),
    ])
    def test_mistyped_config_value_is_config_error(self, tmp_path, capsys,
                                                   field, value):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["config"] = {field: value}
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert out["error"] == "ConfigError"
        assert out["field"] == field

    def test_non_object_config_is_config_error(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["config"] = 5
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        assert json.loads(lines[0])["field"] == "config"

    def test_strategy_flag_adds_strategy(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--strategy", "random-pair", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        assert (data_dir / "results" / "result_random-pair.json").exists()

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--strategy", "magic"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        assert out["error"] == "ConfigError"

    def test_flag_overrides_echoed_in_summary(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--r-window", "3", "--seed", "77", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(
            (data_dir / "results" / "run_summary.json").read_text()
        )
        assert summary["config"]["r_window"] == 3
        assert summary["config"]["rng_seed"] == 77

    def test_recall_k_flag(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--recall-k", "1,2,3", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        report = json.loads(
            (data_dir / "results" / "recall_dyn-mpf.json").read_text()
        )
        assert sorted(report["recall_at"]) == ["1", "2", "3"]

    def test_log_env_var_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DYNFUSE_LOG", "DEBUG")
        data_dir = write_benchmark(tmp_path)
        code = main(["run", "--config", str(data_dir / "manifest.json"),
                     "--workers", "1"])
        capsys.readouterr()
        assert code == 0

    def test_corrupt_matrix_is_reported_as_error_json(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        payload = data_dir / "tech-00.f32"
        payload.write_bytes(payload.read_bytes()[:10])
        code = main(["run", "--config", str(data_dir / "manifest.json")])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert out["status"] == "error"
        assert out["error"] == "ShapeMismatchError"

    def test_static_subset_params(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["strategies"] = {
            "static-subset": {"subset": ["tech-00", "tech-02"]},
            "best-single-oracle": {},
            "hier-mpf": {"tiers": [["tech-00"], ["tech-01", "tech-02"]],
                         "shortlist_fractions": [0.5]},
        }
        path = data_dir / "manifest2.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path), "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(
            (data_dir / "results" / "result_static-subset.json").read_text()
        )
        assert payload["params"]["subset"] == ["tech-00", "tech-02"]


class TestSweepCommand:
    def test_five_row_csv(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path, queries=60)
        code = main(["sweep", "--config", str(data_dir / "manifest.json"),
                     "--f-values", "1,5,10,25,50", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        with open(data_dir / "results" / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["f", "recall_at_1", "valid_queries"]
        assert len(rows) == 6
        assert [r[0] for r in rows[1:]] == ["1", "5", "10", "25", "50"]

    def test_single_f_degenerates_to_run(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["sweep", "--config", str(data_dir / "manifest.json"),
                     "--f-values", "1", "--workers", "1"])
        capsys.readouterr()
        assert code == 0
        with open(data_dir / "results" / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_non_positive_f_is_config_error(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        code = main(["sweep", "--config", str(data_dir / "manifest.json"),
                     "--f-values", "0"])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 2
        assert out["error"] == "ConfigError"


class TestIngestCheck:
    def test_valid_and_broken_pairs(self, tmp_path, capsys):
        good = write_matrix(tmp_path / "good.f32",
                            np.ones((2, 3), dtype=np.float32),
                            role="similarity", technique="g")
        bad = write_matrix(tmp_path / "bad.f32",
                           np.ones((2, 3), dtype=np.float32),
                           role="similarity", technique="b")
        bad.write_bytes(b"\x00" * 10)

        code = main(["ingest-check", str(good)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("OK")

        code = main(["ingest-check", str(good), str(bad)])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL" in out
        assert "ShapeMismatchError" in out


def test_descriptor_pair_ingestion(tmp_path, capsys, rng):
    """Manifests may supply query/database descriptors instead of
    precomputed similarities."""
    d = 12
    db_desc = rng.random((d, 6)).astype(np.float32) + 0.1
    gt_indices = [3, 7, 11]
    q_desc = db_desc[gt_indices] * 2.0  # cosine ignores the rescale
    write_matrix(tmp_path / "q.f32", q_desc, role="query", technique="t")
    write_matrix(tmp_path / "db.f32", db_desc, role="database", technique="t")
    (tmp_path / "gt.json").write_text(json.dumps([[i] for i in gt_indices]))
    manifest = {
        "techniques": [
            {"name": "t", "query": "q.f32", "database": "db.f32",
             "metric": "cosine"},
        ],
        "ground_truth": "gt.json",
        "config": {"r_window": 0},
        "strategies": {"static-subset": {"subset": ["t"]}},
        "recall_k": [1],
        "out_dir": str(tmp_path / "out"),
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    code = main(["run", "--config", str(tmp_path / "m.json"), "--workers", "1"])
    capsys.readouterr()
    assert code == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["strategies"]["static-subset"]["recall_at"]["1"] == 1.0


def test_console_script_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "dynfuse.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_end_to_end_synth_then_run_matches_library(tmp_path, capsys):
    """CLI results must agree with calling the library directly."""
    from dynfuse import FusionConfig, engine, evaluate, synth

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(tiny_spec_dict(noise_sigma=0.3, seed=11)))
    data_dir = tmp_path / "data"
    main(["synth", "--spec", str(spec_path), "--out", str(data_dir)])
    main(["run", "--config", str(data_dir / "manifest.json"), "--workers", "1"])
    capsys.readouterr()
    summary = json.loads((data_dir / "results" / "run_summary.json").read_text())

    spec = SynthSpec.from_dict(tiny_spec_dict(noise_sigma=0.3, seed=11))
    tensor, gt = synth.generate(spec)
    cfg = FusionConfig(r_window=1, rng_seed=11)
    res = engine.run_dyn_mpf(tensor, cfg)
    expected = evaluate.recall_at_k(res, res.fused, gt, [1]).recall_at[1]
    assert summary["strategies"]["dyn-mpf"]["recall_at"]["1"] == expected
