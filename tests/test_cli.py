import contextlib
import copy
import csv
import io
import json
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


ALL_STRATEGIES = {
    "best-single-oracle": {},
    "dyn-mpf": {},
    "full-mpf": {},
    "hier-mpf": {},
    "random-pair": {},
    "static-subset": {"subset": ["tech-00", "tech-01"]},
}


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

    @pytest.mark.parametrize("key, value, field", [
        ("recall_k", ["a"], "recall_k[0]"),
        ("recall_k", [True], "recall_k[0]"),
        ("recall_k", [1.7], "recall_k[0]"),
        ("recall_k", ["1"], "recall_k[0]"),
        ("recall_k", 5, "recall_k"),
        ("recall_k", [], "recall_k"),
        ("recall_k", [0], "recall_k"),
        ("recall_k", [41], "recall_k"),  # deeper than the 40-entry database
        ("histogram_bins", "x", "histogram_bins"),
        ("histogram_bins", 2.0, "histogram_bins"),
        ("histogram_bins", False, "histogram_bins"),
        ("histogram_bins", 2**62, "histogram_bins"),
        ("out_dir", 3, "out_dir"),
        ("out_dir", "", "out_dir"),
        ("ground_truth", None, "ground_truth"),
        ("ground_truth", ".", "ground_truth"),
        ("techniques", [5], "techniques[0]"),
        ("techniques", [{"name": 1, "similarity": "tech-00.f32"}],
         "techniques[0].name"),
        ("techniques", [{"name": "t", "similarity": ["tech-00.f32"]}],
         "techniques[0].similarity"),
        ("techniques", [{"name": "t", "similarity": "."}],
         "techniques[0].similarity"),
        ("techniques", [{"name": "t", "query": "q", "database": "d",
                         "metric": "l1"}], "techniques[0].metric"),
        ("strategies", ["dyn-mpf", ["full-mpf"]], "strategies[1]"),
        ("strategies", {"dyn-mpf": 5}, "strategies.dyn-mpf"),
        ("strategies", {"static-subset": {"subset": "tech-00"}},
         "strategies.static-subset.subset"),
        ("strategies", {"hier-mpf": {"tiers": [["tech-00"], "tech-01"]}},
         "strategies.hier-mpf.tiers[1]"),
        ("strategies", {"hier-mpf": {"shortlist_fractions": ["0.5"]}},
         "strategies.hier-mpf.shortlist_fractions[0]"),
        # a misspelled key must not fall back to the default silently
        ("strategies", {"hier-mpf": {"shortlist_fraction": [0.5, 0.5]}},
         "strategies.hier-mpf.shortlist_fraction"),
        ("strategies", {"dyn-mpf": {"uniform": True}}, "strategies.dyn-mpf.uniform"),
        ("strategies", {"static-subset": {"subset": ["tech-00"], "tiers": []}},
         "strategies.static-subset.tiers"),
        ("strategies", {"full-mpf": {"subset": ["tech-00"]}},
         "strategies.full-mpf.subset"),
        ("strategies", {"random-pair": {"rng_seed": 3}},
         "strategies.random-pair.rng_seed"),
        ("strategies", {"best-single-oracle": {"technique": "tech-00"}},
         "strategies.best-single-oracle.technique"),
        ("strategies", {"dyn-mpf": {"uniform_weights": "no"}},
         "strategies.dyn-mpf.uniform_weights"),
        ("strategies", {"dyn-mpf": {"uniform_weights": 1}},
         "strategies.dyn-mpf.uniform_weights"),
    ])
    def test_mistyped_manifest_value_is_config_error(self, tmp_path, capsys,
                                                     key, value, field):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest[key] = value
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert out["error"] == "ConfigError"
        assert out["field"] == field

    @pytest.mark.parametrize("value, recorded", [(True, True), (False, False),
                                                 (None, False)])
    def test_uniform_weights_flag_is_recorded(self, tmp_path, capsys, value,
                                              recorded):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["strategies"] = {"dyn-mpf": {"uniform_weights": value}}
        path = data_dir / "uniform.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", "--config", str(path)]) == 0
        capsys.readouterr()
        result = json.loads((data_dir / "results" / "result_dyn-mpf.json").read_text())
        assert result["params"] == {"uniform_weights": recorded}

    @pytest.mark.parametrize("content", [
        '{"a": 1}', '[[0], 5]', '[[0], [null]]', '[[0], [99]]', '[[0]]',
        '[[0], [1.7]]', '[[0], [true]]', '[[0], ["1"]]',
    ])
    def test_malformed_ground_truth_is_config_error(self, tmp_path, capsys,
                                                    content):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        (data_dir / "ground_truth.json").write_text(content)
        for command in ("run", "sweep"):
            code = main([command, "--config", str(data_dir / "manifest.json")])
            lines = capsys.readouterr().out.strip().splitlines()
            assert code == 2
            assert len(lines) == 1
            assert json.loads(lines[0])["field"] == "ground_truth"

    @pytest.mark.parametrize("strategy", ["random-pair", "hier-mpf"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, strategy):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["config"]["rng_seed"] = -1
        manifest["strategies"] = {strategy: {}}
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        for argv in (["--config", str(path)],
                     ["--config", str(data_dir / "manifest.json"),
                      "--strategy", strategy, "--seed", "-1"]):
            code = main(["run", *argv])
            lines = capsys.readouterr().out.strip().splitlines()
            assert code == 2
            assert len(lines) == 1
            assert json.loads(lines[0])["field"] == "rng_seed"

    def test_every_strategy_runs_without_threads(self, tmp_path, capsys,
                                                 monkeypatch):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["strategies"] = ALL_STRATEGIES
        manifest["config"]["frame_separation_f"] = 3
        path = data_dir / "all.json"
        path.write_text(json.dumps(manifest))

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        code = main(["run", "--config", str(path), "--workers", "8"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert json.loads(lines[-1])["status"] == "ok"
        summary = json.loads(
            (data_dir / "results" / "run_summary.json").read_text()
        )
        assert summary["workers"] == 8
        assert sorted(summary["strategies"]) == sorted(ALL_STRATEGIES)
        code = main(["sweep", "--config", str(path), "--f-values", "1,4",
                     "--workers", "8"])
        capsys.readouterr()
        assert code == 0

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


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 1000)
    | st.sampled_from([2**31, 2**63, -(2**63), 10**30]) | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Where a value may be swapped in; a missing last key is added.
MANIFEST_PATHS = [
    ("techniques",), ("techniques", 0), ("techniques", 1, "name"),
    ("techniques", 2, "similarity"), ("ground_truth",), ("config",),
    ("config", "r_window"), ("config", "frame_separation_f"),
    ("config", "max_subset_size"), ("config", "epsilon"),
    ("config", "rng_seed"), ("config", "tie_break"), ("strategies",),
    ("strategies", "dyn-mpf"), ("strategies", "dyn-mpf", "uniform_weights"),
    ("strategies", "hier-mpf", "tiers"),
    ("strategies", "hier-mpf", "shortlist_fractions"),
    ("strategies", "static-subset", "subset"), ("recall_k",),
    ("recall_k", 0), ("histogram_bins",), ("out_dir",),
]


def swap_value(doc, path, value):
    """Set ``value`` at ``path`` when every container on the way exists."""
    node = doc
    for key in path[:-1]:
        if isinstance(node, dict) and key in node:
            node = node[key]
        elif isinstance(node, list) and isinstance(key, int) and key < len(node):
            node = node[key]
        else:
            return
    last = path[-1]
    if isinstance(node, dict) or (
        isinstance(node, list) and isinstance(last, int) and last < len(node)
    ):
        node[last] = value


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(MANIFEST_PATHS), JSON_VALUES),
                min_size=1, max_size=2))
def test_fuzzed_manifest_ends_in_one_json_line(tmp_path, mutations):
    """Any mutated manifest ends with exit 0, 2 or 3 and one JSON object on
    stdout; an uncaught exception fails the test."""
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        write_benchmark(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    manifest["strategies"] = copy.deepcopy(ALL_STRATEGIES)
    for path, value in mutations:
        swap_value(manifest, path, value)
    path = data_dir / "fuzz.json"
    path.write_text(json.dumps(manifest))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--workers", "1"])
    lines = stdout.getvalue().splitlines()
    assert code in (0, 2, 3), lines
    assert len(lines) == 1, lines
    assert isinstance(json.loads(lines[0]), dict)


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
