import contextlib
import copy
import dataclasses
import csv
import io
import json
import logging
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynfuse.cli import STRATEGY_PARAMS, RunManifest, TechniqueEntry, main
from dynfuse.core import FusionConfig
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


    @pytest.mark.parametrize("spec", [
        tiny_spec_dict(peak_strength="abc"),
        tiny_spec_dict(peak_strength=[1.0, "x", 1.0]),
        tiny_spec_dict(noise_sigma=float("nan")),
        tiny_spec_dict(alias_strength=1e39),  # inf as a float32 payload
        tiny_spec_dict(failure_schedule=5),
        tiny_spec_dict(failure_schedule=[[[0]], [], []]),
        tiny_spec_dict(failure_schedule=[[[0, 2.5]], [], []]),
        tiny_spec_dict(failure_schedule=[5, [], []]),
        tiny_spec_dict(names=3),
        tiny_spec_dict(names=["a", "a", "b"]),
        tiny_spec_dict(names=["a", 2, "b"]),
        tiny_spec_dict(names=["a", "b/c", "d"]),
        tiny_spec_dict(queries=10.0),
        tiny_spec_dict(n_techniques=True),
        tiny_spec_dict(seed=-1),
        tiny_spec_dict(drift_period=1.5),
        tiny_spec_dict(queries=None),
        [1, 2],
        {"queries": 3},
        b"\xff\xfe{}",  # not UTF-8
        b'{"n_techniques": 3,',  # not JSON
        tiny_spec_dict(queries=10, database_size=10**15),  # fails to allocate at once
    ])
    def test_mistyped_spec_is_invalid_spec_error(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InvalidSpecError"


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

    @pytest.mark.parametrize("config, field", [
        ({"min_subset_size": 4}, "min_subset_size"),
        ({"min_subset_size": 4, "max_subset_size": 4}, "max_subset_size"),
    ])
    def test_subset_bound_error_names_a_field_the_user_set(self, tmp_path, capsys,
                                                           config, field):
        data_dir = write_benchmark(tmp_path)  # 3 techniques
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["config"] = config
        path = data_dir / "bad.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert (out["error"], out["field"]) == ("ConfigError", field)

    @pytest.mark.parametrize("epsilon, code", [
        (1e-310, 2), (1e-300, 2), (1e-200, 2), (1e-100, 0),
    ])
    def test_epsilon_floor(self, tmp_path, capsys, epsilon, code):
        # a one-hot technique weighs 1/epsilon; below the floor that ended
        # in a traceback or wrote Infinity into the result JSON
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        write_matrix(data_dir / manifest["techniques"][0]["similarity"],
                     np.eye(12, 40), role="similarity", technique="tech-00")
        manifest["config"] = {"epsilon": epsilon}
        manifest["strategies"] = {"dyn-mpf": {}}
        path = data_dir / "tiny_epsilon.json"
        path.write_text(json.dumps(manifest))
        assert main(["run", "--config", str(path)]) == code
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        out = json.loads(lines[0])
        if code == 2:
            assert (out["error"], out["field"]) == ("ConfigError", "epsilon")
        else:
            def reject(name):
                raise ValueError(f"{name} is not JSON")
            result = (data_dir / "results" / "result_dyn-mpf.json").read_text()
            json.loads(result, parse_constant=reject)

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
        # an entry key nothing reads must not be dropped silently
        ("techniques", [{"name": "t", "similarity": "tech-00.f32",
                         "metrc": "negative-euclidean"}], "techniques[0].metrc"),
        ("techniques", [{"name": "t", "similarity": "tech-00.f32",
                         "query": "tech-01.f32", "database": "tech-02.f32"}],
         "techniques[0]"),
        ("techniques", [{"name": "t", "similarity": "tech-00.f32",
                         "metric": "negative-euclidean"}], "techniques[0].metric"),
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

    @pytest.mark.parametrize("strategy, params, field", [
        ("hier-mpf", {"shortlist_fractions": [2.0, 0.1]},
         "strategies.hier-mpf.shortlist_fractions"),
        ("hier-mpf", {"tiers": [["tech-00"], ["tech-00"]]}, "strategies.hier-mpf.tiers"),
        ("static-subset", {"subset": ["tech-00", "tech-00"]},
         "strategies.static-subset.subset"),
    ])
    def test_strategy_parameter_out_of_range_names_its_path(self, tmp_path, capsys,
                                                             strategy, params, field):
        # well typed, so the runner finds the error, not the manifest reader
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        manifest["strategies"] = {strategy: params}
        path = data_dir / "range.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert out["error"] == "ConfigError"
        assert out["field"] == field
        assert out["message"].startswith(field + ": ")
        assert out["message"].count(field.rsplit(".", 1)[-1] + ":") == 1

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

    def test_constant_queries_are_never_valid(self, tmp_path, capsys):
        # every payload set to 1.0: no query carries place information
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        for entry in manifest["techniques"]:
            write_matrix(data_dir / entry["similarity"], np.ones((12, 40)),
                         role="similarity", technique=entry["name"])
        manifest["strategies"] = ALL_STRATEGIES
        path = data_dir / "constant.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        assert code == 0
        capsys.readouterr()
        results = data_dir / "results"
        summary = json.loads((results / "run_summary.json").read_text())
        for name in ALL_STRATEGIES:
            assert summary["strategies"][name]["valid_queries"] == 0, name
            records = json.loads((results / f"result_{name}.json").read_text())["records"]
            assert len(records) == 12
            for record in records:
                assert not record["valid"], name
                assert record["match_index"] == -1, name
                assert record["error"].startswith("TooFewTechniquesError: "), name

    @pytest.mark.parametrize("technique, content, error", [
        ("tech-00", "a,b,c\n1,2,3\n4,5\n", "ShapeMismatchError"),
        ("tech-00", "a,b,c\n1,x,3\n", "CorruptHeaderError"),
        ("tech-00", b"a,b\n\xff\xfe,1\n", "CorruptHeaderError"),
        ("tech-01", None, "ConfigError"),  # a second technique named tech-00
        (None, b"\xff\xfe{}", "ConfigError"),  # a manifest that is not UTF-8
    ])
    def test_bad_input_file_ends_in_one_error_json(self, tmp_path, capsys,
                                                   technique, content, error):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        path = data_dir / "bad.json"
        if technique is None:
            path.write_bytes(content)
        else:
            entry = next(e for e in manifest["techniques"] if e["name"] == technique)
            if content is None:
                entry["name"] = "tech-00"
            else:
                csv_path = data_dir / "bad.csv"
                if isinstance(content, bytes):
                    csv_path.write_bytes(content)
                else:
                    csv_path.write_text(content)
                entry["similarity"] = csv_path.name
            path.write_text(json.dumps(manifest))
        for command in ("run", "sweep"):
            code = main([command, "--config", str(path)])
            captured = capsys.readouterr()
            lines = captured.out.strip().splitlines()
            assert code != 0
            assert captured.err == ""
            assert len(lines) == 1
            out = json.loads(lines[0])
            assert out["error"] == error
            if technique is None:
                assert (code, out["field"]) == (2, "config")
            elif content is None:
                assert out["field"] == "techniques"

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

    @pytest.mark.parametrize("level", [None, "info", "WARN"])
    def test_log_level_check_runs_on_python_3_10(self, tmp_path, capsys, monkeypatch,
                                                 level):
        # logging.getLevelNamesMapping is new in Python 3.11
        monkeypatch.delattr(logging, "getLevelNamesMapping", raising=False)
        if level is None:
            monkeypatch.delenv("DYNFUSE_LOG", raising=False)
        else:
            monkeypatch.setenv("DYNFUSE_LOG", level)
        write_benchmark(tmp_path)  # asserts exit 0

    @pytest.mark.parametrize("level", ["nope", "5"])
    def test_unknown_log_level_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               level):
        monkeypatch.setenv("DYNFUSE_LOG", level)
        code = main(["ingest-check", str(tmp_path / "x.f32")])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 2
        assert len(lines) == 1
        out = json.loads(lines[0])
        assert (out["status"], out["error"], out["field"]) == (
            "error", "ConfigError", "DYNFUSE_LOG")

    def test_corrupt_matrix_is_reported_as_error_json(self, tmp_path, capsys):
        data_dir = write_benchmark(tmp_path)
        payload = data_dir / "tech-00.f32"
        payload.write_bytes(payload.read_bytes()[:10])
        code = main(["run", "--config", str(data_dir / "manifest.json")])
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert code == 1
        assert out["status"] == "error"
        assert out["error"] == "ShapeMismatchError"

    @pytest.mark.parametrize("sidecar", [
        "5", "null",
        # with 12 x 40 = 480 floats, rows=true once matched the payload size
        '{"rows": true, "cols": 480, "role": "similarity", "technique": "tech-01"}',
    ])
    def test_mistyped_sidecar_ends_in_one_error_json(self, tmp_path, capsys,
                                                     sidecar):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        (data_dir / "tech-01.f32.meta.json").write_text(sidecar)
        code = main(["run", "--config", str(data_dir / "manifest.json")])
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert code == 1
        assert captured.err == ""
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "CorruptHeaderError"
        code = main(["ingest-check", str(data_dir / "tech-01.f32")])
        out = capsys.readouterr().out
        assert code == 3
        assert out.startswith("FAIL") and "CorruptHeaderError" in out

    def test_manifest_mixes_binary_csv_and_descriptor_entries(self, tmp_path,
                                                              capsys, rng):
        data_dir = write_benchmark(tmp_path)
        capsys.readouterr()
        manifest = json.loads((data_dir / "manifest.json").read_text())
        sim = np.fromfile(data_dir / "tech-01.f32", dtype="<f4").reshape(12, 40)
        np.savetxt(data_dir / "tech-01.csv", sim, delimiter=",", fmt="%.9g",
                   header="csv", comments="")
        write_matrix(data_dir / "q.f32", rng.random((12, 5)), role="query",
                     technique="tech-02")
        write_matrix(data_dir / "db.f32", rng.random((40, 5)), role="database",
                     technique="tech-02")
        manifest["techniques"][1] = {"name": "tech-01", "similarity": "tech-01.csv"}
        manifest["techniques"][2] = {"name": "tech-02", "query": "q.f32",
                                     "database": "db.f32",
                                     "metric": "negative-euclidean"}
        manifest["strategies"] = ALL_STRATEGIES
        path = data_dir / "mixed.json"
        path.write_text(json.dumps(manifest))
        code = main(["run", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0, out
        summary = json.loads((data_dir / "results" / "run_summary.json").read_text())
        assert summary["techniques"] == ["tech-00", "tech-01", "tech-02"]
        assert set(summary["strategies"]) == set(ALL_STRATEGIES)

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
    ("techniques", 2, "similarity"), ("techniques", 0, "metric"),
    ("techniques", 1, "query"), ("techniques", 1, "database"),
    ("ground_truth",), ("config",),
    ("config", "r_window"), ("config", "frame_separation_f"),
    ("config", "min_subset_size"), ("config", "max_subset_size"),
    ("config", "epsilon"), ("config", "rng_seed"), ("config", "tie_break"),
    ("strategies",), ("strategies", "dyn-mpf"),
    ("strategies", "dyn-mpf", "uniform_weights"),
    ("strategies", "hier-mpf", "tiers"), ("strategies", "hier-mpf", "tiers", 0),
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


@pytest.mark.parametrize("cls", [FusionConfig, SynthSpec, RunManifest, TechniqueEntry,
                                 *STRATEGY_PARAMS.values()])
def test_every_read_field_declares_its_json_type(cls):
    """read_json_object looks up each field's JSON types; an untyped field
    would end in a KeyError traceback, not in the error JSON."""
    assert all("json" in f.metadata for f in dataclasses.fields(cls))


DELETE = object()
# Spec fields and nested places a value may be swapped into; () is the
# whole spec.
SPEC_PATHS = [(), *((key,) for key in SynthSpec.__dataclass_fields__),
              ("failure_schedule", 0), ("failure_schedule", 0, 0),
              ("failure_schedule", 0, 0, 1), ("names", 1), ("alias_secondary", 2)]
SPEC_SIZES = ("n_techniques", "queries", "database_size")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(SPEC_PATHS), JSON_VALUES | st.just(DELETE)),
                min_size=1, max_size=2))
def test_fuzzed_spec_ends_in_one_json_line(tmp_path, mutations):
    """Any mutated synth spec ends with exit 0, or exit 1 and an
    InvalidSpecError, with one JSON object on stdout and no warning."""
    spec = tiny_spec_dict(failure_schedule=[[[0, 4]], [], [[2, 3], [5, 12]]],
                          drift_period=4, names=["a", "b", "c"],
                          alias_secondary=[0.1, 0.2, 0.3])
    for path, value in mutations:
        if value is DELETE:
            if isinstance(spec, dict) and len(path) == 1:
                spec.pop(path[0], None)
        elif not path:
            spec = value
        else:
            swap_value(spec, path, value)
    if isinstance(spec, dict):
        for key in SPEC_SIZES:  # a valid spec this large takes long to generate
            if isinstance(spec.get(key), int) and not isinstance(spec[key], bool):
                spec[key] = min(spec[key], 200)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1, lines
    out = json.loads(lines[0])
    assert (code, out["status"]) in ((0, "ok"), (1, "error")), lines
    if code == 1:
        assert out["error"] == "InvalidSpecError", lines


CSV_TOKENS = (st.sampled_from(["0.5", "1", "-2e3", "nan", "inf", "-inf", "1e39",
                               "x", "", " 3"])
              | st.text(max_size=3))
# Each mutation rewrites one technique's input as new files, so the synth
# files stay intact for the next example.
FILE_MUTATIONS = st.one_of(
    st.tuples(st.just("sidecar"), JSON_VALUES),
    st.tuples(st.just("field"), st.sampled_from(["rows", "cols", "role", "technique"]),
              JSON_VALUES | st.sampled_from([DELETE, 1, 12, 40, 480])),
    st.tuples(st.just("resize"), st.integers(-9, 9)),
    st.tuples(st.just("value"), st.integers(0, 479),
              st.sampled_from([np.nan, np.inf, -np.inf])),
    st.tuples(st.just("csv"), st.lists(st.lists(CSV_TOKENS, max_size=4), max_size=3)),
    st.tuples(st.just("csv-bytes"), st.binary(max_size=12)),
    st.tuples(st.just("csv-rows"), st.integers(0, 12)),
    st.tuples(st.just("duplicate")),
    st.tuples(st.just("descriptors"), st.sampled_from([11, 12]),
              st.sampled_from([39, 40]), st.integers(1, 3), st.integers(1, 3),
              st.sampled_from(["cosine", "negative-euclidean", "hamming"])),
)


def mutate_input_files(data_dir, manifest, index, mutation):
    """Point technique ``index`` of ``manifest`` at mutated copies of its
    files; return the binary payload copy when the entry still uses it."""
    entry = manifest["techniques"][index]
    kind, *args = mutation
    payload = (data_dir / entry["similarity"]).read_bytes()
    matrix = np.frombuffer(payload, dtype="<f4").reshape(12, 40)
    copy_path = data_dir / "fuzz.f32"
    sidecar = data_dir / "fuzz.f32.meta.json"
    copy_path.write_bytes(payload)
    sidecar.write_text((data_dir / f"{entry['similarity']}.meta.json").read_text())
    entry["similarity"] = copy_path.name
    if kind == "sidecar":
        sidecar.write_text(json.dumps(args[0]))
    elif kind == "field":
        meta = json.loads(sidecar.read_text())
        key, value = args
        if value is DELETE:
            del meta[key]
        else:
            meta[key] = value
        sidecar.write_text(json.dumps(meta))
    elif kind == "resize":
        delta = args[0]
        copy_path.write_bytes(payload[:len(payload) + delta] if delta < 0
                              else payload + b"\x01" * delta)
    elif kind == "value":
        changed = matrix.copy()
        changed.flat[args[0]] = args[1]
        copy_path.write_bytes(changed.tobytes())
    elif kind.startswith("csv"):
        csv_path = data_dir / "fuzz.csv"
        if kind == "csv":
            csv_path.write_text("h\n" + "\n".join(",".join(r) for r in args[0]))
        elif kind == "csv-bytes":
            csv_path.write_bytes(args[0])
        else:
            np.savetxt(csv_path, matrix[:args[0]], delimiter=",", fmt="%.9g",
                       header="h", comments="")
        entry["similarity"] = csv_path.name
    elif kind == "duplicate":
        entry["name"] = manifest["techniques"][index - 1]["name"]
    else:
        q_rows, db_rows, q_dim, db_dim, metric = args
        rng = np.random.default_rng(q_dim * 10 + db_dim)
        write_matrix(data_dir / "fuzz_q.f32", rng.random((q_rows, q_dim)),
                     role="query", technique="q")
        write_matrix(data_dir / "fuzz_db.f32", rng.random((db_rows, db_dim)),
                     role="database", technique="db")
        del entry["similarity"]
        entry.update(query="fuzz_q.f32", database="fuzz_db.f32", metric=metric)
    return copy_path if entry.get("similarity") == copy_path.name else None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2), FILE_MUTATIONS)
def test_fuzzed_input_files_end_in_one_json_line(tmp_path, index, mutation):
    """Any mutated matrix, sidecar, CSV or descriptor file ends with exit
    0-3, one JSON object on stdout and no traceback; ingest-check reports a
    mutated payload as OK or FAIL."""
    data_dir = tmp_path / "data"
    if not data_dir.exists():
        write_benchmark(tmp_path)
    manifest = json.loads((data_dir / "manifest.json").read_text())
    payload = mutate_input_files(data_dir, manifest, index, mutation)
    path = data_dir / "fuzz.json"
    path.write_text(json.dumps(manifest))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--workers", "1"])
    lines = stdout.getvalue().splitlines()
    assert code in (0, 1, 2, 3), lines
    assert len(lines) == 1, lines
    assert isinstance(json.loads(lines[0]), dict)
    assert "Traceback" not in stderr.getvalue()
    if payload is not None:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["ingest-check", str(payload)])
        assert code in (0, 3)
        assert stdout.getvalue().startswith(("OK", "FAIL"))


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


@pytest.mark.parametrize("args, field", [
    (["--seed", "abc"], "--seed"),
    (["--workers", "x"], "--workers"),
    (["--bogus", "1"], "argv"),
    ([], "--config"),
])
def test_usage_errors_end_in_one_json_line(tmp_path, capsys, args, field):
    # a bad flag value, an unknown flag or a missing --config: main returns
    # the config exit code with one error JSON line, and prints no usage text
    config = [] if field == "--config" else ["--config", str(tmp_path / "m.json")]
    code = main(["run", *config, *args])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert code == 2 and len(lines) == 1 and captured.err == ""
    error = json.loads(lines[0])
    assert (error["status"], error["error"], error["field"]) == ("error", "ConfigError", field)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        main(["run", "--help"])
    assert done.value.code == 0
    assert "--config" in capsys.readouterr().out


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
