"""Command-line entry point: reproducible runs over manifest files.

Subcommands: ``run`` (execute strategies and write results), ``sweep``
(recall versus calibration period), ``synth`` (generate a benchmark to
disk), ``ingest-check`` (validate matrix/sidecar pairs). Configuration
comes from a JSON manifest; command-line flags override manifest fields.
Failures print a machine-readable error JSON and exit nonzero. The
``DYNFUSE_LOG`` environment variable sets log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import engine, evaluate, ingest, synth
from .core import FusionConfig, GroundTruth, check_json_type
from .errors import ConfigError, DynfuseError

log = logging.getLogger("dynfuse.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# The histogram allocates and writes one row per bin; beyond this a bin
# count is a typo, not a request.
MAX_HISTOGRAM_BINS = 1_000_000


@dataclass
class RunManifest:
    """Validated run description: inputs, config, strategies, outputs."""

    techniques: list
    ground_truth: str
    config: FusionConfig
    strategies: dict
    recall_k: list[int] = field(default_factory=lambda: [1, 5])
    histogram_bins: int = 10
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        """Build a manifest from parsed JSON, rejecting unknown keys and
        values of the wrong type or range with ConfigError."""
        if not isinstance(raw, dict):
            raise ConfigError("manifest must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="manifest")
        techniques = raw.get("techniques")
        if not techniques or not isinstance(techniques, list):
            raise ConfigError("must be a non-empty list", field="techniques")
        for i, entry in enumerate(techniques):
            where = f"techniques[{i}]"
            check_json_type(entry, dict, "an object", where)
            if "name" not in entry:
                raise ConfigError("missing 'name'", field=where)
            check_json_type(entry["name"], str, "a string", f"{where}.name")
            has_sim = "similarity" in entry
            has_desc = "query" in entry and "database" in entry
            if not (has_sim or has_desc):
                raise ConfigError(
                    "needs either 'similarity' or 'query'+'database' paths",
                    field=where,
                )
            for key in ("similarity", "query", "database"):
                if key in entry:
                    _check_path(entry[key], f"{where}.{key}")
            if entry.get("metric", ingest.METRICS[0]) not in ingest.METRICS:
                raise ConfigError(
                    f"must be one of {list(ingest.METRICS)}", field=f"{where}.metric"
                )
        names = [entry["name"] for entry in techniques]
        if len(set(names)) != len(names):
            raise ConfigError(f"technique names must be unique, got {names}",
                              field="techniques")
        if "ground_truth" not in raw:
            raise ConfigError("missing required path", field="ground_truth")
        _check_path(raw["ground_truth"], "ground_truth")
        config = FusionConfig.from_dict(raw.get("config", {}))
        strategies = raw.get("strategies", {})
        if isinstance(strategies, list):
            for i, name in enumerate(strategies):
                check_json_type(name, str, "a strategy name", f"strategies[{i}]")
            strategies = {name: {} for name in strategies}
        if not isinstance(strategies, dict):
            raise ConfigError(
                "must be a list of names or a name->params object",
                field="strategies",
            )
        for name, params in strategies.items():
            if name not in engine.STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {name!r}; choose from {list(engine.STRATEGIES)}",
                    field="strategies",
                )
            _check_strategy_params(name, params)
        recall_k = _check_list(raw.get("recall_k", [1, 5]), int, "integers", "recall_k")
        if not recall_k or any(k < 1 for k in recall_k):
            raise ConfigError("must be a non-empty list of positive integers",
                              field="recall_k")
        bins = check_json_type(raw.get("histogram_bins", 10), int, "an integer",
                               "histogram_bins")
        if not 1 <= bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"must lie in [1, {MAX_HISTOGRAM_BINS}]",
                              field="histogram_bins")
        return cls(
            techniques=techniques,
            ground_truth=raw["ground_truth"],
            config=config,
            strategies=strategies,
            recall_k=recall_k,
            histogram_bins=bins,
            out_dir=_check_path(raw.get("out_dir", "out"), "out_dir"),
        )


def _check_path(value, field: str) -> str:
    check_json_type(value, str, "a path string", field)
    if not value or "\x00" in value:
        raise ConfigError("must be a non-empty path without NUL characters",
                          field=field)
    return value


def _check_list(value, item_types, expected: str, field: str) -> list:
    check_json_type(value, list, f"a list of {expected}", field)
    for i, item in enumerate(value):
        check_json_type(item, item_types, f"a list of {expected}", f"{field}[{i}]")
    return value


# The parameters each strategy reads; any other key is an error, so a
# misspelled key cannot fall back to a default unnoticed.
STRATEGY_PARAMS = {
    engine.STRATEGY_DYN_MPF: ("uniform_weights",),
    engine.STRATEGY_HIER_MPF: ("tiers", "shortlist_fractions"),
    engine.STRATEGY_STATIC_SUBSET: ("subset",),
}


def _check_strategy_params(name: str, params) -> None:
    """Reject unknown keys and type-check the parameters _run_strategy reads."""
    field = f"strategies.{name}"
    check_json_type(params, (dict, type(None)), "an object or null", field)
    params = params or {}
    for key in params:
        if key not in STRATEGY_PARAMS.get(name, ()):
            raise ConfigError(f"unknown parameter; {name} takes "
                              f"{list(STRATEGY_PARAMS.get(name, ()))}",
                              field=f"{field}.{key}")
    if params.get("uniform_weights") is not None:
        check_json_type(params["uniform_weights"], bool, "true or false",
                        f"{field}.uniform_weights")
    if params.get("tiers") is not None:
        tiers = _check_list(params["tiers"], list, "lists", f"{field}.tiers")
        for i, tier in enumerate(tiers):
            _check_list(tier, str, "technique names", f"{field}.tiers[{i}]")
    if params.get("shortlist_fractions") is not None:
        _check_list(params["shortlist_fractions"], (int, float), "numbers",
                    f"{field}.shortlist_fractions")
    if params.get("subset") is not None:
        _check_list(params["subset"], str, "technique names", f"{field}.subset")


def _load_manifest(path: str) -> RunManifest:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config file does not exist", field="config")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON ({exc})", field="config")
    return RunManifest.from_dict(raw)


def _apply_overrides(manifest: RunManifest, args) -> RunManifest:
    cfg = manifest.config
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    if getattr(args, "r_window", None) is not None:
        cfg = replace(cfg, r_window=args.r_window)
    if getattr(args, "frame_sep", None) is not None:
        cfg = replace(cfg, frame_separation_f=args.frame_sep)
    manifest.config = cfg
    if getattr(args, "strategy", None):
        for name in args.strategy:
            if name not in engine.STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {name!r}; choose from {list(engine.STRATEGIES)}",
                    field="--strategy",
                )
            manifest.strategies.setdefault(name, {})
    if getattr(args, "recall_k", None):
        manifest.recall_k = _parse_int_list(args.recall_k, "--recall-k")
    if getattr(args, "out", None):
        manifest.out_dir = args.out
    return manifest


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError("must be a comma-separated integer list", field=flag)
    if not values or any(v < 1 for v in values):
        raise ConfigError("entries must be positive integers", field=flag)
    return values


def _resolve_paths(manifest: RunManifest, base: Path) -> None:
    """Paths in a manifest are relative to the manifest's directory."""

    def resolve(p: str) -> str:
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    for entry in manifest.techniques:
        for key in ("similarity", "query", "database"):
            if key in entry:
                entry[key] = resolve(entry[key])
    manifest.ground_truth = resolve(manifest.ground_truth)


def _check_inputs_exist(manifest: RunManifest) -> None:
    for i, entry in enumerate(manifest.techniques):
        for key in ("similarity", "query", "database"):
            if key in entry and not Path(entry[key]).is_file():
                raise ConfigError(
                    f"path {entry[key]} does not exist or is not a file",
                    field=f"techniques[{i}].{key}",
                )
    if not Path(manifest.ground_truth).is_file():
        raise ConfigError(
            f"path {manifest.ground_truth} does not exist or is not a file",
            field="ground_truth",
        )


def _load_ground_truth(path: str, tensor) -> GroundTruth:
    """Load ground truth that must cover every query of ``tensor``."""
    try:
        gt = GroundTruth.from_json(path, tensor.database_size)
    except json.JSONDecodeError:
        raise  # not JSON at all: main reports it as an I/O error
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="ground_truth") from exc
    if gt.queries != tensor.queries:
        raise ConfigError(
            f"ground truth covers {gt.queries} queries, tensor has {tensor.queries}",
            field="ground_truth",
        )
    return gt


def _run_strategy(name, params, tensor, config, gt, workers):
    if name == engine.STRATEGY_DYN_MPF:
        return engine.run_dyn_mpf(
            tensor, config, workers=workers,
            uniform_weights=params.get("uniform_weights") or False,
        )
    if name == engine.STRATEGY_FULL_MPF:
        return engine.run_full_mpf(tensor, config, workers=workers)
    if name == engine.STRATEGY_RANDOM_PAIR:
        return engine.run_random_pair(tensor, config, workers=workers)
    if name == engine.STRATEGY_HIER_MPF:
        tiers = params.get("tiers")
        if tiers is not None:
            name_to_idx = {t: i for i, t in enumerate(tensor.names)}
            try:
                tiers = [[name_to_idx[t] for t in tier] for tier in tiers]
            except KeyError as exc:
                raise ConfigError(
                    f"unknown technique {exc.args[0]!r} in tiers",
                    field="strategies.hier-mpf.tiers",
                )
        return engine.run_hier_mpf(
            tensor, config, tiers=tiers,
            shortlist_fractions=params.get("shortlist_fractions"),
            workers=workers,
        )
    if name == engine.STRATEGY_STATIC_SUBSET:
        members = params.get("subset")
        if not members:
            raise ConfigError(
                "static-subset needs a 'subset' list of technique names",
                field="strategies.static-subset.subset",
            )
        name_to_idx = {t: i for i, t in enumerate(tensor.names)}
        try:
            subset = [name_to_idx[t] for t in members]
        except KeyError as exc:
            raise ConfigError(
                f"unknown technique {exc.args[0]!r} in subset",
                field="strategies.static-subset.subset",
            )
        return engine.run_static_subset(tensor, config, subset, workers=workers)
    if name == engine.STRATEGY_BEST_SINGLE_ORACLE:
        return engine.run_best_single_oracle(tensor, config, gt, workers=workers)
    raise ConfigError(f"unknown strategy {name!r}", field="strategies")


def cmd_run(args) -> int:
    manifest = _load_manifest(args.config)
    _resolve_paths(manifest, Path(args.config).resolve().parent)
    manifest = _apply_overrides(manifest, args)
    if not manifest.strategies:
        raise ConfigError(
            "no strategies requested (set manifest 'strategies' or pass --strategy)",
            field="strategies",
        )
    _check_inputs_exist(manifest)

    tensor = ingest.load_similarity_tensor(manifest.techniques)
    manifest.config.validate(
        tensor.n_techniques, tensor.database_size,
        require_subsets=engine.STRATEGY_DYN_MPF in manifest.strategies,
    )
    if max(manifest.recall_k) > tensor.database_size:
        raise ConfigError(
            f"K={max(manifest.recall_k)} exceeds the database size "
            f"({tensor.database_size})",
            field="recall_k",
        )
    gt = _load_ground_truth(manifest.ground_truth, tensor)

    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    workers = args.workers

    summary = {
        "config": manifest.config.to_dict(),
        "inputs": {
            "techniques": manifest.techniques,
            "ground_truth": manifest.ground_truth,
        },
        "techniques": tensor.names,
        "queries": tensor.queries,
        "database_size": tensor.database_size,
        "recall_k": manifest.recall_k,
        "histogram_bins": manifest.histogram_bins,
        "workers": workers,
        "strategies": {},
        "timings_seconds": {},
        "outputs": [],
    }
    total_start = time.perf_counter()
    for name in sorted(manifest.strategies):
        params = manifest.strategies[name] or {}
        start = time.perf_counter()
        result = _run_strategy(name, params, tensor, manifest.config, gt, workers)
        elapsed = time.perf_counter() - start
        report = evaluate.recall_at_k(result, result.fused, gt, manifest.recall_k)
        hist = evaluate.aliasing_histogram(result, gt, manifest.histogram_bins)

        result_path = out / f"result_{name}.json"
        recall_json = out / f"recall_{name}.json"
        recall_csv = out / f"recall_{name}.csv"
        hist_csv = out / f"histogram_{name}.csv"
        engine.write_result_json(result, tensor.names, result_path)
        evaluate.write_recall_outputs(report, recall_json, recall_csv)
        evaluate.write_histogram_outputs(hist, hist_csv)

        summary["strategies"][name] = {
            "params": result.params,
            "recall_at": {str(k): v for k, v in sorted(report.recall_at.items())},
            "valid_queries": report.valid_queries,
        }
        summary["timings_seconds"][name] = elapsed
        summary["outputs"] += [
            str(result_path), str(recall_json), str(recall_csv), str(hist_csv)
        ]
        log.info("%s: recall@1=%.4f (%.2fs)", name,
                 report.recall_at.get(1, float("nan")), elapsed)
    summary["timings_seconds"]["total"] = time.perf_counter() - total_start
    evaluate.write_json(summary, out / "run_summary.json")
    print(json.dumps(
        {"status": "ok", "out_dir": str(out),
         "strategies": sorted(manifest.strategies)},
    ))
    return EXIT_OK


def cmd_sweep(args) -> int:
    manifest = _load_manifest(args.config)
    _resolve_paths(manifest, Path(args.config).resolve().parent)
    manifest = _apply_overrides(manifest, args)
    f_values = _parse_int_list(args.f_values, "--f-values")
    _check_inputs_exist(manifest)

    tensor = ingest.load_similarity_tensor(manifest.techniques)
    manifest.config.validate(tensor.n_techniques, tensor.database_size)
    gt = _load_ground_truth(manifest.ground_truth, tensor)

    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    reports = evaluate.frame_separation_sweep(
        tensor, gt, manifest.config, f_values, workers=args.workers
    )
    rows = [
        [f, reports[f].recall_at[1], reports[f].valid_queries]
        for f in sorted(reports)
    ]
    evaluate.write_csv(out / "sweep.csv", ["f", "recall_at_1", "valid_queries"], rows)
    evaluate.write_json(
        {
            "config": manifest.config.to_dict(),
            "f_values": sorted(reports),
            "recall_at_1": {str(f): reports[f].recall_at[1] for f in reports},
            "timings_seconds": {"total": time.perf_counter() - start},
        },
        out / "sweep.json",
    )
    print(json.dumps({"status": "ok", "out_dir": str(out),
                      "f_values": sorted(reports)}))
    return EXIT_OK


def cmd_synth(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise ConfigError("spec file does not exist", field="--spec")
    spec = synth.SynthSpec.from_json(spec_path)
    if args.seed is not None:
        spec.seed = args.seed
    tensor, gt = synth.generate(spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for tech in tensor.techniques:
        path = out / f"{tech.name}.f32"
        ingest.write_matrix(
            path, tensor.data[tech.index].astype(np.float32),
            role="similarity", technique=tech.name,
        )
        entries.append({"name": tech.name, "similarity": path.name})
    gt.to_json(out / "ground_truth.json")
    spec.to_json(out / "spec.json")
    manifest = {
        "techniques": entries,
        "ground_truth": "ground_truth.json",
        "config": {"r_window": spec.r_window, "rng_seed": spec.seed},
        "strategies": {"dyn-mpf": {}, "full-mpf": {}},
        "recall_k": [1, 5],
        "out_dir": str(out / "results"),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "status": "ok", "out_dir": str(out),
        "techniques": tensor.names,
        "queries": tensor.queries, "database_size": tensor.database_size,
    }))
    return EXIT_OK


def cmd_ingest_check(args) -> int:
    failures = 0
    for path in args.paths:
        try:
            arr, meta = ingest.load_matrix(path)
        except (DynfuseError, OSError) as exc:
            print(f"FAIL {path}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        print(
            f"OK   {path}: {meta['rows']}x{meta['cols']} "
            f"role={meta['role']} technique={meta['technique']}"
        )
    return EXIT_OK if failures == 0 else EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynfuse",
        description="Dynamic multi-process fusion over precomputed similarity data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run manifest")
        p.add_argument("--out", help="output directory (overrides manifest)")
        p.add_argument("--workers", type=int,
                       default=os.cpu_count() or 1,
                       help="accepted for compatibility; runs are single-threaded "
                            "and output does not depend on it")
        p.add_argument("--seed", type=int, help="override config rng_seed")
        p.add_argument("--strategy", action="append",
                       help="strategy to run (repeatable)")
        p.add_argument("--r-window", dest="r_window", type=int,
                       help="override config r_window")
        p.add_argument("--frame-sep", dest="frame_sep", type=int,
                       help="override config frame_separation_f")
        p.add_argument("--recall-k", dest="recall_k",
                       help="comma-separated K values for recall")

    p_run = sub.add_parser("run", help="execute strategies and write results")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="recall vs calibration period")
    add_common(p_sweep)
    p_sweep.add_argument("--f-values", dest="f_values", default="1,5,10,25,50",
                         help="comma-separated frame separations")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic benchmark")
    p_synth.add_argument("--spec", required=True, help="JSON benchmark spec")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, help="override spec seed")
    p_synth.set_defaults(fn=cmd_synth)

    p_check = sub.add_parser("ingest-check", help="validate matrix/sidecar pairs")
    p_check.add_argument("paths", nargs="+", help="matrix payload paths")
    p_check.set_defaults(fn=cmd_ingest_check)
    return parser


def _error_json(kind: str, exc: Exception) -> str:
    payload = {"status": "error", "error": kind, "message": str(exc)}
    if isinstance(exc, ConfigError) and exc.field:
        payload["field"] = exc.field
    return json.dumps(payload)


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("DYNFUSE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(_error_json("ConfigError", exc))
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(_error_json("IoError", exc))
        return EXIT_IO
    except DynfuseError as exc:
        print(_error_json(type(exc).__name__, exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
