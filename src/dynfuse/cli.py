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
import re
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import engine, evaluate, ingest, synth
from .core import FusionConfig, GroundTruth, json_field, read_json_object
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
class TechniqueEntry:
    """The JSON keys of one manifest technique entry. An entry stays the
    dict it was read as, so run_summary.json echoes it."""

    name: str = json_field(str, "a string")
    similarity: str | None = json_field(str, "a path string", default=None)
    query: str | None = json_field(str, "a path string", default=None)
    database: str | None = json_field(str, "a path string", default=None)
    metric: str = json_field(str, "a metric name", default=ingest.METRICS[0])


_NAMES = (list, "a list of technique names", (str, "a technique name"))


@dataclass
class DynParams:
    uniform_weights: bool | None = json_field((bool, type(None)), "true, false or null",
                                              default=None)


@dataclass
class HierParams:
    tiers: list | None = json_field((list, type(None)), "a list of lists",
                                    items=_NAMES, default=None)
    shortlist_fractions: list | None = json_field(
        (list, type(None)), "a list of numbers", items=((int, float), "a number"),
        default=None)


@dataclass
class StaticParams:
    subset: list | None = json_field(*_NAMES, default=None)


@dataclass
class NoParams:
    pass


# The parameters each strategy reads; any other key is an error, so a
# misspelled key cannot fall back to a default unnoticed.
STRATEGY_PARAMS = {
    engine.STRATEGY_DYN_MPF: DynParams,
    engine.STRATEGY_HIER_MPF: HierParams,
    engine.STRATEGY_STATIC_SUBSET: StaticParams,
}


@dataclass
class RunManifest:
    """Validated run description: inputs, config, strategies, outputs."""

    techniques: list = json_field(list, "a non-empty list", items=(dict, "an object"))
    ground_truth: str = json_field(str, "a path string")
    # an object until from_dict replaces it with its FusionConfig
    config: FusionConfig = json_field(dict, "an object", default_factory=dict)
    strategies: dict = json_field((list, dict), "a list of names or a name->params object",
                                  items=(str, "a strategy name"), default_factory=dict)
    recall_k: list[int] = json_field(list, "a list of integers", items=(int, "an integer"),
                                     default_factory=lambda: [1, 5])
    histogram_bins: int = json_field(int, "an integer", default=10)
    out_dir: str = json_field(str, "a path string", default="out")

    @classmethod
    def from_dict(cls, raw) -> "RunManifest":
        """Build a manifest from the parsed JSON object ``raw`` with
        read_json_object: every object in it (the manifest, its config, each
        technique entry, each strategy's parameters) rejects unknown keys
        and values of the wrong JSON type. Ranges are checked here, and a
        technique entry takes one source, a ``similarity`` path or a
        ``query``/``database`` pair, with ``metric`` only beside the pair.
        Every error is a ConfigError."""
        m = cls(**read_json_object(cls, raw, "manifest"))
        if not m.techniques:
            raise ConfigError("must be a non-empty list", field="techniques")
        for i, entry in enumerate(m.techniques):
            where = f"techniques[{i}]"
            read_json_object(TechniqueEntry, entry, where, f"{where}.")
            sources = [key for key in ("similarity", "query", "database") if key in entry]
            if sources not in (["similarity"], ["query", "database"]):
                raise ConfigError("needs exactly one source: a 'similarity' path or "
                                  "'query' and 'database' paths", field=where)
            for key in sources:
                _check_path(entry[key], f"{where}.{key}")
            if "metric" in entry and ("similarity" in entry
                                      or entry["metric"] not in ingest.METRICS):
                raise ConfigError(f"must be one of {list(ingest.METRICS)}, beside "
                                  f"'query' and 'database' only", field=f"{where}.metric")
        names = [entry["name"] for entry in m.techniques]
        if len(set(names)) != len(names):
            raise ConfigError(f"technique names must be unique, got {names}",
                              field="techniques")
        _check_path(m.ground_truth, "ground_truth")
        m.config = FusionConfig.from_dict(m.config)
        if isinstance(m.strategies, list):
            m.strategies = {name: {} for name in m.strategies}
        for name, params in m.strategies.items():
            _check_strategy_name(name, "strategies")
            where = f"strategies.{name}"
            m.strategies[name] = read_json_object(STRATEGY_PARAMS.get(name, NoParams),
                                                  {} if params is None else params,
                                                  where, f"{where}.")
        if not m.recall_k or any(k < 1 for k in m.recall_k):
            raise ConfigError("must be a non-empty list of positive integers",
                              field="recall_k")
        if not 1 <= m.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"must lie in [1, {MAX_HISTOGRAM_BINS}]",
                              field="histogram_bins")
        _check_path(m.out_dir, "out_dir")
        return m


def _check_path(value: str, field: str) -> None:
    if not value or "\x00" in value:
        raise ConfigError("must be a non-empty path without NUL characters",
                          field=field)


def _check_strategy_name(name: str, field: str) -> None:
    if name not in engine.STRATEGIES:
        raise ConfigError(
            f"unknown strategy {name!r}; choose from {list(engine.STRATEGIES)}",
            field=field,
        )


def _load_manifest(path: str) -> RunManifest:
    """The checked manifest at ``path``. Its input paths are resolved
    against the manifest's directory, and each must name a file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError("config file does not exist", field="config")
    try:
        raw = json.loads(p.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON ({exc})", field="config")
    manifest = RunManifest.from_dict(raw)
    base = p.resolve().parent

    def resolve(value: str, field: str) -> str:
        path = base / value  # an absolute value replaces base
        if not path.is_file():
            raise ConfigError(f"path {path} does not exist or is not a file",
                              field=field)
        return str(path)

    for i, entry in enumerate(manifest.techniques):
        for key in ("similarity", "query", "database"):
            if key in entry:
                entry[key] = resolve(entry[key], f"techniques[{i}].{key}")
    manifest.ground_truth = resolve(manifest.ground_truth, "ground_truth")
    return manifest


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
            _check_strategy_name(name, "--strategy")
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


def _load_inputs(manifest: RunManifest, require_subsets: bool):
    """The manifest's tensor and its ground truth, which must cover every
    query; the config is checked against the tensor in between."""
    tensor = ingest.load_similarity_tensor(manifest.techniques)
    manifest.config.validate(tensor.n_techniques, tensor.database_size,
                             require_subsets=require_subsets)
    try:
        gt = GroundTruth.from_json(manifest.ground_truth, tensor.database_size)
    except json.JSONDecodeError:
        raise  # not JSON at all: main reports it as an I/O error
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), field="ground_truth") from exc
    if gt.queries != tensor.queries:
        raise ConfigError(
            f"ground truth covers {gt.queries} queries, tensor has {tensor.queries}",
            field="ground_truth",
        )
    return tensor, gt


def _technique_indices(names, tensor, field: str) -> list[int]:
    """Indices of the technique ``names`` in ``tensor``; an unknown name is
    a ConfigError on ``field``."""
    for t in names:
        if t not in tensor.names:
            raise ConfigError(f"unknown technique {t!r} in {field.rsplit('.', 1)[-1]}",
                              field=field)
    return [tensor.names.index(t) for t in names]


def _run_strategy(name, params, tensor, config, gt, workers):
    """Run strategy ``name`` with its manifest ``params``. A ConfigError on
    one of those parameters names it by its manifest path, as
    strategies.<name>.<parameter>."""
    try:
        return _strategy_result(name, params, tensor, config, gt, workers)
    except ConfigError as exc:
        if exc.field not in {f.name for f in fields(STRATEGY_PARAMS.get(name, NoParams))}:
            raise
        raise ConfigError(exc.reason, field=f"strategies.{name}.{exc.field}") from exc


def _strategy_result(name, params, tensor, config, gt, workers):
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
            tiers = [_technique_indices(tier, tensor, "strategies.hier-mpf.tiers")
                     for tier in tiers]
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
        subset = _technique_indices(members, tensor, "strategies.static-subset.subset")
        return engine.run_static_subset(tensor, config, subset, workers=workers)
    # the last name _check_strategy_name lets through
    return engine.run_best_single_oracle(tensor, config, gt, workers=workers)


def cmd_run(args) -> int:
    manifest = _apply_overrides(_load_manifest(args.config), args)
    if not manifest.strategies:
        raise ConfigError(
            "no strategies requested (set manifest 'strategies' or pass --strategy)",
            field="strategies",
        )
    tensor, gt = _load_inputs(manifest, engine.STRATEGY_DYN_MPF in manifest.strategies)
    if max(manifest.recall_k) > tensor.database_size:
        raise ConfigError(
            f"K={max(manifest.recall_k)} exceeds the database size "
            f"({tensor.database_size})",
            field="recall_k",
        )

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
        start = time.perf_counter()
        result = _run_strategy(name, manifest.strategies[name], tensor, manifest.config,
                               gt, workers)
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
    manifest = _apply_overrides(_load_manifest(args.config), args)
    f_values = _parse_int_list(args.f_values, "--f-values")
    tensor, gt = _load_inputs(manifest, True)

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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are ConfigErrors, which main
    prints as error JSON. The field is the flag argparse's message names,
    else "argv". Subcommand parsers are of the same class."""

    def error(self, message):
        named = re.fullmatch(r"argument (--[\w-]+): (.*)", message, re.DOTALL)
        if named:
            raise ConfigError(named[2], field=named[1])
        missing = re.fullmatch(r"the following arguments are required: (--[\w-]+)",
                               message)
        raise ConfigError(message, field=missing[1] if missing else "argv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _log_level() -> str:
    """The level named by DYNFUSE_LOG (WARNING when unset)."""
    level = os.environ.get("DYNFUSE_LOG", "WARNING").upper()
    # getLevelName maps a known name to its number and anything else to a
    # string such as "Level NOPE"
    if not isinstance(logging.getLevelName(level), int):
        raise ConfigError(f"unknown log level {level!r}; choose DEBUG, INFO, "
                          f"WARNING, ERROR or CRITICAL", field="DYNFUSE_LOG")
    return level


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=_log_level(),
                            format="%(levelname)s %(name)s: %(message)s")
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
