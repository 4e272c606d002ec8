#!/usr/bin/env python3
"""Time ``engine.run_dyn_mpf`` on two checkouts in one process and print one
JSON line per workload, so a change to dyn-mpf's fusion of about 10% can be
told from the host's noise:

  python3 scripts/fuse_timing.py --against /path/to/parent
  python3 scripts/fuse_timing.py --against /path/to/parent --rounds 20 --seed 7
  python3 scripts/fuse_timing.py --against /path/to/parent --spec a.json --spec b.json

  {"workload": "baselines-bulk", "rounds": 20, "median_ms": ...,
   "against_median_ms": ..., "paired_ratio": ..., "rounds_won": ...,
   "minflt_per_call": ..., "against_minflt_per_call": ...,
   "peak_mib": ..., "against_peak_mib": ...}

Child-process timing (scripts/search_timing.py) puts a slow spell of a
shared host into all of one child's samples. Here each checkout's
``src/dynfuse`` is copied to a temporary directory under a package name of
its own and imported, so the two run side by side: each round calls one
side, then the other, in alternating order. Fields are the checkout holding
this script against ``--against``:

  median_ms          each side's median call (``against_median_ms``)
  paired_ratio       the median over the rounds of the round's own ratio,
                     this checkout over ``--against``, so below 1 is faster
  rounds_won         rounds whose call on this checkout was the faster
  minflt_per_call    mean minor page faults of a call (ru_minflt)
  peak_mib           tracemalloc peak of one traced call beyond what it
                     leaves allocated, its result included

The inputs are those of perfbench/workloads.py's specs (imported, not
changed) at ``--seed``: ``dynfuse synth`` writes them with this checkout's
code, and each side loads them as a library user does (float32 payloads,
``ingest.assemble_tensor``), with the workload's frame separation F and the
spec's r_window. ``--spec FILE`` (repeatable) times synth spec files of
one's own instead, at F = 1, one line each, named by the file's stem, so
several shapes share one process and one load of each checkout. The script
stops with exit code 1 if the two sides' records or ``fused`` arrays differ
on any call.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# scripts/ is this script's first path entry
from search_timing import _positive, load_package

HERE = Path(__file__).resolve().parents[1]
SIDES = ("dynfuse_here", "dynfuse_against")


def benchmark_specs() -> dict:
    """{workload: (synth spec, F)} from perfbench/workloads.py."""
    path = HERE / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_fuse_timing_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return {name: (w.spec, w.frame_separation_f) for name, w in module.WORKLOADS.items()}


def synth_inputs(spec: dict, seed: int, out: Path) -> list[dict]:
    """Write ``spec`` at ``seed`` with ``dynfuse synth``; returns the
    manifest's technique entries."""
    from dynfuse import cli

    (out / "spec.json").write_text(json.dumps(spec))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--spec", str(out / "spec.json"),
                         "--out", str(out / "inputs"), "--seed", str(seed)])
    if code:
        raise SystemExit(f"dynfuse synth failed on {spec}")
    return json.loads((out / "inputs" / "manifest.json").read_text())["techniques"]


def library_inputs(package, inputs: Path, techniques, config: dict):
    """The tensor and config of ``inputs`` as ``package`` loads them."""
    arrays = [package.ingest.load_matrix(inputs / t["similarity"],
                                         expected_meta={"role": "similarity"})[0]
              for t in techniques]
    tensor = package.ingest.assemble_tensor(arrays, [t["name"] for t in techniques])
    return tensor, package.core.FusionConfig(**config)


def _call(package, tensor, config):
    """(result, seconds, minor page faults) of one run_dyn_mpf call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = package.engine.run_dyn_mpf(tensor, config)
    elapsed = time.perf_counter() - start
    return result, elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def _peak_mib(package, tensor, config) -> float:
    """tracemalloc peak of one call beyond what it leaves allocated."""
    tracemalloc.start()
    try:
        result = package.engine.run_dyn_mpf(tensor, config)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return round((peak - current) / 2**20, 3)


def _same(results, names) -> bool:
    """Whether two results have equal records and ``fused`` bits."""
    mine, theirs = results
    return (mine.fused.tobytes() == theirs.fused.tobytes()
            and [r.to_json_dict(names) for r in mine.records]
            == [r.to_json_dict(names) for r in theirs.records])


def compare(packages, name: str, spec: dict, f: int, seed: int, rounds: int,
            work: Path) -> dict | None:
    """One workload's summary line, or None if the sides' outputs differ."""
    techniques = synth_inputs(spec, seed, work)
    config = {"r_window": spec.get("r_window", 0), "rng_seed": seed,
              "frame_separation_f": f}
    loaded = [library_inputs(p, work / "inputs", techniques, config) for p in packages]
    names = [t["name"] for t in techniques]
    times: tuple[list, list] = ([], [])
    faults: tuple[list, list] = ([], [])
    for i in range(rounds + 1):  # round 0 warms both sides up, untimed
        results = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            results[side], elapsed, minflt = _call(packages[side], *loaded[side])
            if i:
                times[side].append(elapsed)
                faults[side].append(minflt)
        if not _same(results, names):
            return None
        del results
    ratios = [a / b for a, b in zip(*times)]
    peaks = [_peak_mib(p, *inputs) for p, inputs in zip(packages, loaded)]
    return {
        "workload": name, "rounds": rounds,
        "median_ms": round(statistics.median(times[0]) * 1e3, 3),
        "against_median_ms": round(statistics.median(times[1]) * 1e3, 3),
        "paired_ratio": round(statistics.median(ratios), 3),
        "rounds_won": sum(r < 1 for r in ratios),
        "minflt_per_call": round(statistics.fmean(faults[0]), 1),
        "against_minflt_per_call": round(statistics.fmean(faults[1]), 1),
        "peak_mib": peaks[0], "against_peak_mib": peaks[1],
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, required=True,
                        help="second checkout to compare with")
    parser.add_argument("--spec", type=Path, action="append",
                        help="time this synth spec file at F = 1 instead, repeatable")
    parser.add_argument("--rounds", type=_positive, default=10,
                        help="timed calls per side and workload (default: 10)")
    parser.add_argument("--seed", type=int, default=7, help="synth seed (default: 7)")
    args = parser.parse_args()
    if args.spec:
        workloads = [(path.stem, json.loads(path.read_text()), 1) for path in args.spec]
    else:
        workloads = [(name, *spec) for name, spec in benchmark_specs().items()]
    sys.path.insert(0, str(HERE / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        packages = [load_package(checkout, name, tmp / "packages")
                    for checkout, name in zip((HERE, args.against.resolve()), SIDES)]
        for i, (name, spec, f) in enumerate(workloads):
            work = tmp / f"workload{i}"  # two spec files may share a stem
            work.mkdir()
            line = compare(packages, name, spec, f, args.seed, args.rounds, work)
            if line is None:
                print(f"{name}: the two checkouts' records or fused arrays differ",
                      file=sys.stderr)
                sys.exit(1)
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
