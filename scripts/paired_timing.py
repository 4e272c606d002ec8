#!/usr/bin/env python3
"""Time dyn-mpf and its subset search on two checkouts in one process and
print one JSON line per input and call, so a change of about 10% can be told
from the noise of a shared host:

  python3 scripts/paired_timing.py --against /path/to/parent
  python3 scripts/paired_timing.py --against /path/to/parent --spec a.json --shape 10x1000

  {"input": "dyn-wide", "call": "run_dyn_mpf", "rounds": 10, "median_ms": ...,
   "against_median_ms": ..., "paired_ratio": ..., "rounds_won": ...,
   "minflt_per_call": ..., "against_minflt_per_call": ...,
   "peak_mib": ..., "against_peak_mib": ...}

Each checkout's ``src/dynfuse`` is copied to a temporary directory under a
package name of its own and imported. The inputs are perfbench/workloads.py's
three specs, each at its workload's F, or else, at F = 1, each ``--spec``
synth spec file (named by its stem) and each ``--shape`` of 5 seeded random
(N, D) queries at r_window 2. ``dynfuse synth`` writes a spec's inputs at
``--seed`` with this checkout's code, loaded as float32 payloads. Per input,
two calls are timed: ``engine.run_dyn_mpf``, and one
``fusion.select_best_subsets`` on the calibration queries (every F-th),
each normalized alone, stacked into one C-contiguous (N, B, D) chunk. A call
gets an untimed warm-up round, then ``--rounds`` rounds that call each side
once, in alternating order. ``paired_ratio`` is the median of the rounds'
own ratios, this checkout over ``--against``, so below 1 is faster;
``rounds_won`` counts the rounds this checkout was faster; ``minflt`` is a
call's mean minor page faults and ``peak_mib`` its tracemalloc peak beyond
what it leaves allocated. Any difference between the sides (run_dyn_mpf's
records or ``fused`` bytes; a search's subset, score bits or error) stops
the script with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import re
import resource
import runpy
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
SIDES = ("dynfuse_here", "dynfuse_against")


def _positive(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return int(text)


def _shape(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)x(\d+)", text)
    # a window of r_window = 2 must leave an entry outside it
    if not match or int(match[1]) < 2 or int(match[2]) < 6:
        raise argparse.ArgumentTypeError(f"expected NxD with N >= 2, D >= 6: {text!r}")
    return int(match[1]), int(match[2])


def load_package(checkout: Path, name: str, into: Path):
    """Import ``checkout``'s src/dynfuse as the package ``name`` from a copy
    in ``into``; the package imports its modules relatively."""
    shutil.copytree(checkout / "src" / "dynfuse", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(into))


def benchmark_specs() -> list[tuple[str, dict, int]]:
    """(workload, synth spec, F) of each perfbench/workloads.py workload."""
    workloads = runpy.run_path(str(HERE / "perfbench" / "workloads.py"))["WORKLOADS"]
    return [(name, w.spec, w.frame_separation_f) for name, w in workloads.items()]


def spec_input(name: str, spec: dict, f: int, seed: int, work: Path):
    """(name, per-technique Q x D matrices, names, config) of ``spec`` as
    ``dynfuse synth`` writes it at ``seed`` in ``work``."""
    from dynfuse import cli, ingest  # this checkout's, on the path main sets

    work.with_suffix(".json").write_text(json.dumps(spec))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["synth", "--spec", str(work.with_suffix(".json")),
                         "--out", str(work), "--seed", str(seed)])
    if code:
        raise SystemExit(f"dynfuse synth failed on {name}")
    techniques = json.loads((work / "manifest.json").read_text())["techniques"]
    arrays = [ingest.load_matrix(work / t["similarity"],
                                 expected_meta={"role": "similarity"})[0]
              for t in techniques]
    config = {"r_window": spec.get("r_window", 0), "rng_seed": seed,
              "frame_separation_f": f}
    return name, arrays, [t["name"] for t in techniques], config


def shape_input(n: int, d: int, seed: int):
    """spec_input's tuple for 5 seeded random (N, D) queries."""
    rng = np.random.default_rng([n, d])
    data = np.stack([rng.random((n, d)) for _ in range(5)], axis=1)
    config = {"r_window": 2, "rng_seed": seed, "frame_separation_f": 1}
    return f"{n}x{d}", list(data), [f"tech-{t:02d}" for t in range(n)], config


def calls(package, arrays, names, config: dict):
    """(call, function, key) of each timed call on ``package``: two sides'
    results agree when their keys are equal."""
    tensor = package.ingest.assemble_tensor(arrays, names)
    config = package.core.FusionConfig(**config)
    fusion = package.fusion
    inputs = [fusion.normalize_query_slices(tensor.data[:, q])
              for q in range(0, tensor.data.shape[1], config.frame_separation_f)]
    chunk = np.stack([normalized for normalized, _ in inputs], axis=1)
    constant = np.array([[t in degenerate for _, degenerate in inputs]
                         for t in range(len(names))])

    def records(result):
        return result.fused.tobytes(), [r.to_json_dict(names) for r in result.records]

    def searches(results):
        return [(best.subset, best.score.hex()) if hasattr(best, "subset")
                else (type(best).__name__, str(best)) for best in results]

    return [("run_dyn_mpf", lambda: package.engine.run_dyn_mpf(tensor, config), records),
            ("select_best_subsets",
             lambda: fusion.select_best_subsets(chunk, constant, config), searches)]


def paired(name: str, call: str, functions, key, rounds: int) -> dict:
    """The line of ``call`` on the input ``name``; ``functions`` are its two
    sides, this checkout's first. A difference ends the script."""
    times, faults = ([], []), ([], [])
    for i in range(rounds + 1):  # round 0 warms both sides up, untimed
        keys = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            result = functions[side]()
            elapsed = time.perf_counter() - start
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt
            keys[side] = key(result)
            del result
            if i:
                times[side].append(elapsed)
                faults[side].append(minflt)
        if keys[0] != keys[1]:
            sys.exit(f"{name} {call}: the two checkouts' results differ")
    ratios = [a / b for a, b in zip(*times)]
    return {
        "input": name, "call": call, "rounds": rounds,
        "median_ms": round(statistics.median(times[0]) * 1e3, 3),
        "against_median_ms": round(statistics.median(times[1]) * 1e3, 3),
        "paired_ratio": round(statistics.median(ratios), 3),
        "rounds_won": sum(r < 1 for r in ratios),
        "minflt_per_call": round(statistics.fmean(faults[0]), 1),
        "against_minflt_per_call": round(statistics.fmean(faults[1]), 1),
        "peak_mib": _peak_mib(functions[0]), "against_peak_mib": _peak_mib(functions[1]),
    }


def _peak_mib(function) -> float:
    """tracemalloc peak of one call beyond what it leaves allocated."""
    tracemalloc.start()
    try:
        result = function()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return round((peak - current) / 2**20, 3)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", type=Path, required=True,
                        help="second checkout to compare with")
    parser.add_argument("--spec", type=Path, action="append", default=[],
                        help="time this synth spec file at F = 1, repeatable")
    parser.add_argument("--shape", type=_shape, action="append", default=[],
                        help="time 5 seeded random N x D queries, repeatable")
    parser.add_argument("--rounds", type=_positive, default=10,
                        help="timed rounds per input and call (default: 10)")
    parser.add_argument("--seed", type=int, default=7, help="synth seed (default: 7)")
    args = parser.parse_args()
    specs = ([(path.stem, json.loads(path.read_text()), 1) for path in args.spec]
             if args.spec or args.shape else benchmark_specs())
    sys.path.insert(0, str(HERE / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        packages = [load_package(checkout, name, tmp / "packages")
                    for checkout, name in zip((HERE, args.against.resolve()), SIDES)]
        # two spec files may share a stem, so each gets a directory by number
        inputs = itertools.chain(
            (spec_input(*spec, args.seed, tmp / f"input{i}") for i, spec in enumerate(specs)),
            (shape_input(n, d, args.seed) for n, d in args.shape))
        for name, *loaded in inputs:
            sides = zip(*(calls(package, *loaded) for package in packages))
            lines = [paired(name, call, (mine, theirs), key, args.rounds)
                     for (call, mine, key), (_, theirs, _) in sides]
            print("\n".join(map(json.dumps, lines)), flush=True)


if __name__ == "__main__":
    main()
