#!/usr/bin/env python3
"""Time the subset search on seeded N x D shapes and print one JSON line per
shape, so its cost can be followed as N and D grow and two checkouts can be
compared:

  {"shape": "10x1000", "n": 10, "d": 1000, "searches": 35,
   "median_ms": ..., "chunk_median_ms": ..., "digest": "..."}

Each shape's inputs are 5 seeded random (N, D) arrays, min-max normalized
per technique as every strategy does, with r_window = 2. A sample times
one loop of 5 ``fusion.select_best_subset`` calls, one per input; a chunk
sample times the 5 inputs as one ``fusion.select_best_subsets`` chunk, the
path dyn-mpf takes (a checkout without it searches the chunk query by
query). A run takes 8 samples of each kind, the chunk's after the loop's,
and drops the first of each, which carries one-off costs, so ``searches``
is 35; ``median_ms`` and ``chunk_median_ms`` are the median samples
divided by 5. A sample spans 5 searches rather than one, so a pause of the
host lands in fewer samples and moves the median less. ``digest`` is a
SHA-256 over every chosen subset and the exact bits of its score, from the
loop and from the chunk, so it is equal on two checkouts whose searches
agree. Random inputs have no dominant peak, so the search's bound prunes
little on them: they time its worst case, and stay the default.

``--spec FILE`` (repeatable) times the search on peaked inputs instead:
every query of the ``dynfuse synth`` output for that spec at ``--seed``
(default 7), written by this checkout's code and loaded as float32
payloads the way ``scripts/fuse_timing.py --spec`` builds its inputs,
each query's vectors normalized as above, with the spec's r_window. Its
line also names the spec, and ``searches`` is 7 times the spec's query
count. ``--shape`` and ``--spec`` can be given together:

  python3 scripts/search_timing.py --spec peaked.json --against /path/to/parent

The code timed is that of the checkout given by ``--repo`` (default: the
one holding this script), copied to a temporary directory and imported
under a package name of its own:

  python3 scripts/search_timing.py
  python3 scripts/search_timing.py --repo /path/to/parent/checkout
  python3 scripts/search_timing.py --shape 10x1000 --shape 12x1000

``--against PATH`` compares two checkouts in one process: per shape,
``--rounds`` runs of each (default 5), the two checkouts' runs of a round
back to back and in alternating order, so a slow spell of the host lands
on both. It prints per shape the median over the rounds of each
checkout's ``median_ms``, their ratio (``--repo`` over ``--against``, so
below 1 is faster), the median over the rounds of each round's own ratio,
the same three for ``chunk_median_ms``, and whether every run's digest
agrees:

  python3 scripts/search_timing.py --against /path/to/parent --rounds 9

  {"shape": "10x1000", "n": 10, "d": 1000, "rounds": 9, "median_ms": ...,
   "against_median_ms": ..., "ratio": ..., "paired_ratio": ...,
   "chunk_median_ms": ..., "against_chunk_median_ms": ..., "chunk_ratio": ...,
   "chunk_paired_ratio": ..., "digests_agree": true}
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
SHAPES = ("4x300", "6x1000", "4x4000", "8x300", "10x1000", "10x4000", "12x1000",
          "8x30000", "10x30000", "4x100000")


def _parse_shape(text: str) -> tuple[int, int]:
    n, _, d = text.partition("x")
    try:
        shape = int(n), int(d)
    except ValueError:
        shape = (0, 0)
    # a window of r_window = 2 must leave an entry outside it
    if shape[0] < 2 or shape[1] < 6:
        raise argparse.ArgumentTypeError(f"expected NxD with N >= 2, D >= 6: {text!r}")
    return shape


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return value


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


def random_inputs(n: int, d: int, queries: int = 5) -> dict:
    """The seeded random inputs of the shape N x D."""
    rng = np.random.default_rng([n, d])
    return {"raws": [rng.random((n, d)) for _ in range(queries)], "r_window": 2}


def spec_inputs(path: Path, seed: int, work: Path) -> dict:
    """Every query's (N, D) similarities in the ``dynfuse synth`` output
    for the spec file ``path`` at ``seed``, written in ``work``."""
    import dynfuse  # this checkout's, on the path main sets
    from fuse_timing import library_inputs, synth_inputs  # scripts/ leads the path

    spec = json.loads(path.read_text())
    r_window = spec.get("r_window", 0)
    techniques = synth_inputs(spec, seed, work)
    tensor, _ = library_inputs(dynfuse, work / "inputs", techniques,
                               {"r_window": r_window})
    return {"raws": list(tensor.data.transpose(1, 0, 2)), "r_window": r_window,
            "spec": path.stem}


def time_shape(package, case: dict, repeats: int = 7) -> dict:
    """Time every search of one set of inputs (see random_inputs and
    spec_inputs) on the dynfuse ``package``."""
    fusion = package.fusion
    config = package.core.FusionConfig(r_window=case["r_window"])
    queries = len(case["raws"])
    n, d = case["raws"][0].shape
    inputs = [fusion.normalize_query_slices(raw) for raw in case["raws"]]
    chunk = np.stack([normalized for normalized, _ in inputs], axis=1)
    constant = np.array([[t in degenerate for _, degenerate in inputs] for t in range(n)])

    def search_each():
        return [fusion.select_best_subset(normalized, config, degenerate)
                for normalized, degenerate in inputs]

    def search_chunk():
        if hasattr(fusion, "select_best_subsets"):
            return fusion.select_best_subsets(chunk, constant, config)
        return search_each()

    def sample(search):
        """The last results of ``repeats`` + 1 timed calls, and the median
        ms per search of all but the first call."""
        times = []
        for _ in range(repeats + 1):
            start = time.perf_counter()
            results = search()
            times.append(time.perf_counter() - start)
        return results, round(float(np.median(times[1:])) / queries * 1e3, 4)

    bests, median_ms = sample(search_each)
    chunk_bests, chunk_median_ms = sample(search_chunk)
    sha = hashlib.sha256()
    for best in bests + chunk_bests:
        sha.update(repr((best.subset, best.score.hex())).encode())
    return {"shape": f"{n}x{d}", "n": n, "d": d,
            **({"spec": case["spec"]} if "spec" in case else {}),
            "searches": queries * repeats, "median_ms": median_ms,
            "chunk_median_ms": chunk_median_ms, "digest": sha.hexdigest()}


def _ratios(runs, key: str, prefix: str) -> dict:
    """Per checkout, the median over the rounds of ``key``; their ratio and
    the median of each round's own ratio, named with ``prefix``."""
    mine, theirs = ([r[key] for r in rows] for rows in runs)
    median, their_median = statistics.median(mine), statistics.median(theirs)
    paired = statistics.median(a / b for a, b in zip(mine, theirs))
    return {key: round(median, 4), f"against_{key}": round(their_median, 4),
            f"{prefix}ratio": round(median / their_median, 3),
            f"{prefix}paired_ratio": round(paired, 3)}


def compare(packages, sets, rounds: int) -> None:
    """Time each set of inputs in ``rounds`` runs of each package, the two
    runs of a round back to back and in alternating order; print one
    summary line per set."""
    for inputs in sets:
        runs: tuple[list, list] = ([], [])
        for i in range(rounds):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                runs[side].append(time_shape(packages[side], inputs))
        first = runs[0][0]
        print(json.dumps({
            **{key: first[key] for key in ("shape", "n", "d", "spec") if key in first},
            "rounds": rounds,
            **_ratios(runs, "median_ms", ""),
            **_ratios(runs, "chunk_median_ms", "chunk_"),
            "digests_agree": len({r["digest"] for r in runs[0] + runs[1]}) == 1,
        }), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=Path, default=HERE,
                        help="checkout whose code runs (default: this one)")
    parser.add_argument("--shape", type=_parse_shape, action="append",
                        help=f"NxD, repeatable (default: {' '.join(SHAPES)})")
    parser.add_argument("--against", type=Path,
                        help="second checkout to compare with, over --rounds runs each")
    parser.add_argument("--rounds", type=_positive, default=5,
                        help="runs per checkout with --against (default: 5)")
    parser.add_argument("--spec", type=Path, action="append",
                        help="time every query of this synth spec's output, repeatable")
    parser.add_argument("--seed", type=int, default=7,
                        help="synth seed for --spec (default: 7)")
    args = parser.parse_args()
    shapes = args.shape or ([] if args.spec else [_parse_shape(s) for s in SHAPES])
    sys.path.insert(0, str(HERE / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sets = [random_inputs(n, d) for n, d in shapes]
        for i, path in enumerate(args.spec or []):
            (tmp / f"spec{i}").mkdir()
            sets.append(spec_inputs(path, args.seed, tmp / f"spec{i}"))
        package = load_package(args.repo.resolve(), "dynfuse_timed", tmp)
        if args.against is None:
            for inputs in sets:
                print(json.dumps(time_shape(package, inputs)), flush=True)
            return
        against = load_package(args.against.resolve(), "dynfuse_against", tmp)
        compare((package, against), sets, args.rounds)


if __name__ == "__main__":
    main()
