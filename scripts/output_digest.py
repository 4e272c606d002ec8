#!/usr/bin/env python3
"""Print one SHA-256 per output set of fixed, seeded dynfuse runs, so that
two checkouts can be compared for byte-identical output.

Output sets:

  synth       ``dynfuse synth`` on a fixed spec: the directory as written,
              its ``.f32`` payloads hashed as bytes
  run-F<f>    ``dynfuse run`` with all six strategies at frame separation f
              (1, 7 and 25), Recall@K up to K = D, so every full ranking
              counts
  sweep       ``dynfuse sweep`` at F = 1, 5, 25
  sweep-unordered
              ``dynfuse sweep`` at F = 25, 1, 5, 5: unordered and with a
              duplicate, so calibration searches shared across F values
              and a repeated F show in no output byte
  run-drift-F1
              ``dynfuse run`` as run-F1 on the spec with drift period 5,
              where dyn-mpf's subsets interleave (6 subsets in 25 runs),
              so queries grouped by subset are not consecutive
  run-descriptors
              ``dynfuse run`` as run-F1 on tech-00's similarity payload
              beside two seeded descriptor pairs, one cosine and one
              negative-euclidean, so the manifest's query/database entries
              and the descriptor-to-similarity path show in the digest
  run-recall-k5
              ``dynfuse run`` as run-F1 with Recall@K at K = 1 and 5 only,
              so the top-K ranking of finite rows takes its argmax passes
              instead of the full sort that K = D needs
  demo        scripts/run_synthetic_demo.py --out (result files and table)
  sweep-demo  scripts/sweep_frame_separation.py --out (CSV and table)
  synth-edges ``dynfuse synth`` as synth on a spec at r_window 0, with no
              echo on some techniques, never or always shared distractors
              on others, failure schedules, drift and a query count that
              is not a multiple of the generator's noise chunk

The inputs come from ``dynfuse synth`` with a fixed seed and noise on every
vector, and the script stops if any (technique, query) vector is constant,
so strategies' validity rules for no-information queries cannot move a
digest. Timing fields (``timings_seconds`` in run_summary.json and
sweep.json) are left out, and the scratch directory's path is replaced by a
fixed name.

Each set runs in a child process on the code of the checkout given by
``--repo`` (default: the one holding this script), so a change and its
parent can be compared with one command each:

  python3 scripts/output_digest.py
  python3 scripts/output_digest.py --repo /path/to/parent/checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SPEC = {
    "n_techniques": 5, "queries": 120, "database_size": 2000,
    "peak_strength": 1.0, "alias_strength": 0.5, "alias_secondary": 0.5,
    "alias_correlation": 0.1, "noise_sigma": 0.3, "drift_period": 30,
    "r_window": 2, "gt_tolerance": 2, "seed": 11,
}
# 6 x 500 float64 rows fill the 1 MiB noise chunk in 43 queries; 100 is not
# a multiple
EDGE_SPEC = {
    "n_techniques": 6, "queries": 100, "database_size": 500,
    "peak_strength": [1.0, 0.9, 0.7, 1.0, 0.6, 0.8],
    "alias_strength": [0.5, 0.8, 1.0, 0.4, 0.7, 0.9],
    "alias_secondary": [0.5, 0.0, 0.8, 0.0, 0.3, 0.0],
    "alias_correlation": [0.0, 1.0, 1.0, 0.0, 0.5, 1.0],
    "noise_sigma": [0.3, 0.1, 0.2, 0.3, 0.05, 0.25],
    "failure_schedule": [[[0, 10]], [], [[50, 60], [90, 100]], [], [], [[20, 30]]],
    "drift_period": 7, "r_window": 0, "gt_tolerance": 1, "seed": 23,
}
STRATEGIES = {
    "best-single-oracle": {},
    "dyn-mpf": {},
    "full-mpf": {},
    "hier-mpf": {"shortlist_fractions": [0.2, 0.05]},
    "random-pair": {},
    "static-subset": {"subset": ["tech-00", "tech-02"]},
}
TIMING_FILES = ("run_summary.json", "sweep.json")


def _run(repo: Path, work: Path, args: list[str]) -> str:
    """Run a Python child on ``repo``'s code in ``work``; return its stdout."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    done = subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
    return done.stdout


def _digest(work: Path, outputs: list[Path], stdout: str) -> str:
    """SHA-256 over the given files (for a directory, every file in it) and
    the child's stdout, without timings and with the scratch path named
    ``<work>`` in text files; ``.f32`` payloads are hashed as bytes."""
    files = sorted(f for p in outputs for f in ([p] if p.is_file() else p.rglob("*"))
                   if f.is_file())
    sha = hashlib.sha256()
    for path in files:
        if path.suffix == ".f32":
            sha.update(f"{path.relative_to(work)}\0".encode() + path.read_bytes() + b"\0")
            continue
        text = path.read_text()
        if path.name in TIMING_FILES:
            payload = json.loads(text)
            payload.pop("timings_seconds", None)
            text = json.dumps(payload, sort_keys=True)
        sha.update(f"{path.relative_to(work)}\0{text}\0".replace(str(work), "<work>")
                   .encode())
    sha.update(stdout.replace(str(work), "<work>").encode())
    return sha.hexdigest()


def _synth(repo: Path, work: Path, spec: dict, spec_file: str, name: str) -> str:
    """Write ``spec`` to ``work/spec_file`` and its inputs to ``work/name``,
    with a manifest that runs every strategy; return the digest of the
    synth command's own output."""
    (work / spec_file).write_text(json.dumps(spec))
    stdout = _run(repo, work, ["-m", "dynfuse.cli", "synth", "--spec", spec_file,
                               "--out", name])
    data = work / name
    digest = _digest(work, [data], stdout)
    d = spec["database_size"]
    for payload in sorted(data.glob("*.f32")):
        vectors = np.fromfile(payload, dtype="<f4").reshape(-1, d)
        if (vectors.max(axis=1) == vectors.min(axis=1)).any():
            raise SystemExit(f"{payload.name} has a constant vector")
    manifest = json.loads((data / "manifest.json").read_text())
    manifest.update(strategies=STRATEGIES, recall_k=[1, 5, d])
    (data / "manifest.json").write_text(json.dumps(manifest))
    return digest


def _descriptor_manifest(work: Path, data: str, d: int) -> str:
    """Write two seeded descriptor pairs of ``d`` database rows into
    ``work/data``, where each query is a noisy copy of a database row it may
    match, and a manifest that runs every strategy on tech-00's similarity
    payload, a cosine pair (tech-01) and a negative-euclidean pair
    (tech-02); return the manifest's path relative to ``work``."""
    rng = np.random.default_rng(5)
    folder = work / data
    manifest = json.loads((folder / "manifest.json").read_text())
    rows = [entry[0] for entry in json.loads((folder / "ground_truth.json").read_text())]
    entries = [manifest["techniques"][0]]
    for i, metric in ((1, "cosine"), (2, "negative-euclidean")):
        database = rng.standard_normal((d, 16))
        query = database[rows] + 0.8 * rng.standard_normal((len(rows), 16))
        entry = {"name": f"tech-0{i}", "metric": metric}
        for role, matrix in (("query", query), ("database", database)):
            payload = folder / f"desc-0{i}-{role}.f32"
            payload.write_bytes(matrix.astype("<f4").tobytes())
            meta = {"rows": len(matrix), "cols": 16, "role": role, "technique": entry["name"]}
            Path(f"{payload}.meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
            entry[role] = payload.name
        entries.append(entry)
    manifest["techniques"] = entries
    (folder / "descriptors.json").write_text(json.dumps(manifest))
    return f"{data}/descriptors.json"


def _run_set(repo: Path, work: Path, manifest: str, f: int, out: Path) -> str:
    """``dynfuse run`` on ``work/manifest`` at frame separation f, written to
    ``out``; return its digest."""
    stdout = _run(repo, work, ["-m", "dynfuse.cli", "run", "--config",
                               manifest, "--frame-sep", str(f),
                               "--workers", "1", "--out", str(out)])
    return _digest(work, [out], stdout)


def output_digests(repo: Path, work: Path, spec: dict = SPEC,
                   f_values=(1, 7, 25), demos: bool = True) -> dict[str, str]:
    """Run every output set on ``repo``'s code under the empty directory
    ``work``; return {set name: SHA-256}. ``demos=False`` leaves out the
    unordered sweep, the drifting run, the descriptor run, the small-K run,
    both demo scripts and synth-edges, for a quicker run."""
    repo, work = repo.resolve(), work.resolve()
    digests = {"synth": _synth(repo, work, spec, "spec.json", "data")}
    for f in f_values:
        digests[f"run-F{f}"] = _run_set(repo, work, "data/manifest.json", f,
                                        work / f"run-F{f}")
    sweeps = {"sweep": "1,5,25"}
    if demos:
        sweeps["sweep-unordered"] = "25,1,5,5"
    for name, f_list in sweeps.items():
        out = work / name
        stdout = _run(repo, work, ["-m", "dynfuse.cli", "sweep", "--config",
                                   "data/manifest.json", "--f-values", f_list,
                                   "--workers", "1", "--out", str(out)])
        digests[name] = _digest(work, [out], stdout)
    if demos:
        out = work / "demo"
        stdout = _run(repo, work, [str(repo / "scripts" / "run_synthetic_demo.py"),
                                   "--out", str(out)])
        digests["demo"] = _digest(work, [out], stdout)
        out = work / "sweep-demo.csv"
        stdout = _run(repo, work, [str(repo / "scripts" / "sweep_frame_separation.py"),
                                   "--out", str(out)])
        digests["sweep-demo"] = _digest(work, [out], stdout)
        _synth(repo, work, dict(spec, drift_period=5), "drift-spec.json", "drift")
        digests["run-drift-F1"] = _run_set(repo, work, "drift/manifest.json", 1,
                                           work / "run-drift-F1")
        manifest = _descriptor_manifest(work, "data", spec["database_size"])
        digests["run-descriptors"] = _run_set(repo, work, manifest, 1,
                                              work / "run-descriptors")
        small_k = json.loads((work / "data" / "manifest.json").read_text())
        small_k["recall_k"] = [1, 5]
        (work / "data" / "recall-k5.json").write_text(json.dumps(small_k))
        digests["run-recall-k5"] = _run_set(repo, work, "data/recall-k5.json", 1,
                                            work / "run-recall-k5")
        digests["synth-edges"] = _synth(repo, work, EDGE_SPEC, "edges-spec.json", "edges")
    return digests


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose code runs (default: this one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        for name, digest in output_digests(args.repo, Path(work)).items():
            print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
