"""Benchmark of the dynfuse CLI and library on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload dyn-wide --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
``dynfuse`` CLI as a child process and ``engine.run_dyn_mpf`` as a library
call, alternated until ``--seconds`` have passed, each reported as a median
and, for the gated metrics, scaled by a reference computation timed beside
them (see ``reference_s``). ``--trace 1`` measures the per-layer metrics
from in-process calls of ``dynfuse.cli.main`` with the calls between modules
traced (see tracing.py). ``--workload all`` runs every workload in both
modes, one after the other.

Inputs come from ``dynfuse synth`` with the given seed; the program sees only
the generated files. Every operation's outputs are checked, and the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Metric names and units come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import os

# Set before numpy loads, here and in every child: one BLAS thread per
# process keeps the load at or below the process count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"
IMPORT_REPEATS = 3
# library time per loop iteration; short calls repeat so their median is steady
LIBRARY_MIN_S = 1.0
# The speed of a shared host drifts by tens of percent over minutes. A fixed
# computation timed before and after every pass measures that drift, and the
# gated CLI and library timings are scaled to a host on which it takes
# REFERENCE_S. The raw timings are reported beside them.
REFERENCE_S = 0.1
CHILD_TIMEOUT_S = 150
# deterministic outputs; sweep.json is digested without its timing field
DIGESTED = ("result_*", "recall_*", "histogram_*", "sweep.csv", "sweep.json")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Ops:
    """Operations attempted and the problems found in the failed ones."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def failure(exc: BaseException) -> str:
    """An exception's type, message and innermost frame, for the run record."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["DYNFUSE_LOG"] = "WARNING"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list[str], log_dir: Path) -> Child:
    """Run one child to completion; wall time and peak RSS from its own rusage."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "child.stdout", log_dir / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def dynfuse(*args: str) -> list[str]:
    return [sys.executable, "-m", "dynfuse.cli", *args]


def status_problems(child: Child) -> list[str]:
    """The CLI must exit 0 and print exactly one ``{"status": "ok"}`` line."""
    if child.returncode != 0:
        return [f"exit code {child.returncode}: {child.stdout.strip()[-300:]} "
                f"{child.stderr.strip()[-300:]}"]
    lines = child.stdout.splitlines()
    try:
        status = json.loads(lines[0]).get("status") if len(lines) == 1 else None
    except json.JSONDecodeError:
        status = None
    return [] if status == "ok" else [f"stdout is not one status-ok line: {child.stdout[:300]!r}"]


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        data = path.read_bytes()
        if path.name == "sweep.json":
            payload = json.loads(data)
            payload.pop("timings_seconds", None)
            data = json.dumps(payload, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def output_digest(out: Path) -> str:
    return files_digest(p for pattern in DIGESTED for p in out.glob(pattern))


class Checker:
    """Correctness checks on the outputs of one workload's inputs."""

    def __init__(self, wl: Workload, inputs: Path):
        self.wl = wl
        manifest = json.loads((inputs / "manifest.json").read_text())
        self.names = [t["name"] for t in manifest["techniques"]]
        self.payloads = [inputs / t["similarity"] for t in manifest["techniques"]]
        truth = json.loads((inputs / manifest["ground_truth"]).read_text())
        self.truth = [frozenset(entry) for entry in truth]
        self._by_digest: dict[str, list[str]] = {}
        self.dyn_reference: dict | None = None  # CLI dyn-mpf outcome at the workload's F
        self.sweep_recalls: dict | None = None  # sweep.json's Recall@1 per F

    def recount(self, records) -> float:
        """Recall@1 from match_index/valid fields; as the library defines it."""
        flags = [r["match_index"] in self.truth[r["query"]]
                 for r in records if r["valid"] and self.truth[r["query"]]]
        return sum(flags) / len(flags) if flags else 0.0

    def cli_outputs(self, out: Path, digest: str) -> list[str]:
        """Content checks, once per distinct output digest."""
        if digest not in self._by_digest:
            try:
                self._by_digest[digest] = self._content(out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self._by_digest[digest] = [f"unreadable outputs: {failure(exc)}"]
        return self._by_digest[digest]

    def _content(self, out: Path) -> list[str]:
        problems = []
        if self.wl.command == "sweep":
            sweep = json.loads((out / "sweep.json").read_text())
            if sweep["f_values"] != list(self.wl.f_values):
                problems.append(f"sweep.json f_values {sweep['f_values']}")
            recall = sweep["recall_at_1"][str(self.wl.frame_separation_f)]
            if self.sweep_recalls is None:
                self.sweep_recalls = sweep["recall_at_1"]
            if self.dyn_reference is None:
                self.dyn_reference = {"recall_at_1": recall, "records": None}
            return problems
        for name in sorted(self.wl.strategies):
            records = json.loads((out / f"result_{name}.json").read_text())["records"]
            reported = json.loads((out / f"recall_{name}.json").read_text())["recall_at"]["1"]
            for missing in {f"recall_{name}.csv", f"histogram_{name}.csv"} - {
                    p.name for p in out.iterdir()}:
                problems.append(f"{missing} missing")
            if [r["query"] for r in records] != list(range(self.wl.queries)):
                problems.append(f"{name}: records do not cover queries 0..{self.wl.queries - 1}")
            invalid = sum(not r["valid"] for r in records)
            if invalid:
                problems.append(f"{name}: {invalid} invalid queries")
            recount = self.recount(records)
            if recount != reported:
                problems.append(f"{name}: Recall@1 recounted {recount!r}, reported {reported!r}")
            if name == "dyn-mpf" and self.dyn_reference is None:
                self.dyn_reference = {"recall_at_1": reported, "records": records}
        return problems

    def library(self, records) -> list[str]:
        """A library call's dyn-mpf records against the CLI's outcome."""
        problems = []
        if len(records) != self.wl.queries:
            problems.append(f"{len(records)} records for {self.wl.queries} queries")
        invalid = sum(not r["valid"] for r in records)
        if invalid:
            problems.append(f"{invalid} invalid queries")
        ref = self.dyn_reference
        if ref is None:
            return problems + ["no CLI outcome to compare with"]
        recall = self.recount(records)
        if recall != ref["recall_at_1"]:
            problems.append(f"Recall@1 {recall!r}, CLI reports {ref['recall_at_1']!r}")
        if ref["records"] is not None:
            if [r["match_index"] for r in records] != [r["match_index"] for r in ref["records"]]:
                problems.append("match indices differ from the CLI's")
        return problems

    def sweep_recounts(self, tensor, config) -> list[str]:
        """sweep.json's Recall@1 at every F, against a library call's recount."""
        from dynfuse import engine

        if self.sweep_recalls is None:
            return ["no sweep.json outcome to compare with"]
        problems = []
        for f in self.wl.f_values:
            result = engine.run_dyn_mpf(tensor, replace(config, frame_separation_f=f),
                                        workers=self.wl.workers)
            recall = self.recount([r.to_json_dict(tensor.names) for r in result.records])
            if recall != self.sweep_recalls.get(str(f)):
                problems.append(f"F={f}: Recall@1 recounted {recall!r}, "
                                f"sweep.json reports {self.sweep_recalls.get(str(f))!r}")
        return problems

    def oracle(self, records, config: dict) -> list[str]:
        """dyn-mpf's chosen subset on sampled calibration queries, against the naive oracle."""
        from reference_impl import naive_best_subset, naive_minmax

        f = self.wl.frame_separation_f
        calibrations = list(range(0, self.wl.queries, f))
        k = min(self.wl.oracle_sample, len(calibrations))
        sample = [calibrations[i * len(calibrations) // k] for i in range(k)]
        raw = [np.fromfile(p, dtype="<f4").reshape(self.wl.queries, -1) for p in self.payloads]
        n = len(raw)
        max_size = config["max_subset_size"] or n
        problems = []
        for q in sample:
            rows = [raw[m][q].astype(np.float64).tolist() for m in range(n)]
            degenerate = frozenset(m for m in range(n) if max(rows[m]) == min(rows[m]))
            vectors = [naive_minmax(row) for row in rows]
            best = naive_best_subset(
                vectors, config["r_window"], config["epsilon"],
                config["min_subset_size"], max_size, degenerate, config["tie_break"],
            )
            expected = [self.names[m] for m in best[0]] if best else []
            chosen = records[q]["subset"]
            if chosen != expected:
                problems.append(f"query {q}: dyn-mpf chose {chosen}, oracle {expected}")
        return problems


def synth_op(seed: int, work: Path, out: Path):
    """One ``dynfuse synth`` run into ``out``; returns (wall seconds, digest, problems)."""
    shutil.rmtree(out, ignore_errors=True)
    child = run_child(
        dynfuse("synth", "--spec", str(work / "spec.json"), "--out", str(out), "--seed", str(seed)),
        work / "logs",
    )
    problems = status_problems(child)
    # manifest.json names its own output directory, so it differs between copies
    digest = None if problems else files_digest(
        p for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    return child.wall_s, digest, problems


def setup_inputs(wl: Workload, seed: int, work: Path):
    """Generate the inputs into work/inputs; returns (wall seconds, digest)."""
    (work / "spec.json").write_text(json.dumps(wl.spec, indent=2, sort_keys=True) + "\n")
    inputs = work / "inputs"
    wall, digest, problems = synth_op(seed, work, inputs)
    if problems:
        raise RuntimeError("set-up failed: " + "; ".join(problems))
    manifest = json.loads((inputs / "manifest.json").read_text())
    manifest.pop("out_dir", None)
    for key, value in wl.manifest_fields().items():
        if key == "config":
            manifest["config"].update(value)
        else:
            manifest[key] = value
    (inputs / "bench_manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return wall, digest


def cli_op(wl: Workload, inputs: Path, out: Path, checker: Checker, ops: Ops, digests: set):
    """One CLI run with tracing off; returns the Child."""
    shutil.rmtree(out, ignore_errors=True)
    child = run_child(
        dynfuse(*wl.cli_args(), "--config", str(inputs / "bench_manifest.json"),
                "--out", str(out)),
        out.parent / "logs",
    )
    problems = status_problems(child)
    if not problems:
        digest = output_digest(out)
        if digests and digest not in digests:
            problems.append(f"output digest {digest[:12]} differs from an earlier run's")
        digests.add(digest)
        problems += checker.cli_outputs(out, digest)
    ops.record("cli run", problems)
    return child


def load_library_inputs(inputs: Path):
    """The workload's tensor and fusion config, loaded as a library user would."""
    from dynfuse import ingest
    from dynfuse.core import FusionConfig

    manifest = json.loads((inputs / "bench_manifest.json").read_text())
    techniques = manifest["techniques"]
    arrays = [ingest.load_matrix(inputs / t["similarity"], expected_meta={"role": "similarity"})[0]
              for t in techniques]
    tensor = ingest.assemble_tensor(arrays, [t["name"] for t in techniques])
    config = FusionConfig.from_dict(manifest["config"])
    config.validate(tensor.n_techniques, tensor.database_size)
    return tensor, config


def library_op(wl: Workload, tensor, config, checker: Checker, ops: Ops):
    """One untraced ``engine.run_dyn_mpf`` call; returns (seconds, records as JSON dicts)."""
    from dynfuse import engine

    try:
        start = time.perf_counter()
        result = engine.run_dyn_mpf(tensor, config, workers=wl.workers)
        elapsed = time.perf_counter() - start
    except Exception as exc:  # a failed library call is a counted failure, not a crash
        ops.record("library call", [failure(exc)])
        return None, None
    records = [r.to_json_dict(tensor.names) for r in result.records]
    ops.record("library call", checker.library(records))
    return elapsed, records


def replay_op(wl: Workload, inputs: Path, out: Path, ops: Ops, digests: set,
              tracer, hooks: bool):
    """One in-process ``dynfuse.cli.main`` call; returns (wall seconds, absent metrics).

    With ``hooks`` the calls between modules are traced; without, it is the
    untraced baseline for ``trace.overhead_s``.
    """
    from dynfuse import cli, core, engine, evaluate, fusion, ingest
    from tracing import hooked

    what = "traced run" if hooks else "untraced repeat"
    shutil.rmtree(out, ignore_errors=True)
    argv = [*wl.cli_args(), "--config", str(inputs / "bench_manifest.json"), "--out", str(out)]
    modules = {"core": core, "engine": engine, "evaluate": evaluate, "fusion": fusion,
               "ingest": ingest}
    stdout = io.StringIO()
    try:
        with hooked(tracer, modules) if hooks else nullcontext(set()) as absent, \
                redirect_stdout(stdout):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        tracer.close()
    except Exception as exc:  # counted as a failed operation; its metrics are absent
        ops.record(what, [failure(exc)])
        return None
    problems = status_problems(Child(wall, 0.0, code, stdout.getvalue(), ""))
    if not problems:
        digest = output_digest(out)
        if digests != {digest}:
            problems.append(f"output digest {digest[:12]} differs from the CLI's "
                            f"{sorted(d[:12] for d in digests)}")
    ops.record(what, problems)
    return None if problems else (wall, absent)


def layer_metrics(tracer, wall: float, absent: set, out: Path) -> dict[str, float]:
    totals = tracer.totals()

    def total(name, key="s"):
        return float(totals.get(name, {}).get(key, 0.0))

    m = {
        "ingest.load_matrix.s": total("ingest.load_matrix"),
        "ingest.bytes_read": float(tracer.counts["ingest.bytes_read"]),
        "ingest.assemble_tensor.s": total("ingest.assemble_tensor"),
        "core.ground_truth.s": total("core.ground_truth"),
        "fusion.select_best_subset.calls": total("fusion.select_best_subset", "calls"),
        "fusion.select_best_subset.s": total("fusion.select_best_subset"),
        "fusion.subsets_scored": float(tracer.counts["fusion.subsets_scored"]),
        "fusion.normalize.calls": total("fusion.normalize", "calls"),
        "fusion.normalize.s": total("fusion.normalize"),
        "fusion.technique_weights.s": total("fusion.technique_weights"),
        "fusion.weighted_fuse_and_match.s": total("fusion.weighted_fuse_and_match"),
        "fusion.ratio_score.calls": float(tracer.counts["fusion.ratio_score"]),
        "fusion.fuse_subset.calls": float(tracer.counts["fusion.fuse_subset"]),
        "engine.write_result_json.s": total("engine.write_result_json"),
        "engine.queries": float(tracer.counts["engine.queries"]),
        "engine.invalid_queries": float(tracer.counts["engine.invalid_queries"]),
        "evaluate.recall_at_k.s": total("evaluate.recall_at_k"),
        "evaluate.aliasing_histogram.s": total("evaluate.aliasing_histogram"),
        "evaluate.frame_separation_sweep.s": total("evaluate.frame_separation_sweep"),
        "evaluate.frame_separation_sweep.self_s": total("evaluate.frame_separation_sweep", "self_s"),
        "evaluate.write.s": total("evaluate.write"),
        "output.bytes_written": float(sum(p.stat().st_size for p in out.iterdir())),
        "trace.wall_s": wall,
        "cli.unaccounted_s": wall - tracer.top_level_seconds(),
    }
    from tracing import DERIVED, STRATEGY_SPANS

    for name in STRATEGY_SPANS:
        m[f"{name}.s"] = total(name)
        m[f"{name}.self_s"] = total(name, "self_s")
    for metric in absent:
        for key in [k for k in m if k == metric or k.startswith(metric + ".")]:
            del m[key]
        for key in DERIVED.get(metric, ()):
            m.pop(key, None)
    return m


def median_of(dicts: list[dict]) -> dict[str, float]:
    keys = set.intersection(*(set(d) for d in dicts)) if dicts else set()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def read_cpu_quota() -> str | None:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return f"{path}: {Path(path).read_text().strip()}"
        except OSError:
            continue
    return None


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def environment(wl: Workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": read_cpu_quota(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": wl.name,
        "workload_seed": seed,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


_reference_data: list[np.ndarray] = []


def reference_s() -> float:
    """Seconds for a fixed computation shaped like dyn-mpf's per-query work.

    Per query slice: min-max normalize six rows, sum three triples, argmax.
    It uses numpy and Python only, none of dynfuse, so no change to the
    program moves it.
    """
    if not _reference_data:
        _reference_data.append(np.random.default_rng(0).random((6, 300, 300)))
    data = _reference_data[0]
    start = time.perf_counter()
    for _ in range(10):
        for q in range(data.shape[1]):
            block = data[:, q, :]
            lo = block.min(axis=1, keepdims=True)
            norm = (block - lo) / (block.max(axis=1, keepdims=True) - lo)
            for i in range(3):
                np.argmax(norm[i] + norm[i + 1] + norm[i + 2])
    return time.perf_counter() - start


def measure_untraced(wl, seed, inputs, work, seconds, checker, ops, digests, setup) -> dict:
    """Alternate CLI runs, library calls and set-ups until ``seconds`` have passed.

    Set-up repeats inside the loop rather than before it, so its median is
    taken over the same stretch of time as the other metrics.
    """
    tensor, config = load_library_inputs(inputs)
    first_wall, inputs_digest = setup
    samples = {"cli_wall_s": [], "cli_peak_rss_mb": [], "library_s": [],
               "setup_s": [first_wall], "reference_s": [], "cli_wall_scaled_s": [],
               "library_scaled_s": []}
    for _ in iterations(seconds):
        before = reference_s()
        first_call = len(samples["library_s"])
        wall, digest, problems = synth_op(seed, work, work / "resynth")
        if digest is not None and digest != inputs_digest:
            problems.append("synth outputs differ between runs with one seed")
        ops.record("synth run", problems)
        samples["setup_s"].append(wall)
        child = cli_op(wl, inputs, work / "out", checker, ops, digests)
        samples["cli_wall_s"].append(child.wall_s)
        samples["cli_peak_rss_mb"].append(child.peak_rss_mb)
        spent = 0.0
        while spent < LIBRARY_MIN_S:
            elapsed, _ = library_op(wl, tensor, config, checker, ops)
            if elapsed is None:
                break
            samples["library_s"].append(elapsed)
            spent += elapsed
        after = reference_s()
        samples["reference_s"] += [before, after]
        scale = REFERENCE_S / ((before + after) / 2)
        samples["cli_wall_scaled_s"].append(child.wall_s * scale)
        samples["library_scaled_s"] += [t * scale for t in samples["library_s"][first_call:]]
    return samples


def measure_traced(wl, seed, inputs, work, seconds, checker, ops, digests):
    """Alternate untraced and traced in-process repeats until ``seconds`` have passed."""
    from dynfuse import synth
    from tracing import Tracer

    metrics = {"cli.import_s": statistics.median(
        run_child([sys.executable, "-c", "import dynfuse.cli"], work / "logs").wall_s
        for _ in range(IMPORT_REPEATS)
    )}
    tracer = Tracer("synth")
    with tracer.span("synth.generate"):
        synth.generate(synth.SynthSpec.from_dict(dict(wl.spec, seed=seed)))
    metrics["synth.generate.s"] = tracer.totals()["synth.generate"]["s"]

    # One CLI run gives the digest every in-process repeat must reproduce.
    walls = [cli_op(wl, inputs, work / "out", checker, ops, digests).wall_s]
    run_id = uuid.uuid4().hex
    plain, traced = [], []
    for _ in iterations(seconds):
        outcome = replay_op(wl, inputs, work / "plain", ops, digests, Tracer(run_id), False)
        if outcome is not None:
            plain.append(outcome[0])
        tracer = Tracer(run_id)
        outcome = replay_op(wl, inputs, work / "traced", ops, digests, tracer, True)
        if outcome is not None:
            traced.append((layer_metrics(tracer, *outcome, work / "traced"), tracer))
    if traced:
        metrics.update(median_of([layers for layers, _ in traced]))
    if traced and plain:
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    samples = {"cli_wall_s": walls, "untraced_repeat_s": plain,
               "traced_wall_s": [m["trace.wall_s"] for m, _ in traced]}
    return metrics, samples, (traced[-1][1].to_json() if traced else None)


def iterations(seconds: float):
    """Yield once, then again while the next pass should end within ``seconds``."""
    deadline = time.perf_counter() + seconds
    began = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now + (now - began) >= deadline:  # assume it lasts as long as the last one
            return
        began = now
        yield


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, measure and check one workload; returns the run's record."""
    ops = Ops()
    record = {"environment": environment(wl, seed)}
    # Build: byte-compile the package so no run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    setup = setup_inputs(wl, seed, work)
    inputs = work / "inputs"
    checker = Checker(wl, inputs)
    digests: set[str] = set()
    if trace:
        metrics, samples, record["spans"] = measure_traced(
            wl, seed, inputs, work, seconds, checker, ops, digests)
    else:
        samples = measure_untraced(wl, seed, inputs, work, seconds, checker, ops, digests, setup)
        metrics = {
            "run_wall_s": statistics.median(samples["cli_wall_s"]),
            "run_wall_scaled_s": statistics.median(samples["cli_wall_scaled_s"]),
            "peak_rss_mb": statistics.median(samples["cli_peak_rss_mb"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "reference_s": statistics.median(samples["reference_s"]),
        }
        if samples["library_s"]:
            metrics["dyn_ms_per_query"] = (
                1000.0 * statistics.median(samples["library_s"]) / wl.queries)
            metrics["dyn_ms_per_query_scaled"] = (
                1000.0 * statistics.median(samples["library_scaled_s"]) / wl.queries)
        if checker.dyn_reference is not None:
            metrics["recall_at_1"] = checker.dyn_reference["recall_at_1"]

    # The naive oracle checks dyn-mpf's subset choice once per run, on the
    # CLI's result file; a sweep writes no per-query records, so on a library call.
    records = checker.dyn_reference["records"] if checker.dyn_reference else None
    if records is None:
        _, records = library_op(wl, *load_library_inputs(inputs), checker, ops)
    config = json.loads((inputs / "bench_manifest.json").read_text())["config"]
    from dynfuse.core import FusionConfig

    ops.record("oracle check", ["no dyn-mpf records to check"] if records is None
               else checker.oracle(records, FusionConfig.from_dict(config).to_dict()))
    if wl.command == "sweep":
        try:
            problems = checker.sweep_recounts(*load_library_inputs(inputs))
        except Exception as exc:  # a failed library call is a counted failure
            problems = [failure(exc)]
        ops.record("sweep recount", problems)

    if not trace:
        metrics["error_rate"] = ops.failed / ops.attempted
        # 1 only if nothing failed, so one failure breaches any bound however
        # many operations a run makes
        metrics["checks_passed"] = 1.0 if ops.failed == 0 else 0.0
    record.update(
        metrics=metrics, samples=samples,
        correct=ops.failed == 0, attempted=ops.attempted, failed=ops.failed,
        problems=ops.problems, output_digests=sorted(digests),
    )
    return record


# metrics printed for reading but not gated by BENCHMARK.json
PRINTED_UNITS = {"error_rate": "ratio", "run_wall_s": "s", "dyn_ms_per_query": "ms",
                 "reference_s": "s"}


def declared_metrics(trace: bool) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable report; return the final JSON object."""
    units = declared_metrics(trace)
    env = record["environment"]
    print(f"# workload {env['workload']} seed {env['workload_seed']} "
          f"trace {int(trace)} commit {env['commit']}")
    print("# environment " + json.dumps(env, sort_keys=True))
    print("# samples " + ", ".join(f"{k} {len(v)}" for k, v in sorted(record["samples"].items())))
    for name in sorted(record["metrics"]):
        unit = units.get(name, PRINTED_UNITS.get(name, ""))
        print(f"{name:42s} {record['metrics'][name]:.6g} {unit}")
    print(f"# correct {record['correct']}: {record['failed']} of {record['attempted']} "
          f"operations failed")
    for problem in record["problems"]:
        print(f"#   {problem}")
    print(f"# output digests {record['output_digests']}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items() if name in record["metrics"]},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each as its own process."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            final["correct"] = final["correct"] and result["correct"]
            final["attempted"] += result["attempted"]
            final["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                final["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(final, sort_keys=True))
    return 0


def use_program_source() -> bool:
    """Import dynfuse, and the naive oracle of its tests, from this checkout."""
    if not (ROOT / "src" / "dynfuse" / "cli.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_program_source():
        print(f"error: no dynfuse source under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    wl = WORKLOADS[args.workload]
    work = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    final = report(record, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, result=final), indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
