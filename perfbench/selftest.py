"""Self-test of the benchmark at tiny shapes, outside the tier-1 test suite.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes, and that a corrupted result file fails the correctness check,
raises the error rate above 0 and sets checks_passed to 0. Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

TINY = {
    "dyn-wide": {"n_techniques": 5, "queries": 12, "database_size": 80, "drift_period": 3,
                 "failure_schedule": [[[4, 6]]] * 5},
    "baselines-bulk": {"queries": 60, "database_size": 200, "failure_schedule": [[[20, 25]]] * 4},
    "sweep-drift": {"n_techniques": 4, "queries": 120, "database_size": 60, "drift_period": 20,
                    "failure_schedule": [[[50, 55]]] * 4},
}


def tiny(name: str):
    wl = WORKLOADS[name]
    return replace(wl, spec=dict(wl.spec, **TINY[name]), oracle_sample=2)


def check(condition: bool, message: str, failures: list) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def corrupting(child_runner, database_size: int):
    """Wrap run.run_child so each ``run`` child's dyn-mpf result gets one wrong match."""
    def corrupt_after(argv, log_dir):
        child = child_runner(argv, log_dir)
        if "run" in argv:
            out = run.Path(argv[argv.index("--out") + 1])
            truth = json.loads((out.parent / "inputs" / "ground_truth.json").read_text())
            path = out / "result_dyn-mpf.json"
            result = json.loads(path.read_text())
            hit = next(r for r in result["records"] if r["match_index"] in truth[r["query"]])
            # half the database away from a correct match is outside its window
            hit["match_index"] = (hit["match_index"] + database_size // 2) % database_size
            path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        return child
    return corrupt_after


def main() -> int:
    if not run.use_program_source():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    failures: list[str] = []
    work_root = run.WORK_DIR / "selftest"
    try:
        for name in WORKLOADS:
            for trace in (False, True):
                work = work_root / f"{name}-{int(trace)}"
                work.mkdir(parents=True)
                record = run.run_workload(tiny(name), seed=7, seconds=0.5, trace=trace, work=work)
                final = run.report(record, trace)
                check(final["correct"] and final["failed"] == 0,
                      f"{name} trace {int(trace)}: correct, {final['attempted']} operations", failures)
                for metric, unit in run.declared_metrics(trace).items():
                    emitted = final["metrics"].get(metric, {})
                    check(emitted.get("unit") == unit and isinstance(emitted.get("value"), float),
                          f"{name} trace {int(trace)}: {metric} emitted in {unit}", failures)

        real_run_child = run.run_child
        wl = tiny("dyn-wide")
        run.run_child = corrupting(real_run_child, wl.spec["database_size"])
        try:
            work = work_root / "corrupted"
            work.mkdir(parents=True)
            record = run.run_workload(wl, seed=7, seconds=0.5, trace=False, work=work)
        finally:
            run.run_child = real_run_child
        check(not record["correct"] and record["metrics"]["error_rate"] > 0
              and record["metrics"]["checks_passed"] == 0.0,
              f"corrupted result file: correct={record['correct']}, "
              f"error_rate={record['metrics']['error_rate']:.3f}, "
              f"checks_passed={record['metrics']['checks_passed']}", failures)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
