"""The benchmark's workloads: synthetic input specs and how the CLI runs them.

Each workload is a ``dynfuse synth`` spec (without its seed, which comes
from ``--seed``) plus the manifest fields and CLI flags of the measured
command. README.md in this directory records why each one exists and which
layer it is meant to stress.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "sweep"
    spec: dict
    frame_separation_f: int
    workers: int
    strategies: dict = field(default_factory=dict)
    f_values: tuple[int, ...] = ()
    # calibration queries checked against the naive oracle; sized so the
    # pure-Python oracle costs about a second per workload
    oracle_sample: int = 1

    @property
    def queries(self) -> int:
        return self.spec["queries"]

    def manifest_fields(self) -> dict:
        """Manifest entries the benchmark sets on top of synth's manifest."""
        fields = {
            "config": {"frame_separation_f": self.frame_separation_f},
            "recall_k": [1, 5],
        }
        if self.command == "run":
            fields["strategies"] = self.strategies
        return fields

    def cli_args(self) -> list[str]:
        args = [self.command, "--workers", str(self.workers)]
        if self.command == "sweep":
            args += ["--f-values", ",".join(str(f) for f in self.f_values)]
        return args


# noise_sigma > 0 everywhere: no similarity vector is constant, so no query
# is invalid by construction. Drift leaves only two healthy techniques per
# block, and partly shared distractors fool the others, so dyn-mpf stays
# below Recall@1 = 1.0. A block of queries where every technique misses the
# ground truth caps Recall@1 at the same value on every seed, which keeps
# its seed-to-seed spread small.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dyn-wide",
            why="dyn-mpf only, N=10, F=1: every query searches all 1013 subsets, "
                "so subset search dominates and ingest, evaluation and output are small",
            command="run",
            spec={
                "n_techniques": 10, "queries": 60, "database_size": 1000,
                "peak_strength": 1.0, "alias_strength": 0.65,
                "alias_secondary": 0.5, "alias_correlation": 0.05,
                "noise_sigma": 0.3, "drift_period": 6,
                "failure_schedule": [[[27, 33]]] * 10,
                "r_window": 2, "gt_tolerance": 2,
            },
            frame_separation_f=1,
            workers=1,
            strategies={"dyn-mpf": {}},
            oracle_sample=1,
        ),
        Workload(
            name="baselines-bulk",
            why="all six strategies, N=4, Q=250, D=4000, 2 workers: time goes to "
                "baseline loops, Recall@K ranking, JSON output and ingest, not subset search",
            command="run",
            spec={
                "n_techniques": 4, "queries": 250, "database_size": 4000,
                "peak_strength": 1.0, "alias_strength": 0.5,
                "alias_secondary": 0.5, "alias_correlation": 0.1,
                "noise_sigma": 0.3, "drift_period": 50,
                "failure_schedule": [[[100, 125]]] * 4,
                "r_window": 2, "gt_tolerance": 2,
            },
            frame_separation_f=25,
            workers=2,
            strategies={
                "best-single-oracle": {},
                "dyn-mpf": {},
                "full-mpf": {},
                "hier-mpf": {"shortlist_fractions": [0.2, 0.05]},
                "random-pair": {},
                "static-subset": {"subset": ["tech-00", "tech-01"]},
            },
            oracle_sample=20,
        ),
        Workload(
            name="sweep-drift",
            why="sweep F=10,50 on N=8, Q=1000, D=300 with drift: short vectors, so "
                "per-call overhead of cached-subset queries and subset search dominates",
            command="sweep",
            spec={
                "n_techniques": 8, "queries": 1000, "database_size": 300,
                "peak_strength": 1.0, "alias_strength": 0.6,
                "alias_secondary": 0.5, "alias_correlation": 0.1,
                "noise_sigma": 0.3, "drift_period": 100,
                "failure_schedule": [[[400, 450]]] * 8,
                "r_window": 2, "gt_tolerance": 2,
            },
            frame_separation_f=10,
            workers=1,
            f_values=(10, 50),
            oracle_sample=10,
        ),
    )
}
