"""Recall@K evaluation, aliasing histograms, and calibration-period sweeps.

Aggregation is pure and single-threaded; records are sorted by query index
before use. Queries count toward recall only when their record is valid and
their ground-truth acceptable set is non-empty.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (FusionConfig, GroundTruth, SimilarityTensor, check_json_type,
                   rows_within)
from .engine import StrategyResult, run_dyn_mpf
from .errors import ConfigError, MissingRankingError


@dataclass
class RecallReport:
    """Recall@K for one strategy plus the per-query correctness flags."""

    strategy: str
    recall_at: dict[int, float]
    correct_at: dict[int, list[bool]]
    query_indices: list[int]
    valid_queries: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "valid_queries": self.valid_queries,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "query_indices": self.query_indices,
            "correct_at": {
                str(k): v for k, v in sorted(self.correct_at.items())
            },
        }

    def csv_rows(self) -> list[list]:
        return [
            [self.strategy, k, self.recall_at[k]]
            for k in sorted(self.recall_at)
        ]


@dataclass
class AliasingHistogram:
    """Counts of correct and incorrect matches per ratio-score bin."""

    strategy: str
    bin_edges: list[float]
    correct_counts: list[int]
    incorrect_counts: list[int]
    mean_ratio_correct: float | None
    mean_ratio_incorrect: float | None
    valid_queries: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "bin_edges": self.bin_edges,
            "correct_counts": self.correct_counts,
            "incorrect_counts": self.incorrect_counts,
            "mean_ratio_correct": self.mean_ratio_correct,
            "mean_ratio_incorrect": self.mean_ratio_incorrect,
            "valid_queries": self.valid_queries,
        }

    def csv_rows(self) -> list[list]:
        return [
            [self.bin_edges[i], self.bin_edges[i + 1],
             self.correct_counts[i], self.incorrect_counts[i]]
            for i in range(len(self.correct_counts))
        ]


def _sorted_records(result: StrategyResult):
    return sorted(result.records, key=lambda r: r.query)


def _evaluated_queries(result: StrategyResult, gt: GroundTruth) -> list[int]:
    records = _sorted_records(result)
    if len(records) != gt.queries:
        raise ValueError(
            f"result has {len(records)} records but ground truth covers "
            f"{gt.queries} queries"
        )
    return [r.query for r in records if r.valid and gt.evaluable(r.query)]


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k largest scores, ties to the lowest index.

    Equal to ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``, which
    any k >= D, and rows whose sum is not finite, still use. Other rows are
    copied in chunks of at most core.WORK_BYTES into one buffer, and each
    chunk takes k argmax passes, every pick set to -inf before the next pass.
    argmax returns the lowest index among equal maxima, which is where the
    stable sort puts them, and a finite row keeps a finite entry above the
    picks. A row with a NaN or an infinity has no finite sum; a finite row
    whose sum overflows merely takes the sort.
    """
    d = scores.shape[1]
    if k >= d:
        return np.argsort(-scores, axis=1, kind="stable")[:, :k]
    top = np.empty((k, scores.shape[0]), dtype=np.intp)  # one pass per row
    # one buffer for every chunk: a fresh one would fault in its pages again
    rows = rows_within(scores.itemsize * d)
    buffer = np.empty((min(rows, len(scores)), d), dtype=scores.dtype)
    for at in range(0, len(scores), rows):
        chunk = buffer[:len(scores) - at]
        np.copyto(chunk, scores[at:at + rows])
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(chunk, axis=1))
        sorted_rows = None if finite.all() else np.argsort(
            -chunk[~finite], axis=1, kind="stable")[:, :k]
        offsets = np.arange(0, chunk.size, d)
        picks = top[:, at:at + rows]
        for pick in picks:
            chunk.argmax(axis=1, out=pick)
            chunk.reshape(-1)[pick + offsets] = -np.inf
        if sorted_rows is not None:
            picks[:, ~finite] = sorted_rows.T
    return top.T


def recall_at_k(
    result: StrategyResult,
    fused_or_rankings,
    gt: GroundTruth,
    ks,
) -> RecallReport:
    """Recall@K over valid queries for each requested K.

    ``fused_or_rankings`` is either a (Q, D) float score array (rows are
    ranked by descending score, ties to the lowest index) or an integer
    (Q, >=maxK) array of already-ranked database indices. A query is correct
    at K when any of its top-K indices is ground-truth acceptable.
    """
    ks = sorted({int(k) for k in ks})
    if not ks or ks[0] < 1:
        raise ValueError("ks must be positive integers")
    if fused_or_rankings is None:
        raise MissingRankingError("no fused scores or rankings supplied")
    arr = np.asarray(fused_or_rankings)
    records = _sorted_records(result)
    if arr.ndim != 2 or arr.shape[0] != len(records):
        raise MissingRankingError(
            f"rankings shape {arr.shape} does not cover {len(records)} queries"
        )
    max_k = ks[-1]
    evaluated = _evaluated_queries(result, gt)
    if np.issubdtype(arr.dtype, np.integer):
        if arr.shape[1] < max_k:
            raise MissingRankingError(
                f"rankings only reach depth {arr.shape[1]}, need {max_k}"
            )
        top = arr[evaluated, :max_k]
    else:
        if max_k > arr.shape[1]:
            raise MissingRankingError(
                f"scores cover {arr.shape[1]} database entries, K={max_k} requested"
            )
        ranked = arr if evaluated == list(range(len(arr))) else arr[evaluated]
        top = _top_k(ranked, max_k)

    hit = gt.hits(np.array(evaluated, dtype=np.intp)[:, None], top)
    prefix_hit = np.logical_or.accumulate(hit, axis=1)
    correct_at = {k: prefix_hit[:, k - 1].tolist() for k in ks}
    recall = {
        k: (sum(flags) / len(flags) if flags else 0.0)
        for k, flags in correct_at.items()
    }
    return RecallReport(
        strategy=result.strategy,
        recall_at=recall,
        correct_at=correct_at,
        query_indices=evaluated,
        valid_queries=len(evaluated),
    )


def aliasing_histogram(
    result: StrategyResult, gt: GroundTruth, bins: int
) -> AliasingHistogram:
    """Histogram ratio scores of valid queries, split by match correctness.

    The per-bin correct plus incorrect counts sum to the number of valid
    queries that carry a ratio score; each class also reports its mean ratio
    (None when the class is empty).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    records = {r.query: r for r in _sorted_records(result)}
    scored = [records[q] for q in _evaluated_queries(result, gt)
              if records[q].ratio_score is not None]
    ratios = np.array([r.ratio_score for r in scored], dtype=np.float64)
    correct_flags = gt.hits(np.array([r.query for r in scored], dtype=np.intp),
                            np.array([r.match_index for r in scored], dtype=np.intp))
    if ratios.size == 0:
        edges = np.linspace(0.0, 1.0, bins + 1)
        zero = [0] * bins
        return AliasingHistogram(
            strategy=result.strategy, bin_edges=[float(e) for e in edges],
            correct_counts=zero, incorrect_counts=list(zero),
            mean_ratio_correct=None, mean_ratio_incorrect=None, valid_queries=0,
        )
    _, edges = np.histogram(ratios, bins=bins)
    correct_counts, _ = np.histogram(ratios[correct_flags], bins=edges)
    incorrect_counts, _ = np.histogram(ratios[~correct_flags], bins=edges)
    mean_correct = float(ratios[correct_flags].mean()) if correct_flags.any() else None
    mean_incorrect = (
        float(ratios[~correct_flags].mean()) if (~correct_flags).any() else None
    )
    return AliasingHistogram(
        strategy=result.strategy,
        bin_edges=[float(e) for e in edges],
        correct_counts=[int(c) for c in correct_counts],
        incorrect_counts=[int(c) for c in incorrect_counts],
        mean_ratio_correct=mean_correct,
        mean_ratio_incorrect=mean_incorrect,
        valid_queries=int(ratios.size),
    )


def frame_separation_sweep(
    tensor: SimilarityTensor,
    gt: GroundTruth,
    config: FusionConfig,
    f_values,
    workers: int = 1,
) -> dict[int, RecallReport]:
    """Recall@1 of the dynamic strategy at each distinct calibration period
    F. Every F is checked before any run; each calibration is searched once.

    ``workers`` is accepted for compatibility and changes nothing.
    """
    f_values = list(f_values)
    for f in f_values:
        check_json_type(f, "f_values", (int, np.integer), "an integer")
        if f < 1:
            raise ConfigError("frame separation must be positive", field="f_values")
    reports: dict[int, RecallReport] = {}
    searches: dict = {}  # {calibration query: search}, shared by every F
    for f in dict.fromkeys(int(f) for f in f_values):
        cfg = replace(config, frame_separation_f=f)
        result = run_dyn_mpf(tensor, cfg, workers=workers, searches=searches)
        reports[f] = recall_at_k(result, result.fused, gt, ks=[1])
    return reports


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def write_recall_outputs(report: RecallReport, json_path, csv_path) -> None:
    write_json(report.to_json_dict(), json_path)
    write_csv(csv_path, ["strategy", "K", "recall"], report.csv_rows())


def write_histogram_outputs(hist: AliasingHistogram, csv_path, json_path=None) -> None:
    write_csv(
        csv_path, ["bin_lo", "bin_hi", "correct", "incorrect"], hist.csv_rows()
    )
    if json_path is not None:
        write_json(hist.to_json_dict(), json_path)
