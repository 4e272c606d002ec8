"""Per-query strategy runners: dynamic fusion plus all baselines.

Every runner walks a traverse query by query and emits one SelectionRecord
per query plus a Q x D score array whose per-row ordering is the strategy's
database ranking for that query (used downstream for Recall@K). A failure
on one query flags that record invalid instead of aborting the run.

Parallelism contract: every runner is single-threaded and walks its
queries (for dynamic fusion, its [calibration, next calibration) blocks) in
query order. The ``workers`` parameter is accepted for compatibility and
changes nothing, so output never depends on it. Threads measured slower than
one loop here: the per-query work is short numpy calls that hold the GIL.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .core import (
    FusionConfig,
    GroundTruth,
    SelectionRecord,
    SimilarityTensor,
    argmax_lowest_index,
    minmax_normalize,
)
from .errors import ConfigError, TooFewTechniquesError, WindowCoversAllError
from .fusion import (
    fuse_subset,
    normalize_query_slices,
    ratio_score,
    select_best_subset,
    technique_weights,
    weighted_fuse_and_match,
)

STRATEGY_DYN_MPF = "dyn-mpf"
STRATEGY_FULL_MPF = "full-mpf"
STRATEGY_RANDOM_PAIR = "random-pair"
STRATEGY_HIER_MPF = "hier-mpf"
STRATEGY_STATIC_SUBSET = "static-subset"
STRATEGY_BEST_SINGLE_ORACLE = "best-single-oracle"

STRATEGIES = (
    STRATEGY_DYN_MPF,
    STRATEGY_FULL_MPF,
    STRATEGY_RANDOM_PAIR,
    STRATEGY_HIER_MPF,
    STRATEGY_STATIC_SUBSET,
    STRATEGY_BEST_SINGLE_ORACLE,
)


@dataclass
class StrategyResult:
    """One strategy's full traverse: records plus per-query ranking scores."""

    strategy: str
    records: list[SelectionRecord]
    config: FusionConfig
    fused: np.ndarray
    params: dict = field(default_factory=dict)

    def to_json_dict(self, names: list[str]) -> dict:
        return {
            "strategy": self.strategy,
            "config": self.config.to_dict(),
            "techniques": names,
            "params": self.params,
            "records": [r.to_json_dict(names) for r in self.records],
        }


def write_result_json(result: StrategyResult, names: list[str], path) -> None:
    payload = json.dumps(result.to_json_dict(names), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n")


def _degenerate_mask(tensor: SimilarityTensor) -> np.ndarray:
    """Boolean (N, Q): True where a technique's vector is constant."""
    return tensor.data.max(axis=2) == tensor.data.min(axis=2)


def _normalized_tensor(tensor: SimilarityTensor) -> np.ndarray:
    """Min-max normalize every (technique, query) slice; constants go to 0."""
    data = tensor.data
    lo = data.min(axis=2, keepdims=True)
    hi = data.max(axis=2, keepdims=True)
    span = hi - lo
    degenerate = span == 0.0
    span = np.where(degenerate, 1.0, span)
    out = (data - lo) / span
    out[degenerate[:, :, 0]] = 0.0
    return out


def _try_ratio(fused: np.ndarray, config: FusionConfig) -> float | None:
    try:
        return ratio_score(fused, config.r_window, config.epsilon)
    except WindowCoversAllError:
        return None


def run_dyn_mpf(
    tensor: SimilarityTensor,
    config: FusionConfig,
    workers: int = 1,
    uniform_weights: bool = False,
) -> StrategyResult:
    """Dynamic fusion: re-select the technique subset every F-th query.

    At a calibration query (index divisible by frame_separation_f; query 0
    always calibrates) all techniques are normalized and the highest-ratio
    subset is cached. In-between queries touch only the cached subset's
    vectors. Confidence weights and the weighted match are recomputed fresh
    on every query; ``uniform_weights`` forces all weights to 1, which
    reduces the pipeline to plain summation over the selected subset.

    A failed calibration (window covering the database, or too few
    non-degenerate techniques) marks that calibration's whole block invalid
    rather than aborting the run.
    """
    n, queries, d = tensor.data.shape
    config.validate(n, d)
    f = config.frame_separation_f
    all_touched = tuple(range(n))
    records: list[SelectionRecord] = []
    rows = np.full((queries, d), np.nan)
    for start in range(0, queries, f):
        stop = min(start + f, queries)
        subset: tuple[int, ...] | None = None
        calib_score: float | None = None
        block_error: str | None = None

        normalized, degenerate = normalize_query_slices(tensor.query_slices(start))
        try:
            best = select_best_subset(normalized, config, degenerate)
            subset = best.subset
            calib_score = best.score
        except (WindowCoversAllError, TooFewTechniquesError) as exc:
            block_error = f"{type(exc).__name__}: {exc}"

        for q in range(start, stop):
            calibrating = q == start
            touched = all_touched if calibrating else (subset or ())
            if subset is None:
                records.append(SelectionRecord(
                    query=q, subset=(), weights={}, ratio_score=None,
                    match_index=-1, valid=False,
                    techniques_touched=touched, error=block_error,
                ))
                continue
            if calibrating:
                member_norm = normalized
            else:
                member_norm = np.zeros((n, d))
                usable = 0
                for m in subset:
                    raw = tensor.data[m, q]
                    if raw.max() == raw.min():
                        continue  # degenerate here: stays zero, weight falls to 0
                    member_norm[m] = minmax_normalize(raw)
                    usable += 1
                if usable < config.min_subset_size:
                    # the rule a calibration query applies to all techniques
                    records.append(SelectionRecord(
                        query=q, subset=subset, weights={}, ratio_score=None,
                        match_index=-1, valid=False, techniques_touched=touched,
                        error=f"TooFewTechniquesError: {usable} non-degenerate "
                              f"techniques remain in the cached subset, need at "
                              f"least {config.min_subset_size}",
                    ))
                    continue
            try:
                if calibrating:
                    subset_ratio = calib_score
                else:
                    subset_ratio = ratio_score(
                        fuse_subset(member_norm, subset), config.r_window, config.epsilon
                    )
                if uniform_weights:
                    weights = {int(m): 1.0 for m in subset}
                else:
                    weights = technique_weights(member_norm, subset, config)
            except WindowCoversAllError as exc:
                records.append(SelectionRecord(
                    query=q, subset=subset, weights={}, ratio_score=None,
                    match_index=-1, valid=False, techniques_touched=touched,
                    error=f"WindowCoversAllError: {exc}",
                ))
                continue
            fused, match, mean, std = weighted_fuse_and_match(
                member_norm, subset, weights
            )
            rows[q] = fused
            records.append(SelectionRecord(
                query=q, subset=subset, weights=weights,
                ratio_score=subset_ratio, match_index=match,
                fused_mean=mean, fused_std=std,
                techniques_touched=touched,
            ))
    return StrategyResult(
        strategy=STRATEGY_DYN_MPF, records=records, config=config, fused=rows,
        params={"uniform_weights": uniform_weights},
    )


def _simple_sum_runner(tensor, config, subsets_per_query, strategy, params):
    """Shared runner for baselines that sum a fixed or per-query subset."""
    n, queries, d = tensor.data.shape
    normalized = _normalized_tensor(tensor)
    records: list[SelectionRecord] = []
    rows = np.full((queries, d), np.nan)
    for q in range(queries):
        subset = subsets_per_query(q)
        if subset is None:
            records.append(SelectionRecord(
                query=q, subset=(), weights={}, ratio_score=None,
                match_index=-1, valid=False, techniques_touched=(),
                error="TooFewTechniquesError: fewer than 2 usable techniques",
            ))
            continue
        fused = normalized[list(subset), q, :].sum(axis=0)
        rows[q] = fused
        records.append(SelectionRecord(
            query=q, subset=tuple(subset),
            weights={int(m): 1.0 for m in subset},
            ratio_score=_try_ratio(fused, config),
            match_index=argmax_lowest_index(fused),
            fused_mean=float(fused.mean()),
            fused_std=float(fused.std(ddof=1)),
            techniques_touched=tuple(subset),
        ))
    return StrategyResult(
        strategy=strategy, records=records, config=config, fused=rows, params=params,
    )


def run_full_mpf(
    tensor: SimilarityTensor, config: FusionConfig, workers: int = 1
) -> StrategyResult:
    """Sum every technique's normalized vector, no selection or weighting."""
    n, _, d = tensor.data.shape
    config.validate(n, d, require_subsets=False)
    full = tuple(range(n))
    return _simple_sum_runner(
        tensor, config, lambda q: full, STRATEGY_FULL_MPF, {}
    )


def run_static_subset(
    tensor: SimilarityTensor, config: FusionConfig, subset, workers: int = 1
) -> StrategyResult:
    """Sum a fixed subset every query; a singleton is a single-technique run."""
    n, _, d = tensor.data.shape
    config.validate(n, d, require_subsets=False)
    subset = tuple(sorted(int(i) for i in subset))
    if len(subset) == 0:
        raise ConfigError("static subset must be non-empty", field="subset")
    if len(set(subset)) != len(subset):
        raise ConfigError("static subset has duplicate members", field="subset")
    if subset[0] < 0 or subset[-1] >= n:
        raise ConfigError(f"subset indices must lie in [0, {n})", field="subset")
    names = [tensor.names[i] for i in subset]
    return _simple_sum_runner(
        tensor, config, lambda q: subset, STRATEGY_STATIC_SUBSET,
        {"subset": names},
    )


def run_random_pair(
    tensor: SimilarityTensor, config: FusionConfig, workers: int = 1
) -> StrategyResult:
    """Fuse a uniformly drawn pair of usable techniques per query.

    The pair sequence is drawn up front from the seeded generator, so the
    same seed always yields the same pairs.
    """
    n, queries, d = tensor.data.shape
    config.validate(n, d, require_subsets=False)
    if n < 2:
        raise TooFewTechniquesError(f"random pair needs >= 2 techniques, have {n}")
    degenerate = _degenerate_mask(tensor)
    rng = np.random.default_rng(config.rng_seed)
    pairs: list[tuple[int, int] | None] = []
    for q in range(queries):
        avail = np.flatnonzero(~degenerate[:, q])
        if avail.size < 2:
            pairs.append(None)
            continue
        picked = rng.choice(avail.size, size=2, replace=False)
        pair = (int(avail[picked[0]]), int(avail[picked[1]]))
        pairs.append(tuple(sorted(pair)))
    return _simple_sum_runner(
        tensor, config, lambda q: pairs[q], STRATEGY_RANDOM_PAIR,
        {"rng_seed": config.rng_seed},
    )


def default_tiers(n: int, rng_seed: int) -> list[list[int]]:
    """Random tier assignment: up to three tiers, remainder to later tiers."""
    rng = np.random.default_rng(rng_seed)
    order = [int(i) for i in rng.permutation(n)]
    n_tiers = min(3, n)
    sizes = [n // n_tiers] * n_tiers
    for i in range(n % n_tiers):
        sizes[-(i + 1)] += 1
    tiers = []
    at = 0
    for size in sizes:
        tiers.append(order[at:at + size])
        at += size
    return tiers


def run_hier_mpf(
    tensor: SimilarityTensor,
    config: FusionConfig,
    tiers: list[list[int]] | None = None,
    shortlist_fractions=None,
    workers: int = 1,
) -> StrategyResult:
    """Tiered shortlist-and-rescore fusion.

    Tier 1 fuses its techniques over the whole database and keeps the top
    ceil(f1 * D) candidates; each later tier re-normalizes its techniques
    over the surviving candidates only, adds them to the running scores, and
    shortlists again (clamped to at least one candidate). The last tier's
    best survivor, mapped back to a global database index, is the match.
    Tier membership is drawn from the seeded generator when not given.
    """
    n, queries, d = tensor.data.shape
    config.validate(n, d, require_subsets=False)
    if tiers is None:
        tiers = default_tiers(n, config.rng_seed)
    flat = [i for tier in tiers for i in tier]
    if sorted(flat) != list(range(n)):
        raise ConfigError(
            "tiers must partition technique indices 0..N-1", field="tiers"
        )
    if shortlist_fractions is None:
        shortlist_fractions = (0.1,) * (len(tiers) - 1)
    fractions = [float(f) for f in shortlist_fractions]
    if len(fractions) != len(tiers) - 1:
        raise ConfigError(
            f"need {len(tiers) - 1} shortlist fractions for {len(tiers)} tiers",
            field="shortlist_fractions",
        )
    if any(not (0.0 < f <= 1.0) for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]", field="shortlist_fractions")

    def normalize_restricted(raw: np.ndarray) -> np.ndarray:
        lo, hi = raw.min(), raw.max()
        if hi == lo:
            return np.zeros_like(raw)
        return (raw - lo) / (hi - lo)

    records: list[SelectionRecord] = []
    rows = np.full((queries, d), np.nan)
    rank_values = np.arange(d, 0, -1, dtype=np.float64)
    for q in range(queries):
        survivors = np.arange(d)
        scores = np.zeros(d)
        tier1_fused = None
        # Each tier's eliminations, already in (-score, index) order: the
        # stable argsort keeps equal scores in position order, and survivors
        # stay sorted by database index.
        dropped: list[np.ndarray] = []
        for t, tier in enumerate(tiers):
            fused_t = np.zeros(survivors.size)
            for m in tier:
                fused_t += normalize_restricted(tensor.data[m, q, survivors])
            scores = scores + fused_t
            if t == 0:
                tier1_fused = scores.copy()
            if t < len(tiers) - 1:
                keep = max(1, math.ceil(fractions[t] * survivors.size))
                order = np.argsort(-scores, kind="stable")
                dropped.append(survivors[order[keep:]])
                kept = np.sort(order[:keep])
                survivors = survivors[kept]
                scores = scores[kept]
        match = int(survivors[argmax_lowest_index(scores)])
        # Full-database ranking: final survivors by score, then the tiers'
        # eliminations, deepest tier first; rank i scores d - i.
        ranked = np.concatenate(
            [survivors[np.argsort(-scores, kind="stable")], *reversed(dropped)]
        )
        rows[q, ranked] = rank_values
        records.append(SelectionRecord(
            query=q, subset=tuple(range(n)),
            weights={int(m): 1.0 for m in range(n)},
            ratio_score=_try_ratio(tier1_fused, config),
            match_index=match,
            fused_mean=float(tier1_fused.mean()),
            fused_std=float(tier1_fused.std(ddof=1)),
            techniques_touched=tuple(range(n)),
        ))

    return StrategyResult(
        strategy=STRATEGY_HIER_MPF, records=records, config=config, fused=rows,
        params={
            "tiers": [[tensor.names[i] for i in tier] for tier in tiers],
            "shortlist_fractions": fractions,
        },
    )


def _recall_at_1_per_technique(tensor: SimilarityTensor, gt: GroundTruth) -> list[float]:
    matches = np.argmax(tensor.data, axis=2)  # lowest index on ties
    recalls = []
    evaluable = [q for q in range(tensor.queries) if gt.evaluable(q)]
    if not evaluable:
        raise ValueError("ground truth has no evaluable queries")
    for n in range(tensor.n_techniques):
        correct = sum(
            1 for q in evaluable if int(matches[n, q]) in gt.acceptable[q]
        )
        recalls.append(correct / len(evaluable))
    return recalls


def oracle_best_single(tensor: SimilarityTensor, gt: GroundTruth):
    """Hindsight baseline: the technique with the best standalone Recall@1.

    Returns (TechniqueId, recall); ties go to the lowest technique index.
    """
    recalls = _recall_at_1_per_technique(tensor, gt)
    best = 0
    for i, r in enumerate(recalls):
        if r > recalls[best]:
            best = i
    return tensor.techniques[best], recalls[best]


def oracle_best_static_subset(
    tensor: SimilarityTensor, gt: GroundTruth, size: int
):
    """Hindsight baseline: exhaustively find the fixed size-k fusion with the
    best Recall@1. Returns (subset indices, recall)."""
    n = tensor.n_techniques
    if not (1 <= size <= n):
        raise ValueError(f"subset size must lie in [1, {n}]")
    evaluable = [q for q in range(tensor.queries) if gt.evaluable(q)]
    if not evaluable:
        raise ValueError("ground truth has no evaluable queries")
    normalized = _normalized_tensor(tensor)
    best_subset = None
    best_recall = -1.0
    for subset in combinations(range(n), size):
        fused = normalized[list(subset)].sum(axis=0)  # (Q, D)
        matches = np.argmax(fused, axis=1)
        correct = sum(1 for q in evaluable if int(matches[q]) in gt.acceptable[q])
        recall = correct / len(evaluable)
        if recall > best_recall:
            best_recall = recall
            best_subset = subset
    return best_subset, best_recall


def run_best_single_oracle(
    tensor: SimilarityTensor,
    config: FusionConfig,
    gt: GroundTruth,
    workers: int = 1,
) -> StrategyResult:
    """Run the hindsight-best individual technique as a traverse."""
    tech, recall = oracle_best_single(tensor, gt)
    result = run_static_subset(tensor, config, (tech.index,), workers=workers)
    return replace(
        result,
        strategy=STRATEGY_BEST_SINGLE_ORACLE,
        params={"technique": tech.name, "oracle_recall_at_1": recall},
    )
