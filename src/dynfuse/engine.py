"""Per-query strategy runners: dynamic fusion plus all baselines.

Every runner walks a traverse query by query and emits one SelectionRecord
per query plus a Q x D score array whose per-row ordering is the strategy's
database ranking for that query (used downstream for Recall@K). A failure
on one query flags that record invalid instead of aborting the run.

Every runner min-max normalizes with ``core.minmax_rows``. Dynamic fusion
batches each calibration block: the cached subset's vectors of all its
queries are normalized as one (members, queries, D) slab, and ratios,
weights, sums and matches are computed for them at once; only the records
are built per query. The results equal a query-by-query run bit for bit.

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
    minmax_rows,
)
from .errors import ConfigError, TooFewTechniquesError, WindowCoversAllError
from .fusion import (
    normalize_query_slices,
    ratio_rows,
    ratio_score,
    select_best_subset,
    weighted_match_rows,
    window_error,
)
# Not called here any more, but perfbench/tracing.py hooks these names in
# this module; with them present, its per-layer metrics read 0, not absent.
from .core import minmax_normalize  # noqa: F401
from .fusion import fuse_subset, technique_weights, weighted_fuse_and_match  # noqa: F401

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


def _try_ratio(fused: np.ndarray, config: FusionConfig) -> float | None:
    try:
        return ratio_score(fused, config.r_window, config.epsilon)
    except WindowCoversAllError:
        return None


# Bytes of the largest (members, queries, D) float64 slab dyn-mpf batches;
# longer blocks go in query chunks, so memory does not grow with F.
_BLOCK_BYTES = 1 << 20


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

    Each block is fused as one batch (_fuse_block), in query chunks of at
    most _BLOCK_BYTES of member vectors.

    A failed calibration (window covering the database, or too few
    non-degenerate techniques) marks that calibration's whole block invalid
    rather than aborting the run.
    """
    n, queries, d = tensor.data.shape
    config.validate(n, d)
    f = config.frame_separation_f
    records: list[SelectionRecord] = []
    rows = np.full((queries, d), np.nan)
    for start in range(0, queries, f):
        stop = min(start + f, queries)
        normalized, degenerate = normalize_query_slices(tensor.query_slices(start))
        try:
            best = select_best_subset(normalized, config, degenerate)
        except (WindowCoversAllError, TooFewTechniquesError) as exc:
            error = f"{type(exc).__name__}: {exc}"
            records.extend(
                SelectionRecord(
                    query=q, subset=(), weights={}, ratio_score=None,
                    match_index=-1, valid=False, error=error,
                    techniques_touched=tuple(range(n)) if q == start else (),
                )
                for q in range(start, stop)
            )
            continue
        chunk = max(1, _BLOCK_BYTES // (8 * len(best.subset) * d))
        for at in range(start, stop, chunk):
            records.extend(_fuse_block(
                tensor, config, best, start, range(at, min(at + chunk, stop)),
                rows, uniform_weights,
            ))
    return StrategyResult(
        strategy=STRATEGY_DYN_MPF, records=records, config=config, fused=rows,
        params={"uniform_weights": uniform_weights},
    )


def _fuse_block(tensor, config, best, calibration, qs, rows, uniform_weights):
    """Records for the queries ``qs`` of the block that ``calibration``
    started with subset ``best``, computed as one batch; writes their
    standardized sums to ``rows``.

    Per query the checks run in the order a single query would meet them:
    too few non-constant members, the fused ratio's window, then each
    member's window in subset order. The calibration query skips the first
    two; its fused ratio is the search's score.
    """
    subset = best.subset
    r, eps, low = config.r_window, config.epsilon, config.min_subset_size
    members, constant = minmax_rows(tensor.data[list(subset), qs.start:qs.stop])
    d = members.shape[2]
    fused = members[0] + members[1]
    for row in members[2:]:
        fused += row  # left to right, as fuse_subset adds
    ratios, fused_best, fused_covered = ratio_rows(fused, r, eps)
    weights, member_best, member_covered = (
        a.reshape(constant.shape) for a in ratio_rows(members.reshape(-1, d), r, eps)
    )
    if uniform_weights:
        weights, member_covered = np.ones(constant.shape), np.zeros(constant.shape, bool)
    usable = len(subset) - constant.sum(axis=0)
    in_between = np.arange(qs.start, qs.stop) != calibration
    too_few = in_between & (usable < low)
    fused_bad = in_between & fused_covered & ~too_few
    valid = ~(too_few | fused_bad | member_covered.any(axis=0))
    # an invalid query's weights may be meaningless; zero keeps its unused
    # sum finite
    z, match, mean, std = weighted_match_rows(members, np.where(valid, weights, 0.0))
    rows[qs.start:qs.stop][valid] = z[valid]

    def error(i: int) -> str:
        if too_few[i]:
            return (f"TooFewTechniquesError: {usable[i]} non-degenerate techniques "
                    f"remain in the cached subset, need at least {low}")
        at = fused_best[i] if fused_bad[i] else \
            member_best[member_covered[:, i].argmax(), i]  # first in subset order
        return f"WindowCoversAllError: {window_error(r, int(at), d)}"

    records = []
    columns = zip(qs, valid.tolist(), ratios.tolist(), weights.T.tolist(),
                  match.tolist(), mean.tolist(), std.tolist())
    for i, (q, ok, ratio, w, m, mu, sigma) in enumerate(columns):
        touched = tuple(range(len(tensor.data))) if q == calibration else subset
        if not ok:
            records.append(SelectionRecord(
                query=q, subset=subset, weights={}, ratio_score=None,
                match_index=-1, valid=False, techniques_touched=touched,
                error=error(i),
            ))
            continue
        records.append(SelectionRecord(
            query=q, subset=subset, weights=dict(zip(subset, w)),
            ratio_score=best.score if q == calibration else ratio,
            match_index=m, fused_mean=mu, fused_std=sigma,
            techniques_touched=touched,
        ))
    return records


def _simple_sum_runner(normalized, config, subsets_per_query, strategy, params):
    """Shared runner for baselines that sum a fixed or per-query subset of
    the normalized (N, Q, D) tensor."""
    n, queries, d = normalized.shape
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
        minmax_rows(tensor.data)[0], config, lambda q: full, STRATEGY_FULL_MPF, {}
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
        minmax_rows(tensor.data)[0], config, lambda q: subset, STRATEGY_STATIC_SUBSET,
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
    normalized, degenerate = minmax_rows(tensor.data)
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
        normalized, config, lambda q: pairs[q], STRATEGY_RANDOM_PAIR,
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
            for row in minmax_rows(tensor.data[tier, q][:, survivors])[0]:
                fused_t += row
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
    normalized = minmax_rows(tensor.data)[0]
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
