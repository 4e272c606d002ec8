"""Strategy runners: dynamic fusion plus all baselines.

Every runner emits one SelectionRecord per query plus a Q x D score array
whose per-row ordering is the strategy's database ranking for that query
(used downstream for Recall@K). A failure on one query flags that record
invalid instead of aborting the run. So does a query on which every fused
technique is constant: its fused vector carries no place information.

Every runner hands one batch loop, ``_fuse_groups``, each query's subset
and a ``fuse(subset, qs)`` that scores a chunk of at most core.WORK_BYTES
of float64 member vectors; ``_fuse_groups`` groups the queries by subset,
however they interleave. Dynamic fusion searches every calibration first
and gives each block its search's subset (``_fuse_block``). The plain-sum
baselines give each query its subset and normalize only its members.
Hierarchical fusion gives every query all techniques and runs its tiers on
a (queries, survivors) block. Only the records are built per query;
``_invalid`` builds every no-match record. The results equal a
query-by-query run bit for bit (the loops are kept in
tests/reference_impl.py).

Parallelism contract: every runner is single-threaded and walks its
batches in a fixed order. The ``workers`` parameter is accepted for
compatibility and changes nothing, so output never depends on it. Threads
measured slower than one loop here: the work is numpy calls that hold the
GIL.
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
    is_constant,
    minmax_rows,
    row_moments,
    rows_within,
)
from .errors import ConfigError, TooFewTechniquesError
from .fusion import (
    SubsetScore,
    ratio_rows,
    select_best_subsets,
    weighted_match_rows,
    window_error,
)
# Not called here any more, but perfbench/tracing.py hooks these names in
# this module; with them present, its per-layer metrics read 0, not absent.
from .core import minmax_normalize  # noqa: F401
from .fusion import (  # noqa: F401
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


def _invalid(query: int, error: str, subset, touched) -> SelectionRecord:
    """The record of a query that has no match."""
    return SelectionRecord(
        query=query, subset=subset, weights={}, ratio_score=None, match_index=-1,
        valid=False, techniques_touched=touched, error=error,
    )


def _fuse_groups(tensor, subsets, records, fuse) -> np.ndarray:
    """Group the queries by ``subsets[q]`` (None: in no group), in the order
    the subsets first occur, and call ``fuse(subset, qs)`` on each group in
    chunks of at most core.WORK_BYTES of float64 member vectors (at least
    one query); ``qs`` is an ascending query array, not always consecutive.
    ``fuse`` returns the chunk's (len(qs), D) scores, validity and records;
    its scores' invalid rows become NaN, then the chunk goes into the
    result in one write. Puts the records in ``records`` by query; returns
    the (Q, D) scores, NaN where invalid (only the rows of queries in no
    group are filled with NaN up front)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for q, subset in enumerate(subsets):
        if subset is not None:
            groups.setdefault(subset, []).append(q)
    rows = np.empty((tensor.queries, tensor.database_size))
    rows[[q for q, subset in enumerate(subsets) if subset is None]] = np.nan
    for subset, group in groups.items():
        group = np.array(group)
        chunk = rows_within(8 * len(subset) * tensor.database_size)
        for at in range(0, len(group), chunk):
            qs = group[at:at + chunk]
            scores, valid, chunk_records = fuse(subset, qs)
            scores[~valid] = np.nan
            rows[qs] = scores
            for record in chunk_records:
                records[record.query] = record
    return rows


def run_dyn_mpf(
    tensor: SimilarityTensor,
    config: FusionConfig,
    workers: int = 1,
    uniform_weights: bool = False,
    *,
    searches: dict | None = None,
) -> StrategyResult:
    """Dynamic fusion: re-select the technique subset every F-th query.

    At a calibration query (index divisible by frame_separation_f; query 0
    always calibrates) all techniques are normalized and the highest-ratio
    subset is cached. In-between queries touch only the cached subset's
    vectors. Confidence weights and the weighted match are recomputed fresh
    on every query; ``uniform_weights`` forces all weights to 1, which
    reduces the pipeline to plain summation over the selected subset.

    Every calibration is searched first and gives its block's queries its
    subset; _fuse_groups then fuses all queries of one subset together
    with _fuse_block, whichever blocks they come from. The calibrations
    still to search are normalized together, in chunks of at most a
    quarter of core.WORK_BYTES, with the same bits as normalizing each
    alone, and each chunk is searched by one select_best_subsets call.
    ``searches`` ({query: SubsetScore, or its search's error text}) carries
    searches across calls whose configs differ only in F: each call reuses
    the ones it finds there and adds the ones it makes.

    A failed calibration (window covering the database, or too few
    non-degenerate techniques) marks that calibration's whole block invalid
    rather than aborting the run; its queries join no group.
    """
    n, queries, d = tensor.data.shape
    config.validate(n, d)
    f = config.frame_separation_f
    searches = {} if searches is None else searches
    records: list[SelectionRecord | None] = [None] * queries
    subsets: list[tuple[int, ...] | None] = [None] * queries
    calibrates = np.zeros(queries, dtype=bool)
    pending = [start for start in range(0, queries, f) if start not in searches]
    # a quarter share, beside the search's scratch: at 10 x 1000, F = 1, the
    # peak is 1.43 MiB one at a time, 1.58 at a quarter, 2.67 at the whole
    chunk = rows_within(4 * 8 * n * d)
    for at in range(0, len(pending), chunk):
        qs = pending[at:at + chunk]
        # the tensor is finite, so this is normalize_query_slices per query
        normalized, constant = minmax_rows(tensor.data[:, qs])
        for start, best in zip(qs, select_best_subsets(normalized, constant, config)):
            searches[start] = (best if isinstance(best, SubsetScore)
                               else f"{type(best).__name__}: {best}")
    for start in range(0, queries, f):
        stop = min(start + f, queries)
        best = searches[start]
        if isinstance(best, str):
            records[start] = _invalid(start, best, (), tuple(range(n)))
            for q in range(start + 1, stop):
                records[q] = _invalid(q, best, (), ())
            continue
        calibrates[start] = True
        subsets[start:stop] = [best.subset] * (stop - start)

    def fuse(subset, qs):
        return _fuse_block(tensor, config, subset, calibrates[qs], qs, uniform_weights)

    rows = _fuse_groups(tensor, subsets, records, fuse)
    return StrategyResult(
        strategy=STRATEGY_DYN_MPF, records=records, config=config, fused=rows,
        params={"uniform_weights": uniform_weights},
    )


def _fuse_block(tensor, config, subset, calibration, qs, uniform_weights):
    """(standardized sums, validity, records) of the ascending queries
    ``qs`` that use ``subset``, as one batch. ``calibration`` flags the ones
    whose own search chose it; they touched every technique.

    Per query the checks run in the order a single query would meet them:
    too few non-constant members, the fused ratio's window, then each
    member's window in subset order. A calibration passes the first two,
    because its search chose a subset that does, and its fused ratio is the
    search's score bit for bit.
    """
    r, eps, low = config.r_window, config.epsilon, config.min_subset_size
    members, constant = minmax_rows(tensor.data[np.ix_(subset, qs)])
    d = members.shape[2]
    ratios, fused_best, fused_covered = ratio_rows(_sum_rows(members), r, eps)
    weights, member_best, member_covered = (
        a.reshape(constant.shape) for a in ratio_rows(members.reshape(-1, d), r, eps)
    )
    if uniform_weights:
        weights, member_covered = np.ones(constant.shape), np.zeros(constant.shape, bool)
    usable = len(subset) - constant.sum(axis=0)
    too_few = usable < low
    fused_bad = fused_covered & ~too_few
    valid = ~(too_few | fused_bad | member_covered.any(axis=0))
    # an invalid query's weights may be meaningless; zero keeps its unused
    # sum finite
    z, match, mean, std = weighted_match_rows(members, np.where(valid, weights, 0.0))

    def error(i: int) -> str:
        if too_few[i]:
            return (f"TooFewTechniquesError: {usable[i]} non-degenerate techniques "
                    f"remain in the cached subset, need at least {low}")
        at = fused_best[i] if fused_bad[i] else \
            member_best[member_covered[:, i].argmax(), i]  # first in subset order
        return f"WindowCoversAllError: {window_error(r, int(at), d)}"

    records = []
    everyone = tuple(range(len(tensor.data)))
    columns = zip(qs.tolist(), calibration.tolist(), valid.tolist(), ratios.tolist(),
                  weights.T.tolist(), match.tolist(), mean.tolist(), std.tolist())
    for i, (q, calibrates, ok, ratio, w, m, mu, sigma) in enumerate(columns):
        touched = everyone if calibrates else subset
        if not ok:
            records.append(_invalid(q, error(i), subset, touched))
            continue
        records.append(SelectionRecord(
            query=q, subset=subset, weights=dict(zip(subset, w)), ratio_score=ratio,
            match_index=m, fused_mean=mu, fused_std=sigma,
            techniques_touched=touched,
        ))
    return z, valid, records


def _sum_rows(members: np.ndarray) -> np.ndarray:
    """Sum over the first axis from zeros, left to right, as fuse_subset
    adds (a sum of normalized vectors, so the zeros change no bit)."""
    fused = np.zeros(members.shape[1:])
    for row in members:
        fused += row
    return fused


def _summed_records(config, qs, subset, fused, match, valid):
    """Records of the queries ``qs`` whose ``subset`` members were summed
    with unit weights into the rows of ``fused``: ratio, mean and std come
    from ``fused``, the match from ``match``. A query is invalid where
    ``valid`` is False, which means every member is constant on it."""
    ratios, _, covered = ratio_rows(fused, config.r_window, config.epsilon)
    error = (f"TooFewTechniquesError: 0 non-constant techniques among the "
             f"{len(subset)} fused, need at least 1")
    records = []
    mean, std, _ = row_moments(fused)
    columns = zip(qs.tolist(), valid.tolist(), ratios.tolist(), covered.tolist(),
                  match.tolist(), mean.tolist(), std.tolist())
    for q, ok, ratio, window_covers_all, m, mu, sigma in columns:
        if not ok:
            records.append(_invalid(q, error, subset, subset))
            continue
        records.append(SelectionRecord(
            query=q, subset=subset, weights=dict.fromkeys(subset, 1.0),
            ratio_score=None if window_covers_all else ratio,
            match_index=m, fused_mean=mu, fused_std=sigma,
            techniques_touched=subset,
        ))
    return records


def _simple_sum_runner(tensor, config, subsets, strategy, params):
    """Shared runner for the baselines that sum one subset's normalized
    vectors per query with unit weights. ``subsets[q]`` is query q's sorted
    subset, or None when fewer than 2 techniques are usable on it.

    _fuse_groups fuses the queries that share a subset together; only the
    subset's members are normalized.
    """
    records: list[SelectionRecord | None] = [None] * tensor.queries
    for q, subset in enumerate(subsets):
        if subset is None:
            records[q] = _invalid(
                q, "TooFewTechniquesError: fewer than 2 usable techniques", (), ()
            )

    def fuse(subset, qs):
        members, constant = minmax_rows(tensor.data[np.ix_(subset, qs)])
        fused = _sum_rows(members)
        valid = ~constant.all(axis=0)
        return fused, valid, _summed_records(config, qs, subset, fused,
                                             fused.argmax(axis=1), valid)

    rows = _fuse_groups(tensor, subsets, records, fuse)
    return StrategyResult(
        strategy=strategy, records=records, config=config, fused=rows, params=params,
    )


def run_full_mpf(
    tensor: SimilarityTensor, config: FusionConfig, workers: int = 1
) -> StrategyResult:
    """Sum every technique's normalized vector, no selection or weighting."""
    n, queries, d = tensor.data.shape
    config.validate(n, d, require_subsets=False)
    return _simple_sum_runner(
        tensor, config, [tuple(range(n))] * queries, STRATEGY_FULL_MPF, {}
    )


def run_static_subset(
    tensor: SimilarityTensor, config: FusionConfig, subset, workers: int = 1
) -> StrategyResult:
    """Sum a fixed subset every query; a singleton is a single-technique run."""
    n, queries, d = tensor.data.shape
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
        tensor, config, [subset] * queries, STRATEGY_STATIC_SUBSET, {"subset": names}
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
    degenerate = is_constant(tensor.data)  # as minmax_rows flags them
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
        tensor, config, pairs, STRATEGY_RANDOM_PAIR, {"rng_seed": config.rng_seed}
    )


def _take_rows(block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(block, cols, axis=1)`` for a C-contiguous 2-D
    ``block``, as one flat take (about twice as fast)."""
    offsets = np.arange(0, block.size, block.shape[1])[:, None]
    return np.take(block.reshape(-1), cols + offsets)


def _descending_order(scores: np.ndarray) -> np.ndarray:
    """Per row of a NaN-free 2-D array, the column indices by descending
    score, equal scores in ascending index order: the same as
    ``np.argsort(-scores, axis=1, kind="stable")`` at about a third of its
    cost. An unstable argsort leaves each run of equal scores together but
    in any order; one integer sort of run number * D + index puts every run
    back in index order. Those keys are sorted already outside the runs,
    which the stable (merging) integer sort exploits."""
    negated = -scores
    order = np.argsort(negated, axis=1)
    ranked = _take_rows(negated, order)
    base = np.zeros(order.shape, dtype=order.dtype)
    np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=base[:, 1:])
    base *= scores.shape[1]
    order += base
    order.sort(axis=1, kind="stable")
    order -= base
    return order


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
    Tier membership is drawn from the seeded generator when not given. A
    query on which all N techniques are constant is invalid.

    Every query has all techniques, so _fuse_groups fuses all queries as
    one group, and each tier works on a whole chunk at once.
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

    rank_values = np.arange(d, 0, -1, dtype=np.float64)
    everyone = tuple(range(n))
    all_constant = is_constant(tensor.data).all(axis=0)

    def fuse(subset, qs):
        # (queries, survivors) blocks: every query keeps the same number of
        # survivors, in database index order (None: all of them). Each
        # tier's eliminations come out in (-score, index) order.
        survivors = None
        dropped: list[np.ndarray] = []
        for t, tier in enumerate(tiers):
            if survivors is None:
                members = tensor.data[np.ix_(tier, qs)]
            else:
                members = tensor.data[np.array(tier, dtype=np.intp)[:, None, None],
                                      qs[:, None], survivors]
            fused = _sum_rows(minmax_rows(members)[0])
            scores = fused if survivors is None else scores + fused
            if t == 0:
                tier1_fused = scores
            if t < len(tiers) - 1:
                keep = max(1, math.ceil(fractions[t] * scores.shape[1]))
                order = _descending_order(scores)
                kept = np.sort(order[:, :keep], axis=1)
                scores = _take_rows(scores, kept)
                if survivors is None:
                    dropped.append(order[:, keep:])
                    survivors = kept
                else:
                    dropped.append(_take_rows(survivors, order[:, keep:]))
                    survivors = _take_rows(survivors, kept)
        # Full-database ranking: final survivors by score, then the tiers'
        # eliminations, deepest tier first; rank i scores d - i.
        final = _descending_order(scores)
        ranked = np.concatenate([
            final if survivors is None else _take_rows(survivors, final),
            *reversed(dropped),
        ], axis=1)
        ranks = np.empty(ranked.shape)
        np.put_along_axis(ranks, ranked, rank_values, axis=1)
        valid = ~all_constant[qs]
        return ranks, valid, _summed_records(config, qs, subset, tier1_fused,
                                             ranked[:, 0], valid)

    records: list[SelectionRecord | None] = [None] * queries
    rows = _fuse_groups(tensor, [everyone] * queries, records, fuse)
    return StrategyResult(
        strategy=STRATEGY_HIER_MPF, records=records, config=config, fused=rows,
        params={
            "tiers": [[tensor.names[i] for i in tier] for tier in tiers],
            "shortlist_fractions": fractions,
        },
    )


def _recall_at_1_rows(matches: np.ndarray, gt: GroundTruth) -> list[float]:
    """Recall@1 of every row of a (rows, Q) array of match indices over the
    ground truth's evaluable queries."""
    evaluable = [q for q in range(matches.shape[1]) if gt.evaluable(q)]
    if not evaluable:
        raise ValueError("ground truth has no evaluable queries")
    hits = gt.hits(np.array(evaluable), matches[:, evaluable])
    return (hits.sum(axis=1) / len(evaluable)).tolist()


def oracle_best_single(tensor: SimilarityTensor, gt: GroundTruth):
    """Hindsight baseline: the technique with the best standalone Recall@1.

    Returns (TechniqueId, recall); ties go to the lowest technique index.
    """
    # argmax takes the lowest index among tied maxima, per query and here
    recalls = _recall_at_1_rows(np.argmax(tensor.data, axis=2), gt)
    best = int(np.argmax(recalls))
    return tensor.techniques[best], recalls[best]


def oracle_best_static_subset(
    tensor: SimilarityTensor, gt: GroundTruth, size: int
):
    """Hindsight baseline: exhaustively find the fixed size-k fusion with the
    best Recall@1. Returns (subset indices, recall); ties go to the first
    subset in lexicographic order."""
    n = tensor.n_techniques
    if not (1 <= size <= n):
        raise ValueError(f"subset size must lie in [1, {n}]")
    normalized = minmax_rows(tensor.data)[0]
    subsets = list(combinations(range(n), size))
    matches = np.array([_sum_rows(normalized[list(s)]).argmax(axis=1) for s in subsets])
    recalls = _recall_at_1_rows(matches, gt)
    best = int(np.argmax(recalls))
    return subsets[best], recalls[best]


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
