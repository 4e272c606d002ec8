"""Independent, deliberately naive re-implementations used as test oracles.

Everything here is plain-Python loop code kept separate from the library so
the two sides cannot share a bug: no imports from dynfuse beyond exceptions
for signaling, no numpy vectorization tricks. Two pieces are the library's
former code, kept because they define what its fast paths must reproduce:
``argsort_top_k``, the Recall@K ranking (NaN placement included), and
``naive_run_dyn_mpf``, the query-by-query dynamic fusion loop, whose means,
standard deviations and z-scores are numpy's on one vector at a time.
"""

import math
from itertools import combinations

import numpy as np


def naive_minmax(vec):
    lo = min(vec)
    hi = max(vec)
    if hi == lo:
        return [0.0 for _ in vec]
    return [(x - lo) / (hi - lo) for x in vec]


def naive_ratio(vec, r_window, epsilon):
    """Best over best-outside-window, or None when the window covers all."""
    best_idx = 0
    for i, x in enumerate(vec):
        if x > vec[best_idx]:
            best_idx = i
    outside = [
        x for i, x in enumerate(vec) if abs(i - best_idx) > r_window
    ]
    if not outside:
        return None
    denom = max(outside)
    if denom < epsilon:
        denom = epsilon
    return vec[best_idx] / denom


def naive_fuse(vectors, subset):
    fused = [0.0] * len(vectors[0])
    for m in subset:
        row = vectors[m]
        for i in range(len(fused)):
            fused[i] += row[i]
    return fused


def naive_best_subset(vectors, r_window, epsilon, min_size, max_size,
                      degenerate=frozenset(), tie_break="smallest-subset"):
    """Exhaustive search over all admissible subsets.

    Returns (subset tuple, score) or None if every candidate's window
    covered the whole vector. Ties: higher score wins; equal scores go to
    the smaller subset then lexicographic order (or pure lexicographic for
    tie_break="lowest-index").
    """
    n = len(vectors)
    available = [i for i in range(n) if i not in degenerate]
    best = None
    for size in range(min_size, min(max_size, len(available)) + 1):
        for subset in combinations(available, size):
            score = naive_ratio(naive_fuse(vectors, subset), r_window, epsilon)
            if score is None:
                continue
            if tie_break == "lowest-index":
                key = (-score, subset)
            else:
                key = (-score, len(subset), subset)
            if best is None or key < best[0]:
                best = (key, subset, score)
    if best is None:
        return None
    return best[1], best[2]


def naive_recall_at_1(match_indices, acceptable_sets):
    """Fraction of queries whose match lands in a non-empty acceptable set."""
    hits = 0
    total = 0
    for match, acceptable in zip(match_indices, acceptable_sets):
        if len(acceptable) == 0:
            continue
        total += 1
        if match in acceptable:
            hits += 1
    if total == 0:
        raise ValueError("no evaluable queries")
    return hits / total


def naive_topk(vec, k):
    """Indices of the k largest values, ties to the lowest index."""
    order = sorted(range(len(vec)), key=lambda i: (-vec[i], i))
    return order[:k]


def argsort_top_k(scores, k):
    """Row-wise top-k by a stable sort on negated scores: ties go to the
    lowest index, NaN sorts after every number."""
    return np.argsort(-np.asarray(scores), axis=1, kind="stable")[:, :k]


def naive_hier_rank_scores(vectors, tiers, fractions):
    """One query of hierarchical fusion, returning its ranking scores.

    ``vectors`` holds one raw similarity list per technique. Each tier adds
    its members' vectors, min-max normalized over the current survivors, to
    the running scores, then keeps the top ceil(f * survivors) (at least
    one), ties to the lower database index. The ranking lists the final
    survivors by score, then each tier's eliminations, deepest tier first;
    the entry at rank i scores d - i.
    """
    d = len(vectors[0])
    survivors = list(range(d))
    scores = [0.0] * d
    placed = []
    for t, tier in enumerate(tiers):
        fused = [0.0] * len(survivors)
        for m in tier:
            normed = naive_minmax([vectors[m][i] for i in survivors])
            for j in range(len(survivors)):
                fused[j] += normed[j]
        scores = [scores[j] + fused[j] for j in range(len(survivors))]
        if t < len(tiers) - 1:
            keep = max(1, math.ceil(fractions[t] * len(survivors)))
            order = sorted(range(len(survivors)), key=lambda j: (-scores[j], j))
            placed.append(
                ([survivors[j] for j in order[keep:]], [scores[j] for j in order[keep:]])
            )
            kept = sorted(order[:keep])
            survivors = [survivors[j] for j in kept]
            scores = [scores[j] for j in kept]
    rank_scores = [None] * d
    position = 0
    for j in sorted(range(len(survivors)), key=lambda j: (-scores[j], j)):
        rank_scores[survivors[j]] = float(d - position)
        position += 1
    for idx, sc in reversed(placed):
        for j in sorted(range(len(idx)), key=lambda j: (-sc[j], j)):
            rank_scores[idx[j]] = float(d - position)
            position += 1
    return rank_scores


def _minmax_vector(raw):
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def _ratio_vector(arr, r_window, epsilon):
    """(ratio, argmax); the ratio is None when the window covers all."""
    best = int(np.argmax(arr))
    lo = max(0, best - r_window)
    hi = min(arr.size, best + r_window + 1)
    if lo == 0 and hi == arr.size:
        return None, best
    outside_max = -np.inf
    if lo > 0:
        outside_max = arr[:lo].max()
    if hi < arr.size:
        outside_max = max(outside_max, arr[hi:].max())
    return float(arr[best]) / max(float(outside_max), epsilon), best


def _window_error(r_window, best, size):
    return (f"WindowCoversAllError: exclusion window +/-{r_window} around "
            f"index {best} covers all {size} entries")


def naive_run_dyn_mpf(data, config, names, uniform_weights=False):
    """Dynamic fusion one query at a time, as the library once ran it.

    ``data`` is the raw (N, Q, D) tensor and ``config`` a FusionConfig.
    Returns (records in SelectionRecord.to_json_dict form, (Q, D) fused
    rows with NaN for invalid queries). Calibration uses naive_best_subset.
    """
    n, queries, d = data.shape
    r, eps = config.r_window, config.epsilon
    low = config.min_subset_size
    high = n if config.max_subset_size is None else config.max_subset_size
    rows = np.full((queries, d), np.nan)
    records = []

    def record(q, subset, touched, weights=None, ratio=None, match=-1,
               mean=None, std=None, error=None):
        records.append({
            "query": q,
            "subset": [names[i] for i in subset],
            "weights": {names[m]: w for m, w in (weights or {}).items()},
            "ratio_score": ratio,
            "match_index": match,
            "fused_mean": mean,
            "fused_std": std,
            "valid": error is None,
            "techniques_touched": [names[i] for i in touched],
            "error": error,
        })

    for start in range(0, queries, config.frame_separation_f):
        stop = min(start + config.frame_separation_f, queries)
        normalized = np.array([_minmax_vector(data[m, start]) for m in range(n)])
        degenerate = {m for m in range(n) if data[m, start].max() == data[m, start].min()}
        subset = None
        if n - len(degenerate) < low:
            block_error = (f"TooFewTechniquesError: {n - len(degenerate)} "
                           f"non-degenerate techniques remain, need at least {low}")
        else:
            found = naive_best_subset(normalized.tolist(), r, eps, low, high,
                                      degenerate, config.tie_break)
            if found is None:
                block_error = ("WindowCoversAllError: every candidate subset's "
                               "exclusion window covered the whole vector")
            else:
                subset, calib_score = found
        for q in range(start, stop):
            calibrating = q == start
            touched = range(n) if calibrating else (subset or ())
            if subset is None:
                record(q, (), touched, error=block_error)
                continue
            if calibrating:
                member_norm = normalized
            else:
                member_norm = np.zeros((n, d))
                usable = 0
                for m in subset:
                    raw = data[m, q]
                    if raw.max() == raw.min():
                        continue
                    member_norm[m] = _minmax_vector(raw)
                    usable += 1
                if usable < low:
                    record(q, subset, touched, error=(
                        f"TooFewTechniquesError: {usable} non-degenerate "
                        f"techniques remain in the cached subset, need at "
                        f"least {low}"))
                    continue
            if calibrating:
                subset_ratio = calib_score
            else:
                fused = np.zeros(d)
                for m in subset:
                    fused += member_norm[m]
                subset_ratio, best = _ratio_vector(fused, r, eps)
                if subset_ratio is None:
                    record(q, subset, touched, error=_window_error(r, best, d))
                    continue
            weights = {}
            error = None
            for m in subset:
                if uniform_weights:
                    weights[m] = 1.0
                    continue
                weights[m], best = _ratio_vector(member_norm[m], r, eps)
                if weights[m] is None:
                    error = _window_error(r, best, d)
                    break
            if error is not None:
                record(q, subset, touched, error=error)
                continue
            fused = np.zeros(d)
            for m in subset:
                fused += weights[m] * member_norm[m]
            if not np.all(np.isfinite(fused)):
                raise ValueError("similarity vector contains non-finite entries")
            std = fused.std(ddof=1)
            rows[q] = fused.copy() if std == 0.0 else (fused - fused.mean()) / std
            record(q, subset, touched, weights, subset_ratio, int(np.argmax(fused)),
                   float(fused.mean()), float(std))
    return records, rows
