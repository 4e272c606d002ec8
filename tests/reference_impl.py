"""Independent, deliberately naive re-implementations used as test oracles.

Everything here is plain-Python loop code kept separate from the library so
the two sides cannot share a bug: no imports from dynfuse beyond exceptions
for signaling, no numpy vectorization tricks. The one exception is
``argsort_top_k``: the library's former Recall@K ranking, kept verbatim
because it defines the order the partition-based top-K must reproduce,
NaN placement included.
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
