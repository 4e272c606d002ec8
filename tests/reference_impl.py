"""Independent, deliberately naive re-implementations used as test oracles.

Everything here is plain-Python loop code kept separate from the library so
the two sides cannot share a bug: no imports from dynfuse beyond exceptions
for signaling, no numpy vectorization tricks. Some pieces are the library's
former code, kept because they define what its fast paths must reproduce:
``argsort_top_k``, the Recall@K ranking (NaN placement included), and the
query-by-query strategy loops ``naive_run_dyn_mpf``, ``naive_run_simple_sum``
and ``naive_run_hier_mpf``, whose means, standard deviations and z-scores
are numpy's on one vector at a time. The baseline loops add one rule the
former code lacked: a query whose fused techniques are all constant is
invalid. ``naive_generate`` is the synthetic generator's former per-query
loop, which fixes the order in which a seed's stream is consumed.
"""

import math
from itertools import combinations

import numpy as np

from dynfuse.errors import InvalidSpecError


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


def _record_json(names, q, subset, touched, weights=None, ratio=None,
                 match=-1, mean=None, std=None, error=None):
    """One record in SelectionRecord.to_json_dict form."""
    return {
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
    }


def _is_constant(vec):
    return vec.max() == vec.min()


def _all_constant_error(k):
    return (f"TooFewTechniquesError: 0 non-constant techniques among the {k} "
            f"fused, need at least 1")


def naive_random_pairs(data, seed):
    """random-pair's draw: per query, two distinct non-constant techniques
    from one seeded generator (sorted), or None when fewer than two are
    left."""
    rng = np.random.default_rng(seed)
    pairs = []
    for q in range(data.shape[1]):
        avail = [m for m in range(data.shape[0]) if not _is_constant(data[m, q])]
        if len(avail) < 2:
            pairs.append(None)
            continue
        picked = rng.choice(len(avail), size=2, replace=False)
        pairs.append(tuple(sorted((avail[picked[0]], avail[picked[1]]))))
    return pairs


def naive_best_single(data, acceptable_sets):
    """(technique, Recall@1) of the technique whose own argmax matches best;
    ties go to the lowest technique index."""
    best = None
    for m in range(data.shape[0]):
        matches = [int(np.argmax(data[m, q])) for q in range(data.shape[1])]
        recall = naive_recall_at_1(matches, acceptable_sets)
        if best is None or recall > best[1]:
            best = (m, recall)
    return best


def naive_best_static_subset(data, acceptable_sets, size):
    """(subset, Recall@1) of the size-``size`` plain sum that matches best;
    ties go to the first subset in lexicographic order."""
    best = None
    for subset in combinations(range(data.shape[0]), size):
        matches = []
        for q in range(data.shape[1]):
            fused = np.array([_minmax_vector(data[m, q]) for m in subset]).sum(axis=0)
            matches.append(int(np.argmax(fused)))
        recall = naive_recall_at_1(matches, acceptable_sets)
        if best is None or recall > best[1]:
            best = (subset, recall)
    return best


def naive_run_simple_sum(data, config, subsets, names):
    """The plain-sum baselines (full-mpf, static-subset, random-pair,
    best-single-oracle) one query at a time.

    ``subsets[q]`` is query q's sorted subset, or None when fewer than two
    techniques are usable. Returns (records in SelectionRecord.to_json_dict
    form, (Q, D) fused rows with NaN for invalid queries).
    """
    queries, d = data.shape[1:]
    rows = np.full((queries, d), np.nan)
    records = []
    for q in range(queries):
        subset = subsets[q]
        if subset is None:
            records.append(_record_json(
                names, q, (), (),
                error="TooFewTechniquesError: fewer than 2 usable techniques"))
            continue
        if all(_is_constant(data[m, q]) for m in subset):
            records.append(_record_json(names, q, subset, subset,
                                        error=_all_constant_error(len(subset))))
            continue
        fused = np.array([_minmax_vector(data[m, q]) for m in subset]).sum(axis=0)
        rows[q] = fused
        ratio, _ = _ratio_vector(fused, config.r_window, config.epsilon)
        records.append(_record_json(
            names, q, subset, subset, {m: 1.0 for m in subset}, ratio,
            int(np.argmax(fused)), float(fused.mean()), float(fused.std(ddof=1))))
    return records, rows


def naive_run_hier_mpf(data, config, tiers, fractions, names):
    """Hierarchical fusion one query at a time: ranking scores from
    naive_hier_rank_scores, ratio, mean and std from the first tier's sum.
    Returns what naive_run_simple_sum returns."""
    n, queries, d = data.shape
    everyone = tuple(range(n))
    rows = np.full((queries, d), np.nan)
    records = []
    for q in range(queries):
        if all(_is_constant(data[m, q]) for m in everyone):
            records.append(_record_json(names, q, everyone, everyone,
                                        error=_all_constant_error(n)))
            continue
        tier1 = np.zeros(d)
        for m in tiers[0]:
            tier1 += _minmax_vector(data[m, q])
        rank_scores = naive_hier_rank_scores(
            [data[m, q].tolist() for m in everyone], tiers, fractions)
        rows[q] = rank_scores
        ratio, _ = _ratio_vector(tier1, config.r_window, config.epsilon)
        records.append(_record_json(
            names, q, everyone, everyone, {m: 1.0 for m in everyone}, ratio,
            rank_scores.index(float(d)), float(tier1.mean()),
            float(tier1.std(ddof=1))))
    return records, rows


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

    def record(*args, **kwargs):
        records.append(_record_json(names, *args, **kwargs))

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


def _naive_echo_site(site, allowed):
    pos = int(np.searchsorted(allowed, site))
    return int(allowed[(pos + allowed.size // 2) % allowed.size])


def _naive_draw_site(rng, allowed, used, min_sep):
    def fits(c):
        return all(abs(c - u) >= min_sep for u in used)

    for _ in range(100_000):
        site = int(allowed[rng.integers(allowed.size)])
        echo = _naive_echo_site(site, allowed)
        if site != echo and fits(site) and fits(echo):
            used.append(site)
            used.append(echo)
            return site
    raise InvalidSpecError("could not place well-separated distractor sites")


def naive_generate(spec):
    """The synthetic generator one query and one technique at a time: the
    (N, Q, D) float64 tensor and each query's acceptable set."""
    peak, alias, secondary, correlation, sigma = spec.validate()
    n, q_total, d = spec.n_techniques, spec.queries, spec.database_size
    suppressed = np.zeros((n, q_total), dtype=bool)
    for tech, ranges in enumerate(spec.failure_schedule or []):
        for start, stop in ranges:
            for q in range(int(start), int(stop)):
                suppressed[tech, q] = True
    if spec.drift_period is not None:
        for q in range(q_total):
            block = q // spec.drift_period
            for tech in range(n):
                if tech not in (block % n, (block + 1) % n):
                    suppressed[tech, q] = True
    gap = 2 * spec.r_window + 1

    rng = np.random.default_rng(spec.seed)
    data = np.zeros((n, q_total, d), dtype=np.float64)
    gt_indices = [(q * d) // q_total for q in range(q_total)]
    all_sites = np.arange(d)

    for q in range(q_total):
        gt = gt_indices[q]
        noise = rng.random((n, d))
        data[:, q, :] = noise * sigma[:, None]

        allowed = all_sites[np.abs(all_sites - gt) > gap]
        used = []
        min_sep = spec.r_window + 1
        shared = _naive_draw_site(rng, allowed, used, min_sep)
        use_shared = rng.random(n) < correlation

        for tech in range(n):
            if not suppressed[tech, q]:
                data[tech, q, gt] += peak[tech]
            site = shared if use_shared[tech] else _naive_draw_site(rng, allowed, used, min_sep)
            data[tech, q, site] += alias[tech]
            if secondary[tech] > 0.0:
                echo = _naive_echo_site(site, allowed)
                data[tech, q, echo] += alias[tech] * secondary[tech]

    tol = spec.gt_tolerance
    acceptable = tuple(frozenset(range(max(0, g - tol), min(d, g + tol + 1)))
                       for g in gt_indices)
    return data, acceptable
