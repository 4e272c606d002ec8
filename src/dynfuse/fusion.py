"""Ratio scoring, subset enumeration and selection, weighting, and matching.

The central quantity is the aliasing ratio of a similarity vector: the best
score divided by the best score found outside an exclusion window around the
best match. A high ratio means the vector has one dominant, unambiguous
peak; a ratio near one means a rival location scores almost as well (the
vector is perceptually aliased). Fused combinations of techniques are ranked
by this ratio, and the combination that maximizes it is selected per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from bisect import bisect_right
from itertools import accumulate, combinations
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .core import (
    TIE_BREAK_SMALLEST_SUBSET,
    FusionConfig,
    argmax_lowest_index,
    is_constant,
    minmax_normalize,
    zscore_normalize,
)
from .errors import TooFewTechniquesError, WindowCoversAllError


@dataclass(frozen=True)
class SubsetScore:
    """A candidate technique subset together with its fused-vector ratio."""

    subset: tuple[int, ...]
    score: float


def ratio_score(v, r_window: int, epsilon: float = 1e-12) -> float:
    """Best score divided by the best score outside the exclusion window.

    The window covers every index within ``r_window`` of the argmax
    (inclusive); argmax ties resolve to the lowest index before windowing.
    The denominator is clamped to ``epsilon`` so an empty-looking tail still
    yields a finite (large) score.

    Raises WindowCoversAllError when no index survives the exclusion, which
    means the window is too wide for this database.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("ratio_score needs a 1-D vector of length >= 2")
    best = argmax_lowest_index(arr)
    lo = max(0, best - r_window)
    hi = min(arr.size, best + r_window + 1)
    if lo == 0 and hi == arr.size:
        raise WindowCoversAllError(
            f"exclusion window +/-{r_window} around index {best} covers all "
            f"{arr.size} entries"
        )
    outside_max = -np.inf
    if lo > 0:
        outside_max = arr[:lo].max()
    if hi < arr.size:
        outside_max = max(outside_max, arr[hi:].max())
    return float(arr[best]) / max(float(outside_max), epsilon)


def _available_techniques(
    n: int,
    min_size: int,
    max_size: int,
    degenerate: Iterable[int],
) -> list[int]:
    """Check the subset size bounds; return the non-degenerate techniques."""
    if not (2 <= min_size <= max_size <= n):
        raise ValueError(
            f"need 2 <= min_size <= max_size <= {n}, got [{min_size}, {max_size}]"
        )
    degenerate = frozenset(degenerate)
    available = [i for i in range(n) if i not in degenerate]
    if len(available) < min_size:
        raise TooFewTechniquesError(
            f"{len(available)} non-degenerate techniques remain, "
            f"need at least {min_size}"
        )
    return available


def enumerate_subsets(
    n: int,
    min_size: int,
    max_size: int,
    degenerate: Iterable[int] = (),
) -> Iterator[tuple[int, ...]]:
    """Yield every admissible technique subset in deterministic order.

    Order is ascending cardinality, then lexicographic by member indices.
    Degenerate techniques are excluded entirely; sizes above the remaining
    technique count are silently unreachable. With the full size range and
    no degenerates the subset count is 2**n - n - 1.
    """
    available = _available_techniques(n, min_size, max_size, degenerate)
    for size in range(min_size, min(max_size, len(available)) + 1):
        yield from combinations(available, size)


def fuse_subset(normalized: np.ndarray, subset) -> np.ndarray:
    """Element-wise sum of the subset members' normalized vectors."""
    idx = list(subset)
    return np.asarray(normalized)[idx].sum(axis=0)


def normalize_query_slices(raw_slices: np.ndarray):
    """Min-max normalize each technique's vector for one query.

    Returns (normalized N x D array, frozenset of degenerate technique
    indices). Constant vectors become all-zeros and are flagged degenerate.
    """
    raw_slices = np.asarray(raw_slices, dtype=np.float64)
    normalized = np.empty_like(raw_slices)
    degenerate = set()
    for i in range(raw_slices.shape[0]):
        if is_constant(raw_slices[i]):
            normalized[i] = 0.0
            degenerate.add(i)
        else:
            normalized[i] = minmax_normalize(raw_slices[i])
    return normalized, frozenset(degenerate)


# Scratch bytes for the fused rows of two adjacent subset sizes; the subset
# search walks the database in column chunks narrow enough to stay within it.
_SCRATCH_BYTES = 1 << 19


def _column_edges(d: int, rows: int) -> list[int]:
    """Boundaries of near-equal column chunks, each small enough that
    ``rows`` float64 rows of it fit in _SCRATCH_BYTES (one column minimum)."""
    width = max(1, _SCRATCH_BYTES // (8 * rows))
    chunks = -(-d // width)
    return [d * c // chunks for c in range(chunks + 1)]


def _fused_levels(members: np.ndarray, top: int, scratch: np.ndarray):
    """Yield (size, fused rows) for every subset of ``members``' rows, by size.

    Sizes run 2..top and the rows of one size are in colex order, so the
    subsets whose largest member is j are, without j, a prefix of the
    previous size's rows. Each fused row is its parent row plus member j,
    which repeats fuse_subset's left-to-right sum bit for bit. Even sizes
    fill ``scratch`` from the front and odd sizes from the back, so a size
    never overwrites the parents it is built from; ``scratch`` needs as
    many rows as the largest two adjacent sizes together.
    """
    m = members.shape[0]
    level = members
    for size in range(2, top + 1):
        count = comb(m, size)
        start = 0 if size % 2 == 0 else scratch.shape[0] - count
        fused = scratch[start:start + count]
        at = 0
        for j in range(size - 1, m):
            parents = comb(j, size - 1)
            np.add(level[:parents], members[j], out=fused[at:at + parents])
            at += parents
        level = fused
        yield size, fused


def _max_outside(block: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per-row max of ``block`` over the columns outside [lo, hi) of that row.

    Every row's window must overlap the block; a row it covers whole gets
    -inf. One ``maximum.reduceat`` pass takes, per row, the max before the
    window, of the window (unused) and after it.
    """
    rows, width = block.shape
    flat = block.reshape(-1)
    row_start = np.arange(0, flat.size, width)
    # hi == width on the last row would index one past the end; that
    # after-window segment is empty and discarded either way
    cuts = np.empty((rows, 3), dtype=np.intp)
    cuts[:, 0] = row_start
    cuts[:, 1] = row_start + lo
    np.minimum(row_start + hi, flat.size - 1, out=cuts[:, 2])
    before, _, after = np.maximum.reduceat(flat, cuts.reshape(-1)).reshape(rows, 3).T
    return np.maximum(np.where(lo > 0, before, -np.inf),
                      np.where(hi < width, after, -np.inf))


def _colex_subset(rank: int, size: int, available: list[int]) -> tuple[int, ...]:
    """The ``rank``-th size-``size`` subset of ``available`` in colex order."""
    members = []
    for k in range(size, 0, -1):
        j = k - 1
        while comb(j + 1, k) <= rank:
            j += 1
        members.append(available[j])
        rank -= comb(j, k)
    return tuple(reversed(members))


def select_best_subset(
    normalized: np.ndarray,
    config: FusionConfig,
    degenerate: Iterable[int] = (),
) -> SubsetScore:
    """Exhaustively search all admissible subsets for the highest fused ratio.

    A subset's fused vector is the left-to-right sum of its members' rows
    in ascending technique order, exactly as :func:`fuse_subset` adds them,
    so every candidate's score equals ``ratio_score(fuse_subset(...))`` bit
    for bit. Subsets whose fused vector has no index outside the exclusion
    window are skipped; if every candidate is skipped the window error
    propagates. Score ties resolve per ``config.tie_break`` (default:
    smaller subset first, then lexicographic member order).

    All subsets are scored together with numpy, one column chunk at a time,
    so scratch memory stays near _SCRATCH_BYTES for any number of columns.
    The first pass keeps, per subset, its running peak, each chunk's max,
    and the max of the peak's chunk outside the window. A chunk that some
    other window only partly covers is fused a second time for the rows
    whose windows reach into it.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2 or normalized.shape[1] < 2:
        raise ValueError("select_best_subset needs an N x D array with D >= 2")
    n, d = normalized.shape
    low = config.min_subset_size
    max_size = config.resolved_max_subset_size(n)
    available = _available_techniques(n, low, max_size, degenerate)
    m = len(available)
    top = min(max_size, m)
    # first row of each scored size; sizes follow each other in the row order
    first = list(accumulate((comb(m, k) for k in range(low, top + 1)), initial=0))
    total = first[-1]
    peak_rows = max(comb(m, k) + comb(m, k - 1) for k in range(2, top + 1))
    edges = _column_edges(d, peak_rows)
    starts = np.array(edges[:-1])
    ends = np.array(edges[1:])
    scratch = np.empty(peak_rows * int((ends - starts).max()))
    r = config.r_window

    def chunk_levels(c):
        """(row slice, fused rows) of every scored size on column chunk c."""
        width = edges[c + 1] - edges[c]
        grid = scratch[:peak_rows * width].reshape(peak_rows, width)
        members = normalized[available, edges[c]:edges[c + 1]]
        for size, fused in _fused_levels(members, top, grid):
            if size >= low:
                start = first[size - low]
                yield slice(start, start + fused.shape[0]), fused

    peak = np.full(total, -np.inf)
    peak_at = np.zeros(total, dtype=np.intp)
    chunk_max = np.empty((total, starts.size))
    outside = np.full(total, -np.inf)
    for c in range(starts.size):
        for rows, fused in chunk_levels(c):
            at = fused.argmax(axis=1)
            here = fused[np.arange(at.size), at]
            chunk_max[rows, c] = here
            # strictly greater, so a tie keeps the earlier (lower) index
            gain = here > peak[rows]
            np.copyto(peak[rows], here, where=gain)
            np.copyto(peak_at[rows], at + edges[c], where=gain)
            beside = _max_outside(
                fused, np.maximum(at - r, 0), np.minimum(at + r + 1, fused.shape[1])
            )
            # a peak's own chunk has it as its first max too, so this
            # window is final for every row whose peak moved here
            np.copyto(outside[rows], beside, where=gain)

    lo = np.maximum(peak_at - r, 0)
    hi = np.minimum(peak_at + r + 1, d)
    clear = (ends <= lo[:, None]) | (starts >= hi[:, None])
    np.maximum(outside, np.max(chunk_max, axis=1, where=clear, initial=-np.inf),
               out=outside)
    partial = ~clear & ((starts < lo[:, None]) | (ends > hi[:, None]))
    # each peak's own chunk was scored in the first pass
    partial[np.arange(total), np.searchsorted(starts, peak_at, side="right") - 1] = False
    for c in np.flatnonzero(partial.any(axis=0)):
        for rows, fused in chunk_levels(c):
            sel = np.flatnonzero(partial[rows, c])
            if sel.size:
                row = rows.start + sel
                beside = _max_outside(
                    fused[sel],
                    np.maximum(lo[row] - edges[c], 0),
                    np.minimum(hi[row] - edges[c], fused.shape[1]),
                )
                outside[row] = np.maximum(outside[row], beside)

    scored = np.flatnonzero((lo > 0) | (hi < d))
    if scored.size == 0:
        raise WindowCoversAllError(
            "every candidate subset's exclusion window covered the whole vector"
        )
    scores = peak[scored] / np.maximum(outside[scored], config.epsilon)
    best_score = scores.max()
    tied = []
    for row in scored[scores == best_score].tolist():
        level = bisect_right(first, row) - 1
        tied.append(_colex_subset(row - first[level], low + level, available))
    if config.tie_break == TIE_BREAK_SMALLEST_SUBSET:
        subset = min(tied, key=lambda s: (len(s), s))
    else:
        subset = min(tied)
    return SubsetScore(subset=subset, score=float(best_score))


def technique_weights(
    normalized: np.ndarray,
    subset,
    config: FusionConfig,
) -> dict[int, float]:
    """Per-member confidence weights: each member's own aliasing ratio.

    A sharply peaked member earns a large weight; an ambiguous one weighs
    near 1. An all-zero (degenerate) member naturally weighs 0 because its
    best score is 0.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    return {
        int(m): ratio_score(normalized[m], config.r_window, config.epsilon)
        for m in subset
    }


def weighted_fuse_and_match(
    normalized: np.ndarray,
    subset,
    weights: dict[int, float],
):
    """Weighted sum of the subset, standardized, plus its best match index.

    Returns (standardized fused vector, match index, pre-normalization mean,
    pre-normalization sample std). The match index is taken from the raw
    weighted sum, so it is invariant to the standardization step by
    construction; a constant weighted sum skips standardization and the
    match falls to index 0 by the tie rule.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    fused = np.zeros(normalized.shape[1], dtype=np.float64)
    for m in subset:
        fused += weights[int(m)] * normalized[m]
    mean = float(fused.mean())
    std = float(fused.std(ddof=1))
    match = argmax_lowest_index(fused)
    return zscore_normalize(fused), match, mean, std
