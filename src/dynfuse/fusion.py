"""Ratio scoring, subset enumeration and selection, weighting, and matching.

The central quantity is the aliasing ratio of a similarity vector: the best
score divided by the best score found outside an exclusion window around the
best match. A high ratio means the vector has one dominant, unambiguous
peak; a ratio near one means a rival location scores almost as well (the
vector is perceptually aliased). Fused combinations of techniques are ranked
by this ratio, and the combination that maximizes it is selected per query.

The search scores every subset at once on a bitmask row layout: row ``mask``
holds the sum of the techniques whose bits are set, and the rows holding
technique j are the rows below 2**j plus technique j, so each row repeats
:func:`fuse_subset`'s left-to-right sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .core import (
    TIE_BREAK_SMALLEST_SUBSET,
    FusionConfig,
    minmax_rows,
    zscore_rows,
)
from .errors import TooFewTechniquesError, WindowCoversAllError


@dataclass(frozen=True)
class SubsetScore:
    """A candidate technique subset together with its fused-vector ratio."""

    subset: tuple[int, ...]
    score: float


def window_error(r_window: int, best: int, size: int) -> WindowCoversAllError:
    """The error for a vector whose window around ``best`` covers all of it."""
    return WindowCoversAllError(
        f"exclusion window +/-{r_window} around index {best} covers all "
        f"{size} entries"
    )


def ratio_rows(block: np.ndarray, r_window: int, epsilon: float):
    """ratio_score of every row of a (rows, D) block: returns
    (ratios, argmax per row, mask of rows whose window covers all D entries).
    A covered row's ratio is meaningless; callers report window_error."""
    d = block.shape[1]
    best = block.argmax(axis=1)
    lo = np.maximum(best - r_window, 0)
    hi = np.minimum(best + r_window + 1, d)
    peak = block[np.arange(best.size), best]
    ratios = peak / np.maximum(_max_outside(block, lo, hi), epsilon)
    return ratios, best, (lo == 0) & (hi == d)


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
    ratios, best, covered = ratio_rows(arr[None], r_window, epsilon)
    if covered[0]:
        raise window_error(r_window, int(best[0]), arr.size)
    return float(ratios[0])


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
    if (raw_slices.ndim != 2 or raw_slices.shape[1] < 2
            or not np.isfinite(raw_slices).all()):
        raise ValueError("query slices must be a finite N x D array with D >= 2")
    normalized, constant = minmax_rows(raw_slices)
    return normalized, frozenset(np.flatnonzero(constant).tolist())


# Scratch bytes for the fused rows of one column chunk; the subset search
# walks the database in column chunks sized by it (see _column_edges).
_SCRATCH_BYTES = 1 << 19


def _column_edges(d: int, m: int) -> list[int]:
    """Boundaries of the subset search's near-equal column chunks over ``d``
    columns, each narrow enough that the 2**m fused rows of ``m`` available
    techniques fit in _SCRATCH_BYTES, but at least sqrt(d) columns wide: the
    search also keeps 2**m maxima per chunk, which would otherwise outgrow
    the scratch when many rows make the chunks narrow."""
    width = max(_SCRATCH_BYTES // (8 << m), math.isqrt(d))
    chunks = -(-d // width)
    return [d * c // chunks for c in range(chunks + 1)]


def _max_outside(block: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Per-row max of ``block`` over the columns outside [lo, hi) of that row.

    ``rows`` (ascending; default every row) picks the rows scored without
    copying them, and ``lo``/``hi`` hold one entry per picked row. Every
    picked row's window must overlap the block; a row it covers whole gets
    -inf. One ``maximum.reduceat`` pass takes, per row, the max before the
    window, of the window, after it, and of the gap up to the next picked
    row; only the first and third are used.
    """
    width = block.shape[1]
    if rows is None:
        rows = np.arange(block.shape[0])
    flat = block.reshape(-1)[:(rows[-1] + 1) * width]
    start = rows * width
    cuts = np.empty((rows.size, 4), dtype=np.intp)
    cuts[:, 0] = start
    cuts[:, 1] = start + lo
    cuts[:, 2] = start + hi
    cuts[:, 3] = start + width
    # flat ends with the last picked row, so its gap cut is dropped; hi ==
    # width there would index one past the end, and that after-window
    # segment is discarded either way
    found = np.maximum.reduceat(flat, np.minimum(cuts.reshape(-1)[:-1], flat.size - 1))
    return np.maximum(np.where(lo > 0, found[0::4], -np.inf),
                      np.where(hi < width, found[2::4], -np.inf))


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
    so scratch memory stays near _SCRATCH_BYTES (see _column_edges).
    Row ``mask`` of a chunk holds the sum of the available techniques whose
    bits are set: row 0 is zeros and rows [2**j, 2**(j+1)) are rows
    [0, 2**j) plus technique j, one ``np.add`` per technique. Each row is
    thus its parent (the subset without its largest member) plus that
    member, the same sums fuse_subset makes. A popcount mask keeps the
    admissible sizes. The first pass keeps, per row, its running peak and
    each chunk's max; a second pass takes the max outside the final window
    in the chunks that window partly covers, fusing them again unless they
    are still in scratch.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2 or normalized.shape[1] < 2:
        raise ValueError("select_best_subset needs an N x D array with D >= 2")
    n, d = normalized.shape
    low = config.min_subset_size
    max_size = config.resolved_max_subset_size(n)
    available = _available_techniques(n, low, max_size, degenerate)
    m = len(available)
    total = 1 << m
    edges = _column_edges(d, m)
    starts = np.array(edges[:-1])
    ends = np.array(edges[1:])
    scratch = np.empty(total * int((ends - starts).max()))
    r = config.r_window

    def fuse(c):
        """The fused rows of every bitmask on column chunk c."""
        grid = scratch[:total * (ends[c] - starts[c])].reshape(total, -1)
        grid[0] = 0.0
        for bit, t in enumerate(available):
            np.add(grid[:1 << bit], normalized[t, starts[c]:ends[c]],
                   out=grid[1 << bit:2 << bit])
        return grid

    # popcount of each row's bitmask: the size of its subset
    size = np.zeros(total, dtype=np.intp)
    for bit in range(m):
        size[1 << bit:2 << bit] = size[:1 << bit] + 1
    admissible = (size >= low) & (size <= max_size)
    every = np.arange(total)
    peak = np.full(total, -np.inf)
    peak_at = np.zeros(total, dtype=np.intp)
    chunk_max = np.empty((starts.size, total))
    for c in range(starts.size):
        fused = fuse(c)
        at = fused.argmax(axis=1)
        here = fused[every, at]
        chunk_max[c] = here
        # strictly greater, so a tie keeps the earlier (lower) index
        gain = here > peak
        np.copyto(peak, here, where=gain)
        np.copyto(peak_at, at + starts[c], where=gain)

    lo = np.maximum(peak_at - r, 0)
    hi = np.minimum(peak_at + r + 1, d)
    clear = (ends[:, None] <= lo) | (starts[:, None] >= hi)
    chunk_max[~clear] = -np.inf
    outside = chunk_max.max(axis=0)
    partial = ~clear & ((starts[:, None] < lo) | (ends[:, None] > hi)) & admissible
    # the last chunk is still in scratch, so it goes first
    for c in np.flatnonzero(partial.any(axis=1))[::-1]:
        grid = fused if c == starts.size - 1 else fuse(c)
        row = np.flatnonzero(partial[c])
        beside = _max_outside(grid, np.maximum(lo[row] - starts[c], 0),
                              np.minimum(hi[row] - starts[c], grid.shape[1]), row)
        outside[row] = np.maximum(outside[row], beside)

    scored = np.flatnonzero(admissible & ((lo > 0) | (hi < d)))
    if scored.size == 0:
        raise WindowCoversAllError(
            "every candidate subset's exclusion window covered the whole vector"
        )
    scores = peak[scored] / np.maximum(outside[scored], config.epsilon)
    best_score = scores.max()
    tied = [tuple(t for bit, t in enumerate(available) if mask >> bit & 1)
            for mask in scored[scores == best_score].tolist()]
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
    best score is 0. The first member, in subset order, whose window covers
    the whole vector raises WindowCoversAllError.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if normalized.ndim != 2 or normalized.shape[1] < 2:
        raise ValueError("technique_weights needs an N x D array with D >= 2")
    members = [int(m) for m in subset]
    ratios, best, covered = ratio_rows(
        normalized[members], config.r_window, config.epsilon
    )
    if covered.any():
        first = int(covered.argmax())
        raise window_error(config.r_window, int(best[first]), normalized.shape[1])
    return dict(zip(members, ratios.tolist()))


def weighted_match_rows(members: np.ndarray, weights: np.ndarray):
    """weighted_fuse_and_match for b queries at once: ``members`` is (k, b, D),
    one normalized block per subset member in ascending order, ``weights``
    (k, b). Each sum starts from zeros and adds the members left to right; a
    non-finite sum is a ValueError. Returns per-query arrays."""
    fused = np.zeros(members.shape[1:])
    for row, weight in zip(members, weights):
        fused += weight[:, None] * row
    if not np.all(np.isfinite(fused)):
        raise ValueError("similarity vector contains non-finite entries")
    out, mean, std = zscore_rows(fused)
    return out, fused.argmax(axis=1), mean, std


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
    members = [int(m) for m in subset]
    w = np.array([[weights[m]] for m in members], dtype=np.float64).reshape(-1, 1)
    out, match, mean, std = weighted_match_rows(normalized[members][:, None], w)
    return out[0], int(match[0]), float(mean[0]), float(std[0])
