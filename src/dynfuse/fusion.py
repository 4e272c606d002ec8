"""Ratio scoring, subset enumeration and selection, weighting, and matching.

The central quantity is the aliasing ratio of a similarity vector: the best
score divided by the best score found outside an exclusion window around the
best match. A high ratio means the vector has one dominant, unambiguous
peak; a ratio near one means a rival location scores almost as well (the
vector is perceptually aliased). Fused combinations of techniques are ranked
by this ratio, and the combination that maximizes it is selected per query.

The search fuses every subset in full-width row blocks of a bitmask layout
(row ``mask`` sums the techniques whose bits are set, as fuse_subset adds
them), in about 1 MiB of scratch, scores each block with one ``argmax`` and
one ``maximum.reduceat``, and finishes every ratio at once; ratio_rows runs
the same steps. Which blocks a search can build depends only on its shape,
so each shape is planned once and a call does only numpy work.
select_best_subsets searches a chunk of queries: those with the same
constant techniques share a batch, which allocates once and finishes its
ratios and picks its winners once, while each query's grid is still built
and scored alone. select_best_subset is a batch of one.

A grid of more than one block is also bounded, and stays exact (branch and
bound). When some techniques' best matches agree, those subsets (the
seeds) are scored first, each summed as its own row exactly as the grid
sums it and scored by the grid's two steps. Every subset gets an upper
bound on its ratio from its members' column-chunk maxima and its fused
values at a few probe columns, built from rounded sums and quotients that
can never round below the grid's own. A subset whose bound is below the
best seed's score T can neither beat nor tie the winner: the winner's
ratio is at least T, and any subset that ties or beats it has a bound at
least its ratio. The usable subsets that survive are scored as rows of
their own the same way, so no block is built, unless summing them takes
more row additions (their total member count) than the whole grid has
rows (2**m over m available techniques); then the whole grid is built and
scored, as for a query that prunes nothing, and the dropped subsets are
left out of the pick. Either way the winner, its score and every tie are
among the subsets scored, with the grid's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .core import (
    TIE_BREAK_SMALLEST_SUBSET,
    FusionConfig,
    as_similarity_vector,
    minmax_rows,
    per_row,
    rows_within,
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


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite. a . a is finite only if
    every entry is, and BLAS takes it in a fraction of np.isfinite's time;
    large finite entries whose squares overflow get the exact test."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _window_cuts(rows: int, d: int, r_window):
    """(r, cut table, lower, upper) of :func:`_segment_maxima` for rows of
    width d. r is ``r_window`` capped at d, which moves no window, as an
    intp: ufuncs take it faster than a Python int. A bad ``r_window`` is a
    ValueError, as FusionConfig.validate makes it."""
    if (isinstance(r_window, bool) or not isinstance(r_window, (int, np.integer))
            or r_window < 0):
        raise ValueError(f"r_window must be a non-negative integer, got {r_window!r}")
    r = np.intp(min(r_window, d))
    start = np.arange(0, rows * d, d)
    cuts = np.empty((rows, 3), dtype=np.intp)
    cuts[:, 0] = start
    return r, cuts, start - r, start + (r + 1)


def _segment_maxima(block, r, cuts, lower, upper, best, seg) -> None:
    """Step one of scoring a (rows, D) ``block``: each row's argmax into
    ``best``, and its max before the window, in it (the peak, bit for bit)
    and after it into the (rows, 3) ``seg``, meaningless where empty. A cut
    at the block's end would be out of range; without it the window's
    segment runs to the end."""
    block.argmax(axis=1, out=best)
    np.maximum(best, r, out=cuts[:, 1])
    cuts[:, 1] += lower
    np.minimum(best, block.shape[1] - 1 - r, out=cuts[:, 2])
    cuts[:, 2] += upper
    n = cuts.size - 1 if cuts.size and cuts[-1, 2] == block.size else cuts.size
    np.maximum.reduceat(block.reshape(-1), cuts.reshape(-1)[:n], out=seg.reshape(-1)[:n])


def _finish_ratios(best, seg, d: int, r: int, epsilon: float):
    """Step two, on any number of step one's rows of width d, in an array
    of any shape: ratio_rows' (ratios, best, covered), with each row's best
    score outside its window taken from its nonempty segments beside it."""
    before, after = best > r, best < d - 1 - r
    outside = np.where(before, seg[..., 0], -np.inf)
    np.maximum(outside, seg[..., 2], out=outside, where=after)
    np.maximum(outside, epsilon, out=outside)
    return seg[..., 1] / outside, best, ~(before | after)


def ratio_rows(block: np.ndarray, r_window: int, epsilon: float):
    """ratio_score of every row of a (rows, D) block: returns
    (ratios, argmax per row, mask of rows whose window covers all D entries),
    by the search's two scoring steps. A covered row's ratio is meaningless;
    callers report window_error. A bad ``r_window`` is a ValueError."""
    rows, d = block.shape
    r, cuts, lower, upper = _window_cuts(rows, d, r_window)
    best, seg = np.empty(rows, dtype=np.intp), np.empty((rows, 3), dtype=block.dtype)
    _segment_maxima(block, r, cuts, lower, upper, best, seg)
    return _finish_ratios(best, seg, d, r, epsilon)


def ratio_score(v, r_window: int, epsilon: float = 1e-12) -> float:
    """Best score divided by the best score outside the exclusion window.

    The window covers every index within ``r_window`` of the argmax
    (inclusive); argmax ties resolve to the lowest index before windowing.
    The denominator is clamped to ``epsilon`` so an empty-looking tail still
    yields a finite (large) score.

    Raises WindowCoversAllError when no index survives the exclusion, which
    means the window is too wide for this database, and ValueError unless
    ``v`` is a finite 1-D vector of length >= 2.
    """
    arr = as_similarity_vector(v)
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


# Columns per chunk of the subset search's bound on a subset's peak (see
# _live_subsets); 16, 32 and 64 pruned about as well on peaked inputs. At
# most _MAX_CHUNKS chunks: the bound's table grows with them, and on peaked
# 4 x 100000 queries a search with 49 chunks took 0.76 of its time with
# 3125, and 196 to 782 chunks 0.78 to 0.82 (paired in-process rounds). A
# pruned query scores its survivors as rows when their members number at
# most the whole grid's 2**m rows, and builds the whole grid otherwise (see
# _grid_segments), with no constant: on 55 peaked 12 x 1000 queries, each
# path forced, a fit gave 0.62 us per gathered member row plus 0.50 us per
# scored row, against 1.08 us per built block row (2-CPU host, numpy 2.4).
_CHUNK = 32
_MAX_CHUNKS = 64


def _low_bits(m: int, d: int) -> int:
    """How many of ``m`` available techniques the subset search's base block
    spans: all m when the whole 2**m x ``d`` float64 grid fits in
    core.WORK_BYTES, otherwise the most for which the base block and one
    working block of 2**k rows fit in it together, but at least one row per
    block. At 1 MiB the whole grid of 8 x 300 or 6 x 1000 is one block.
    Beside the blocks the search holds a tile of up to 64 KiB per technique
    outside the base block (see _tile_rows)."""
    if rows_within(8 * d) >= 1 << m:
        return m
    return rows_within(2 * 8 * d).bit_length() - 1


def _tile_rows(k: int, d: int) -> int:
    """How many rows of width ``d`` the subset search adds a technique to
    at once in a working block of 2**k rows: the fewest, as a power of
    two, whose entries exceed 4096, but at most the block. numpy adds a row
    to each row of a block of rows of at most 4096 entries through its
    8192-entry buffer, at about twice the cost per entry (numpy 2.4)."""
    return min(1 << k, 1 << (4096 // d).bit_length())


def _batch_queries(m: int, k: int, d: int) -> int:
    """How many queries over ``m`` available techniques one batch of
    select_best_subsets searches: the most whose per-mask arrays (an argmax
    and three segment maxima, 32 bytes a mask) fit in core.WORK_BYTES
    beside the row blocks (the base block of 2**k rows of width ``d`` and,
    unless it holds all m techniques, one working block), but at least
    one. The bound's tables (see _live_subsets) fill the blocks before the
    grids are built, and its per-mask arrays are freed before the per-mask
    arrays here are made, so they add nothing. Beside the blocks the
    pruned path then holds, per pruned query, a bool per mask for the
    subsets that survive (1 byte a mask, not counted here), and while it
    scores survivors as rows, in the blocks' two halves, its step one of a
    block's rows (32 bytes a row) and each pass's sorted masks and member
    table (a few KiB)."""
    blocks = (1 if k == m else 2) * 8 * d << k
    return rows_within(32 << m, beside=blocks)


def _high_masks(bits: int) -> Iterator[tuple[int, bool]]:
    """Every mask over ``bits`` bits in depth-first preorder: a child sets one
    bit above its parent's top bit, and children come in ascending bit
    order. Yields (mask, whether the mask visited just before it is its
    nonzero parent)."""
    stack = [0]
    previous = None
    while stack:
        mask = stack.pop()
        parent = mask & ~(1 << mask.bit_length() >> 1)
        yield mask, parent != 0 and parent == previous
        previous = mask
        stack.extend(mask | 1 << b for b in reversed(range(mask.bit_length(), bits)))


@lru_cache(maxsize=16)
def _popcounts(m: int) -> np.ndarray:
    """The read-only popcount of every mask over ``m`` bits, by mask."""
    size = np.zeros(1 << m, dtype=np.uint8)
    for bit in range(m):
        np.add(size[:1 << bit], 1, out=size[1 << bit:2 << bit])
    size.flags.writeable = False
    return size


@lru_cache(maxsize=64)
def _plan(m: int, k: int, min_size: int, max_size: int):
    """What a search over ``m`` available techniques whose base block spans
    ``k`` of them (see _low_bits) does, whatever its data: a read-only mask of
    the usable subsets (min_size to max_size members) by bitmask, and one
    step per high mask h in depth-first preorder (see _high_masks). A step
    is (h's rows of the per-mask arrays, whether its block extends its
    parent's, h's set bits in ascending order, whether the block holds a
    usable subset)."""
    size = _popcounts(m)
    usable = (size >= min_size) & (size <= max_size)
    usable.flags.writeable = False
    admissible = usable.reshape(-1, 1 << k).any(axis=1).tolist()
    steps = tuple(
        (slice(h << k, (h + 1) << k), extend,
         tuple(bit for bit in range(m - k) if h >> bit & 1), admissible[h])
        for h, extend in _high_masks(m - k)
    )
    return usable, steps


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

    This is a batch of one of :func:`select_best_subsets`. All subsets are
    fused and scored with numpy in row blocks that span every column, in
    scratch near core.WORK_BYTES (1 MiB). Bit j of a subset's mask is the
    j-th available technique. The base block holds the 2**k masks of the
    first k available techniques (see _low_bits): row 0 is zeros and rows
    [2**j, 2**(j+1)) are technique j copied in, plus rows [0, 2**j) added
    in place. IEEE addition commutes, so that is rows [0, 2**j) plus
    technique j bit for bit, without the buffer numpy adds a broadcast row
    through. Each mask h of the other techniques, visited in depth-first
    preorder (see _high_masks), has a working block: the base block plus
    h's techniques in ascending order, made by adding h's top technique to
    its parent's block when the working block still holds it and rebuilt
    from the base block otherwise; each technique goes in as its row
    repeated over a few rows at once (see _tile_rows). Every row is thus
    the same sum fuse_subset makes. A block with an admissible row gets
    step one of :func:`ratio_rows` into arrays over all masks (a block
    without one is built only as the parent a later block extends); step
    two then scores every mask of the batch. Which blocks can be built and
    how depends only on the number of available techniques, k and the size
    bounds, so each such shape is planned once (see _plan) and a call does
    only the numpy work.

    A grid of more than one block scores only the subsets that can hold
    the winner (see _live_subsets): each subset gets an upper bound on its
    ratio, and one whose bound is below T, the best exact score of the
    seeds (subsets of techniques whose argmaxes agree), is dropped. The
    bound is at least the grid's ratio because IEEE rounding is monotone:
    a left-to-right sum of the members' chunk maxima is at least every
    fused entry, a second-largest fused value at probe columns more than 2r
    apart is at most the best entry outside any window, and their quotient
    rounds to at least the grid's. The winner's ratio is at least T, so a
    dropped subset (ratio <= bound < T) neither beats nor ties it, and the
    pick sees the same winner and ties. The survivors are then summed as
    rows of their own (see _score_rows): 0.0 plus the lowest member,
    then the others added in place in ascending order, which is the grid's
    sum bit for bit (its rows are a parent plus a member, and IEEE addition
    commutes), and scored by the same two steps. Only when their member
    count exceeds the whole grid's 2**m rows is the whole grid built and
    scored instead, as for a query that prunes nothing; the dropped
    subsets are then scored too, but left out of the pick. Non-finite
    entries are a ValueError.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if (normalized.ndim != 2 or normalized.shape[1] < 2
            or not _all_finite(normalized)):
        raise ValueError("select_best_subset needs a finite N x D array with D >= 2")
    degenerate = frozenset(degenerate)
    constant = np.array([t in degenerate for t in range(len(normalized))], dtype=bool)
    result, = select_best_subsets(normalized[:, None], constant[:, None], config)
    if not isinstance(result, SubsetScore):
        raise result
    return result


def _probes_and_seeds(tops: list[int], r: int, sizes: range):
    """From the argmax columns ``tops`` of one query's available techniques
    (bit j's is tops[j]): the probe columns, pairwise more than 2r apart,
    and the seed masks, the subsets with a size in ``sizes`` of techniques
    whose argmaxes chain within r of each other, which agree on a peak."""
    probes: list[int] = []
    masks: list[int] = []
    mask, previous = 0, None
    for col, bit in sorted(zip(tops, range(len(tops)))):
        if previous is not None and col - previous <= r:
            mask |= 1 << bit
        else:
            if mask.bit_count() in sizes:
                masks.append(mask)
            mask = 1 << bit
            if not probes or col - probes[-1] > 2 * r:
                probes.append(col)
        previous = col
    if mask.bit_count() in sizes:
        masks.append(mask)
    return probes, masks


def _table_bounds(start, terms, chunks: int, epsilon: float, scratch, out) -> None:
    """The bound (see _live_subsets) of every subset of the rows of
    ``terms``, each a technique's chunk maxima then probe values, added
    left to right to the row ``start``, into ``out`` by bitmask (bit j is
    row j). The sums fill ``scratch``: the low masks' by mask, made as the
    grid's base block is, so each bit adds to rows apart from those it
    reads; then every mask's as (high masks, columns, low masks), where
    the columns reduce over rows of low masks and each high bit adds a
    slab."""
    bits, cols = len(terms), len(start)
    low = min(bits, 8)
    sums = scratch[:cols << low].reshape(1 << low, cols)
    table = scratch[cols << low:(cols << low) + (cols << bits)].reshape(
        1 << (bits - low), cols, 1 << low)
    sums[0] = start
    for bit in range(low):
        rows = sums[1 << bit:2 << bit]
        rows[...] = terms[bit]
        rows += sums[:1 << bit]
    table[0] = sums.T
    for bit in range(low, bits):
        slab = table[1 << (bit - low):2 << (bit - low)]
        slab[...] = terms[bit][:, None]
        slab += table[:1 << (bit - low)]
    grid = out.reshape(1 << (bits - low), 1 << low)
    table[:, :chunks].max(axis=1, out=grid)
    values = table[:, chunks:]
    top = values.max(axis=1)
    np.copyto(values, -np.inf, where=values >= top[:, None])
    outside = values.max(axis=1)
    np.maximum(outside, epsilon, out=outside)
    np.divide(grid, outside, out=grid)
    np.maximum(grid, 0.0, out=grid)  # a negative peak has a ratio <= 0


def _flat_rows(normalized):
    """An (N * B, D) view of the vectors of an (N, B, D) chunk, or a copy
    if they are not laid out in either order, by how far apart in it each
    technique's and each query's vectors lie: (rows, t step, q step).
    Gathering rows from a view takes no copy of the chunk."""
    n, queries, d = normalized.shape
    swapped = normalized.transpose(1, 0, 2)
    if swapped.flags.c_contiguous and not normalized.flags.c_contiguous:
        return swapped.reshape(-1, d), 1, n
    return np.ascontiguousarray(normalized).reshape(-1, d), queries, 1


def _score_rows(scorer, techs, masks):
    """Step one of the subsets ``masks`` (an int array) of one query, each
    summed into a row as the grid sums it: 0.0 plus its lowest member, then
    each other member added in place in ascending order. ``scorer`` is
    (the chunk's vectors as rows (see _flat_rows), a window cut table,
    rows, a gather buffer, argmaxes, segment maxima), the last five for as
    many rows as ``rows`` holds (see _grid_segments), and bit j of a mask
    is row techs[j] of the vectors. Within a pass larger subsets go first,
    so each member step adds to a leading run of rows, after gathering its
    members' rows into the buffer; long rows, or one row a pass, take each
    member straight from the vectors instead. Yields per pass of up to
    len(rows) subsets (its masks, their argmaxes, their segment maxima),
    the last two views valid until the next pass."""
    flat, (r, cuts, lower, upper), rows, gather, best, seg = scorer
    sizes = _popcounts(len(techs))[masks]
    bits = 1 << np.arange(len(techs))
    # rows of more than 4096 entries need no tiles (see _tile_rows), and
    # one row at a time needs no gather
    one_by_one = len(rows) == 1 or flat.shape[1] > 4096
    for at in range(0, len(masks), len(rows)):
        order = np.argsort(sizes[at:at + len(rows)])[::-1] + at
        part, count = masks[order], sizes[order].tolist()
        c = taken = len(part)
        # each row's members first, in ascending order
        members = techs[((part[:, None] & bits) == 0).argsort(axis=1, kind="stable")]
        if one_by_one:
            for row, row_members, size in zip(rows, members.tolist(), count):
                np.add(0.0, flat[row_members[0]], out=row)
                for t in row_members[1:size]:
                    row += flat[t]
        else:
            for j in range(count[0]):
                while count[taken - 1] <= j:  # rows of no more than j members
                    taken -= 1
                into = gather[:taken]
                # numpy buffers out for the default mode="raise"
                np.take(flat, members[:taken, j], axis=0, out=into, mode="clip")
                if j:
                    np.add(rows[:taken], into, out=rows[:taken])
                else:
                    np.add(0.0, into, out=rows[:taken])
        _segment_maxima(rows[:c], r, cuts[:c], lower[:c], upper[:c], best[:c], seg[:c])
        yield part, best[:c], seg[:c]


def _live_subsets(normalized, peaks, available, qs, usable, config, scorer, techs,
                  scratch):
    """Which subsets of each query's grid can hold its winner: per query of
    ``qs``, a mask over subsets by bitmask, True for the usable subsets
    whose bound is not below an exact score, or None where no subset is
    pruned. ``peaks`` lists each query's argmaxes and ``usable`` flags the
    subsets by bitmask (see _plan). The seeds are scored by ``scorer``, with
    ``techs`` the rows of each query's techniques (see _score_rows), and
    the bound's arrays then fill the flat float64 ``scratch``, which holds
    the scorer's rows and gather buffer (the grid's blocks, before they
    are built).

    The exact score is the best of the seeds (see _probes_and_seeds),
    summed and scored by _score_rows as the grid sums and scores them. A
    query without a seed, or whose seeds' windows all cover their vectors,
    prunes nothing.

    Subset S's bound is P / max(O, epsilon), at least 0. P is the most,
    over column chunks, of the left-to-right sum of S's members' chunk
    maxima: IEEE addition rounds monotonically, so P is at least every
    entry of S's fused row, its peak included. O is the second largest of
    S's fused values at the probe columns, summed as the grid sums them: a
    window holds at most one probe, so O is at most the row's best score
    outside its window (r is r_window capped at D, as in the grid). The
    quotient then rounds to at least the row's ratio, so a pruned subset
    can neither beat nor tie the winner. A NaN bound prunes nothing."""
    n, _, d = normalized.shape
    m = len(available)
    r = min(config.r_window, d)
    span = range(config.min_subset_size, config.resolved_max_subset_size(n) + 1)
    # the scratch holds each technique's chunk maxima and probe values,
    # then _table_bounds' sums
    room = scratch.size // (n + (1 << min(m, 8)) + (1 << m))
    live = [None] * len(qs)
    bound = None
    for i, q in enumerate(qs):
        probes, seeds = _probes_and_seeds([peaks[q][t] for t in available], r, span)
        del probes[room // 2:]
        if len(probes) < 2 or not seeds:
            continue
        tops = []
        for _, best, seg in _score_rows(scorer, techs[i], np.array(seeds)):
            ratios, _, covered = _finish_ratios(best, seg, d, r, config.epsilon)
            if not covered.all():
                tops.append(ratios[~covered].max())
        if not tops:
            continue
        threshold = np.max(tops)
        width = _CHUNK
        while -(-d // width) > min(_MAX_CHUNKS, room - len(probes)):
            width *= 2
        chunks = -(-d // width)
        cols = chunks + len(probes)
        terms = scratch[:n * cols].reshape(n, cols)
        vectors = normalized[:, q]
        np.maximum.reduceat(vectors, np.arange(0, d, width), axis=1,
                            out=terms[:, :chunks])
        terms[:, chunks:] = vectors[:, probes]
        if bound is None:
            bound = np.empty(1 << m)
        _table_bounds(np.zeros(cols), [terms[t] for t in available], chunks,
                      config.epsilon, scratch[n * cols:], bound)
        live[i] = np.greater(usable, bound < threshold)  # usable and not below
    return live


def _grid_segments(normalized, peaks, available, qs, k, usable, steps, config):
    """Step one of every subset of every query in ``qs`` that can hold the
    query's winner, one query at a time in the same scratch (see
    select_best_subset): (r, (queries, 2**m) argmaxes, (queries, 2**m, 3)
    segment maxima, zero where not scored, and _live_subsets' per-query
    masks of the subsets that may win, or None for a grid of one block).
    A pruned query takes one of two paths: if its survivors hold no more
    members than the whole grid has rows (2**m), they are scored as rows
    (see _score_rows); otherwise its whole grid is built and scored, as an
    unpruned query's is. The scratch, cut table and tiles live only
    here."""
    m, d = len(available), normalized.shape[2]
    # one array for both blocks: two separate ones fault in their pages
    # again on every call
    blocks = np.empty((1 if k == m else 2, 1 << k, d))
    base, work = blocks[0], blocks[-1]
    cut = r, cuts, lower, upper = _window_cuts(1 << k, d, config.r_window)
    live = None
    if k < m:  # a grid of one block has nothing to skip
        # a pruned query's rows and gather buffer, in the blocks; every
        # query's bound is taken there first, before the arrays below
        # take their memory
        flat, t_step, q_step = _flat_rows(normalized)
        scorer = (flat, cut, base, work, np.empty(1 << k, dtype=np.intp),
                  np.empty((1 << k, 3)))
        techs = [np.array(available) * t_step + q * q_step for q in qs]
        live = _live_subsets(normalized, peaks, available, qs, usable, config, scorer,
                             techs, blocks.reshape(-1))
        sizes = _popcounts(m)
    base[0] = 0.0
    best = np.zeros((len(qs), 1 << m), dtype=np.intp)
    seg = np.zeros((len(qs), 1 << m, 3))
    # each high technique's vector repeated `tall` times, added to the
    # blocks viewed as (2**k / tall, tall * D)
    tall = _tile_rows(k, d)
    tiles = np.empty((m - k, tall * d)) if tall > 1 and k < m else None
    base_tiles, work_tiles = (b.reshape(-1, tall * d) for b in (base, work))
    for i, q in enumerate(qs):
        if live is not None and live[i] is not None:
            # summing the survivors takes no more row additions than the
            # whole grid has rows; otherwise the whole grid is built, and
            # _search_batch leaves the pruned subsets out of the pick
            survivors = np.flatnonzero(live[i])
            if int(sizes[survivors].sum()) <= 1 << m:
                for part, *step_one in _score_rows(scorer, techs[i], survivors):
                    best[i, part], seg[i, part] = step_one
                base[0] = 0.0
                continue
        vectors = [normalized[t, q] for t in available]
        for bit in range(k):
            # copy, then add the parent rows in place: the parent plus the
            # technique bit for bit, without numpy's broadcast buffer
            rows = base[1 << bit:2 << bit]
            rows[...] = vectors[bit]
            rows += base[:1 << bit]
        if tiles is None:
            high = vectors[k:]
        else:
            high = tiles
            for tile, vector in zip(tiles, vectors[k:]):
                tile.reshape(tall, d)[...] = vector
        for at, extend, bits, scoring in steps:
            if extend:
                np.add(work_tiles, high[bits[-1]], out=work_tiles)
            elif bits:
                np.add(base_tiles, high[bits[0]], out=work_tiles)
                for bit in bits[1:]:
                    np.add(work_tiles, high[bit], out=work_tiles)
            if scoring:
                _segment_maxima(work if bits else base, r, cuts, lower, upper,
                                best[i, at], seg[i, at])
    return r, best, seg, live


def select_best_subsets(
    normalized: np.ndarray,
    constant: np.ndarray,
    config: FusionConfig,
) -> list[SubsetScore | TooFewTechniquesError | WindowCoversAllError]:
    """:func:`select_best_subset` for a chunk of B queries at once.

    ``normalized`` is (N, B, D), one normalized vector per technique and
    query, and ``constant`` the (N, B) mask of the degenerate ones. Returns,
    per query, its SubsetScore or the TooFewTechniquesError or
    WindowCoversAllError that select_best_subset would raise on it; results
    equal select_best_subset's bit for bit.

    Queries with the same constant techniques form batches of at most
    _batch_queries queries. A batch looks up its plan and allocates its
    scratch, cut table, tiles and per-mask arrays once; each query's grid
    is then built and gets step one alone, as select_best_subset describes,
    and step two and the winner's pick run once over the batch. Every
    technique's argmax on every query is taken once for the chunk, when a
    batch's grid has more than one block; such a batch takes all its
    queries' bounds in its scratch before it scores their survivors or
    builds their grids. Unlike select_best_subset it does not check that
    the chunk is finite: the engine hands it normalized slices of a
    SimilarityTensor, which is checked finite when it is built, so a pass
    here would only repeat that.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    constant = np.asarray(constant, dtype=bool)
    if normalized.ndim != 3 or normalized.shape[2] < 2:
        raise ValueError("select_best_subsets needs an N x B x D array with D >= 2")
    n, queries, d = normalized.shape
    if constant.shape != (n, queries):
        raise ValueError(f"constant must be an N x B mask, got shape {constant.shape}")
    max_size = config.resolved_max_subset_size(n)
    batches: dict[tuple[bool, ...], list[int]] = {}
    for q, flags in enumerate(constant.T.tolist()):
        batches.setdefault(tuple(flags), []).append(q)
    results: list = [None] * queries
    peaks = None  # each query's argmax of every technique, once needed
    for flags, qs in batches.items():
        degenerate = [t for t, flag in enumerate(flags) if flag]
        try:
            available = _available_techniques(n, config.min_subset_size, max_size,
                                              degenerate)
        except TooFewTechniquesError as exc:
            for q in qs:
                results[q] = exc
            continue
        m = len(available)
        k = _low_bits(m, d)
        if peaks is None and k < m:
            peaks = normalized.argmax(axis=2).T.tolist()
        cap = _batch_queries(m, k, d)
        for at in range(0, len(qs), cap):
            batch = qs[at:at + cap]
            for q, result in zip(batch, _search_batch(normalized, available, batch, k,
                                                      config, peaks)):
                results[q] = result
    return results


def _search_batch(normalized, available, qs, k, config, peaks):
    """The results of the queries ``qs`` of an (N, B, D) ``normalized``
    chunk, which share their ``available`` techniques and base block of
    ``k`` of them: step one per grid, then step two and the winner's pick
    once over the batch. ``peaks`` lists each query's argmax of every
    technique; it may be None when the grid is one block."""
    d = normalized.shape[2]
    usable, steps = _plan(len(available), k, config.min_subset_size,
                          config.resolved_max_subset_size(len(normalized)))
    r, best, seg, live = _grid_segments(normalized, peaks, available, qs, k, usable,
                                        steps, config)
    ratio, _, covered = _finish_ratios(best, seg, d, r, config.epsilon)
    scored = np.greater(usable, covered)  # usable and not covered
    if live is not None:
        for row, keep in zip(scored, live):
            if keep is not None:
                row &= keep  # and not pruned
    scores = np.where(scored, ratio, -np.inf)
    tops = np.maximum.reduce(scores, axis=1)
    results = []
    for i, (tied, best_score) in enumerate(zip(scores == tops[:, None], tops.tolist())):
        if best_score == -np.inf:  # -inf also marks the subsets not scored
            tied &= scored[i]
            if not tied.any():
                results.append(WindowCoversAllError(
                    "every candidate subset's exclusion window covered the whole vector"
                ))
                continue
        subsets = [tuple(t for bit, t in enumerate(available) if mask >> bit & 1)
                   for mask in tied.nonzero()[0].tolist()]
        if config.tie_break == TIE_BREAK_SMALLEST_SUBSET:
            subset = min(subsets, key=lambda s: (len(s), s))
        else:
            subset = min(subsets)
        results.append(SubsetScore(subset=subset, score=best_score))
    return results


def technique_weights(
    normalized: np.ndarray,
    subset,
    config: FusionConfig,
) -> dict[int, float]:
    """Per-member confidence weights: each member's own aliasing ratio.

    A sharply peaked member earns a large weight; an ambiguous one weighs
    near 1. An all-zero (degenerate) member naturally weighs 0 because its
    best score is 0. The first member, in subset order, whose window covers
    the whole vector raises WindowCoversAllError, and a non-finite entry a
    ValueError.
    """
    normalized = np.asarray(normalized, dtype=np.float64)
    if (normalized.ndim != 2 or normalized.shape[1] < 2
            or not _all_finite(normalized)):
        raise ValueError("technique_weights needs a finite N x D array with D >= 2")
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
    (k, b). Each sum starts from zeros and adds the members left to right,
    each multiplied by its weight (through per_row) into one product
    buffer, which is freed before the sum is standardized; a non-finite sum
    is a ValueError. Returns per-query arrays."""
    fused = np.zeros(members.shape[1:])
    product = np.empty_like(fused)
    for row, weight in zip(members, weights):
        fused += per_row(np.multiply, row, weight[:, None], out=product)
    del product
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
