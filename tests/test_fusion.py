import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfuse import core, fusion
from dynfuse.core import FusionConfig, TIE_BREAK_LOWEST_INDEX, TIE_BREAKS, minmax_rows
from dynfuse.errors import TooFewTechniquesError, WindowCoversAllError
from dynfuse.fusion import (
    enumerate_subsets,
    fuse_subset,
    normalize_query_slices,
    ratio_score,
    select_best_subset,
    select_best_subsets,
    technique_weights,
    weighted_fuse_and_match,
    weighted_match_rows,
)
from conftest import traced
from reference_impl import naive_best_subset, naive_ratio


class TestRatioScore:
    def test_window_membership_hand_enumerated(self):
        # argmax 1, exclusion {0, 1, 2}, denominator from index 3 only
        assert ratio_score([0.1, 0.9, 0.3, 0.8], r_window=1) == pytest.approx(1.125)

    def test_edge_argmax(self):
        assert ratio_score([1.0, 0.0, 0.0, 0.0, 0.5], r_window=1) == pytest.approx(2.0)

    def test_window_covers_all(self):
        with pytest.raises(WindowCoversAllError):
            ratio_score([1.0, 0.0, 0.0], r_window=2)

    def test_zero_window_excludes_only_argmax(self):
        assert ratio_score([0.2, 1.0, 0.1, 0.0], r_window=0) == pytest.approx(5.0)

    def test_epsilon_clamp(self):
        score = ratio_score([1.0, 0.0, 0.0], r_window=0, epsilon=1e-12)
        assert score == pytest.approx(1e12)

    def test_argmax_tie_to_lowest_before_windowing(self):
        # both ends hold the max; the window centers on index 0
        assert ratio_score([1.0, 0.2, 0.5, 1.0], r_window=1) == pytest.approx(1.0)

    def test_rows_match_scalar_score_when_the_last_row_peaks_at_the_end(self, rng):
        # the last row's window runs to the end of the block's buffer, and
        # row 1's starts at column 0
        block = rng.random((5, 40))
        block[-1, -1] = 2.0
        block[1, 0] = 2.0
        ratios, best, covered = fusion.ratio_rows(block, 2, 1e-12)
        assert best[-1] == 39 and not covered.any()
        assert ratios.tolist() == [ratio_score(row, 2) for row in block]
        assert ratios.tolist() == [naive_ratio(row.tolist(), 2, 1e-12) for row in block]

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4,
                    max_size=30),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=150)
    def test_matches_naive(self, vec, r_window):
        expected = naive_ratio(vec, r_window, 1e-12)
        if expected is None:
            with pytest.raises(WindowCoversAllError):
                ratio_score(vec, r_window)
        else:
            assert ratio_score(vec, r_window) == pytest.approx(expected, abs=1e-12)


class TestWindowValidation:
    """Every public scorer rejects a window that is not a non-negative
    integer, as FusionConfig.validate does."""

    VECTOR = [0.1, 0.9, 0.3, 0.8, 0.2, 0.4]

    @pytest.mark.parametrize("r_window", [-1, -3, 2.5, True])
    def test_ratio_score(self, r_window):
        with pytest.raises(ValueError, match="r_window"):
            ratio_score(self.VECTOR, r_window)

    @pytest.mark.parametrize("r_window", [-1, -3, 2.5, True])
    def test_technique_weights(self, r_window):
        normalized, _ = normalize_query_slices(np.array([self.VECTOR, self.VECTOR[::-1]]))
        with pytest.raises(ValueError, match="r_window"):
            technique_weights(normalized, (0, 1), FusionConfig(r_window=r_window))

    @pytest.mark.parametrize("r_window", [-1, -3, -4, 2.5, True])
    def test_select_best_subset(self, r_window):
        normalized, _ = normalize_query_slices(np.array([self.VECTOR, self.VECTOR[::-1],
                                                         self.VECTOR[1:] + [0.0]]))
        with pytest.raises(ValueError, match="r_window"):
            select_best_subset(normalized, FusionConfig(r_window=r_window))

    def test_numpy_integer_window(self):
        assert ratio_score(self.VECTOR, np.int64(1)) == ratio_score(self.VECTOR, 1)


class TestFiniteInput:
    """Every public scorer rejects a non-finite entry, as
    normalize_query_slices does."""

    VALUES = [np.nan, np.inf, -np.inf]

    @pytest.mark.parametrize("value", VALUES)
    def test_ratio_score(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            ratio_score([value, 1.0, 2.0], 0)

    @pytest.mark.parametrize("value", VALUES)
    def test_technique_weights(self, rng, value):
        normalized = rng.random((4, 50))
        normalized[2, 17] = value
        with pytest.raises(ValueError, match="finite"):
            technique_weights(normalized, (0, 1, 2), FusionConfig(r_window=1))

    @pytest.mark.parametrize("value", VALUES)
    def test_select_best_subset(self, rng, value):
        normalized = rng.random((4, 50))
        normalized[2, 17] = value
        with pytest.raises(ValueError, match="finite"):
            select_best_subset(normalized, FusionConfig(r_window=1))

    def test_large_finite_entries_are_not_rejected(self, rng):
        # their squares overflow, which the fast test cannot tell from inf
        normalized = rng.random((4, 50)) * 1e200
        config = FusionConfig(r_window=1)
        assert np.isfinite(select_best_subset(normalized, config).score)
        assert all(np.isfinite(list(technique_weights(normalized, (0, 1), config).values())))


class TestEnumerateSubsets:
    def test_three_techniques(self):
        subsets = list(enumerate_subsets(3, 2, 3))
        assert subsets == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
        assert len(subsets) == 2**3 - 3 - 1

    def test_ten_techniques_count(self):
        assert sum(1 for _ in enumerate_subsets(10, 2, 10)) == 1013

    @pytest.mark.parametrize("n", range(2, 13))
    def test_count_identity(self, n):
        assert sum(1 for _ in enumerate_subsets(n, 2, n)) == 2**n - n - 1

    def test_degenerate_excluded(self):
        subsets = list(enumerate_subsets(4, 2, 4, degenerate={1}))
        assert subsets == [(0, 2), (0, 3), (2, 3), (0, 2, 3)]
        assert len(subsets) == 2**3 - 3 - 1
        assert all(1 not in s for s in subsets)

    def test_deterministic_order(self):
        subsets = list(enumerate_subsets(4, 2, 4))
        sizes = [len(s) for s in subsets]
        assert sizes == sorted(sizes)
        for size in set(sizes):
            group = [s for s in subsets if len(s) == size]
            assert group == sorted(group)

    def test_too_few_techniques(self):
        with pytest.raises(TooFewTechniquesError):
            list(enumerate_subsets(3, 2, 3, degenerate={0, 1}))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_subsets(3, 1, 3))
        with pytest.raises(ValueError):
            list(enumerate_subsets(3, 2, 4))


class TestFuseSubset:
    def test_pair(self):
        fused = fuse_subset(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        assert np.array_equal(fused, [1.0, 1.0])

    def test_triple(self):
        v = np.array([[0.0, 0.5, 1.0]] * 3)
        assert np.array_equal(fuse_subset(v, (0, 1, 2)), [0.0, 1.5, 3.0])

    def test_entries_bounded_by_subset_size(self, rng):
        normalized, _ = normalize_query_slices(rng.random((4, 12)))
        fused = fuse_subset(normalized, (0, 2, 3))
        assert fused.min() >= 0.0
        assert fused.max() <= 3.0


class TestSelectBestSubset:
    def test_agrees_with_naive_on_random_inputs(self, rng):
        for trial in range(200):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(5, 31))
            r_window = int(rng.integers(0, max(1, min(4, (d - 2) // 2))))
            raw = rng.random((n, d))
            normalized, degenerate = normalize_query_slices(raw)
            config = FusionConfig(r_window=r_window)
            expected = naive_best_subset(
                [list(row) for row in normalized], r_window, 1e-12, 2, n,
                degenerate,
            )
            got = select_best_subset(normalized, config, degenerate)
            assert got.subset == expected[0], f"trial {trial}"
            assert got.score == pytest.approx(expected[1], abs=1e-12)

    def test_identical_techniques_tie_break(self):
        v = np.tile(np.array([0.1, 0.9, 0.2, 0.0]), (3, 1))
        best = select_best_subset(v, FusionConfig(r_window=0))
        assert best.subset == (0, 1)

    def test_lowest_index_tie_break_mode(self):
        v = np.tile(np.array([0.1, 0.9, 0.2, 0.0]), (3, 1))
        cfg = FusionConfig(r_window=0, tie_break=TIE_BREAK_LOWEST_INDEX)
        assert select_best_subset(v, cfg).subset == (0, 1)

    def test_two_techniques_single_candidate(self, rng):
        normalized, _ = normalize_query_slices(rng.random((2, 8)))
        best = select_best_subset(normalized, FusionConfig(r_window=0))
        assert best.subset == (0, 1)

    def test_disagreeing_argmaxes_resolved_by_summed_peak(self):
        # both techniques score the shared runner-up highly; their sum peaks
        # there even though neither ranks it first
        a = np.array([1.0, 0.8, 0.0, 0.05])
        b = np.array([0.0, 0.8, 1.0, 0.05])
        normalized, degenerate = normalize_query_slices(np.stack([a, b]))
        best = select_best_subset(normalized, FusionConfig(r_window=0), degenerate)
        fused = fuse_subset(normalized, best.subset)
        assert int(np.argmax(fused)) == 1

    def test_score_dominates_all_candidates(self, rng):
        raw = rng.random((5, 20))
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=1)
        best = select_best_subset(normalized, config, degenerate)
        for subset in enumerate_subsets(5, 2, 5, degenerate):
            try:
                score = ratio_score(fuse_subset(normalized, subset), 1)
            except WindowCoversAllError:
                continue
            assert best.score >= score - 1e-12

    def test_all_windows_covered_propagates(self):
        # D=3 with r_window=2: any argmax position covers the whole vector
        normalized, _ = normalize_query_slices(np.array([[0.1, 0.9, 0.3],
                                                         [0.5, 0.2, 0.8]]))
        with pytest.raises(WindowCoversAllError):
            select_best_subset(normalized, FusionConfig(r_window=2))

    def test_too_few_after_degeneracy(self):
        normalized = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
        with pytest.raises(TooFewTechniquesError):
            select_best_subset(normalized, FusionConfig(r_window=0),
                               degenerate={0, 1})


@st.composite
def search_cases(draw):
    """Quantized inputs (score ties), constant (degenerate) techniques, any
    window and size bounds, and a scratch size from one-row blocks up to a
    single block, so every mix of rebuilt and extended blocks is scored."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(3, 200))
    r = draw(st.integers(0, d - 1))
    low = draw(st.integers(2, n))
    high = draw(st.one_of(st.none(), st.integers(low, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 4, 1000]))
    raw = rng.integers(0, levels, size=(n, d)) / levels
    raw[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.5
    config = FusionConfig(r_window=r, min_subset_size=low, max_subset_size=high,
                          tie_break=draw(st.sampled_from(TIE_BREAKS)))
    return raw, config, draw(st.integers(8, 1 << 16))


def peak_columns(n_available, d):
    """The columns the chunk-parity cases place their peaks at: the first
    and last inner edges of the column chunks the subset search once
    walked, so those cases keep their inputs."""
    width = max((1 << 19) // (8 << n_available), math.isqrt(d))
    chunks = -(-d // width)
    return d // chunks, d * (chunks - 1) // chunks


def search_peak(normalized, degenerate):
    """tracemalloc's peak over one select_best_subset call whose plan is
    built in the call."""
    fusion._plan.cache_clear()
    return traced(lambda: select_best_subset(normalized, FusionConfig(r_window=2),
                                             degenerate))[2]


def beside_scratch(n, d):
    """A bound on what a search over n techniques of width d holds beside
    its scratch: numpy's 64 KiB buffer for adding a row to a block, 48
    bytes per subset mask for its argmax, its three maxima and finishing
    its ratio, and up to 64 KiB for the tile of each technique outside the
    base block. Measured at 10 x 1000 and 12 x 1000: 298 and 612 KiB."""
    return (64 << 10) + 48 * (1 << n) + (n - fusion._low_bits(n, d)) * (64 << 10)


def search_recording_blocks(normalized, config, degenerate):
    """select_best_subset, plus the (high mask, extended from its parent)
    pair of every row block it built: the steps of the plan it ran."""
    plans = []

    def recorded(*shape):
        plans.append(plan(*shape))
        return plans[-1]

    plan = fusion._plan
    with mock.patch.object(fusion, "_plan", recorded):
        got = select_best_subset(normalized, config, degenerate)
    (_, steps), = plans
    return got, [(at.start // (at.stop - at.start), extend)
                 for at, extend, _, _ in steps]


class TestSearchParity:
    """The batched search against the naive oracle, compared with ==."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("n, d, r_window, min_size, max_size, n_constant", [
        (10, 1000, 2, 2, None, 0),
        (7, 3000, 3, 2, None, 0),
        (7, 3000, 800, 2, None, 0),  # windows wider than a chunk
        (8, 1200, 1, 3, 5, 0),
        (9, 2000, 2, 2, None, 2),
    ])
    def test_chunked_search_matches_naive(self, tie_break, n, d, r_window,
                                          min_size, max_size, n_constant):
        rng = np.random.default_rng(n * d + r_window)
        # quantized values, so scores tie
        raw = np.floor(rng.random((n, d)) * 6) / 6
        # Half the techniques peak at columns a - 1 and a: the argmax ties
        # there and the runner-up sits just right of the window around
        # a - 1. The other half peak just right of column b, with the
        # runner-up just left of the window. Which site wins depends on
        # the subset.
        half = n // 2
        a, b = peak_columns(n - n_constant, d)
        raw[:, a] = raw[:, a - 1]
        raw[:half, a - 1:a + 1] = 2.0
        raw[:half, a + r_window] = 1.5
        raw[half:, b:b + 2] = 2.0
        raw[half:, b - r_window - 1] = 1.5
        raw[rng.choice(n, n_constant, replace=False)] = 0.5
        normalized, degenerate = normalize_query_slices(raw)
        assert len(degenerate) == n_constant
        config = FusionConfig(r_window=r_window, min_subset_size=min_size,
                              max_subset_size=max_size, tie_break=tie_break)
        expected = naive_best_subset(
            [list(row) for row in normalized], r_window, 1e-12, min_size,
            config.resolved_max_subset_size(n), degenerate, tie_break,
        )
        got, built = search_recording_blocks(normalized, config, degenerate)
        assert len(built) >= 4, "case must build at least 4 row blocks"
        assert any(h and not extend for h, extend in built), "none rebuilt"
        assert any(extend for _, extend in built), "none extended"
        assert (got.subset, got.score) == expected

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("n, d, min_size, max_size, scratch_bytes", [
        (7, 40, 2, None, 16 * 40),  # one row per block
        (9, 800, 7, None, 1 << 19),  # base block and small blocks inadmissible
        (9, 800, 2, 3, 1 << 19),  # sizes capped below the available count
    ])
    def test_row_block_search_matches_naive(self, tie_break, n, d, min_size,
                                            max_size, scratch_bytes):
        rng = np.random.default_rng(n * d + min_size)
        raw = np.floor(rng.random((n, d)) * 6) / 6
        raw[0] = 0.5
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=2, min_subset_size=min_size,
                              max_subset_size=max_size, tie_break=tie_break)
        expected = naive_best_subset(
            [list(row) for row in normalized], 2, 1e-12, min_size,
            config.resolved_max_subset_size(n), degenerate, tie_break,
        )
        # the budget sizes the search's row blocks (_low_bits)
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes):
            got, built = search_recording_blocks(normalized, config, degenerate)
        assert len(built) >= 8
        if scratch_bytes == 16 * d:
            assert len(built) == 1 << (n - 1)
        assert (got.subset, got.score) == expected

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_small_database_with_wide_window(self, tie_break):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(3, 8))
            r_window = int(rng.integers(1, d))
            raw = np.floor(rng.random((n, d)) * 3)
            normalized, degenerate = normalize_query_slices(raw)
            if n - len(degenerate) < 2:
                continue
            config = FusionConfig(r_window=r_window, tie_break=tie_break)
            expected = naive_best_subset(
                [list(row) for row in normalized], r_window, 1e-12, 2, n,
                degenerate, tie_break,
            )
            if expected is None:
                with pytest.raises(WindowCoversAllError):
                    select_best_subset(normalized, config, degenerate)
            else:
                got = select_best_subset(normalized, config, degenerate)
                assert (got.subset, got.score) == expected, f"trial {trial}"

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_windows_at_block_edges_match_naive(self, tie_break, edge):
        # Every technique peaks at column 0 (or D - 1), beside values that
        # only the window excludes, so every window starts at column 0 (or
        # ends at column D). With four-row blocks, that holds for the last
        # row of the base block and of every working block, whose window
        # then ends where the block's buffer does. Techniques 0 and 1 are
        # the sharpest, so the winner is the base block's last row.
        n, d, r = 7, 60, 2
        rng = np.random.default_rng(d + len(edge))
        raw = np.floor(rng.random((n, d)) * 6) / 6
        raw[:2] /= 6
        if edge == "first":
            peak, inside = 0, slice(1, r + 1)
        else:
            peak, inside = d - 1, slice(d - r - 1, d - 1)
        raw[:, inside] = 2.5
        raw[:, peak] = 3.0
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=r, tie_break=tie_break)
        expected = naive_best_subset(
            [list(row) for row in normalized], r, 1e-12, 2, n, degenerate, tie_break,
        )
        assert expected[0] == (0, 1)
        # a budget of two four-row blocks: _low_bits gives k = 2
        with mock.patch.object(core, "WORK_BYTES", 2 * 4 * 8 * d):
            assert fusion._low_bits(n, d) == 2
            got, built = search_recording_blocks(normalized, config, degenerate)
        assert any(h and not extend for h, extend in built), "none rebuilt"
        assert any(extend for _, extend in built), "none extended"
        assert (got.subset, got.score) == expected

    @settings(max_examples=300, deadline=None)
    @given(search_cases())
    def test_forced_chunking_matches_naive(self, case):
        raw, config, scratch_bytes = case
        normalized, degenerate = normalize_query_slices(raw)
        n = raw.shape[0]
        # the budget sizes the search's row blocks (_low_bits)
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes):
            if n - len(degenerate) < config.min_subset_size:
                with pytest.raises(TooFewTechniquesError):
                    select_best_subset(normalized, config, degenerate)
                return
            expected = naive_best_subset(
                [list(row) for row in normalized], config.r_window, 1e-12,
                config.min_subset_size, config.resolved_max_subset_size(n),
                degenerate, config.tie_break,
            )
            if expected is None:
                with pytest.raises(WindowCoversAllError):
                    select_best_subset(normalized, config, degenerate)
            else:
                got = select_best_subset(normalized, config, degenerate)
                assert (got.subset, got.score) == expected

    def test_scratch_memory_is_bounded(self, rng):
        normalized, degenerate = normalize_query_slices(rng.random((10, 1000)))
        peak = search_peak(normalized, degenerate)
        assert peak <= core.WORK_BYTES + beside_scratch(10, 1000)

    def test_scratch_memory_at_twelve_techniques_is_bounded(self, rng):
        # the per-mask arrays of 2**12 entries fit beside the scratch
        normalized, degenerate = normalize_query_slices(rng.random((12, 1000)))
        peak = search_peak(normalized, degenerate)
        assert peak <= core.WORK_BYTES + beside_scratch(12, 1000)

    @pytest.mark.parametrize("k, d, tall", [
        (6, 1000, 8), (8, 300, 16), (4, 4000, 2), (6, 4096, 2), (6, 4097, 1),
        (2, 300, 4), (0, 40, 1),
    ])
    def test_tiles_are_the_fewest_rows_past_4096_entries(self, k, d, tall):
        assert fusion._tile_rows(k, d) == tall

    def test_scratch_memory_at_large_d_is_two_rows(self, rng):
        # two rows of 8 * D bytes outgrow core.WORK_BYTES: one-row blocks
        d = 100_000
        normalized, degenerate = normalize_query_slices(rng.random((4, d)))
        _, _, peak = traced(lambda: select_best_subset(
            normalized, FusionConfig(r_window=2), degenerate))
        assert 2 * 8 * d > core.WORK_BYTES
        assert peak <= 2 * 8 * d + (64 << 10)


def naive_outcome(normalized, degenerate, config):
    """naive_best_subset's (subset, score) for one query, or the type of
    the error select_best_subset raises instead."""
    n = len(normalized)
    if n - len(degenerate) < config.min_subset_size:
        return TooFewTechniquesError
    expected = naive_best_subset(
        [list(row) for row in normalized], config.r_window, config.epsilon,
        config.min_subset_size, config.resolved_max_subset_size(n),
        frozenset(degenerate), config.tie_break,
    )
    return WindowCoversAllError if expected is None else expected


def chunk_outcomes(chunk, constant, config):
    """select_best_subsets on a chunk, each result as naive_outcome gives
    it, after checking it against select_best_subset on the query alone."""
    outcomes = []
    for q, result in enumerate(select_best_subsets(chunk, constant, config)):
        degenerate = np.flatnonzero(constant[:, q]).tolist()
        if isinstance(result, Exception):
            with pytest.raises(type(result)) as alone:
                select_best_subset(chunk[:, q], config, degenerate)
            assert str(alone.value) == str(result)
            outcomes.append(type(result))
        else:
            assert result == select_best_subset(chunk[:, q], config, degenerate)
            outcomes.append((result.subset, result.score))
    return outcomes


@st.composite
def chunk_cases(draw):
    """A chunk of 1 to 9 queries over quantized inputs, each query with its
    own constant techniques, drawn from a few patterns so batches hold
    queries that are not consecutive; any window and size bounds, and a
    scratch from one-row blocks up to a single block."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(3, 40))
    queries = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 4, 1000]))
    chunk = rng.integers(0, levels, size=(n, queries, d)) / levels
    patterns = rng.random((3, n)) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    constant = patterns[rng.integers(0, 3, queries)].T
    chunk[constant] = 0.0
    low = draw(st.integers(2, n))
    config = FusionConfig(r_window=draw(st.integers(0, d - 1)), min_subset_size=low,
                          max_subset_size=draw(st.one_of(st.none(), st.integers(low, n))),
                          tie_break=draw(st.sampled_from(TIE_BREAKS)))
    return chunk, constant, config, draw(st.integers(8, 1 << 16))


class TestChunkedSearch:
    """select_best_subsets, per query, against select_best_subset and the
    naive oracle."""

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_mixed_chunk_matches_naive(self, tie_break):
        n, d, r = 5, 11, 5
        rng = np.random.default_rng(3)
        chunk = np.floor(rng.random((n, 8, d)) * 4) / 4
        chunk[:, :, 0] = 1.0  # peaks at column 0: windows leave columns 6 to 10
        constant = np.zeros((n, 8), dtype=bool)
        constant[1, [1, 6]] = True  # the same pattern, not consecutive
        constant[[0, 3], 2] = True
        chunk[:, 3] = 0.0
        chunk[:, 3, 5] = 1.0  # every window around column 5 covers all 11
        constant[1:, 4] = True  # one usable technique
        chunk[:, 5] = chunk[0, 5]  # identical techniques: every subset ties
        chunk[:, 7, 0] = 0.0
        chunk[:, 7, 10] = 1.0  # peaks at the last column
        chunk[constant] = 0.0
        config = FusionConfig(r_window=r, tie_break=tie_break)
        got = chunk_outcomes(chunk, constant, config)
        assert got == [naive_outcome(chunk[:, q], np.flatnonzero(constant[:, q]), config)
                       for q in range(8)]
        assert got[3] is WindowCoversAllError and got[4] is TooFewTechniquesError
        assert got[5][0] == (0, 1)

    @pytest.mark.parametrize("scratch_bytes", [None, 1536 + 2 * 512])
    def test_same_pattern_in_batches(self, rng, scratch_bytes):
        # at 4 x 12 the grid is 1536 bytes and a query's per-mask arrays
        # 512: the small budget makes _batch_queries take 2 queries a batch,
        # so 5 need 3
        chunk = np.floor(rng.random((4, 5, 12)) * 6) / 6
        constant = np.zeros((4, 5), dtype=bool)
        config = FusionConfig(r_window=1)
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes or core.WORK_BYTES), \
                mock.patch.object(fusion, "_search_batch",
                                  wraps=fusion._search_batch) as batches:
            got = chunk_outcomes(chunk, constant, config)
        # then one batch of one per query, searched alone
        sizes = [len(call.args[2]) for call in batches.call_args_list]
        assert sizes == ([2, 2, 1] if scratch_bytes else [5]) + [1] * 5
        assert got == [naive_outcome(chunk[:, q], [], config) for q in range(5)]

    def test_one_query(self, rng):
        normalized, degenerate = normalize_query_slices(rng.random((6, 50)))
        constant = np.isin(np.arange(6), list(degenerate))[:, None]
        config = FusionConfig(r_window=2)
        got, = select_best_subsets(normalized[:, None], constant, config)
        assert got == select_best_subset(normalized, config, degenerate)
        assert (got.subset, got.score) == naive_outcome(normalized, degenerate, config)

    def test_empty_chunk(self):
        assert select_best_subsets(np.zeros((4, 0, 10)), np.zeros((4, 0), bool),
                                   FusionConfig(r_window=1)) == []

    @settings(max_examples=150, deadline=None)
    @given(chunk_cases())
    def test_any_chunk_matches_naive(self, case):
        chunk, constant, config, scratch_bytes = case
        # the budget sizes the row blocks and the batches (_batch_queries)
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes):
            got = chunk_outcomes(chunk, constant, config)
        assert got == [naive_outcome(chunk[:, q], np.flatnonzero(constant[:, q]), config)
                       for q in range(chunk.shape[1])]

    @pytest.mark.parametrize("n, d", [(12, 1000), (12, 30), (8, 300), (10, 4000),
                                      (4, 100_000)])
    def test_batch_fits_beside_the_blocks(self, n, d):
        # one block: the batch's per-mask arrays fit beside it; more blocks
        # fill the budget, and the batch's survivors scored as rows (32
        # bytes a mask per query at most) fit in a budget beside them
        k = fusion._low_bits(n, d)
        batch = fusion._batch_queries(n, k, d)
        beside = 8 * d << n if k == n else 0
        assert batch >= 1
        assert batch == 1 or beside + batch * (32 << n) <= core.WORK_BYTES
        assert beside + (batch + 1) * (32 << n) > core.WORK_BYTES

    def test_per_mask_arrays_at_twelve_techniques_stay_bounded(self, rng):
        # a chunk of 8 queries holds no more than one query's search does
        chunk, constant = minmax_rows(rng.random((12, 8, 1000)))
        config = FusionConfig(r_window=2)
        peaks = []
        for queries in (1, 8):
            fusion._plan.cache_clear()
            peaks.append(traced(lambda: select_best_subsets(
                chunk[:, :queries], constant[:, :queries], config))[2])
        assert peaks[0] <= core.WORK_BYTES + beside_scratch(12, 1000)
        assert peaks[1] <= peaks[0] + (16 << 10)

    def test_bad_shapes_are_value_errors(self):
        config = FusionConfig(r_window=1)
        with pytest.raises(ValueError, match="N x B x D"):
            select_best_subsets(np.zeros((4, 10)), np.zeros((4, 1), bool), config)
        with pytest.raises(ValueError, match="N x B mask"):
            select_best_subsets(np.zeros((4, 2, 10)), np.zeros((4, 1), bool), config)


def structured_query(rng, n, d, kind):
    """One query's (n, d) raw similarities of a ``kind``: "random";
    "peaked", where techniques 0 and 1 share a peak and each other one
    peaks alone; "aliased", where every technique also has a rival peak
    at one shared column; "duplicated", where every technique repeats
    technique 0 or 1; "identical", where the subsets of each size tie;
    "copies", near-copies of one vector where all but the last technique
    share a peak, so most subsets bound at or above the seed's score."""
    raw = rng.random((n, d)) * 0.3
    if kind == "random":
        return rng.random((n, d))
    sites = rng.choice(d, size=n, replace=d < n)
    sites[1] = sites[0]
    raw[np.arange(n), sites] = 1.0
    if kind == "aliased":
        raw[:, rng.integers(d)] = 0.9
    elif kind == "duplicated":
        raw = raw[rng.integers(0, 2, n)]
    elif kind == "identical":
        raw = raw[np.zeros(n, dtype=int)]
    elif kind == "copies":
        raw = rng.random(d) * 0.3 + raw * 0.03
        raw[:-1, sites[0]] = 1.0
        raw[-1, sites[-1]] = 1.0
    return raw


@st.composite
def bound_cases(draw):
    """One query of any kind (see structured_query), float32-origin or not,
    any window from 0 to D, epsilon up to 1, a chunk width and how many
    techniques are summed into the bound table's start row."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(3, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = structured_query(rng, n, d, draw(st.sampled_from(
        ["random", "peaked", "aliased", "duplicated"])))
    if draw(st.booleans()):
        raw = raw.astype(np.float32)
    return (raw, draw(st.integers(0, d)), draw(st.sampled_from([1e-12, 1e-3, 0.5, 1.0])),
            draw(st.sampled_from([1, 2, 3, 32, d])), draw(st.integers(0, n)))


@st.composite
def pruning_cases(draw):
    """A chunk of 1 to 4 structured queries over 4 to 6 techniques at D of
    40 to 200, some with a constant technique; any window and size bounds,
    and a budget that splits the grid into blocks of 2**k rows."""
    n = draw(st.integers(4, 6))
    d = draw(st.integers(40, 200))
    queries = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "peaked", "peaked", "aliased",
                                           "duplicated", "identical"]),
                          min_size=queries, max_size=queries))
    chunk = np.stack([structured_query(rng, n, d, kind) for kind in kinds], axis=1)
    constant = np.zeros((n, queries), dtype=bool)
    constant[rng.integers(n), rng.random(queries) < 0.3] = True
    chunk[constant] = 0.5
    low = draw(st.integers(2, n))
    config = FusionConfig(
        r_window=draw(st.one_of(st.integers(0, 3), st.integers(0, d - 1))),
        min_subset_size=low, max_subset_size=draw(st.one_of(st.none(), st.integers(low, n))),
        tie_break=draw(st.sampled_from(TIE_BREAKS)))
    normalized, constant = minmax_rows(chunk)
    return normalized, constant, config, 2 * 8 * d << draw(st.integers(0, n - 2))


@st.composite
def row_scorer_cases(draw):
    """One query's (n, d) vectors: float32-origin normalized, raw with
    negative values, signed zeros and NaN, or -0.0 and negative only, so a
    fused peak is a sum of -0.0s; a set of its subsets of two or more
    members by bitmask; the scorer's rows, from one to more than the
    subsets; a window from 0 to D - 1 and an epsilon."""
    n = draw(st.integers(2, 7))
    d = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["float32", "edges", "nonpositive"]))
    if kind == "float32":
        normalized, _ = minmax_rows(rng.random((n, d)).astype(np.float32))
    elif kind == "edges":
        edges = np.array([0.0, -0.0, -1.5, 2.0, np.nan, 0.25, -3e-300])
        normalized = np.where(rng.random((n, d)) < 0.3, rng.choice(edges, (n, d)),
                              rng.standard_normal((n, d)))
    else:
        normalized = np.where(rng.random((n, d)) < 0.5, -0.0, -rng.random((n, d)))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1).filter(lambda m: m.bit_count() > 1),
                          min_size=1, max_size=12, unique=True))
    return (normalized, masks, draw(st.integers(1, len(masks) + 1)),
            draw(st.integers(0, d - 1)), draw(st.sampled_from([1e-12, 0.5])))


@st.composite
def batch_cases(draw):
    """A chunk of 1 to 8 structured queries (see structured_query) over 5
    to 7 techniques at D of 40 to 160, float32-origin or not, with one
    technique constant on some queries, so they form a batch of their own;
    any window and size bounds, and a budget that splits the grid into 4 or
    8 blocks, with room for the bound, and batches into several queries
    each, so one batch holds queries pruned to rows, costly survivors and
    queries with no seed."""
    n = draw(st.integers(5, 7))
    d = draw(st.integers(40, 160))
    queries = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["random", "peaked", "peaked", "copies",
                                           "aliased", "duplicated", "identical"]),
                          min_size=queries, max_size=queries))
    chunk = np.stack([structured_query(rng, n, d, kind) for kind in kinds], axis=1)
    if draw(st.booleans()):
        chunk = chunk.astype(np.float32)
    constant = np.zeros((n, queries), dtype=bool)
    constant[rng.integers(n), rng.random(queries) < 0.3] = True
    chunk[constant] = 0.5
    low = draw(st.integers(2, n))
    config = FusionConfig(
        r_window=draw(st.one_of(st.integers(0, 3), st.integers(0, d - 1))),
        min_subset_size=low, max_subset_size=draw(st.one_of(st.none(), st.integers(low, n))),
        tie_break=draw(st.sampled_from(TIE_BREAKS)))
    normalized, constant = minmax_rows(chunk)
    return normalized, constant, config, 2 * 8 * d << draw(st.integers(n - 3, n - 2))


class TestBoundAndPrune:
    """The subset search's bound, its seeds and its pruning."""

    @settings(max_examples=300, deadline=None)
    @given(bound_cases())
    def test_bound_is_at_least_every_ratio(self, case):
        raw, r_window, epsilon, width, summed = case
        normalized, _ = minmax_rows(raw)
        n, d = normalized.shape
        probes, _ = fusion._probes_and_seeds(normalized.argmax(axis=1).tolist(),
                                             min(r_window, d), range(2, n + 1))
        starts = np.arange(0, d, width)
        terms = np.concatenate([np.maximum.reduceat(normalized, starts, axis=1),
                                normalized[:, probes]], axis=1)
        start = np.zeros(terms.shape[1])
        for row in terms[:summed]:
            start += row
        bits = n - summed
        bound = np.empty(1 << bits)
        scratch = np.empty(terms.shape[1] * ((1 << min(bits, 8)) + (1 << bits)))
        fusion._table_bounds(start, list(terms[summed:]), len(starts), epsilon,
                             scratch, bound)
        for mask in range(1 << bits):
            members = list(range(summed)) + [summed + b for b in range(bits)
                                              if mask >> b & 1]
            if not members:
                continue
            ratio, _, covered = fusion.ratio_rows(fuse_subset(normalized, members)[None],
                                                  r_window, epsilon)
            assert covered[0] or bound[mask] >= ratio[0], (mask, members)

    @settings(max_examples=150, deadline=None)
    @given(row_scorer_cases())
    def test_seed_score_is_the_grids_own(self, case):
        # every subset the row scorer scores, whatever the other subsets of
        # its pass, gets the step one and the ratio of a grid whose only
        # candidate is that subset
        normalized, masks, height, r_window, epsilon = case
        n, d = normalized.shape
        flat, t_step, _ = fusion._flat_rows(normalized[:, None])
        scorer = (flat, fusion._window_cuts(height, d, r_window), np.empty((height, d)),
                  np.empty((height, d)), np.empty(height, dtype=np.intp),
                  np.empty((height, 3)))
        rows = {}
        for part, best, seg in fusion._score_rows(scorer, np.arange(n) * t_step,
                                                  np.array(masks), np.zeros(1, dtype=int)):
            assert len(part) <= height
            rows.update(zip(part.tolist(), zip(best.tolist(), seg.copy())))
        assert sorted(rows) == sorted(masks)
        for mask, (best, seg) in rows.items():
            members = [t for t in range(n) if mask >> t & 1]
            config = FusionConfig(r_window=r_window, min_subset_size=len(members),
                                  max_subset_size=len(members), epsilon=epsilon)
            m = len(members)
            k = fusion._low_bits(m, d)
            _, steps = fusion._plan(m, k, m, m)
            cut = r, *_ = fusion._window_cuts(1 << k, d, r_window)
            grid_best, grid_seg = fusion._grid_segments(normalized[:, None], members, [0],
                                                        k, steps, cut)
            # a segment beside an empty side of the window is meaningless
            ratio, _, covered = fusion._finish_ratios(np.array(best), seg, d, r, epsilon)
            grid = fusion._finish_ratios(grid_best[0, -1], grid_seg[0, -1], d, r, epsilon)
            assert best == grid_best[0, -1] and covered == grid[2]
            assert seg[1].tobytes() == grid_seg[0, -1, 1].tobytes()
            assert ratio.tobytes() == grid[0].tobytes()
            others = [t for t in range(n) if t not in members]
            if not np.isfinite(normalized).all():
                with pytest.raises(ValueError, match="finite"):
                    select_best_subset(normalized, config, others)
            elif covered:
                with pytest.raises(WindowCoversAllError):
                    select_best_subset(normalized, config, others)
            else:
                got = select_best_subset(normalized, config, others)
                assert got.subset == tuple(members)
                assert got.score.hex() == float(ratio).hex()

    @settings(max_examples=200, deadline=None)
    @given(pruning_cases())
    def test_pruned_chunks_match_naive(self, case):
        normalized, constant, config, scratch_bytes = case
        # the budget sizes the row blocks and the batches
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes):
            got = chunk_outcomes(normalized, constant, config)
        assert got == [naive_outcome(normalized[:, q], np.flatnonzero(constant[:, q]),
                                     config) for q in range(normalized.shape[1])]

    @pytest.mark.parametrize("tie_break", TIE_BREAKS)
    def test_pruning_skips_blocks_on_a_peaked_query(self, rng, tie_break):
        # techniques 0 and 1 share the peak at column 100; each other one
        # peaks alone, in a column chunk of its own
        n, d = 8, 300
        raw = rng.random((n, d)) * 0.3
        raw[:2, 100] = 1.0
        raw[np.arange(2, n), [10, 45, 170, 205, 240, 275]] = 1.0
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=2, tie_break=tie_break)
        expected = naive_best_subset([list(row) for row in normalized], 2, 1e-12, 2, n,
                                     degenerate, tie_break)
        with mock.patch.object(core, "WORK_BYTES", 2 * 8 * d * 16):
            k = fusion._low_bits(n, d)
            admissible = sum(step[3] for step in fusion._plan(n, k, 2, n)[1])
            with mock.patch.object(fusion, "_segment_maxima",
                                   wraps=fusion._segment_maxima) as spy:
                got = select_best_subset(normalized, config, degenerate)
        assert (k, admissible) == (4, 16)
        # one call scores the seeds, one each pass of the survivors' rows
        assert spy.call_count < admissible / 2
        assert (got.subset, got.score) == expected == ((0, 1), expected[1])

    def test_random_queries_skip_the_bound_table(self, rng):
        # no two techniques' argmaxes agree: no seed, so nothing is scored
        # as rows and no bound is taken
        normalized, degenerate = normalize_query_slices(rng.random((10, 1000)))
        tops = sorted(normalized.argmax(axis=1).tolist())
        assert min(b - a for a, b in zip(tops, tops[1:])) > 2
        with mock.patch.object(fusion, "_table_bounds") as table, \
                mock.patch.object(fusion, "_score_rows") as scorer:
            got = select_best_subset(normalized, FusionConfig(r_window=2), degenerate)
        assert table.call_count == scorer.call_count == 0
        assert (got.subset, got.score) == naive_outcome(normalized, degenerate,
                                                        FusionConfig(r_window=2))

    def test_few_survivors_are_scored_as_rows_without_blocks(self, rng):
        # techniques 0 and 1 share the peak at column 500; each other one
        # peaks alone, in a column chunk of its own
        n, d = 10, 1000
        raw = rng.random((n, d)) * 0.3
        raw[:2, 500] = 1.0
        raw[np.arange(2, n), [50, 150, 250, 350, 650, 750, 850, 950]] = 1.0
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=2)
        k = fusion._low_bits(n, d)
        with mock.patch.object(fusion, "_segment_maxima",
                               wraps=fusion._segment_maxima) as spy:
            got = select_best_subset(normalized, config, degenerate)
        # the seed's row, then the survivors' rows: no block of 2**k rows
        assert k < n
        seeds, survivors = (call.args[0].shape for call in spy.call_args_list)
        assert seeds == (1, d)
        assert survivors[0] < 1 << k and survivors[1] == d
        assert (got.subset, got.score) == naive_outcome(normalized, degenerate, config)

    def test_costly_survivors_go_through_the_whole_grid(self, rng):
        # seven near-copies of one peaked vector and one that peaks
        # elsewhere: the one seed is the seven, and most subsets bound at
        # or above its score; their members outnumber the grid's rows
        n, d = 8, 300
        raw = rng.random(d) * 0.3 + rng.random((n, d)) * 0.01
        raw[:7, 100] = 1.0
        raw[7, 250] = 1.0
        normalized, degenerate = normalize_query_slices(raw)
        config = FusionConfig(r_window=2)
        with mock.patch.object(core, "WORK_BYTES", 2 * 8 * d * 16), \
                mock.patch.object(fusion, "_segment_maxima",
                                  wraps=fusion._segment_maxima) as spy:
            k = fusion._low_bits(n, d)
            admissible = sum(step[3] for step in fusion._plan(n, k, 2, n)[1])
            got = select_best_subset(normalized, config, degenerate)
        assert k == 4
        # the seed's row, then every admissible block, and no survivors' rows
        shapes = [call.args[0].shape for call in spy.call_args_list]
        assert shapes == [(1, d)] + [(1 << k, d)] * admissible
        assert (got.subset, got.score) == naive_outcome(normalized, degenerate, config)


class TestBatchedBound:
    """A batch of a multi-block grid bounds and scores its queries together."""

    def test_a_batch_shares_its_passes_and_tables(self, rng):
        # six peaked 10 x 1000 queries, a grid of 16 blocks: at 1 MiB the
        # scratch holds two queries' tables
        queries = 6
        chunk, constant = minmax_rows(np.stack([structured_query(rng, 10, 1000, "peaked")
                                                for _ in range(queries)], axis=1))
        config = FusionConfig(r_window=2)
        spies = [mock.patch.object(fusion, name, wraps=getattr(fusion, name)) for name in
                 ("_search_batch", "_score_rows", "_table_bounds", "_grid_segments")]
        with contextlib.ExitStack() as stack:
            batches, scorer, tables, grids = map(stack.enter_context, spies)
            got = select_best_subsets(chunk, constant, config)
        # one batch: one pass of the seeds, then one of every query's survivors
        assert batches.call_count == 1 and scorer.call_count == 2
        assert grids.call_count == 0
        assert tables.call_count <= -(-queries // 2)
        assert sum(len(call.args[5]) for call in tables.call_args_list) == queries
        # the same winners and bits as every whole grid built
        with mock.patch.object(fusion, "_live_subsets", return_value=[None] * queries):
            assert got == select_best_subsets(chunk, constant, config)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mixed_chunk_matches_naive(self, rng, dtype):
        # at 8 x 300 and this budget the grid is 16 blocks of 2**4 rows
        n, d = 8, 300
        config = FusionConfig(r_window=2)
        kinds = ["peaked", "copies", "random", "peaked", "peaked", "copies"]
        raw = np.stack([structured_query(rng, n, d, kind) for kind in kinds], axis=1)
        # no two argmaxes within the window: no seed
        raw[:, 2] = rng.random((n, d)) * 0.3
        raw[np.arange(n), 2, [10, 45, 80, 115, 150, 185, 220, 255]] = 1.0
        constant = np.zeros((n, len(kinds)), dtype=bool)
        constant[2, [3, 5]] = True  # one more pattern, a batch of its own
        chunk, constant = minmax_rows(np.where(constant[..., None], 0.5, raw).astype(dtype))
        budget = mock.patch.object(core, "WORK_BYTES", 2 * 8 * d << 4)
        lives, real = [], fusion._live_subsets

        def live_subsets(*args):
            lives.append(real(*args))
            return lives[-1]
        spies = [budget, mock.patch.object(fusion, "_live_subsets", live_subsets)] + [
            mock.patch.object(fusion, name, wraps=getattr(fusion, name))
            for name in ("_table_bounds", "_grid_segments")]
        with contextlib.ExitStack() as stack:
            *_, tables, grids = map(stack.enter_context, spies)
            select_best_subsets(chunk, constant, config)
        # batches 0, 1, 2, 4 and 3, 5: every query but 2 has a seed and is
        # bounded; the survivors of the copies cost more than their grid
        assert [[keep is not None for keep in live] for live in lives] == [
            [True, False, False, True], [True, False]]
        assert sum(len(call.args[5]) for call in tables.call_args_list) == 5
        assert [call.args[2] for call in grids.call_args_list] == [[1], [2], [5]]
        with budget:
            got = chunk_outcomes(chunk, constant, config)
        assert got == [naive_outcome(chunk[:, q], np.flatnonzero(constant[:, q]), config)
                       for q in range(len(kinds))]

    def test_windows_that_cover_the_vector(self, rng):
        # a seed's window can cover its vector only where D <= 2r + 1, where
        # no two probes fit: such queries build their whole grid. Query 0's
        # techniques all peak at the middle column, whose window covers
        # all 7; query 1's first four peak at column 0, whose window does not
        n, d, r = 8, 7, 3
        raw = rng.random((n, 3, d)) * 0.3
        raw[:, 0, 3] = 1.0
        raw[:4, 1, 0] = 1.0
        raw[4:, 1, 3] = 1.0
        raw[:, 2] = raw[:, 2].astype(np.float32)
        chunk, constant = minmax_rows(raw)
        config = FusionConfig(r_window=r)
        with mock.patch.object(core, "WORK_BYTES", 2 * 8 * d << 3):
            assert fusion._low_bits(n, d) < n
            got = chunk_outcomes(chunk, constant, config)
        assert got == [naive_outcome(chunk[:, q], [], config) for q in range(3)]
        assert got[0] is WindowCoversAllError and got[1] is not WindowCoversAllError

    def test_peaks_take_no_copy_of_a_chunk_laid_out_queries_first(self, rng):
        # run_dyn_mpf's chunks are laid out (B, N, D), where an argmax over
        # the last axis copies the whole chunk
        raw = np.stack([structured_query(rng, 10, 1000, kind)
                        for kind in ["peaked", "random"] * 30])
        chunk, constant = minmax_rows(raw)
        chunk, constant = chunk.transpose(1, 0, 2), constant.T
        assert chunk.shape == (10, 60, 1000) and not chunk.flags.c_contiguous
        config = FusionConfig(r_window=2)
        fusion._plan.cache_clear()
        got, _, peak = traced(lambda: select_best_subsets(chunk, constant, config))
        assert peak < chunk.nbytes / 2
        assert got == select_best_subsets(np.ascontiguousarray(chunk), constant, config)

    @settings(max_examples=150, deadline=None)
    @given(batch_cases())
    def test_batched_chunks_match_naive(self, case):
        normalized, constant, config, scratch_bytes = case
        # the budget sizes the row blocks and the batches
        with mock.patch.object(core, "WORK_BYTES", scratch_bytes):
            got = chunk_outcomes(normalized, constant, config)
        assert got == [naive_outcome(normalized[:, q], np.flatnonzero(constant[:, q]),
                                     config) for q in range(normalized.shape[1])]


class TestTechniqueWeights:
    def test_identical_members_equal_weights(self):
        v = np.tile(np.array([0.2, 1.0, 0.1, 0.0]), (2, 1))
        w = technique_weights(v, (0, 1), FusionConfig(r_window=0))
        assert w[0] == w[1] == pytest.approx(5.0)

    def test_degenerate_member_weighs_zero(self):
        v = np.array([[0.0, 0.0, 0.0, 0.0], [0.2, 1.0, 0.1, 0.0]])
        w = technique_weights(v, (0, 1), FusionConfig(r_window=0))
        assert w[0] == 0.0
        assert w[1] == pytest.approx(5.0)

    def test_clamped_denominator_gives_large_finite_weight(self):
        v = np.array([[0.0, 1.0, 0.0, 0.0]])
        w = technique_weights(v, (0,), FusionConfig(r_window=0, epsilon=1e-12))
        assert w[0] == pytest.approx(1e12)
        assert np.isfinite(w[0])


class TestWeightedFuseAndMatch:
    def test_equal_weights_match_unweighted_argmax(self, rng):
        normalized, _ = normalize_query_slices(rng.random((3, 15)))
        fused = fuse_subset(normalized, (0, 1, 2))
        _, match, _, _ = weighted_fuse_and_match(
            normalized, (0, 1, 2), {0: 2.0, 1: 2.0, 2: 2.0}
        )
        assert match == int(np.argmax(fused))

    def test_dominant_weight_drives_match(self):
        a = np.array([0.0, 0.1, 0.0, 1.0, 0.2])
        b = np.array([0.5, 0.45, 0.55, 0.5, 0.48])
        out, match, _, _ = weighted_fuse_and_match(
            np.stack([a, b]), (0, 1), {0: 10.0, 1: 0.1}
        )
        assert match == 3

    def test_match_invariant_to_standardization(self, rng):
        for _ in range(25):
            normalized, _ = normalize_query_slices(rng.random((3, 12)))
            weights = {i: float(w) for i, w in enumerate(rng.random(3) + 0.1)}
            raw = np.zeros(12)
            for m, w in weights.items():
                raw += w * normalized[m]
            _, match, _, _ = weighted_fuse_and_match(normalized, (0, 1, 2), weights)
            assert match == int(np.argmax(raw))

    def test_constant_sum_returned_unnormalized(self):
        v = np.zeros((2, 5))
        out, match, mean, std = weighted_fuse_and_match(v, (0, 1), {0: 1.0, 1: 1.0})
        assert match == 0
        assert np.array_equal(out, np.zeros(5))
        assert mean == 0.0

    def test_stats_are_pre_normalization(self):
        a = np.array([0.0, 1.0, 0.5, 0.25])
        out, _, mean, std = weighted_fuse_and_match(
            np.stack([a, a]), (0, 1), {0: 1.0, 1: 1.0}
        )
        fused = 2 * a
        assert mean == pytest.approx(fused.mean())
        assert std == pytest.approx(fused.std(ddof=1))
        assert abs(out.mean()) < 1e-9


class TestWeightedMatchRows:
    @staticmethod
    def old_weighted_match_rows(members, weights):
        """The broadcast formula with a fresh product per member."""
        fused = np.zeros(members.shape[1:])
        for row, weight in zip(members, weights):
            fused += weight[:, None] * row
        out, mean, std = core.zscore_rows(fused)
        return out, fused.argmax(axis=1), mean, std

    @given(k=st.integers(1, 4), b=st.integers(1, 20),
           d=st.sampled_from([2, 17, 300, 4000, 4097]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_broadcast_formula(self, k, b, d, seed):
        rng = np.random.default_rng(seed)
        members = minmax_rows(rng.random((k, b, d)))[0]
        weights = rng.random((k, b)) * 10.0 ** rng.integers(-3, 4, (k, b))
        weights[rng.random((k, b)) < 0.2] = 0.0
        got = weighted_match_rows(members, weights)
        for a, want in zip(got, self.old_weighted_match_rows(members, weights)):
            assert a.tobytes() == want.tobytes()
        assert np.getbufsize() == 8192

    def test_buffer_size_restored_when_the_sum_is_not_finite(self):
        size = np.getbufsize()
        members = np.full((2, 4, 300), 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            weighted_match_rows(members, np.full((2, 4), np.inf))
        assert np.getbufsize() == size


class TestScaleInvariance:
    def test_affine_transforms_change_nothing(self, rng):
        config = FusionConfig(r_window=1)
        for _ in range(30):
            n = int(rng.integers(3, 6))
            raw = rng.random((n, 25))
            scales = rng.random(n) * 20 + 0.1
            offsets = rng.random(n) * 10 - 5
            transformed = raw * scales[:, None] + offsets[:, None]

            base_norm, base_deg = normalize_query_slices(raw)
            tx_norm, tx_deg = normalize_query_slices(transformed)
            assert base_deg == tx_deg

            base_best = select_best_subset(base_norm, config, base_deg)
            tx_best = select_best_subset(tx_norm, config, tx_deg)
            assert base_best.subset == tx_best.subset

            base_w = technique_weights(base_norm, base_best.subset, config)
            tx_w = technique_weights(tx_norm, tx_best.subset, config)
            for m in base_best.subset:
                assert tx_w[m] == pytest.approx(base_w[m], abs=1e-9)

            _, base_match, _, _ = weighted_fuse_and_match(
                base_norm, base_best.subset, base_w
            )
            _, tx_match, _, _ = weighted_fuse_and_match(
                tx_norm, tx_best.subset, tx_w
            )
            assert base_match == tx_match
