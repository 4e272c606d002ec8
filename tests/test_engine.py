import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dynfuse import core, engine
from dynfuse.core import (
    TIE_BREAKS,
    FusionConfig,
    GroundTruth,
    SimilarityTensor,
    TechniqueId,
    minmax_rows,
)
from dynfuse.engine import (
    default_tiers,
    oracle_best_single,
    oracle_best_static_subset,
    run_best_single_oracle,
    run_dyn_mpf,
    run_full_mpf,
    run_hier_mpf,
    run_random_pair,
    run_static_subset,
)
from dynfuse.errors import ConfigError, TooFewTechniquesError, WindowCoversAllError
from dynfuse.evaluate import frame_separation_sweep, recall_at_k
from dynfuse.fusion import (
    normalize_query_slices,
    ratio_rows,
    select_best_subset,
    window_error,
)
from conftest import FLOAT32_EDGES, random_tensor_data, traced
from reference_impl import (
    naive_best_single,
    naive_best_static_subset,
    naive_hier_rank_scores,
    naive_random_pairs,
    naive_recall_at_1,
    naive_run_dyn_mpf,
    naive_run_hier_mpf,
    naive_run_simple_sum,
)


def make_tensor(data):
    data = np.asarray(data, dtype=np.float64)
    techs = [TechniqueId(i, f"t{i}") for i in range(data.shape[0])]
    return SimilarityTensor(techs, data)


def matches(result):
    return [r.match_index for r in result.records]


class TestCalibrationSchedule:
    def test_f_one_calibrates_everywhere(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 12, 20))
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=1))
        for rec in res.records:
            assert rec.techniques_touched == (0, 1, 2)

    def test_f_beyond_traverse_calibrates_once(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 10, 20))
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=50))
        subsets = {rec.subset for rec in res.records}
        assert len(subsets) == 1
        assert res.records[0].techniques_touched == (0, 1, 2)
        for rec in res.records[1:]:
            assert rec.techniques_touched == rec.subset

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_f_beyond_int64_is_one_block(self, rng, block_bytes):
        tensor = make_tensor(random_tensor_data(rng, 3, 10, 20))
        once = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=50))
        # a 1-byte budget makes every query its own _fuse_groups chunk and its
        # own calibration chunk
        with mock.patch.object(core, "WORK_BYTES", block_bytes or core.WORK_BYTES):
            huge = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=2 ** 63))
        assert huge.records == once.records
        assert np.array_equal(huge.fused, once.fused, equal_nan=True)

    def test_calibration_frames_are_multiples_of_f(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 20, 25))
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=6))
        for rec in res.records:
            if rec.query % 6 == 0:
                assert rec.techniques_touched == (0, 1, 2)
            else:
                assert rec.techniques_touched == rec.subset

    def test_constant_conditions_make_schedule_irrelevant(self, rng):
        slice_data = random_tensor_data(rng, 3, 1, 30)
        data = np.repeat(slice_data, 15, axis=1)  # same vectors every query
        tensor = make_tensor(data)
        fast = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=1))
        slow = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=50))
        assert matches(fast) == matches(slow)

    def test_weights_recomputed_each_frame(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 10, 30))
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=10))
        weights = [tuple(sorted(r.weights.values())) for r in res.records]
        assert len(set(weights)) > 1  # same subset, fresh per-frame weights


class TestDynMpf:
    def test_full_set_restriction_equals_full_mpf(self, rng):
        for _ in range(10):
            tensor = make_tensor(random_tensor_data(rng, 4, 8, 25))
            cfg = FusionConfig(r_window=1, min_subset_size=4, max_subset_size=4)
            dyn = run_dyn_mpf(tensor, cfg, uniform_weights=True)
            full = run_full_mpf(tensor, cfg)
            assert matches(dyn) == matches(full)

    def test_degenerate_technique_never_selected(self, rng):
        data = random_tensor_data(rng, 4, 15, 20)
        data[2, :, :] = 0.7  # constant on every query
        tensor = make_tensor(data)
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1))
        for rec in res.records:
            assert rec.valid
            assert 2 not in rec.subset

    def test_constant_cached_members_make_query_invalid(self, rng):
        data = random_tensor_data(rng, 3, 4, 20)
        data[:, 1, :] = 0.7  # every technique constant on an in-between query
        tensor = make_tensor(data)
        res = run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=4))
        rec = res.records[1]
        assert not rec.valid
        assert rec.match_index == -1
        assert rec.error.startswith("TooFewTechniquesError: 0 non-degenerate")
        assert rec.techniques_touched == rec.subset == res.records[0].subset
        assert all(r.valid for r in res.records if r.query != 1)

    def test_complementary_benchmark_beats_singles(self, complementary,
                                                   fixture_config):
        tensor, gt = complementary
        dyn = run_dyn_mpf(tensor, fixture_config)
        dyn_recall = recall_at_k(dyn, dyn.fused, gt, [1]).recall_at[1]
        for i in range(tensor.n_techniques):
            single = run_static_subset(tensor, fixture_config, (i,))
            single_recall = recall_at_k(single, single.fused, gt, [1]).recall_at[1]
            assert dyn_recall >= single_recall

    def test_window_failure_invalidates_but_does_not_abort(self, rng):
        # D=3 with r_window=2: every subset's window covers the vector
        tensor = make_tensor(random_tensor_data(rng, 3, 5, 3))
        res = run_dyn_mpf(tensor, FusionConfig(r_window=2))
        assert len(res.records) == 5
        assert all(not r.valid for r in res.records)
        assert all(r.error for r in res.records)

    def test_worker_counts_agree(self, complementary):
        tensor, _ = complementary
        cfg = FusionConfig(r_window=2, frame_separation_f=7, rng_seed=42)
        serial = run_dyn_mpf(tensor, cfg, workers=1)
        threaded = run_dyn_mpf(tensor, cfg, workers=4)
        assert matches(serial) == matches(threaded)
        assert [r.weights for r in serial.records] == [
            r.weights for r in threaded.records
        ]
        assert np.array_equal(serial.fused, threaded.fused, equal_nan=True)


@st.composite
def dyn_cases(draw, runs=False):
    """Small tensors built to reach every branch of a calibration block:
    quantized values (ties), constant member rows (too few usable members),
    windows that cover D at the fused or member level, any F. With
    ``runs``, most calibration queries repeat query 0's vectors, so
    consecutive blocks choose the same subset, and some have every
    technique constant, so their search fails and breaks the run."""
    n = draw(st.integers(2, 5))
    queries = draw(st.integers(4, 24) if runs else st.integers(1, 14))
    d = draw(st.integers(2, 24))
    r = draw(st.integers(0, d - 1))
    low = draw(st.integers(2, n))
    high = draw(st.one_of(st.none(), st.integers(low, n)))
    f = draw(st.sampled_from([1, 2, 3] if runs else [1, 2, 7, queries, queries + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([3, 8, 1000]))
    data = rng.integers(0, levels, size=(n, queries, d)) / levels
    # constant rows, mostly at in-between queries so calibrations succeed
    calibrating = np.arange(queries) % f == 0
    constant = rng.random((n, queries)) < np.where(
        calibrating, 0.1, draw(st.sampled_from([0.0, 0.3, 0.7])))
    data[constant] = rng.random(int(constant.sum()))[:, None]
    if runs:
        starts = np.arange(f, queries, f)
        kind = rng.choice(3, size=starts.size, p=[0.2, 0.6, 0.2])
        data[:, starts[kind == 1]] = data[:, :1]
        failed = starts[kind == 2]
        data[:, failed] = rng.random((n, failed.size, 1))
    config = FusionConfig(
        r_window=r, frame_separation_f=f, min_subset_size=low,
        max_subset_size=high, tie_break=draw(st.sampled_from(TIE_BREAKS)),
    )
    return data, config, draw(st.booleans()), draw(st.sampled_from([None, 1, 200]))


class TestBlockParity:
    """The block-batched runner against the query-by-query reference."""

    @settings(max_examples=300, deadline=None)
    @given(dyn_cases())
    def test_matches_per_query_reference(self, case):
        data, config, uniform, block_bytes = case
        tensor = make_tensor(data)
        # budgets of 1 and 200 bytes force _fuse_groups and calibration
        # chunks of one and a few queries, and one-row search blocks
        with mock.patch.object(core, "WORK_BYTES", block_bytes or core.WORK_BYTES):
            got = run_dyn_mpf(tensor, config, uniform_weights=uniform)
        records, rows = naive_run_dyn_mpf(data, config, tensor.names, uniform)
        got_json = [r.to_json_dict(tensor.names) for r in got.records]
        assert json.dumps(got_json, sort_keys=True) == json.dumps(records, sort_keys=True)
        assert np.array_equal(got.fused, rows, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(dyn_cases(runs=True))
    def test_runs_of_blocks_match_per_query_reference(self, case):
        data, config, uniform, block_bytes = case
        tensor = make_tensor(data)
        # as above: every chunk and search block of run_dyn_mpf shrinks
        with mock.patch.object(core, "WORK_BYTES", block_bytes or core.WORK_BYTES):
            got = run_dyn_mpf(tensor, config, uniform_weights=uniform)
        records, rows = naive_run_dyn_mpf(data, config, tensor.names, uniform)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_checks_run_in_single_query_order(self, uniform):
        # D=4, r=2: a window covers all four entries unless its argmax is 0 or 3
        data = np.array([
            [[0, 0, 0, 1], [0, 1, 0, .9], [0, .9, 1, 0], [5, 5, 5, 5], [0, 0, 0, 1]],
            [[0, 0, 0, 1], [0, 0, 1, .95], [0, 1, .5, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            [[1, 2, 3, 4], [3, 3, 3, 3], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]],
        ])
        tensor = make_tensor(data)
        config = FusionConfig(r_window=2, frame_separation_f=5, max_subset_size=2)
        got = run_dyn_mpf(tensor, config, uniform_weights=uniform)
        records, rows = naive_run_dyn_mpf(data, config, tensor.names, uniform)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)
        assert got.records[0].subset == (0, 1)
        window = "WindowCoversAllError: exclusion window +/-2 around index"
        assert [r.error for r in got.records] == [
            None,
            # both members' windows cover all; the first member's is reported
            None if uniform else f"{window} 1 covers all 4 entries",
            # fused (argmax 1) before member t0 (argmax 2)
            f"{window} 1 covers all 4 entries",
            # too few usable members before the fused window
            "TooFewTechniquesError: 1 non-degenerate techniques remain in the "
            "cached subset, need at least 2",
            None,
        ]

    def test_match_is_taken_before_standardizing(self):
        # entries 2 and 3 of the fused sum differ by one ulp, and z-scoring
        # rounds them to a tie; the raw sum's argmax is 3
        v = [0.0, 0.00509991924692066, 1 - 2**-53, 1.0, 0.018927570949045156,
             7.993507397041724e-08, 0.004139354815592868, 0.0062761026002645095]
        data = np.tile(np.array(v), (2, 4, 1))
        tensor = make_tensor(data)
        config = FusionConfig(r_window=0, frame_separation_f=2)
        got = run_dyn_mpf(tensor, config, uniform_weights=True)
        z = got.fused[0]
        assert z[2] == z[3]
        assert [r.match_index for r in got.records] == [3, 3, 3, 3]
        records, rows = naive_run_dyn_mpf(data, config, tensor.names, True)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)

    def test_invalid_query_weights_stay_out_of_the_sum(self):
        # with a subnormal epsilon, query 1's covered member would weigh
        # 1/epsilon = inf; the query is invalid, so no sum may see it
        data = np.array([
            [[.5, 0, 0, 1], [0, 1, 0, 0], [.5, 0, 0, 1]],
            [[.5, 0, 0, 1], [.5, 0, 0, 1], [.5, 0, 0, 1]],
        ])
        tensor = make_tensor(data)
        config = FusionConfig(r_window=2, frame_separation_f=3, epsilon=1e-310)
        with np.errstate(over="ignore"):
            got = run_dyn_mpf(tensor, config)
        records, rows = naive_run_dyn_mpf(data, config, tensor.names)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)
        assert [r.valid for r in got.records] == [True, False, True]

    def test_memory_does_not_grow_with_block_length(self, rng):
        # one block of 256 queries: an unchunked (8, 256, 2048) member slab
        # would take 32 MiB
        data = rng.random((8, 256, 2048))
        tensor = make_tensor(data)
        config = FusionConfig(r_window=2, frame_separation_f=256, min_subset_size=8)
        output = 256 * 2048 * 8  # the returned (Q, D) fused rows
        result, _, peak = traced(lambda: run_dyn_mpf(tensor, config))
        assert all(r.valid for r in result.records)
        assert peak - output <= 4 << 20  # measured 2.4 MiB

    def test_float32_tensor_peaks_no_higher(self, rng):
        # the input of test_memory_does_not_grow_with_block_length: each
        # chunk gathers its members from the tensor, in the tensor's dtype
        data = rng.random((8, 256, 2048))
        config = FusionConfig(r_window=2, frame_separation_f=256, min_subset_size=8)
        techniques = [TechniqueId(i, f"t{i}") for i in range(len(data))]
        peaks = []
        for dtype in (np.float32, np.float64):
            tensor = SimilarityTensor(techniques, data.astype(dtype))
            peaks.append(traced(lambda: run_dyn_mpf(tensor, config))[2])
        assert peaks[0] <= peaks[1], [p / 2**20 for p in peaks]


def interleaved_data(rng, queries, d):
    """N = 3 techniques where technique 2 is constant on even queries and
    technique 0 on odd ones: with subsets of size 2, even queries can only
    choose (0, 1) and odd ones (1, 2)."""
    data = rng.random((3, queries, d))
    data[2, ::2] = rng.random((queries + 1) // 2)[:, None]
    data[0, 1::2] = rng.random(queries // 2)[:, None]
    return data


class TestSubsetRuns:
    """All queries whose calibration chose the same subset are fused as one
    group, wherever their blocks lie; a failed calibration's block joins no
    group."""

    def test_blocks_of_one_subset_are_one_group(self, rng):
        # F = 3: blocks 0-2 and 4-5 calibrate on query 0's vectors; every
        # technique is constant at query 9, so block 3's search fails
        data = rng.random((4, 18, 16))
        data[:, [3, 6, 12, 15]] = data[:, [0]]
        data[:, 9] = rng.random((4, 1))
        tensor = make_tensor(data)
        config = FusionConfig(r_window=1, frame_separation_f=3)
        with mock.patch.object(engine, "_fuse_block", wraps=engine._fuse_block) as spy:
            got = run_dyn_mpf(tensor, config)
        subset = got.records[0].subset
        assert [(call.args[2], call.args[4].tolist()) for call in spy.call_args_list] == [
            (subset, [*range(9), *range(12, 18)])]
        for q in (9, 10, 11):
            assert not got.records[q].valid
            assert got.records[q].error.startswith("TooFewTechniquesError")
        records, rows = naive_run_dyn_mpf(data, config, tensor.names)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_interleaved_subsets_are_two_groups(self, rng, uniform):
        data = interleaved_data(rng, 12, 16)
        tensor = make_tensor(data)
        config = FusionConfig(r_window=1, frame_separation_f=1, max_subset_size=2)
        with mock.patch.object(engine, "_fuse_block", wraps=engine._fuse_block) as spy:
            got = run_dyn_mpf(tensor, config, uniform_weights=uniform)
        assert [(call.args[2], call.args[4].tolist()) for call in spy.call_args_list] == [
            ((0, 1), list(range(0, 12, 2))), ((1, 2), list(range(1, 12, 2)))]
        records, rows = naive_run_dyn_mpf(data, config, tensor.names, uniform)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)

    def test_memory_of_long_interleaved_groups(self, rng):
        # two groups of 128 non-consecutive queries each; an unchunked
        # (2, 128, 4096) member slab would take 8 MiB
        data = interleaved_data(rng, 256, 4096)
        tensor = make_tensor(data)
        config = FusionConfig(r_window=2, frame_separation_f=1, max_subset_size=2)
        output = 256 * 4096 * 8  # the returned (Q, D) fused rows
        result, _, peak = traced(lambda: run_dyn_mpf(tensor, config))
        assert [r.subset for r in result.records] == [(0, 1), (1, 2)] * 128
        assert all(r.valid for r in result.records)
        assert peak - output <= 4 << 20  # measured 3.3 MiB

    @pytest.mark.parametrize("block_bytes", [1, 200])
    def test_calibration_inside_a_chunk_keeps_its_search(self, rng, block_bytes):
        # one group of 12 queries; a 200-byte budget makes _fuse_groups
        # chunks of 3 queries' (2, 4) members, so the calibrations at 4 and
        # 10 sit inside chunks
        data = rng.random((3, 12, 4))
        data[:, 2::2] = data[:, [0]]
        tensor = make_tensor(data)
        config = FusionConfig(r_window=0, frame_separation_f=2, max_subset_size=2)
        with mock.patch.object(core, "WORK_BYTES", block_bytes), \
                mock.patch.object(engine, "_fuse_block", wraps=engine._fuse_block) as spy:
            got = run_dyn_mpf(tensor, config)
        chunks = [call.args[4].tolist() for call in spy.call_args_list]
        assert len(chunks) == 12 // (3 if block_bytes == 200 else 1)
        subset = got.records[0].subset
        for record in got.records:
            assert record.valid and record.subset == subset
            if record.query % 2 == 0:
                normalized, degenerate = normalize_query_slices(
                    tensor.query_slices(record.query))
                search = select_best_subset(normalized, config, degenerate)
                assert record.ratio_score == search.score
                assert record.techniques_touched == (0, 1, 2)
            else:
                assert record.techniques_touched == subset
        records, rows = naive_run_dyn_mpf(data, config, tensor.names)
        assert [r.to_json_dict(tensor.names) for r in got.records] == records
        assert np.array_equal(got.fused, rows, equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(dyn_cases(), dyn_cases(runs=True)))
    def test_calibration_ratio_is_its_search_score(self, case):
        data, config, uniform, block_bytes = case
        tensor = make_tensor(data)
        searches = {}
        # a small budget puts calibrations inside _fuse_groups chunks
        with mock.patch.object(core, "WORK_BYTES", block_bytes or core.WORK_BYTES):
            got = run_dyn_mpf(tensor, config, uniform_weights=uniform, searches=searches)
        r, d = config.r_window, data.shape[2]
        for q, search in searches.items():
            record = got.records[q]
            if isinstance(search, str):
                assert record.error == search
            elif record.valid:
                assert record.ratio_score == search.score
            else:
                # never too few members nor the fused window: only the
                # first member, in subset order, whose window covers it
                assert not uniform
                members = minmax_rows(data[list(search.subset), q])[0]
                _, best, covered = ratio_rows(members, r, config.epsilon)
                at = int(best[covered.argmax()])
                assert covered.any()
                assert record.error == f"WindowCoversAllError: {window_error(r, at, d)}"

    def test_shared_searches_are_reused_and_filled(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 30, 12, constant_prob=0.3))
        searches = {}
        run_dyn_mpf(tensor, FusionConfig(r_window=1, frame_separation_f=5),
                    searches=searches)
        assert sorted(searches) == list(range(0, 30, 5))
        config = FusionConfig(r_window=1, frame_separation_f=3)
        with mock.patch.object(engine, "select_best_subsets",
                               wraps=engine.select_best_subsets) as spy:
            shared = run_dyn_mpf(tensor, config, searches=searches)
        assert searched_queries(spy) == 8  # 0 and 15 were searched at F = 5
        assert sorted(searches) == sorted({*range(0, 30, 5), *range(0, 30, 3)})
        fresh = run_dyn_mpf(tensor, config)
        assert shared.records == fresh.records
        assert np.array_equal(shared.fused, fresh.fused, equal_nan=True)


def searched_queries(spy) -> int:
    """How many queries the calls a spy on select_best_subsets saw searched."""
    return sum(call.args[0].shape[1] for call in spy.call_args_list)


def searched_alone(tensor, config, starts):
    """{calibration: search} at ``starts``, each calibration normalized on
    its own by normalize_query_slices; a failed search is its error text."""
    searches = {}
    for q in starts:
        normalized, degenerate = normalize_query_slices(tensor.query_slices(q))
        try:
            searches[q] = select_best_subset(normalized, config, degenerate)
        except (WindowCoversAllError, TooFewTechniquesError) as exc:
            searches[q] = f"{type(exc).__name__}: {exc}"
    return searches


def exact(searches):
    """The searches with every score as its exact bits."""
    return {q: s if isinstance(s, str) else (s.subset, s.score.hex())
            for q, s in searches.items()}


class TestCalibrationNormalization:
    """run_dyn_mpf normalizes the calibrations it searches together, in
    chunks of a quarter of core.WORK_BYTES; searches and runs equal those of
    each calibration normalized alone, bit for bit."""

    def run_both(self, tensor, configs, calibration_bytes=None):
        """Runs ``configs`` in order, sharing one searches dict as the sweep
        does, and checks them against the same runs given searches made one
        calibration at a time. Returns the runs and the searches.
        ``calibration_bytes`` sizes the calibration chunks: the budget is
        four times it."""
        searches = {}
        with mock.patch.object(core, "WORK_BYTES",
                               4 * calibration_bytes if calibration_bytes
                               else core.WORK_BYTES):
            got = [run_dyn_mpf(tensor, config, searches=searches) for config in configs]
        alone = {}
        for config in configs:
            starts = range(0, tensor.queries, config.frame_separation_f)
            alone.update(searched_alone(tensor, config, [q for q in starts if q not in alone]))
        assert exact(searches) == exact(alone)
        for config, result in zip(configs, got):
            expected = run_dyn_mpf(tensor, config, searches=dict(alone))
            assert result.records == expected.records
            assert np.array_equal(result.fused, expected.fused, equal_nan=True)
        return got, searches

    def test_technique_constant_at_a_calibration(self, rng):
        data = rng.random((4, 12, 30))
        data[1, 0] = 0.3
        data[2, 6] = -0.0
        got, searches = self.run_both(make_tensor(data), [
            FusionConfig(r_window=1, frame_separation_f=3)])
        assert 1 not in searches[0].subset and 2 not in searches[6].subset
        assert all(record.valid for record in got[0].records)

    def test_too_few_usable_techniques_at_a_calibration(self, rng):
        data = rng.random((4, 12, 30))
        data[:3, 4] = rng.random((3, 1))
        got, searches = self.run_both(make_tensor(data), [
            FusionConfig(r_window=1, frame_separation_f=2)])
        assert searches[4].startswith("TooFewTechniquesError")
        assert [r.error for r in got[0].records[4:6]] == [searches[4]] * 2
        assert all(r.valid for r in got[0].records if r.query not in (4, 5))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_dtype(self, rng, dtype):
        data = rng.random((5, 9, 40))
        data[:, 3, :len(FLOAT32_EDGES)] = FLOAT32_EDGES  # ranges near float32's ends
        data[3, 5] = 7.0
        techniques = [TechniqueId(i, f"t{i}") for i in range(len(data))]
        tensor = SimilarityTensor(techniques, data.astype(dtype))
        self.run_both(tensor, [FusionConfig(r_window=2, frame_separation_f=1)])

    def test_queries_not_a_multiple_of_the_chunk(self, rng):
        # chunks of 3 calibrations: 3, 3, 3 and 1 of the 10
        n, d = 4, 24
        tensor = make_tensor(rng.random((n, 10, d)))
        config = FusionConfig(r_window=1, frame_separation_f=1, max_subset_size=2)
        with mock.patch.object(engine, "minmax_rows", wraps=engine.minmax_rows) as spy:
            self.run_both(tensor, [config], calibration_bytes=3 * 8 * n * d)
        # the runner's own calls; _fuse_block's gather at most 2 techniques
        chunks = [call.args[0].shape[1] for call in spy.call_args_list
                  if call.args[0].shape[0] == n]
        assert chunks == [3, 3, 3, 1]

    def test_searches_shared_across_f(self, rng):
        # F = 5, then 2 (searches 2, 4, 6, 8, 12, ...), then 1
        data = rng.random((4, 23, 16))
        data[0, 6] = 0.5
        data[1:, 12] = 0.25
        configs = [FusionConfig(r_window=1, frame_separation_f=f) for f in (5, 2, 1)]
        with mock.patch.object(engine, "select_best_subsets",
                               wraps=engine.select_best_subsets) as spy:
            _, searches = self.run_both(make_tensor(data), configs,
                                        calibration_bytes=2 * 8 * 4 * 16)
        assert sorted(searches) == list(range(23))
        assert searched_queries(spy) == 23

    def test_memory_at_f_one_does_not_grow_with_queries(self, rng):
        # every query calibrates; normalized at once, 96 calibrations of
        # (5, 1000) would hold 3.7 MiB. Each query repeats query 0, so all
        # choose one subset, and a 64 KiB budget's _fuse_groups chunks fill at
        # either Q (its calibration chunks hold one query).
        config = FusionConfig(r_window=2, frame_separation_f=1)
        held = []
        for queries in (24, 96):
            tensor = make_tensor(np.repeat(rng.random((5, 1, 1000)), queries, axis=1))
            with mock.patch.object(core, "WORK_BYTES", 64 << 10):
                result, current, peak = traced(lambda: run_dyn_mpf(tensor, config))
            assert all(r.valid for r in result.records)
            held.append(peak - current)  # beyond the records and rows it returns
        assert held[1] <= held[0] + (64 << 10), held


@st.composite
def baseline_cases(draw):
    """Small tensors for the five baselines: quantized values (ties), signed
    zeros, constant member rows up to whole constant queries, any window,
    random static subsets and tier splits (empty tiers too), ground truth
    with unevaluable queries, and forced one- and few-query chunks."""
    n = draw(st.integers(1, 5))
    queries = draw(st.integers(1, 14))
    d = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 3, 8, 1000]))
    data = rng.integers(-levels, levels + 1, size=(n, queries, d)) / levels
    zeros = data == 0.0
    data[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    constant = rng.random((n, queries)) < draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    data[constant] = rng.choice([-0.0, 0.0, 0.5], size=int(constant.sum()))[:, None]
    config = FusionConfig(r_window=draw(st.integers(0, d - 1)),
                          rng_seed=draw(st.integers(0, 2**16)))
    subset = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    cuts = sorted(rng.integers(0, n + 1, size=draw(st.integers(0, 2))).tolist())
    order = rng.permutation(n).tolist()
    tiers = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    fractions = [draw(st.sampled_from([0.01, 0.1, 0.3, 0.5, 1.0])) for _ in tiers[1:]]
    gt = [sorted(rng.choice(d, size=int(rng.integers(0, min(d, 3) + 1)), replace=False).tolist())
          for _ in range(queries)]
    gt[0] = gt[0] or [0]
    return (data, config, subset, tiers, fractions, gt,
            draw(st.sampled_from([None, 1, 200])))


def assert_same_run(got, names, expected):
    records, rows = expected
    got_json = [r.to_json_dict(names) for r in got.records]
    assert json.dumps(got_json, sort_keys=True) == json.dumps(records, sort_keys=True)
    assert np.array_equal(got.fused, rows, equal_nan=True)


class TestBaselineParity:
    """The batched baselines against their query-by-query references."""

    @settings(max_examples=300, deadline=None)
    @given(baseline_cases())
    def test_matches_per_query_reference(self, case):
        data, config, subset, tiers, fractions, gt_lists, block_bytes = case
        tensor = make_tensor(data)
        names = tensor.names
        n, queries, d = data.shape
        gt = GroundTruth.from_lists(gt_lists, d)
        # budgets of 1 and 200 bytes force _fuse_groups chunks of one and a
        # few queries
        with mock.patch.object(core, "WORK_BYTES", block_bytes or core.WORK_BYTES):
            assert_same_run(run_full_mpf(tensor, config), names, naive_run_simple_sum(
                data, config, [tuple(range(n))] * queries, names))
            assert_same_run(run_static_subset(tensor, config, subset), names,
                            naive_run_simple_sum(data, config, [tuple(subset)] * queries,
                                                 names))
            assert_same_run(
                run_hier_mpf(tensor, config, tiers=tiers, shortlist_fractions=fractions),
                names, naive_run_hier_mpf(data, config, tiers, fractions, names))
            oracle = run_best_single_oracle(tensor, config, gt)
            best, recall = naive_best_single(data, [set(e) for e in gt_lists])
            assert oracle.params == {"technique": names[best], "oracle_recall_at_1": recall}
            assert_same_run(oracle, names, naive_run_simple_sum(
                data, config, [(best,)] * queries, names))
            if n < 2:
                with pytest.raises(TooFewTechniquesError):
                    run_random_pair(tensor, config)
            else:
                assert_same_run(run_random_pair(tensor, config), names, naive_run_simple_sum(
                    data, config, naive_random_pairs(data, config.rng_seed), names))
        size = len(subset)
        assert oracle_best_static_subset(tensor, gt, size) == naive_best_static_subset(
            data, [set(e) for e in gt_lists], size)

    def test_constant_query_is_invalid(self):
        # query 1: every technique constant; query 2: only technique 0
        data = np.array([
            [[0, 1, 0, 0], [2, 2, 2, 2], [3, 3, 3, 3]],
            [[0, .5, 0, 0], [5, 5, 5, 5], [0, 0, 1, 0]],
        ], dtype=float)
        tensor = make_tensor(data)
        config = FusionConfig(r_window=0)
        error = "TooFewTechniquesError: 0 non-constant techniques among the {} fused, need at least 1"
        for result, k in [
            (run_full_mpf(tensor, config), 2),
            (run_hier_mpf(tensor, config, tiers=[[0], [1]], shortlist_fractions=[0.5]), 2),
            (run_static_subset(tensor, config, (0,)), 1),
        ]:
            assert [r.valid for r in result.records] == [True, False, k == 2]
            assert [r.match_index for r in result.records][:2] == [1, -1]
            assert result.records[1].error == error.format(k)
            assert np.isnan(result.fused[1]).all()
        assert run_full_mpf(tensor, config).records[2].match_index == 2

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 60), st.sampled_from([1, 2, 5, 1000]),
           st.integers(0, 2**32 - 1))
    def test_descending_order_is_the_stable_argsort(self, rows, cols, levels, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-levels, levels + 1, size=(rows, cols)) / levels
        zeros = x == 0.0
        x[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        x[rng.random(x.shape) < 0.05] = np.inf
        x[rng.random(x.shape) < 0.05] = -np.inf
        expected = np.argsort(-x, axis=1, kind="stable")
        assert np.array_equal(engine._descending_order(x), expected)

    def test_memory_does_not_grow_with_queries(self, rng):
        # an (N, Q, D) normalized copy of this tensor takes 32 MiB
        data = rng.random((4, 512, 2048))
        tensor = make_tensor(data)
        gt = GroundTruth.from_indices(np.arange(512), 2, 2048)
        config = FusionConfig(r_window=2)
        output = 512 * 2048 * 8  # the returned (Q, D) fused rows
        runners = {
            "full-mpf": lambda: run_full_mpf(tensor, config),
            "static-subset": lambda: run_static_subset(tensor, config, (0, 2, 3)),
            "random-pair": lambda: run_random_pair(tensor, config),
            "hier-mpf": lambda: run_hier_mpf(tensor, config),
            "best-single-oracle": lambda: run_best_single_oracle(tensor, config, gt),
        }
        for name, run in runners.items():
            result, _, peak = traced(run)
            assert all(r.valid for r in result.records), name
            assert peak - output <= 6 << 20, name  # measured 2.3-5.3 MiB


@st.composite
def float32_cases(draw):
    """float32 tensors of ordinary values at any scale, mixed with values
    near +-3.4e38, subnormals and signed zeros, plus constant rows; a run
    on them, ground truth and the knobs each strategy takes."""
    n = draw(st.integers(2, 4))
    queries = draw(st.integers(1, 10))
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-42, 1.0, 1e37]))
    data = (rng.standard_normal((n, queries, d)) * scale).astype(np.float32)
    edges = rng.random(data.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    data[edges] = rng.choice(FLOAT32_EDGES, size=int(edges.sum()))
    constant = rng.random((n, queries)) < draw(st.sampled_from([0.0, 0.3]))
    data[constant] = rng.choice(FLOAT32_EDGES, size=int(constant.sum()))[:, None]
    config = FusionConfig(r_window=draw(st.integers(0, d - 1)),
                          frame_separation_f=draw(st.sampled_from([1, 2, 3])),
                          rng_seed=draw(st.integers(0, 2**16)),
                          tie_break=draw(st.sampled_from(TIE_BREAKS)))
    subset = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
    gt = [sorted(rng.choice(d, size=int(rng.integers(0, min(d, 3) + 1)), replace=False).tolist())
          for _ in range(queries)]
    gt[0] = gt[0] or [0]
    return data, config, subset, GroundTruth.from_lists(gt, d)


class TestFloat32Parity:
    """A float32 tensor gives the same results, bit for bit, as its values
    cast to float64: every strategy reads raw values only through
    minmax_rows or exact comparisons."""

    @settings(max_examples=200, deadline=None)
    @given(float32_cases())
    def test_every_strategy_equals_the_float64_cast(self, case):
        data, config, subset, gt = case
        techniques = [TechniqueId(i, f"t{i}") for i in range(len(data))]
        tensors = [SimilarityTensor(techniques, data.astype(dtype))
                   for dtype in (np.float32, np.float64)]
        runs = {
            "dyn-mpf": lambda t: run_dyn_mpf(t, config),
            "dyn-mpf uniform": lambda t: run_dyn_mpf(t, config, uniform_weights=True),
            "full-mpf": lambda t: run_full_mpf(t, config),
            "static-subset": lambda t: run_static_subset(t, config, subset),
            "random-pair": lambda t: run_random_pair(t, config),
            "hier-mpf": lambda t: run_hier_mpf(t, config),
            "best-single-oracle": lambda t: run_best_single_oracle(t, config, gt),
        }
        for name, run in runs.items():
            with np.errstate(over="raise"):  # np.ptp overflows float32 here
                got, want = (run(t) for t in tensors)
            assert got.records == want.records, name
            assert got.params == want.params, name
            assert got.fused.tobytes() == want.fused.tobytes(), name
            got_recall, want_recall = (recall_at_k(r, r.fused, gt, ks=[1, 2])
                                       for r in (got, want))
            assert got_recall == want_recall, name
        got, want = (frame_separation_sweep(t, gt, config, [1, 2, 5]) for t in tensors)
        assert got == want


class TestFullMpf:
    def test_single_technique_edge(self, rng):
        data = random_tensor_data(rng, 1, 6, 15)
        tensor = make_tensor(data)
        cfg = FusionConfig(r_window=1, min_subset_size=2, max_subset_size=None)
        res = run_full_mpf(tensor, cfg)
        assert matches(res) == [int(np.argmax(data[0, q])) for q in range(6)]

    def test_adversarial_technique_flips_full_but_not_dyn(self):
        # one strong supporter, one weak supporter, and a correlated
        # two-peak pair that drags the unweighted sum to its shared site
        gt_idx = 1
        strong = [0.0, 1.0, 0.0, 0.3, 0.0, 0.0, 0.0]
        weak = [0.0, 0.55, 0.0, 0.0, 1.0, 0.95, 0.0]
        junk_a = [0.0, 0.0, 0.0, 0.0, 1.0, 0.95, 0.0]
        junk_b = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        data = np.array([[strong], [weak], [junk_a], [junk_b]])
        tensor = make_tensor(data)
        cfg = FusionConfig(r_window=0)
        full = run_full_mpf(tensor, cfg)
        dyn = run_dyn_mpf(tensor, cfg)
        assert matches(full) == [4]      # shared junk site wins the plain sum
        assert matches(dyn) == [gt_idx]  # selection avoids the correlated pair


class TestRandomPair:
    def test_seeded_determinism(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 5, 30, 20))
        cfg = FusionConfig(r_window=1, rng_seed=99)
        a = run_random_pair(tensor, cfg)
        b = run_random_pair(tensor, cfg)
        assert matches(a) == matches(b)
        assert [r.subset for r in a.records] == [r.subset for r in b.records]

    def test_two_techniques_equals_full(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 2, 10, 20))
        cfg = FusionConfig(r_window=1)
        assert matches(run_random_pair(tensor, cfg)) == matches(
            run_full_mpf(tensor, cfg)
        )

    def test_pair_histogram_uniform(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 5, 10_000, 8))
        res = run_random_pair(tensor, FusionConfig(r_window=0, rng_seed=7))
        counts = {}
        for rec in res.records:
            counts[rec.subset] = counts.get(rec.subset, 0) + 1
        assert len(counts) == 10  # C(5, 2)
        _, p = stats.chisquare(list(counts.values()))
        assert p > 0.01

    def test_degenerate_excluded_from_draw(self, rng):
        data = random_tensor_data(rng, 3, 50, 15)
        data[0, :, :] = 0.2
        tensor = make_tensor(data)
        res = run_random_pair(tensor, FusionConfig(r_window=1))
        assert all(rec.subset == (1, 2) for rec in res.records)

    def test_too_few_techniques(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 1, 5, 10))
        with pytest.raises(TooFewTechniquesError):
            run_random_pair(tensor, FusionConfig(r_window=1))


class TestHierMpf:
    def test_paper_style_split_sizes(self):
        tiers = default_tiers(10, rng_seed=3)
        assert [len(t) for t in tiers] == [3, 3, 4]
        assert sorted(i for t in tiers for i in t) == list(range(10))

    def test_unit_fractions_match_full_mpf(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 12, 30))
        cfg = FusionConfig(r_window=1)
        hier = run_hier_mpf(tensor, cfg, shortlist_fractions=(1.0, 1.0))
        full = run_full_mpf(tensor, cfg)
        assert matches(hier) == matches(full)

    def test_shortlist_clamped_to_one(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 6, 5))
        cfg = FusionConfig(r_window=1)
        res = run_hier_mpf(tensor, cfg, shortlist_fractions=(0.01, 0.01))
        assert all(r.valid for r in res.records)
        assert all(0 <= r.match_index < 5 for r in res.records)

    def test_tiers_must_partition(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 3, 10))
        cfg = FusionConfig(r_window=1)
        with pytest.raises(ConfigError):
            run_hier_mpf(tensor, cfg, tiers=[[0, 1], [1, 2, 3]])
        with pytest.raises(ConfigError):
            run_hier_mpf(tensor, cfg, tiers=[[0, 1], [2]])

    def test_fraction_count_validated(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 3, 10))
        with pytest.raises(ConfigError):
            run_hier_mpf(tensor, FusionConfig(r_window=1),
                         shortlist_fractions=(0.5,))

    def test_ranking_covers_database(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 5, 12))
        res = run_hier_mpf(tensor, FusionConfig(r_window=1))
        for q in range(5):
            order = np.argsort(-res.fused[q], kind="stable")
            assert sorted(order.tolist()) == list(range(12))
            assert int(order[0]) == res.records[q].match_index


    @pytest.mark.parametrize("levels, fractions, tiers", [
        (3, (0.1, 0.1), None),
        (2, (0.5, 0.3), None),
        (4, (0.01, 1.0), None),
        (3, (0.25,), [[0, 2], [1, 3]]),
        (5, (), [[0, 1, 2, 3]]),
    ])
    def test_ranking_matches_loop_reference(self, rng, levels, fractions, tiers):
        # few distinct values: many tied scores at every shortlist cut
        data = rng.integers(0, levels, size=(4, 9, 37)) / (levels - 1)
        data[1, 2] = 0.5  # one constant vector
        tensor = make_tensor(data)
        res = run_hier_mpf(tensor, FusionConfig(r_window=1, rng_seed=3),
                           tiers=tiers, shortlist_fractions=fractions)
        used = tiers or default_tiers(4, 3)
        for q in range(9):
            expected = naive_hier_rank_scores(
                [data[m, q].tolist() for m in range(4)], used, fractions
            )
            assert res.fused[q].tolist() == expected


class TestStaticSubset:
    def test_all_equals_full(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 4, 10, 20))
        cfg = FusionConfig(r_window=1)
        assert matches(run_static_subset(tensor, cfg, (0, 1, 2, 3))) == matches(
            run_full_mpf(tensor, cfg)
        )

    def test_singleton_is_single_technique(self, rng):
        data = random_tensor_data(rng, 3, 8, 15)
        tensor = make_tensor(data)
        res = run_static_subset(tensor, FusionConfig(r_window=1), (1,))
        assert matches(res) == [int(np.argmax(data[1, q])) for q in range(8)]

    def test_empty_subset_rejected(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 4, 10))
        with pytest.raises(ConfigError):
            run_static_subset(tensor, FusionConfig(r_window=1), ())

    @pytest.mark.parametrize("member", [1.7, 1.0, np.float64(1.0), True])
    def test_non_integer_member_rejected(self, rng, member):
        # int() would run (0, 1.7) as (0, 1) and (0, True) as (0, 1)
        tensor = make_tensor(random_tensor_data(rng, 3, 4, 10))
        with pytest.raises(ConfigError, match="integers") as raised:
            run_static_subset(tensor, FusionConfig(r_window=1), (0, member))
        assert raised.value.field == "subset"
        assert run_static_subset(tensor, FusionConfig(r_window=1), (0, np.int64(2))).records


class TestOracles:
    def test_perfect_technique_wins(self, rng):
        data = random_tensor_data(rng, 3, 10, 20)
        gt_indices = [int(i) for i in rng.integers(0, 20, size=10)]
        for q, g in enumerate(gt_indices):
            data[1, q, :] = 0.0
            data[1, q, g] = 1.0
        tensor = make_tensor(data)
        gt = GroundTruth.from_indices(gt_indices, 0, 20)
        tech, recall = oracle_best_single(tensor, gt)
        assert tech.index == 1
        assert recall == 1.0

    def test_tie_goes_to_lowest_index(self, rng):
        row = random_tensor_data(rng, 1, 10, 20)
        data = np.repeat(row, 3, axis=0)
        tensor = make_tensor(data)
        gt = GroundTruth.from_indices(
            [int(np.argmax(row[0, q])) for q in range(10)], 0, 20
        )
        tech, recall = oracle_best_single(tensor, gt)
        assert tech.index == 0
        assert recall == 1.0

    def test_matches_naive_recall_scan(self, rng):
        data = random_tensor_data(rng, 4, 30, 25)
        tensor = make_tensor(data)
        gt_lists = [
            sorted(int(i) for i in rng.choice(25, size=3, replace=False))
            for _ in range(30)
        ]
        gt = GroundTruth.from_lists(gt_lists, 25)
        _, recall = oracle_best_single(tensor, gt)
        naive_best = max(
            naive_recall_at_1(
                [int(np.argmax(data[n, q])) for q in range(30)],
                [set(e) for e in gt_lists],
            )
            for n in range(4)
        )
        assert recall == pytest.approx(naive_best)

    def test_best_static_pair_matches_exhaustive_scan(self, complementary,
                                                      fixture_config):
        tensor, gt = complementary
        subset, recall = oracle_best_static_subset(tensor, gt, size=2)
        best = -1.0
        for a in range(4):
            for b in range(a + 1, 4):
                res = run_static_subset(tensor, fixture_config, (a, b))
                r = recall_at_k(res, res.fused, gt, [1]).recall_at[1]
                best = max(best, r)
        assert recall == pytest.approx(best)

    def test_best_single_oracle_strategy_runs(self, complementary,
                                              fixture_config):
        tensor, gt = complementary
        res = run_best_single_oracle(tensor, fixture_config, gt)
        assert res.strategy == "best-single-oracle"
        assert res.params["technique"] in ("comp-a", "comp-b")
        assert all(len(r.subset) == 1 for r in res.records)

    def test_best_static_quadruplet_degenerates_to_full_set(self, complementary):
        tensor, gt = complementary
        subset, recall = oracle_best_static_subset(tensor, gt, size=4)
        assert subset == (0, 1, 2, 3)
        assert 0.0 <= recall <= 1.0

    def test_invalid_size_rejected(self, complementary):
        tensor, gt = complementary
        with pytest.raises(ValueError):
            oracle_best_static_subset(tensor, gt, size=5)


class TestRecordContents:
    def test_dyn_records_carry_fusion_stats(self, complementary, fixture_config):
        tensor, _ = complementary
        res = run_dyn_mpf(tensor, fixture_config)
        rec = res.records[0]
        assert np.isfinite(rec.fused_mean)
        assert np.isfinite(rec.fused_std)
        assert rec.ratio_score > 1.0
        assert set(rec.weights) == set(rec.subset)
        assert all(w >= 0.0 for w in rec.weights.values())

    def test_records_sorted_one_per_query(self, complementary, fixture_config):
        tensor, _ = complementary
        res = run_dyn_mpf(tensor, fixture_config, workers=4)
        assert [r.query for r in res.records] == list(range(tensor.queries))


class TestUfuncBufferSize:
    """The per-row ops of every runner scope numpy's ufunc buffer size to
    themselves (core.per_row); the caller's size is there after the run."""

    RUNNERS = {
        "dyn-mpf": lambda t, c, gt: run_dyn_mpf(t, c),
        "dyn-mpf-f3": lambda t, c, gt: run_dyn_mpf(
            t, FusionConfig(r_window=c.r_window, frame_separation_f=3)),
        "full-mpf": lambda t, c, gt: run_full_mpf(t, c),
        "random-pair": lambda t, c, gt: run_random_pair(t, c),
        "hier-mpf": lambda t, c, gt: run_hier_mpf(t, c),
        "static-subset": lambda t, c, gt: run_static_subset(t, c, (0, 2)),
        "best-single-oracle": lambda t, c, gt: run_best_single_oracle(t, c, gt),
    }

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("caller", [8192, 2048])
    def test_runner_leaves_the_buffer_size_alone(self, rng, runner, caller):
        data = random_tensor_data(rng, 4, 12, 300, constant_prob=0.3)
        tensor = make_tensor(data)
        gt = GroundTruth.from_indices(range(0, 300, 25), 2, 300)
        size = np.getbufsize()
        np.setbufsize(caller)
        try:
            result = self.RUNNERS[runner](tensor, FusionConfig(r_window=2), gt)
            assert np.getbufsize() == caller
        finally:
            np.setbufsize(size)
        # one write per chunk: NaN exactly in the invalid queries' rows
        invalid = [not r.valid for r in result.records]
        assert np.isnan(result.fused).all(axis=1).tolist() == invalid
        assert not np.isnan(result.fused[~np.array(invalid)]).any()
