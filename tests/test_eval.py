import csv
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfuse import core, engine, evaluate
from dynfuse.core import FusionConfig, GroundTruth, SelectionRecord
from dynfuse.engine import StrategyResult, run_dyn_mpf, run_full_mpf
from dynfuse.errors import ConfigError, MissingRankingError
from dynfuse.evaluate import (
    _top_k,
    aliasing_histogram,
    frame_separation_sweep,
    recall_at_k,
    write_csv,
    write_histogram_outputs,
    write_recall_outputs,
)
from conftest import random_tensor_data
from reference_impl import argsort_top_k
from test_engine import make_tensor


def make_result(match_indices, fused, ratios=None, valid=None, strategy="full-mpf"):
    records = []
    for q, m in enumerate(match_indices):
        records.append(SelectionRecord(
            query=q, subset=(0, 1), weights={0: 1.0, 1: 1.0},
            ratio_score=None if ratios is None else ratios[q],
            match_index=int(m),
            valid=True if valid is None else valid[q],
        ))
    return StrategyResult(
        strategy=strategy, records=records, config=FusionConfig(),
        fused=np.asarray(fused, dtype=np.float64),
    )


class TestRecallAtK:
    def test_perfect_predictions(self, rng):
        d = 10
        gt_indices = [int(i) for i in rng.integers(0, d, size=6)]
        fused = np.zeros((6, d))
        for q, g in enumerate(gt_indices):
            fused[q, g] = 1.0
        result = make_result(gt_indices, fused)
        gt = GroundTruth.from_indices(gt_indices, 0, d)
        report = recall_at_k(result, fused, gt, [1, 3])
        assert report.recall_at[1] == 1.0
        assert report.recall_at[3] == 1.0

    def test_membership_rule(self):
        fused = np.zeros((1, 8))
        fused[0, 4] = 1.0
        result = make_result([4], fused)
        gt = GroundTruth.from_lists([[3, 4, 5]], 8)
        assert recall_at_k(result, fused, gt, [1]).recall_at[1] == 1.0

    def test_random_rankings_hit_binomial_rate(self, rng):
        q, d = 10_000, 100
        fused = rng.random((q, d))
        gt_indices = [int(i) for i in rng.integers(0, d, size=q)]
        result = make_result([int(np.argmax(fused[i])) for i in range(q)], fused)
        gt = GroundTruth.from_indices(gt_indices, 0, d)
        recall = recall_at_k(result, fused, gt, [1]).recall_at[1]
        sigma = (0.01 * 0.99 / q) ** 0.5
        assert abs(recall - 0.01) < 3 * sigma

    def test_monotone_in_k(self, rng):
        fused = rng.random((50, 30))
        result = make_result([int(np.argmax(fused[i])) for i in range(50)], fused)
        gt_lists = [
            [int(i) for i in rng.choice(30, size=2, replace=False)]
            for _ in range(50)
        ]
        gt = GroundTruth.from_lists(gt_lists, 30)
        ks = [1, 2, 5, 10, 30]
        report = recall_at_k(result, fused, gt, ks)
        values = [report.recall_at[k] for k in ks]
        assert values == sorted(values)

    def test_tie_break_to_lowest_index(self):
        fused = np.array([[0.5, 1.0, 1.0, 0.0]])
        result = make_result([1], fused)
        gt = GroundTruth.from_lists([[1]], 4)
        assert recall_at_k(result, fused, gt, [1]).recall_at[1] == 1.0
        gt2 = GroundTruth.from_lists([[2]], 4)
        report = recall_at_k(result, fused, gt2, [1])
        assert report.recall_at[1] == 0.0  # index 1 outranks tied index 2
        assert recall_at_k(result, fused, gt2, [2]).recall_at[2] == 1.0

    def test_empty_ground_truth_queries_excluded(self, rng):
        fused = rng.random((4, 6))
        result = make_result([0, 1, 2, 3], fused)
        gt = GroundTruth.from_lists([[0], [], [2], [3]], 6)
        report = recall_at_k(result, fused, gt, [1])
        assert report.valid_queries == 3
        assert report.query_indices == [0, 2, 3]

    def test_invalid_records_excluded(self, rng):
        fused = rng.random((4, 6))
        result = make_result([0, 1, 2, 3], fused, valid=[True, False, True, True])
        gt = GroundTruth.from_lists([[0], [1], [2], [3]], 6)
        assert recall_at_k(result, fused, gt, [1]).valid_queries == 3

    def test_integer_rankings_accepted(self):
        rankings = np.array([[2, 0, 1], [1, 0, 2]])
        fused = np.zeros((2, 3))
        result = make_result([2, 1], fused)
        gt = GroundTruth.from_lists([[2], [0]], 3)
        report = recall_at_k(result, rankings, gt, [1, 2])
        assert report.recall_at[1] == 0.5
        assert report.recall_at[2] == 1.0

    def test_integer_rankings_outside_database_never_hit(self):
        # 3 + 1 is query 1's index 1 as a flat key, -3 query 0's index 0
        rankings = np.array([[3 + 1, 2], [-3, 0]])
        result = make_result([0, 0], np.zeros((2, 3)))
        gt = GroundTruth.from_lists([[0], [1]], 3)
        report = recall_at_k(result, rankings, gt, [1, 2])
        assert report.correct_at == {1: [False, False], 2: [False, False]}

    def test_missing_rankings(self, rng):
        fused = rng.random((3, 5))
        result = make_result([0, 0, 0], fused)
        gt = GroundTruth.from_lists([[0], [1], [2]], 5)
        with pytest.raises(MissingRankingError):
            recall_at_k(result, None, gt, [1])
        with pytest.raises(MissingRankingError):
            recall_at_k(result, fused[:2], gt, [1])
        with pytest.raises(MissingRankingError):
            recall_at_k(result, np.array([[0], [1], [2]]), gt, [2])
        with pytest.raises(MissingRankingError):
            recall_at_k(result, fused, gt, [6])  # deeper than the database

    def test_permutation_equivariance(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 12, 20))
        gt_lists = [[int(i) for i in rng.choice(20, size=2, replace=False)]
                    for _ in range(12)]
        gt = GroundTruth.from_lists(gt_lists, 20)
        cfg = FusionConfig(r_window=0)

        perm = rng.permutation(20)
        inverse = np.argsort(perm)
        permuted = make_tensor(tensor.data[:, :, perm])
        gt_perm = GroundTruth.from_lists(
            [[int(inverse[i]) for i in entry] for entry in gt_lists], 20
        )
        for runner in (run_full_mpf, run_dyn_mpf):
            base = runner(tensor, cfg)
            moved = runner(permuted, cfg)
            r1 = recall_at_k(base, base.fused, gt, [1, 5]).recall_at
            r2 = recall_at_k(moved, moved.fused, gt_perm, [1, 5]).recall_at
            assert r1 == r2


# Few distinct values, so ties straddle the K-th place; -0.0 equals 0.0.
QUANTIZED = [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0]
NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def score_rows(draw, non_finite=False):
    rows = draw(st.integers(0, 6))
    d = draw(st.integers(1, 24))
    values = st.sampled_from(QUANTIZED + (NON_FINITE if non_finite else []))
    flat = draw(st.lists(values, min_size=rows * d, max_size=rows * d))
    k = draw(st.integers(1, d))
    return np.array(flat, dtype=np.float64).reshape(rows, d), k


class TestTopK:
    """The top-K by argmax passes equals the stable argsort prefix exactly."""

    @settings(max_examples=120, deadline=None)
    @given(score_rows())
    def test_matches_stable_argsort_on_ties(self, case):
        scores, k = case
        np.testing.assert_array_equal(_top_k(scores, k), argsort_top_k(scores, k))

    @settings(max_examples=80, deadline=None)
    @given(score_rows(non_finite=True))
    def test_matches_stable_argsort_with_non_finite(self, case):
        scores, k = case
        np.testing.assert_array_equal(_top_k(scores, k), argsort_top_k(scores, k))

    @pytest.mark.parametrize("k", [1, 7, 39, 40])
    def test_continuous_scores_k_one_through_d(self, rng, k):
        scores = rng.random((30, 40))
        np.testing.assert_array_equal(_top_k(scores, k), argsort_top_k(scores, k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_finite_rows_whose_sum_overflows(self, k):
        big = np.finfo(np.float64).max
        scores = np.array([[big, 0.5, big, -1.0], [0.5, big, big, 0.5], [0.25, 0.5, 0.25, 1.0]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(scores.sum(axis=1)[:2]).any()
        np.testing.assert_array_equal(_top_k(scores, k), argsort_top_k(scores, k))

    def test_rows_in_several_chunks(self, rng):
        # a budget of 2 rows of 40 float64 entries per _top_k chunk, NaN rows
        # among them
        scores = np.floor(rng.random((9, 40)) * 4)
        scores[[2, 7], 5] = np.nan
        with mock.patch.object(core, "WORK_BYTES", 2 * 8 * 40):
            for k in (1, 6, 39):
                np.testing.assert_array_equal(_top_k(scores, k), argsort_top_k(scores, k))

    def test_nan_rows(self):
        scores = np.array([
            [np.nan, np.nan, np.nan, np.nan],
            [0.5, np.nan, 0.5, 1.0],
            [0.5, 0.25, 0.5, 1.0],
        ])
        for k in (1, 2, 3, 4):
            np.testing.assert_array_equal(
                _top_k(scores, k), argsort_top_k(scores, k)
            )
        assert _top_k(scores, 2).tolist() == [[0, 1], [3, 0], [3, 0]]

    def test_recall_ranks_nan_rows_like_argsort(self):
        fused = np.array([[np.nan, 0.2, 0.2, 0.1], [0.3, 0.3, 0.3, 0.9]])
        result = make_result([1, 3], fused)
        gt = GroundTruth.from_lists([[0], [1]], 4)
        report = recall_at_k(result, fused, gt, [1, 2, 3])
        # row 0 ranks [1, 2, 3, nan]; row 1 ranks [3, 0, 1, 2]
        assert report.correct_at == {1: [False, False], 2: [False, False],
                                     3: [False, True]}


class TestAliasingHistogram:
    def test_all_correct_leaves_incorrect_empty(self):
        fused = np.zeros((3, 5))
        result = make_result([0, 1, 2], fused, ratios=[2.0, 3.0, 4.0])
        gt = GroundTruth.from_lists([[0], [1], [2]], 5)
        hist = aliasing_histogram(result, gt, bins=4)
        assert sum(hist.incorrect_counts) == 0
        assert sum(hist.correct_counts) == 3
        assert hist.mean_ratio_incorrect is None
        assert hist.mean_ratio_correct == pytest.approx(3.0)

    def test_single_bin_totals(self):
        fused = np.zeros((4, 5))
        result = make_result([0, 0, 0, 0], fused, ratios=[1.5, 2.0, 2.5, 3.0])
        gt = GroundTruth.from_lists([[0], [0], [1], [1]], 5)
        hist = aliasing_histogram(result, gt, bins=1)
        assert hist.correct_counts == [2]
        assert hist.incorrect_counts == [2]
        assert hist.valid_queries == 4

    def test_totals_equal_valid_queries(self, complementary, fixture_config):
        tensor, gt = complementary
        res = run_dyn_mpf(tensor, fixture_config)
        hist = aliasing_histogram(res, gt, bins=12)
        assert sum(hist.correct_counts) + sum(hist.incorrect_counts) == \
            hist.valid_queries
        assert hist.valid_queries == 200

    def test_bins_validated(self):
        fused = np.zeros((1, 4))
        result = make_result([0], fused, ratios=[1.0])
        gt = GroundTruth.from_lists([[0]], 4)
        with pytest.raises(ValueError):
            aliasing_histogram(result, gt, bins=0)


class TestFrameSeparationSweep:
    def test_paper_sweep_range(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 25, 20))
        gt = GroundTruth.from_indices(
            [int(i) for i in rng.integers(0, 20, size=25)], 0, 20
        )
        reports = frame_separation_sweep(
            tensor, gt, FusionConfig(r_window=0), [1, 5, 10, 25, 50]
        )
        assert sorted(reports) == [1, 5, 10, 25, 50]

    def test_constant_conditions_flat_recall(self, rng):
        slice_data = random_tensor_data(rng, 3, 1, 30)
        data = np.repeat(slice_data, 20, axis=1)
        tensor = make_tensor(data)
        gt = GroundTruth.from_indices([5] * 20, 1, 30)
        reports = frame_separation_sweep(
            tensor, gt, FusionConfig(r_window=0), [1, 5, 20]
        )
        values = {reports[f].recall_at[1] for f in reports}
        assert len(values) == 1

    def test_non_positive_f_rejected(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 5, 10))
        gt = GroundTruth.from_indices([0] * 5, 0, 10)
        with pytest.raises(ConfigError):
            frame_separation_sweep(tensor, gt, FusionConfig(r_window=0), [0])

    @pytest.mark.parametrize("f_values", [
        [2.5], [True], ["3"], [10, 0], [10, None], [1.0], [np.True_],
        np.array([1.0, 5.0])])
    def test_bad_f_rejected_before_any_run(self, rng, f_values):
        tensor = make_tensor(random_tensor_data(rng, 3, 5, 10))
        gt = GroundTruth.from_indices([0] * 5, 0, 10)
        with mock.patch.object(evaluate, "run_dyn_mpf") as run, \
                pytest.raises(ConfigError) as err:
            frame_separation_sweep(tensor, gt, FusionConfig(r_window=0), f_values)
        assert err.value.field == "f_values"
        run.assert_not_called()

    def test_numpy_integer_f_values(self, rng):
        tensor = make_tensor(random_tensor_data(rng, 3, 25, 20))
        gt = GroundTruth.from_indices([int(i) for i in rng.integers(0, 20, 25)], 0, 20)
        config = FusionConfig(r_window=0)
        results = []

        def run(*args, **kwargs):
            results.append(run_dyn_mpf(*args, **kwargs))
            return results[-1]

        with mock.patch.object(evaluate, "run_dyn_mpf", side_effect=run):
            got = frame_separation_sweep(tensor, gt, config, np.array([1, 5]))
        want = frame_separation_sweep(tensor, gt, config, [1, 5])
        assert [type(f) for f in got] == [int, int]
        assert {f: r.to_json_dict() for f, r in got.items()} == {
            f: r.to_json_dict() for f, r in want.items()}
        for result in results:  # each run's result JSON serializes
            json.dumps(result.to_json_dict(tensor.names))

    @pytest.mark.parametrize("f_values, searches", [
        ((10, 50), 100), ((1, 5, 10, 25, 50), 1000), ((50, 10, 50), 100)])
    def test_each_calibration_query_searched_once(self, rng, f_values, searches):
        tensor = make_tensor(random_tensor_data(rng, 3, 1000, 8))
        gt = GroundTruth.from_indices([int(i) for i in rng.integers(0, 8, 1000)], 0, 8)
        with mock.patch.object(engine, "select_best_subsets",
                               wraps=engine.select_best_subsets) as search:
            frame_separation_sweep(tensor, gt, FusionConfig(r_window=0), f_values)
        assert sum(call.args[0].shape[1] for call in search.call_args_list) == searches

    @pytest.mark.parametrize("f_values", [[50, 1, 10], [5, 25, 5, 1, 25], [7, 7], [3, 2]])
    def test_sweep_equals_independent_runs(self, rng, f_values):
        # constant rows make some calibrations fail and some cached members
        # unusable
        tensor = make_tensor(random_tensor_data(rng, 4, 60, 12, constant_prob=0.3))
        gt = GroundTruth.from_indices([int(i) for i in rng.integers(0, 12, 60)], 1, 12)
        config = FusionConfig(r_window=1)
        results = []

        def run(*args, **kwargs):
            results.append(run_dyn_mpf(*args, **kwargs))
            return results[-1]

        with mock.patch.object(evaluate, "run_dyn_mpf", side_effect=run):
            reports = frame_separation_sweep(tensor, gt, config, f_values)
        assert list(reports) == list(dict.fromkeys(f_values))
        assert len(results) == len(reports)
        for f, shared in zip(reports, results):
            alone = run_dyn_mpf(tensor, replace(config, frame_separation_f=f))
            assert shared.records == alone.records
            assert np.array_equal(shared.fused, alone.fused, equal_nan=True)
            expected = recall_at_k(alone, alone.fused, gt, ks=[1])
            assert reports[f].to_json_dict() == expected.to_json_dict()


class TestEmission:
    def test_recall_outputs(self, tmp_path, rng):
        fused = rng.random((3, 6))
        result = make_result([0, 1, 2], fused)
        gt = GroundTruth.from_lists([[0], [1], [0]], 6)
        report = recall_at_k(result, fused, gt, [1, 5])
        write_recall_outputs(report, tmp_path / "r.json", tmp_path / "r.csv")

        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["strategy"] == "full-mpf"
        assert set(payload["recall_at"]) == {"1", "5"}

        with open(tmp_path / "r.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "K", "recall"]
        assert len(rows) == 3

    def test_histogram_outputs(self, tmp_path):
        fused = np.zeros((2, 4))
        result = make_result([0, 1], fused, ratios=[1.2, 3.4])
        gt = GroundTruth.from_lists([[0], [0]], 4)
        hist = aliasing_histogram(result, gt, bins=2)
        write_histogram_outputs(hist, tmp_path / "h.csv", tmp_path / "h.json")
        with open(tmp_path / "h.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "correct", "incorrect"]
        assert len(rows) == 3
        payload = json.loads((tmp_path / "h.json").read_text())
        assert payload["valid_queries"] == 2

    def test_float_csv_cells_round_trip(self, tmp_path):
        write_csv(tmp_path / "x.csv", ["a"], [[0.1 + 0.2]])
        with open(tmp_path / "x.csv") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][0]) == 0.1 + 0.2
