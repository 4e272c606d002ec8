import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dynfuse.core import (
    FusionConfig,
    GroundTruth,
    SimilarityTensor,
    TechniqueId,
    argmax_lowest_index,
    as_similarity_vector,
    is_constant,
    minmax_normalize,
    minmax_rows,
    zscore_normalize,
)
from dynfuse.errors import ConfigError
from conftest import FLOAT32_EDGES

finite_vectors = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=40,
)


def test_minmax_affine_example():
    assert np.allclose(minmax_normalize([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])


def test_minmax_constant_returns_zeros():
    out = minmax_normalize([1.0, 1.0, 1.0])
    assert np.array_equal(out, [0.0, 0.0, 0.0])
    assert is_constant([1.0, 1.0, 1.0])
    assert not is_constant([1.0, 2.0, 1.0])
    stack = np.array([[[1.0, 1.0], [0.0, -0.0]], [[3e38, -3e38], [2.0, 1.0]]], np.float32)
    with np.errstate(over="raise"):
        assert is_constant(stack).tolist() == [[True, True], [False, False]]


def test_minmax_hand_evaluated():
    out = minmax_normalize([-3.0, 1.0, 0.0, -1.0])
    assert np.allclose(out, [0.0, 1.0, 0.75, 0.5])


def test_minmax_exact_endpoints():
    out = minmax_normalize([5.0, 7.0, 11.0])
    assert out.min() == 0.0
    assert out.max() == 1.0


@given(finite_vectors, st.floats(min_value=0.05, max_value=50.0),
       st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=150)
def test_minmax_positive_affine_invariance(vec, a, b):
    v = np.asarray(vec)
    if v.max() - v.min() < 1e-3:
        v = v + np.linspace(0.0, 1.0, v.size)  # force a usable spread
    assert np.allclose(
        minmax_normalize(a * v + b), minmax_normalize(v), atol=1e-9
    )


@given(finite_vectors)
@settings(max_examples=100)
def test_minmax_idempotent(vec):
    once = minmax_normalize(vec)
    assert np.allclose(minmax_normalize(once), once, atol=1e-9)


float32_entries = st.one_of(
    st.sampled_from(FLOAT32_EDGES.tolist()),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9),
                  elements=float32_entries))
@settings(max_examples=300)
def test_minmax_rows_float32_equals_its_float64_cast(x32):
    got, got_flat = minmax_rows(x32)
    want, want_flat = minmax_rows(x32.astype(np.float64))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_flat, want_flat)


def test_minmax_rows_zeros_are_positive():
    # min() returns -0.0 or +0.0 by SIMD lane, differently per dtype; a
    # -0.0 input at a zero minimum must not keep its sign in either
    x = np.array([[0.0, -0.0, 1.0] * 11 + [-0.0], [-0.0, 0.0] * 17, [-0.0] * 5 + [0.0] * 29])
    for data in (x, x.astype(np.float32)):
        out, flat = minmax_rows(data)
        assert not np.signbit(out).any()
        assert flat.tolist() == [False, True, True]


def test_zscore_two_point_convention():
    # sample (n-1) standard deviation: [0, 2] standardizes to +/- 1/sqrt(2)
    out = zscore_normalize([0.0, 2.0])
    assert np.allclose(out, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)])


def test_zscore_moments():
    out = zscore_normalize([1.0, 2.0, 3.0, 4.0])
    assert abs(out.mean()) <= 1e-9
    assert abs(out.std(ddof=1) - 1.0) <= 1e-9


def test_zscore_constant_unchanged():
    out = zscore_normalize([3.0, 3.0, 3.0])
    assert np.array_equal(out, [3.0, 3.0, 3.0])


@given(finite_vectors)
@settings(max_examples=150)
def test_zscore_keeps_argmax_maximal(vec):
    # entries one ulp apart may collapse to exact ties after the shift, so
    # the robust property is that the input's argmax still attains the max
    v = np.asarray(vec)
    if is_constant(v):
        v = v + np.linspace(0.0, 1.0, v.size)
    out = zscore_normalize(v)
    assert out[argmax_lowest_index(v)] == out.max()
    assert argmax_lowest_index(out) <= argmax_lowest_index(v)


def test_zscore_preserves_argmax_on_separated_values(rng):
    for _ in range(50):
        v = rng.random(20)
        assert argmax_lowest_index(zscore_normalize(v)) == argmax_lowest_index(v)


def test_argmax_tie_breaks_low():
    assert argmax_lowest_index([0.1, 0.9, 0.9]) == 1
    assert argmax_lowest_index([0.0, 0.0, 0.1]) == 2
    assert argmax_lowest_index([2.0, 2.0, 2.0]) == 0


def test_short_vectors_rejected():
    with pytest.raises(ValueError):
        as_similarity_vector([5.0])
    with pytest.raises(ValueError):
        minmax_normalize([5.0])


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        as_similarity_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_similarity_vector([1.0, float("inf")])


class TestFusionConfig:
    def test_defaults_validate(self):
        FusionConfig().validate(n_techniques=4, database_size=50)

    def test_r_window_must_fit_database(self):
        with pytest.raises(ConfigError):
            FusionConfig(r_window=50).validate(4, 50)

    def test_subset_bounds(self):
        with pytest.raises(ConfigError):
            FusionConfig(min_subset_size=1).validate(4, 50)
        with pytest.raises(ConfigError):
            FusionConfig(max_subset_size=5).validate(4, 50)
        with pytest.raises(ConfigError):
            FusionConfig(min_subset_size=3, max_subset_size=2).validate(4, 50)

    def test_frame_separation_positive(self):
        with pytest.raises(ConfigError):
            FusionConfig(frame_separation_f=0).validate(4, 50)

    def test_unknown_tie_break(self):
        with pytest.raises(ConfigError):
            FusionConfig(tie_break="coin-flip").validate(4, 50)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-12, float("nan"), float("inf")])
    def test_epsilon_positive_and_finite(self, epsilon):
        with pytest.raises(ConfigError):
            FusionConfig(epsilon=epsilon).validate(4, 50)

    def test_negative_rng_seed_rejected(self):
        with pytest.raises(ConfigError) as info:
            FusionConfig(rng_seed=-1).validate(4, 50, require_subsets=False)
        assert info.value.field == "rng_seed"
        FusionConfig(rng_seed=2**64).validate(4, 50)

    def test_round_trips_through_dict(self):
        cfg = FusionConfig(r_window=3, rng_seed=99)
        assert FusionConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            FusionConfig.from_dict({"window": 2})


class TestSimilarityTensor:
    def test_shape_and_names(self, rng):
        data = rng.random((2, 5, 10))
        t = SimilarityTensor(
            [TechniqueId(0, "a"), TechniqueId(1, "b")], data
        )
        assert (t.n_techniques, t.queries, t.database_size) == (2, 5, 10)
        assert t.names == ["a", "b"]

    def test_float32_stays_float32_and_other_dtypes_become_float64(self, rng):
        techniques = [TechniqueId(0, "a")]
        data = rng.random((1, 3, 4), dtype=np.float32)
        assert SimilarityTensor(techniques, data).data is data
        data = rng.random((1, 3, 4))
        assert SimilarityTensor(techniques, data).data is data
        for dtype in (np.float16, ">f4", np.int64):
            got = SimilarityTensor(techniques, data.astype(dtype)).data
            assert got.dtype == np.float64
            assert np.array_equal(got, data.astype(dtype))

    def test_duplicate_names_rejected(self, rng):
        with pytest.raises(ValueError):
            SimilarityTensor(
                [TechniqueId(0, "a"), TechniqueId(1, "a")], rng.random((2, 3, 4))
            )

    def test_non_finite_rejected(self, rng):
        data = rng.random((1, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            SimilarityTensor([TechniqueId(0, "a")], data)

    def test_finiteness_check_allocates_one_technique_mask(self, rng):
        # an (8, 256, 512) float64 tensor: a whole-tensor mask is 1 MiB, one
        # technique's is 128 KiB
        data = rng.random((8, 256, 512))
        data[7, 255, 511] = np.inf
        techniques = [TechniqueId(i, f"t{i}") for i in range(8)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="non-finite"):
                SimilarityTensor(techniques, data)
            data[7, 255, 511] = 0.5
            tracemalloc.reset_peak()
            SimilarityTensor(techniques, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestGroundTruth:
    def test_indices_validated(self):
        with pytest.raises(ValueError):
            GroundTruth.from_lists([[0, 5]], database_size=5)

    @pytest.mark.parametrize("entry", [1.7, 1.0, True, False, "1", None])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="not an integer"):
            GroundTruth.from_lists([[0], [entry]], database_size=5)

    def test_numpy_integer_entries_accepted(self):
        gt = GroundTruth.from_lists([[np.int64(1)], [2]], database_size=5)
        assert gt.acceptable == (frozenset({1}), frozenset({2}))

    def test_tolerance_expansion_clips(self):
        gt = GroundTruth.from_indices([0, 4, 9], tolerance=2, database_size=10)
        assert gt.acceptable[0] == frozenset({0, 1, 2})
        assert gt.acceptable[1] == frozenset({2, 3, 4, 5, 6})
        assert gt.acceptable[2] == frozenset({7, 8, 9})

    def test_hits_broadcast_queries_against_matches(self):
        gt = GroundTruth.from_lists([[0, 1], [3], []], database_size=4)
        hits = gt.hits(np.array([0, 1, 2])[:, None], np.array([[1, 2], [0, 3], [0, 3]]))
        assert hits.tolist() == [[True, False], [False, True], [False, False]]
        assert gt.hits(np.array([1, 0]), np.array([[3, 0], [1, 1]])).tolist() == [
            [True, True], [False, True]]

    def test_index_outside_database_is_never_a_hit(self):
        # D + i would be the next query's index i as a flat key, and -D + i
        # the previous query's
        gt = GroundTruth.from_lists([[1], [1], [2]], database_size=4)
        queries = np.array([0, 1, 2])[:, None]
        matches = np.array([[4 + 1, -1, 1], [-4 + 1, 4 + 2, 1], [-4 + 1, 2 ** 40, 2]])
        assert gt.hits(queries, matches).tolist() == [
            [False, False, True], [False, False, True], [False, False, True]]
        unsigned = np.array([[5, 1], [2 ** 63, 1], [6, 2]], dtype=np.uint64)
        assert gt.hits(queries, unsigned).tolist() == [[False, True]] * 3

    def test_hits_past_the_last_acceptable_pair_or_with_none(self):
        gt = GroundTruth.from_lists([[0], [], [1]], database_size=4)
        assert gt.hits(np.array([2, 2, 0]), np.array([3, 1, 0])).tolist() == [
            False, True, True]
        none = GroundTruth.from_lists([[], []], database_size=4)
        assert none.hits(np.array([0, 1])[:, None], np.array([0, 1])).tolist() == [
            [False, False], [False, False]]

    def test_empty_sets_allowed_but_not_evaluable(self):
        gt = GroundTruth.from_lists([[1], []], database_size=4)
        assert gt.evaluable(0)
        assert not gt.evaluable(1)

    def test_json_round_trip(self, tmp_path):
        gt = GroundTruth.from_lists([[1, 2], [3]], database_size=5)
        path = tmp_path / "gt.json"
        gt.to_json(path)
        again = GroundTruth.from_json(path, database_size=5)
        assert again.acceptable == gt.acceptable
