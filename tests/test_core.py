import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfuse.core import (
    FusionConfig,
    GroundTruth,
    SimilarityTensor,
    TechniqueId,
    argmax_lowest_index,
    as_similarity_vector,
    is_constant,
    minmax_normalize,
    zscore_normalize,
)
from dynfuse.errors import ConfigError

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
