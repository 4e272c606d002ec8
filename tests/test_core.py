import math

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
    per_row,
    row_moments,
    zscore_normalize,
    zscore_rows,
)
from dynfuse.errors import ConfigError
from conftest import FLOAT32_EDGES, traced

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


def old_minmax_rows(data):
    """minmax_rows as one broadcast add with a float64 dtype."""
    lo = data.min(axis=-1, keepdims=True).astype(np.float64)
    span = data.max(axis=-1, keepdims=True).astype(np.float64) - lo
    flat = span == 0.0
    out = np.add(data, 0.0 - lo, dtype=np.float64)
    out /= np.where(flat, 1.0, span)
    return out, flat[..., 0]


def old_zscore_rows(data):
    """zscore_rows through np.std, which centers the rows a second time."""
    mean = data.mean(axis=1)
    std = data.std(axis=1, ddof=1)
    flat = std == 0.0
    out = (data - mean[:, None]) / np.where(flat, 1.0, std)[:, None]
    out[flat] = data[flat]
    return out, mean, std


@st.composite
def rows_of_any_magnitude(draw, min_dims=2, max_dims=2):
    """Finite float32 or float64 rows of any magnitude with signed zeros;
    some rows constant, some spread below 1e-162 (float64) or over a few
    subnormals (float32)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = 32 if dtype == np.float32 else 64
    entries = st.one_of(
        st.floats(width=width, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    )
    shape = draw(hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=2,
                                  max_side=12))
    data = draw(hnp.arrays(dtype, shape, elements=entries)).reshape(-1, shape[-1])
    tiny = np.finfo(np.float32).smallest_subnormal if width == 32 else 1e-170
    for row in data:
        kind = draw(st.sampled_from(["drawn", "drawn", "constant", "tiny"]))
        if kind == "constant":
            row[:] = row[0]
        elif kind == "tiny":
            steps = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0, -3.0]),
                                  min_size=len(row), max_size=len(row)))
            row[:] = np.array(steps) * tiny
    return data.reshape(shape)


@given(rows_of_any_magnitude(max_dims=3))
@settings(max_examples=300, deadline=None)
def test_minmax_rows_equals_its_broadcast_formula(data):
    got, got_flat = minmax_rows(data)
    want, want_flat = old_minmax_rows(data)
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_flat, want_flat)


@given(rows_of_any_magnitude())
@settings(max_examples=300, deadline=None)
def test_zscore_rows_equals_the_np_std_formula(data):
    with np.errstate(over="ignore", invalid="ignore"):
        got = zscore_rows(data)
        want = old_zscore_rows(data)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@st.composite
def wide_rows(draw):
    """1 to 5 finite rows of D in {2, 300, 4000} entries, float32 or
    float64, at magnitudes from 1e-3 to 1e30; some rows constant."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.sampled_from([2, 300, 4000]))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e30]))
    data = ((rng.random((rows, d)) - 0.25) * scale).astype(dtype)
    for row in data:
        if draw(st.booleans()):
            row[:] = row[0]
    return data


@given(wide_rows(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_row_moments_equals_the_numpy_expressions(data, centered):
    # float32 squares of 1e30 overflow on both sides alike
    with np.errstate(over="ignore"):
        mean, std, out = row_moments(data, centered=centered)
        assert mean.tobytes() == data.mean(axis=1).tobytes()
        assert std.tobytes() == data.std(axis=1, ddof=1).tobytes()
    if centered:
        assert out.tobytes() == (data - data.mean(axis=1)[:, None]).tobytes()
    else:
        assert out is None


@pytest.fixture
def default_bufsize():
    """Restore numpy's ufunc buffer size after a test that sets it."""
    size = np.getbufsize()
    yield size
    np.setbufsize(size)


PER_ROW_UFUNCS = [np.add, np.subtract, np.multiply, np.divide]
DOUBLE = np.finfo(np.float64)
DOUBLE_EDGES = np.array([0.0, -0.0, DOUBLE.smallest_subnormal, -DOUBLE.smallest_subnormal,
                         DOUBLE.smallest_normal / 3, -DOUBLE.smallest_normal,
                         1.0, -1.0, DOUBLE.max, -DOUBLE.max])


@given(ufunc=st.sampled_from(PER_ROW_UFUNCS),
       d=st.sampled_from([2, 15, 16, 17, 300, 2048, 2049, 4096, 4097, 8193]),
       rows=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=64, max_size=64),
       into_out=st.booleans())
@settings(max_examples=200, deadline=None)
def test_per_row_equals_the_broadcast_expression(ufunc, d, rows, seed, values,
                                                 into_out):
    # finite doubles of every exponent, a quarter of them signed zeros,
    # subnormals and extremes; hypothesis' floats cover the same in values
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=(rows, d), dtype=np.uint64)
    data = np.where(np.isfinite(bits.view(np.float64)), bits.view(np.float64), 1.0)
    edges = rng.random((rows, d)) < 0.25
    data[edges] = rng.choice(DOUBLE_EDGES, size=int(edges.sum()))
    column = np.array(values[:rows])[:, None]
    seen = []

    def spy(a, b, out=None):
        seen.append(np.getbufsize())
        return ufunc(a, b, out=out)

    with np.errstate(all="ignore"):
        want = ufunc(data, column)
        out = np.empty_like(data) if into_out else None
        got = per_row(spy, data, column, out=out)
    assert got is out or out is None
    assert got.tobytes() == want.tobytes()
    # a buffer of at most one row, for this call only
    scoped = rows > 1 and d <= 4096
    assert seen == [max(16, d // 16 * 16) if scoped else 8192]
    assert np.getbufsize() == 8192


@pytest.mark.parametrize("caller, d, inside", [
    (4096, 300, 288),    # a smaller row: scoped, then the caller's size back
    (4096, 2049, 4096),  # more than half the caller's buffer: untouched
    (1024, 8, 16),       # numpy takes multiples of 16 only
])
def test_per_row_restores_the_callers_buffer_size(default_bufsize, caller, d, inside):
    np.setbufsize(caller)
    seen = []

    def spy(a, b, out=None):
        seen.append(np.getbufsize())
        return np.add(a, b, out=out)

    per_row(spy, np.ones((3, d)), np.ones((3, 1)))
    assert seen == [inside]
    assert np.getbufsize() == caller


def test_per_row_restores_the_buffer_size_when_the_ufunc_raises(default_bufsize):
    np.setbufsize(4096)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        per_row(np.multiply, np.full((4, 300), 1e300), np.full((4, 1), 1e300))
    assert np.getbufsize() == 4096


@pytest.mark.parametrize("normalize", [minmax_rows, zscore_rows])
@pytest.mark.parametrize("shape", [(2, 300), (1, 4000), (16, 4000), (2, 8, 300)])
def test_row_normalizers_leave_the_buffer_size_alone(default_bufsize, normalize, shape):
    data = np.random.default_rng(3).random(shape)
    if normalize is zscore_rows:
        data = data.reshape(-1, shape[-1])
    for caller in (8192, 2048):
        np.setbufsize(caller)
        normalize(data)
        assert np.getbufsize() == caller


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

    @pytest.mark.parametrize("config, field", [
        # max_subset_size unset: it is N, so min_subset_size is what is wrong
        (FusionConfig(min_subset_size=5), "min_subset_size"),
        (FusionConfig(min_subset_size=5, max_subset_size=4), "max_subset_size"),
        (FusionConfig(min_subset_size=3, max_subset_size=2), "max_subset_size"),
        (FusionConfig(max_subset_size=5), "max_subset_size"),
    ])
    def test_subset_bound_error_names_a_field_the_user_set(self, config, field):
        with pytest.raises(ConfigError) as info:
            config.validate(4, 50)
        assert info.value.field == field

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
        with pytest.raises(ValueError, match="non-finite"):
            SimilarityTensor(techniques, data)
        data[7, 255, 511] = 0.5
        _, _, peak = traced(lambda: SimilarityTensor(techniques, data))
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
