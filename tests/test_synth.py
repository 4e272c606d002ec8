from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynfuse import core, synth
from dynfuse.core import SimilarityTensor, TechniqueId
from dynfuse.errors import InvalidSpecError
from dynfuse.synth import (
    SynthSpec,
    complementary_fixture_spec,
    drifting_fixture_spec,
    generate,
)
from conftest import traced
from reference_impl import naive_generate


def clean_spec(**overrides):
    base = dict(
        n_techniques=3, queries=20, database_size=60,
        peak_strength=1.0, alias_strength=0.4, noise_sigma=0.0,
        r_window=2, seed=7,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestDeterminism:
    def test_bitwise_reproducible(self):
        spec = clean_spec(noise_sigma=0.3)
        t1, g1 = generate(spec)
        t2, g2 = generate(clean_spec(noise_sigma=0.3))
        assert np.array_equal(t1.data, t2.data)
        assert g1.acceptable == g2.acceptable

    def test_seed_changes_data(self):
        t1, _ = generate(clean_spec(noise_sigma=0.3))
        t2, _ = generate(clean_spec(noise_sigma=0.3, seed=8))
        assert not np.array_equal(t1.data, t2.data)


class TestStructure:
    def test_ground_truth_advances_linearly(self):
        spec = clean_spec()
        _, gt = generate(spec)
        expected = [(q * spec.database_size) // spec.queries
                    for q in range(spec.queries)]
        assert [sorted(a)[0] for a in gt.acceptable] == expected

    def test_noiseless_healthy_argmax_is_ground_truth(self):
        tensor, gt = generate(clean_spec())
        for n in range(tensor.n_techniques):
            for q in range(tensor.queries):
                gt_idx = sorted(gt.acceptable[q])[0]
                assert int(np.argmax(tensor.data[n, q])) == gt_idx

    def test_failure_suppresses_peak(self):
        spec = clean_spec(failure_schedule=[[(0, 10)], [], []])
        tensor, gt = generate(spec)
        for q in range(10):
            gt_idx = sorted(gt.acceptable[q])[0]
            assert tensor.data[0, q, gt_idx] == 0.0  # noiseless: bare floor
            assert int(np.argmax(tensor.data[0, q])) != gt_idx
        for q in range(10, 20):
            gt_idx = sorted(gt.acceptable[q])[0]
            assert int(np.argmax(tensor.data[0, q])) == gt_idx

    def test_distractors_clear_of_ground_truth_window(self):
        spec = clean_spec()
        tensor, gt = generate(spec)
        gap = 2 * spec.r_window + 1
        for n in range(tensor.n_techniques):
            for q in range(tensor.queries):
                gt_idx = sorted(gt.acceptable[q])[0]
                row = tensor.data[n, q].copy()
                row[gt_idx] = 0.0
                site = int(np.argmax(row))  # the distractor peak
                assert abs(site - gt_idx) > gap

    def test_sites_pairwise_outside_window_range(self):
        spec = clean_spec(alias_secondary=0.9)
        tensor, gt = generate(spec)
        for q in range(tensor.queries):
            gt_idx = sorted(gt.acceptable[q])[0]
            sites = []
            for n in range(tensor.n_techniques):
                row = tensor.data[n, q]
                sites += [int(i) for i in np.flatnonzero(row > 0.1)
                          if i != gt_idx]
            sites = sorted(set(sites))
            for a, b in zip(sites, sites[1:]):
                assert b - a > spec.r_window

    def test_full_correlation_shares_one_site(self):
        spec = clean_spec(alias_correlation=1.0,
                          failure_schedule=[[(0, 20)]] * 3)
        tensor, _ = generate(spec)
        for q in range(tensor.queries):
            peaks = {int(np.argmax(tensor.data[n, q])) for n in range(3)}
            assert len(peaks) == 1

    def test_zero_correlation_never_shares(self):
        spec = clean_spec(failure_schedule=[[(0, 20)]] * 3)
        tensor, _ = generate(spec)
        for q in range(tensor.queries):
            peaks = {int(np.argmax(tensor.data[n, q])) for n in range(3)}
            assert len(peaks) == 3

    def test_secondary_echo_height(self):
        spec = clean_spec(alias_secondary=0.5, failure_schedule=[[(0, 20)], [], []])
        tensor, _ = generate(spec)
        row = tensor.data[0, 0]
        order = np.argsort(-row)
        assert row[order[0]] == pytest.approx(0.4)   # primary distractor
        assert row[order[1]] == pytest.approx(0.2)   # echo at half height

    def test_drift_rotates_healthy_pair(self):
        spec = clean_spec(
            n_techniques=4, queries=40, database_size=80, drift_period=10,
        )
        tensor, gt = generate(spec)
        for q in range(40):
            block = q // 10
            healthy = {block % 4, (block + 1) % 4}
            gt_idx = sorted(gt.acceptable[q])[0]
            for n in range(4):
                hits_gt = int(np.argmax(tensor.data[n, q])) == gt_idx
                assert hits_gt == (n in healthy)

    def test_gt_tolerance_expands_sets(self):
        _, gt = generate(clean_spec(gt_tolerance=2))
        assert len(gt.acceptable[5]) >= 3


class TestValidation:
    def test_bad_failure_range(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(failure_schedule=[[(5, 25)], [], []]))

    def test_failure_schedule_length(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(failure_schedule=[[(0, 5)]]))

    def test_database_too_small_for_window(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(database_size=5, r_window=2))

    def test_negative_r_window(self):
        # the size checks, which assume r_window >= 0, pass at D = 100
        with pytest.raises(InvalidSpecError, match="r_window"):
            generate(clean_spec(database_size=100, r_window=-3))

    def test_peak_strength_bounds(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(peak_strength=1.5))

    def test_per_technique_length_mismatch(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(peak_strength=[1.0, 0.5]))

    def test_bad_drift_period(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(drift_period=0))

    def test_names_length(self):
        with pytest.raises(InvalidSpecError):
            generate(clean_spec(names=["a"]))


def test_spec_json_round_trip(tmp_path):
    spec = complementary_fixture_spec()
    path = tmp_path / "spec.json"
    spec.to_json(path)
    again = SynthSpec.from_json(path)
    t1, g1 = generate(spec)
    t2, g2 = generate(again)
    assert np.array_equal(t1.data, t2.data)
    assert g1.acceptable == g2.acceptable


def test_fixture_specs_validate():
    complementary_fixture_spec().validate()
    drifting_fixture_spec().validate()


def _strengths(n, lo, hi, edges):
    """A scalar or one value per technique, often at an edge of the range."""
    value = st.one_of(st.sampled_from(edges), st.floats(lo, hi))
    return st.one_of(value, st.lists(value, min_size=n, max_size=n))


def smallest_database(n, r):
    """The smallest database_size validate accepts for n techniques at
    r_window r: n(4r + 3) + 1 allowed sites beside the 2(2r + 1) + 1
    protected ones."""
    return n * (4 * r + 3) + 1 + 2 * (2 * r + 1) + 1


@st.composite
def valid_specs(draw):
    n = draw(st.integers(1, 8))
    r = draw(st.integers(0, 4))
    q = draw(st.integers(1, 60))
    d_min = smallest_database(n, r)
    ranges = st.integers(0, q - 1).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(start + 1, q)))
    return SynthSpec(
        n_techniques=n, queries=q, database_size=draw(st.integers(d_min, 400)),
        peak_strength=draw(_strengths(n, 0.0, 1.0, [0.0, 1.0])),
        alias_strength=draw(_strengths(n, 0.0, 2.0, [0.0, 0.5])),
        alias_secondary=draw(_strengths(n, 0.0, 1.0, [0.0, -0.0, 1.0])),
        alias_correlation=draw(_strengths(n, 0.0, 1.0, [0.0, 1.0])),
        noise_sigma=draw(_strengths(n, 0.0, 1.0, [0.0, -0.0, 0.3])),
        failure_schedule=draw(st.one_of(
            st.just([]), st.lists(st.lists(ranges, max_size=2), min_size=n, max_size=n))),
        drift_period=draw(st.one_of(st.none(), st.integers(1, q + 5))),
        r_window=r,
        gt_tolerance=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 8), r=st.integers(0, 5), queries=st.integers(1, 12),
       correlation=st.sampled_from([0.0, 0.5, 1.0]))
def test_every_valid_spec_generates_at_its_smallest_database(n, r, queries,
                                                            correlation):
    """At the smallest database validate accepts, the distractor sites fit
    on every seed, and one entry less is rejected."""
    d = smallest_database(n, r)
    spec = SynthSpec(n_techniques=n, queries=queries, database_size=d,
                     alias_correlation=correlation, r_window=r)
    with pytest.raises(InvalidSpecError, match="too small"):
        replace(spec, database_size=d - 1).validate()
    for seed in range(50):
        generate(replace(spec, seed=seed))


class _Walk:
    """An rng whose integers(size) walks start, start + step, ... mod size:
    with step +-1, each draw takes the first free position from one end."""

    def __init__(self, start, step):
        self.value, self.step = start, step

    def integers(self, size):
        value = self.value % size
        self.value += self.step
        return value


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("n", range(1, 6))
def test_packed_draws_at_the_smallest_database_leave_a_free_site(n, r):
    """Sites packed from either end of the allowed positions, around every
    ground-truth index: the (n + 1)-th pair still finds a free position."""
    d = smallest_database(n, r)
    gap = 2 * r + 1
    for gt in range(d):
        low, high = max(0, gt - gap), gt + gap + 1
        shift, size = high - low, low + max(0, d - high)
        for start, step in ((0, 1), (-1, -1)):
            taken = bytearray(d + 2 * r)
            for _ in range(n + 1):
                synth._draw_pair(_Walk(start, step), low, shift, size, taken, r)


def _outcome(fn, spec):
    try:
        return fn(spec)
    except InvalidSpecError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(spec=valid_specs(), chunk_rows=st.integers(1, 8))
def test_generate_matches_the_per_query_loop(spec, chunk_rows):
    """Same tensor bytes and ground truth as the former loop, which fixes the
    order in which the seed's stream is consumed, for noise chunks of 1 to 8
    queries, so query counts end mid-chunk."""
    row_bytes = spec.n_techniques * spec.database_size * 8
    # the budget sizes generate's noise buffer
    with mock.patch.object(core, "WORK_BYTES", chunk_rows * row_bytes):
        fast = _outcome(generate, spec)
    slow = _outcome(naive_generate, spec)
    if isinstance(slow, str):
        # near the smallest database, a seed can run out of attempts to
        # place the sites; both fail after the same draws
        assert fast == slow
    else:
        assert fast[0].data.tobytes() == slow[0].tobytes()
        assert fast[1].acceptable == slow[1]


# the benchmark's sweep-drift and baselines-bulk workload specs
BENCHMARK_SPECS = {
    "sweep-drift": dict(
        n_techniques=8, queries=1000, database_size=300, alias_strength=0.6,
        failure_schedule=[[(400, 450)]] * 8, drift_period=100),
    "baselines-bulk": dict(
        n_techniques=4, queries=250, database_size=4000, alias_strength=0.5,
        failure_schedule=[[(100, 125)]] * 4, drift_period=50),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_SPECS))
def test_generate_memory_stays_near_the_per_query_loop(name):
    spec = SynthSpec(peak_strength=1.0, alias_secondary=0.5, alias_correlation=0.1,
                     noise_sigma=0.3, r_window=2, gt_tolerance=2, seed=7,
                     **BENCHMARK_SPECS[name])

    def per_query_loop():
        data, _ = naive_generate(spec)
        SimilarityTensor(techniques=[TechniqueId(i, str(i)) for i in range(len(data))],
                         data=data)

    # generate's one-chunk noise buffer is 1 MiB
    assert traced(lambda: generate(spec))[2] <= traced(per_query_loop)[2] + 2 * 2**20
