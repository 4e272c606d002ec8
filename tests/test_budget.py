"""The one working-memory budget, core.WORK_BYTES: what rows_within makes of
it, that every batched step reads it when it runs, and the contract that
every strategy holds at most 5 x WORK_BYTES beyond what it returns."""

from unittest import mock

import numpy as np
import pytest

from dynfuse import core, engine, evaluate, fusion, synth
from dynfuse.core import FusionConfig, GroundTruth, SimilarityTensor, TechniqueId
from conftest import traced


def make_tensor(data):
    return SimilarityTensor([TechniqueId(i, f"t{i}") for i in range(len(data))], data)


@pytest.mark.parametrize("row_bytes, beside, rows", [
    (1, 0, 1 << 20), (3000, 0, 349), (1 << 21, 0, 1), (1000, 1 << 19, 524),
    (8, 1 << 20, 1), (8, 1 << 21, 1), (1 << 21, 1 << 21, 1),
])
def test_rows_within(row_bytes, beside, rows):
    # at least one row, also when the row or what is beside outgrows the budget
    assert core.rows_within(row_bytes, beside=beside) == rows


def _calls(target, name, fn, budget=None):
    """How many times ``fn()`` calls ``target.name``, with core.WORK_BYTES
    patched to ``budget`` (None: left as it is)."""
    with mock.patch.object(core, "WORK_BYTES", budget or core.WORK_BYTES), \
            mock.patch.object(target, name, wraps=getattr(target, name)) as spy:
        fn()
    return spy.call_count


def test_every_consumer_reads_the_budget_when_called(rng):
    """A one-byte budget makes every batched step one row, where the default
    holds these small inputs whole. A module that had bound the budget at
    import would keep its default-sized steps."""
    queries = 16
    tensor = make_tensor(rng.random((4, queries, 64)))
    config = FusionConfig(r_window=1, frame_separation_f=1)
    normalized, constant = core.minmax_rows(tensor.data)
    spec = synth.complementary_fixture_spec()
    consumers = {
        # _fuse_groups: one minmax_rows call per chunk
        "_fuse_groups": (engine, "minmax_rows",
                         lambda: engine.run_full_mpf(tensor, config), queries),
        # run_dyn_mpf's calibration chunks: one search call each
        "calibration": (engine, "select_best_subsets",
                        lambda: engine.run_dyn_mpf(tensor, config), queries),
        # _batch_queries: one _search_batch call per batch
        "_batch_queries": (
            fusion, "_search_batch",
            lambda: fusion.select_best_subsets(normalized, constant, config), queries),
        # _top_k: one copy into its buffer per chunk
        "_top_k": (np, "copyto", lambda: evaluate._top_k(tensor.data[0], 3), queries),
        # synth.generate: one scaling of its noise buffer per chunk
        "generate": (np, "multiply", lambda: synth.generate(spec), spec.queries),
    }
    for name, (target, attribute, fn, one_row_steps) in consumers.items():
        assert _calls(target, attribute, fn) == 1, name
        assert _calls(target, attribute, fn, budget=1) == one_row_steps, name
    # _low_bits: the whole 2**4 x 64 grid at the default, one-row blocks at 1
    assert fusion._low_bits(4, 64) == 4
    with mock.patch.object(core, "WORK_BYTES", 1):
        assert fusion._low_bits(4, 64) == 0


STRATEGIES = {
    "dyn-mpf F=1": lambda t, gt: engine.run_dyn_mpf(t, FusionConfig(r_window=2)),
    "dyn-mpf F=Q": lambda t, gt: engine.run_dyn_mpf(
        t, FusionConfig(r_window=2, frame_separation_f=t.queries)),
    "full-mpf": lambda t, gt: engine.run_full_mpf(t, FusionConfig(r_window=2)),
    "static-subset": lambda t, gt: engine.run_static_subset(
        t, FusionConfig(r_window=2), (0, 2)),
    "static-subset of one": lambda t, gt: engine.run_static_subset(
        t, FusionConfig(r_window=2), (1,)),
    "random-pair": lambda t, gt: engine.run_random_pair(t, FusionConfig(r_window=2)),
    "hier-mpf": lambda t, gt: engine.run_hier_mpf(t, FusionConfig(r_window=2)),
    "best-single-oracle": lambda t, gt: engine.run_best_single_oracle(
        t, FusionConfig(r_window=2), gt),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("queries", [64, 256])
@pytest.mark.parametrize("n, d", [(4, 2048), (10, 1000)])
def test_every_strategy_holds_at_most_five_budgets(rng, n, d, queries, dtype):
    """The contract at the default budget: a strategy's traced peak minus
    what is still traced after it (its records and (Q, D) rows) stays at
    most 5 x core.WORK_BYTES, whatever Q and F are. A one-member chunk holds
    the most: 4.05 x at 4 x 2048 and Q = 256."""
    tensor = make_tensor(rng.random((n, queries, d)).astype(dtype))
    gt = GroundTruth.from_indices(np.arange(queries) * d // queries, 2, d)
    held = {}
    for name, run in STRATEGIES.items():
        result, current, peak = traced(lambda: run(tensor, gt))
        assert len(result.records) == queries
        held[name] = (peak - current) / core.WORK_BYTES
    assert max(held.values()) <= 5, held
