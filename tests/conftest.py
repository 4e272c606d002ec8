import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dynfuse import FusionConfig, synth


F32 = np.finfo(np.float32)
# float32 entries at which a span or shift taken in float32 would round or
# overflow: near +-3.4e38, subnormal, signed zeros, one ulp above 1
FLOAT32_EDGES = np.array([0.0, -0.0, F32.smallest_subnormal, -F32.smallest_subnormal,
                          3 * F32.smallest_subnormal, F32.smallest_normal, 1.0, -1.0,
                          1.0 + F32.eps, F32.max, -F32.max, F32.max / 3], dtype=np.float32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def fixture_config():
    return FusionConfig(r_window=2, rng_seed=42)


@pytest.fixture(scope="session")
def complementary():
    """The seed-42 disjoint-failure benchmark (tensor, ground truth)."""
    return synth.generate(synth.complementary_fixture_spec())


def random_tensor_data(rng, n, queries, d, constant_prob=0.0):
    """Random raw similarity data with optional constant (degenerate) rows."""
    data = rng.random((n, queries, d))
    for tech in range(n):
        for q in range(queries):
            if rng.random() < constant_prob:
                data[tech, q, :] = rng.random()
    return data


def traced(fn):
    """Call ``fn()`` under tracemalloc. Returns (its result, the bytes still
    traced after it, which include the result, the traced peak)."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak
