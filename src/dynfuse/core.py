"""Domain types and elementary similarity-vector operations.

A similarity vector holds one score per database image for a single query;
larger means more similar. All downstream fusion math works on vectors that
were first rescaled to [0, 1] with :func:`minmax_normalize`, so scores from
unrelated techniques become comparable before they are summed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError

TIE_BREAK_LOWEST_INDEX = "lowest-index"
TIE_BREAK_SMALLEST_SUBSET = "smallest-subset-then-lexicographic"
TIE_BREAKS = (TIE_BREAK_LOWEST_INDEX, TIE_BREAK_SMALLEST_SUBSET)

# Smallest positive epsilon a config file may set. A member weight can reach
# 1/epsilon, so a fused entry can reach N/epsilon; with this floor the
# squares of D such entries, summed when the fused vector is standardized,
# stay far from float64 overflow.
MIN_EPSILON = 1e-100

# JSON value types accepted per FusionConfig field (see check_json_type).
_CONFIG_FIELD_TYPES = {
    "r_window": (int, "an integer"),
    "frame_separation_f": (int, "an integer"),
    "min_subset_size": (int, "an integer"),
    "max_subset_size": ((int, type(None)), "an integer or null"),
    "epsilon": ((int, float), "a number"),
    "rng_seed": (int, "an integer"),
    "tie_break": (str, "a string"),
}


def check_json_type(value, types, expected: str, field: str):
    """Return ``value`` if it is an instance of ``types``, else raise
    ConfigError naming ``field``. A bool passes only when ``types`` names
    bool itself: JSON true is never a number, although Python counts it as
    an int."""
    types = types if isinstance(types, tuple) else (types,)
    if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
        raise ConfigError(
            f"must be {expected}, got {type(value).__name__} {value!r}",
            field=field,
        )
    return value


@dataclass(frozen=True)
class TechniqueId:
    """A technique's position in the tensor plus a human-readable label."""

    index: int
    name: str


def as_similarity_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a float64 similarity vector.

    Requires length >= 2 (a best/second-best ratio over a single candidate
    is undefined) and all entries finite.
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"similarity vector must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("similarity vector needs at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("similarity vector contains non-finite entries")
    return arr


def is_constant(v: np.ndarray) -> bool | np.ndarray:
    """True when every entry equals every other (no place information).
    A stack of vectors along the last axis gives one flag per vector. Exact
    in any dtype, where np.ptp overflows float32 near 3.4e38."""
    v = np.asarray(v)
    flags = v.max(axis=-1) == v.min(axis=-1)
    return bool(flags) if flags.ndim == 0 else flags


def minmax_rows(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalize every vector along the last axis of ``data`` (see
    minmax_normalize). Returns the float64 result and a mask of the constant
    vectors, which become all zeros. Every strategy normalizes with this
    function.

    ``data`` may be float32 or float64: min and max are exact in either, and
    everything after them is float64, so float32 data and its float64 cast
    give the same bits (a span taken in float32 would round, or overflow
    near 3.4e38)."""
    lo = data.min(axis=-1, keepdims=True).astype(np.float64)
    span = data.max(axis=-1, keepdims=True).astype(np.float64) - lo
    flat = span == 0.0
    # data + (0.0 - lo) is data - lo, except that a -0.0 entry at a zero
    # minimum becomes +0.0 whichever zero min() returned; min() picks -0.0
    # or +0.0 by SIMD lane, differently per dtype. A constant vector is
    # already all zeros here.
    out = np.add(data, 0.0 - lo, dtype=np.float64)
    out /= np.where(flat, 1.0, span)  # cheaper than a masked divide
    return out, flat[..., 0]


def minmax_normalize(v) -> np.ndarray:
    """Rescale ``v`` so its minimum is exactly 0 and its maximum exactly 1.

    A constant input carries no place information: the result is the
    all-zeros vector and the caller should treat the technique as degenerate
    for this query (see :func:`is_constant`).
    """
    return minmax_rows(as_similarity_vector(v))[0]


def zscore_rows(data: np.ndarray):
    """Standardize every row of a finite 2-D array (see zscore_normalize);
    returns (standardized rows, row means, row sample stds)."""
    mean = data.mean(axis=1)
    std = data.std(axis=1, ddof=1)
    # std underflows to 0 for constant input and for spreads below ~1e-162;
    # both carry no usable contrast, so the row passes through unchanged
    flat = std == 0.0
    out = (data - mean[:, None]) / np.where(flat, 1.0, std)[:, None]
    out[flat] = data[flat]
    return out, mean, std


def zscore_normalize(v) -> np.ndarray:
    """Standardize ``v`` to mean 0 and sample (n-1) standard deviation 1.

    The transform is monotone affine, so the input's argmax always remains a
    maximizer of the output. Entries within one ulp of each other can
    collapse to exact ties, so callers that need a stable match index should
    take it before standardizing. A constant input is returned unchanged
    (its argmax is already degenerate).
    """
    return zscore_rows(as_similarity_vector(v)[None])[0][0]


def argmax_lowest_index(v) -> int:
    """Index of the maximum value; ties resolve to the lowest index."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("argmax of empty vector")
    return int(np.argmax(arr))


@dataclass
class FusionConfig:
    """Run-level knobs shared by the fusion engine and all baselines.

    r_window is the half-width (database-index units) of the region excluded
    around the best match when the ratio denominator is computed. Subset
    selection is re-run every ``frame_separation_f`` queries; query 0 always
    calibrates. ``epsilon`` clamps ratio denominators away from zero.
    """

    r_window: int = 2
    frame_separation_f: int = 1
    min_subset_size: int = 2
    max_subset_size: int | None = None
    epsilon: float = 1e-12
    rng_seed: int = 0
    tie_break: str = TIE_BREAK_SMALLEST_SUBSET

    def resolved_max_subset_size(self, n_techniques: int) -> int:
        return n_techniques if self.max_subset_size is None else self.max_subset_size

    def validate(self, n_techniques: int, database_size: int,
                 require_subsets: bool = True) -> None:
        """Check config consistency against a tensor's dimensions.

        Baselines that never enumerate subsets (plain or static fusion on a
        single technique) pass ``require_subsets=False`` to skip the
        subset-size bounds.
        """
        if self.r_window < 0:
            raise ConfigError("must be non-negative", field="r_window")
        if self.r_window >= database_size:
            raise ConfigError(
                f"must be smaller than the database size ({database_size})",
                field="r_window",
            )
        if self.frame_separation_f < 1:
            raise ConfigError("must be a positive integer", field="frame_separation_f")
        if self.min_subset_size < 2:
            raise ConfigError("must be at least 2", field="min_subset_size")
        max_size = self.resolved_max_subset_size(n_techniques)
        if require_subsets and not (
            self.min_subset_size <= max_size <= n_techniques
        ):
            raise ConfigError(
                f"need min_subset_size <= max_subset_size <= {n_techniques}, "
                f"got [{self.min_subset_size}, {max_size}]",
                field="max_subset_size",
            )
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("must be positive and finite", field="epsilon")
        if self.tie_break not in TIE_BREAKS:
            raise ConfigError(f"must be one of {TIE_BREAKS}", field="tie_break")
        if self.rng_seed < 0:
            # numpy's generators take only non-negative seeds
            raise ConfigError("must be non-negative", field="rng_seed")

    def to_dict(self) -> dict:
        return {
            "r_window": self.r_window,
            "frame_separation_f": self.frame_separation_f,
            "min_subset_size": self.min_subset_size,
            "max_subset_size": self.max_subset_size,
            "epsilon": self.epsilon,
            "rng_seed": self.rng_seed,
            "tie_break": self.tie_break,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FusionConfig":
        """Build a config from parsed JSON, rejecting unknown keys, values
        of the wrong type and a positive epsilon below MIN_EPSILON with
        ConfigError; other ranges are checked by validate."""
        if not isinstance(d, dict):
            raise ConfigError("must be a JSON object", field="config")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="config")
        for name, value in d.items():
            check_json_type(value, *_CONFIG_FIELD_TYPES[name], field=name)
        if 0 < d.get("epsilon", MIN_EPSILON) < MIN_EPSILON:
            raise ConfigError(f"must be at least {MIN_EPSILON:g}", field="epsilon")
        return cls(**d)


@dataclass
class SimilarityTensor:
    """All similarity vectors for a run: N techniques x Q queries x D images.

    float32 ``data`` stays float32, half the bytes of float64; data of any
    other dtype becomes float64. Every strategy reads the values through
    minmax_rows or an exact comparison, so both give the same results.
    """

    techniques: list[TechniqueId]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        if self.data.ndim != 3:
            raise ValueError(f"tensor must be N x Q x D, got shape {self.data.shape}")
        n, _, d = self.data.shape
        if n != len(self.techniques):
            raise ValueError("technique list length does not match tensor depth")
        if d < 2:
            raise ValueError("database size must be at least 2")
        # one technique at a time: the mask is one (Q, D) slice, not N of them
        if not all(np.isfinite(technique).all() for technique in self.data):
            raise ValueError("tensor contains non-finite entries")
        names = [t.name for t in self.techniques]
        if len(set(names)) != len(names):
            raise ValueError(f"technique names must be unique, got {names}")
        indices = [t.index for t in self.techniques]
        if indices != list(range(n)):
            raise ValueError("technique indices must be 0..N-1 in order")

    @property
    def n_techniques(self) -> int:
        return self.data.shape[0]

    @property
    def queries(self) -> int:
        return self.data.shape[1]

    @property
    def database_size(self) -> int:
        return self.data.shape[2]

    @property
    def names(self) -> list[str]:
        return [t.name for t in self.techniques]

    def query_slices(self, query: int) -> np.ndarray:
        """Raw N x D block of similarity vectors for one query."""
        return self.data[:, query, :]


@dataclass
class GroundTruth:
    """Per-query sets of database indices considered a correct match.

    Queries with an empty acceptable set are excluded from recall
    denominators rather than rejected.
    """

    acceptable: tuple[frozenset[int], ...]
    database_size: int

    def __post_init__(self):
        for q, entry in enumerate(self.acceptable):
            for idx in entry:
                if not (0 <= idx < self.database_size):
                    raise ValueError(
                        f"ground truth index {idx} for query {q} outside "
                        f"[0, {self.database_size})"
                    )

    @property
    def queries(self) -> int:
        return len(self.acceptable)

    def evaluable(self, query: int) -> bool:
        return len(self.acceptable[query]) > 0

    def hits(self, queries, matches) -> np.ndarray:
        """True where an integer in ``matches`` is an acceptable database
        index of the query at the same place in ``queries`` (the two arrays
        broadcast). An index outside [0, D) is never a hit."""
        queries, matches = np.asarray(queries), np.asarray(matches)
        d = self.database_size
        keys = queries.astype(np.int64) * d + matches.astype(np.int64)
        accepted = self._keys
        if accepted.size == 0:
            return np.zeros(keys.shape, dtype=bool)
        found = accepted.take(np.searchsorted(accepted, keys), mode="clip") == keys
        return (matches >= 0) & (matches < d) & found

    @cached_property
    def _keys(self) -> np.ndarray:
        """Sorted ``q * D + i`` key of every acceptable (query, index) pair."""
        d = self.database_size
        return np.sort(np.fromiter(
            (q * d + i for q, entry in enumerate(self.acceptable) for i in entry),
            dtype=np.int64))

    @classmethod
    def from_lists(cls, lists, database_size: int) -> "GroundTruth":
        """One list of database indices per query; a non-integer entry (a
        float or a bool too) is a ValueError."""
        for q, entry in enumerate(lists):
            for i in entry:
                if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                    raise ValueError(f"ground truth entry {i!r} for query {q} is not an integer")
        return cls(
            acceptable=tuple(frozenset(int(i) for i in entry) for entry in lists),
            database_size=database_size,
        )

    @classmethod
    def from_indices(cls, indices, tolerance: int, database_size: int) -> "GroundTruth":
        """Expand (index, tolerance) ground truth into explicit acceptable sets.

        Query q accepts every database index within ``tolerance`` of
        ``indices[q]``, clipped to [0, database_size). The same tolerance is
        the natural default for FusionConfig.r_window: the ratio's exclusion
        window should cover the region already considered self-similar.
        """
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        sets = []
        for idx in indices:
            lo = max(0, int(idx) - tolerance)
            hi = min(database_size, int(idx) + tolerance + 1)
            sets.append(frozenset(range(lo, hi)))
        return cls(acceptable=tuple(sets), database_size=database_size)

    @classmethod
    def from_json(cls, path, database_size: int) -> "GroundTruth":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, list) or not all(isinstance(e, list) for e in raw):
            raise ValueError(f"{path}: ground truth must be a JSON array of arrays")
        return cls.from_lists(raw, database_size)

    def to_json(self, path) -> None:
        payload = [sorted(entry) for entry in self.acceptable]
        Path(path).write_text(json.dumps(payload) + "\n")


@dataclass
class SelectionRecord:
    """Outcome of fusing one query: chosen subset, weights, and the match."""

    query: int
    subset: tuple[int, ...]
    weights: dict[int, float]
    ratio_score: float | None
    match_index: int
    fused_mean: float = float("nan")
    fused_std: float = float("nan")
    valid: bool = True
    techniques_touched: tuple[int, ...] = ()
    error: str | None = None

    def to_json_dict(self, names: list[str]) -> dict:
        return {
            "query": self.query,
            "subset": [names[i] for i in self.subset],
            "weights": {names[i]: w for i, w in self.weights.items()},
            "ratio_score": self.ratio_score,
            "match_index": self.match_index,
            "fused_mean": None if np.isnan(self.fused_mean) else self.fused_mean,
            "fused_std": None if np.isnan(self.fused_std) else self.fused_std,
            "valid": self.valid,
            "techniques_touched": [names[i] for i in self.techniques_touched],
            "error": self.error,
        }
