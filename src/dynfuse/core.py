"""Domain types and elementary similarity-vector operations.

A similarity vector holds one score per database image for a single query;
larger means more similar. All downstream fusion math works on vectors that
were first rescaled to [0, 1] with :func:`minmax_normalize`, so scores from
unrelated techniques become comparable before they are summed.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
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

# Bytes one batched step may hold (a runner's or dyn-mpf's calibration chunk,
# the subset search's scratch, a top-k or noise buffer), so memory does not
# grow with Q or F: a strategy holds at most 5 x this beyond its result.
WORK_BYTES = 1 << 20


def rows_within(row_bytes: int, beside: int = 0) -> int:
    """How many rows of ``row_bytes`` fit in WORK_BYTES beside ``beside``
    bytes already held; at least one. The only reader of WORK_BYTES, so
    patching ``core.WORK_BYTES`` resizes every batched step."""
    return max(1, (WORK_BYTES - beside) // row_bytes)


def per_row(ufunc, data: np.ndarray, values: np.ndarray, out=None) -> np.ndarray:
    """``ufunc(data, values, out=out)`` for per-row ``values`` of shape
    (..., 1). numpy runs such an operand through its ufunc buffer when a
    row has at most half the buffer's entries (8192 by default), at up to
    twice the cost per entry (numpy 2.4); for more than one row this call
    alone runs with a buffer of at most one row, which skips that path.
    An element-wise op without a cast gives the same bits whatever the
    buffer. The caller's size is restored after the call (numpy 1.x does
    not scope it to np.errstate)."""
    d = data.shape[-1]
    size = np.getbufsize()
    if data.size <= d or d > size // 2:
        return ufunc(data, values, out=out)
    np.setbufsize(max(16, d // 16 * 16))  # numpy takes multiples of 16
    try:
        return ufunc(data, values, out=out)
    finally:
        np.setbufsize(size)


def check_json_type(value, field: str, types, expected: str, items=None) -> None:
    """Raise ConfigError naming ``field`` unless ``value`` is one of
    ``types``, called ``expected`` in the message. When ``value`` is a list,
    ``items`` is the ``(types, expected[, items])`` each item is checked
    against in turn, as ``field[i]``. A bool passes only when ``types``
    names bool itself: JSON true is never a number, although Python counts
    it as an int."""
    types = types if isinstance(types, tuple) else (types,)
    if (isinstance(value, bool) and bool not in types) or not isinstance(value, types):
        raise ConfigError(f"must be {expected}, got {type(value).__name__} {value!r}",
                          field=field)
    if items is not None and isinstance(value, list):
        for i, item in enumerate(value):
            check_json_type(item, f"{field}[{i}]", *items)


def json_field(types, expected: str, items=None, **default):
    """A dataclass field whose JSON value read_json_object checks with
    check_json_type(value, key, types, expected, items). A field without a
    default is a required key."""
    return field(metadata={"json": (types, expected, items)}, **default)


def read_json_object(cls, raw, where: str, prefix: str = "") -> dict:
    """Check the parsed JSON ``raw`` against the json_field types of the
    dataclass ``cls`` and return it. The ConfigError names ``where`` when
    ``raw`` is not an object, and ``prefix + key`` for an unknown key, a
    missing required key, or a value or list item (recursively) of the
    wrong JSON type. Ranges are left to the caller."""
    if not isinstance(raw, dict):
        raise ConfigError("must be a JSON object", field=where)
    known = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key; {where} takes {list(known)}",
                              field=prefix + key)
    for name, f in known.items():
        if name in raw:
            check_json_type(raw[name], prefix + name, *f.metadata["json"])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError("missing required key", field=prefix + name)
    return raw


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
    near 3.4e38). The float64 copy gets the per-row add and divide in
    place, through per_row."""
    lo = data.min(axis=-1, keepdims=True).astype(np.float64)
    span = data.max(axis=-1, keepdims=True).astype(np.float64) - lo
    flat = span == 0.0
    # data + (0.0 - lo) is data - lo, except that a -0.0 entry at a zero
    # minimum becomes +0.0 whichever zero min() returned; min() picks -0.0
    # or +0.0 by SIMD lane, differently per dtype. A constant vector is
    # already all zeros here.
    out = data.astype(np.float64)
    per_row(np.add, out, 0.0 - lo, out=out)
    # cheaper than a masked divide
    per_row(np.divide, out, np.where(flat, 1.0, span), out=out)
    return out, flat[..., 0]


def minmax_normalize(v) -> np.ndarray:
    """Rescale ``v`` so its minimum is exactly 0 and its maximum exactly 1.

    A constant input carries no place information: the result is the
    all-zeros vector and the caller should treat the technique as degenerate
    for this query (see :func:`is_constant`).
    """
    return minmax_rows(as_similarity_vector(v))[0]


def row_moments(data: np.ndarray, centered: bool = False):
    """(row means, row sample stds, rows minus their means or None) of a
    finite 2-D array: the bits of ``data.mean(axis=1)`` and
    ``data.std(axis=1, ddof=1)``, but each row is centered once, through
    per_row, where np.std centers the rows again through numpy's broadcast
    buffer. Without ``centered`` the centered rows are squared in place,
    which holds one array of ``data``'s shape less."""
    mean = data.mean(axis=1)
    out = per_row(np.subtract, data, mean[:, None])
    # np.std(ddof=1)'s own steps on the centered rows: its count is an
    # intp, which float32 sums divide by in float64
    std = np.add.reduce(np.square(out, out=None if centered else out), axis=1)
    np.true_divide(std, np.intp(data.shape[1] - 1), out=std, casting="unsafe")
    np.sqrt(std, out=std)
    return mean, std, out if centered else None


def zscore_rows(data: np.ndarray):
    """Standardize every row of a finite 2-D array (see zscore_normalize);
    returns (standardized rows, row means, row sample stds)."""
    mean, std, out = row_moments(data, centered=True)
    # std underflows to 0 for constant input and for spreads below ~1e-162;
    # both carry no usable contrast, so the row passes through unchanged
    flat = std == 0.0
    per_row(np.divide, out, np.where(flat, 1.0, std)[:, None], out=out)
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

    r_window: int = json_field(int, "an integer", default=2)
    frame_separation_f: int = json_field(int, "an integer", default=1)
    min_subset_size: int = json_field(int, "an integer", default=2)
    max_subset_size: int | None = json_field((int, type(None)), "an integer or null",
                                             default=None)
    epsilon: float = json_field((int, float), "a number", default=1e-12)
    rng_seed: int = json_field(int, "an integer", default=0)
    tie_break: str = json_field(str, "a string", default=TIE_BREAK_SMALLEST_SUBSET)

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
            # an unset max_subset_size is N, so only min_subset_size is wrong
            raise ConfigError(
                f"need min_subset_size <= max_subset_size <= {n_techniques}, "
                f"got [{self.min_subset_size}, {max_size}]",
                field="min_subset_size" if self.max_subset_size is None
                else "max_subset_size",
            )
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("must be positive and finite", field="epsilon")
        if self.tie_break not in TIE_BREAKS:
            raise ConfigError(f"must be one of {TIE_BREAKS}", field="tie_break")
        if self.rng_seed < 0:
            # numpy's generators take only non-negative seeds
            raise ConfigError("must be non-negative", field="rng_seed")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "FusionConfig":
        """Build a config from the parsed JSON object ``d`` with
        read_json_object, whose errors name the bare key. A positive epsilon
        below MIN_EPSILON is a ConfigError too; other ranges are checked by
        validate."""
        read_json_object(cls, d, "config")
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
        window should cover the region already considered self-similar. An
        index outside [0, database_size) or not an integer (a float or a
        bool too) is a ValueError.
        """
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        sets = []
        for q, idx in enumerate(indices):
            if isinstance(idx, bool) or not isinstance(idx, (int, np.integer)):
                raise ValueError(f"ground truth index {idx!r} for query {q} is not an integer")
            if not 0 <= idx < database_size:
                raise ValueError(f"ground truth index {idx} for query {q} lies outside "
                                 f"[0, {database_size})")
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
