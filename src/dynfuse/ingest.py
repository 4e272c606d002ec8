"""Load descriptor or similarity matrices from disk and build tensors.

Two ingestion paths feed the same downstream engine: precomputed Q x D
similarity matrices, or per-technique descriptor matrices that are turned
into similarities here. The on-disk matrix format is little-endian IEEE-754
float32, row-major, no header; shape and labeling live in a JSON sidecar
named ``<payload>.meta.json``.
"""

from __future__ import annotations

import json
import logging
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SimilarityTensor, TechniqueId
from .errors import (
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyEnsembleError,
    NonFiniteValueError,
    ShapeMismatchError,
)

log = logging.getLogger("dynfuse.ingest")

ROLES = ("query", "database", "similarity")
METRICS = ("cosine", "negative-euclidean")


@dataclass
class DescriptorMatrix:
    """Dense descriptor block: one row per image, one column per dimension."""

    data: np.ndarray
    role: str

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"descriptor matrix must be 2-D, got {self.data.shape}")
        if self.role not in ("query", "database"):
            raise ValueError(f"role must be 'query' or 'database', got {self.role!r}")
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteValueError("descriptor matrix contains non-finite values")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_matrix(path, matrix, role: str, technique: str) -> Path:
    """Write ``matrix`` as raw little-endian float32 plus its JSON sidecar.

    Returns the payload path. Round trip through :func:`load_matrix` is
    bit-exact for finite float32 data.
    """
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    arr = np.ascontiguousarray(np.asarray(matrix), dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError("refusing to write non-finite matrix")
    path = Path(path)
    path.write_bytes(arr.tobytes(order="C"))
    meta = {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "role": role,
        "technique": technique,
    }
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True) + "\n")
    return path


def _read_sidecar(path: Path) -> dict:
    side = sidecar_path(path)
    if not side.exists():
        raise CorruptHeaderError(f"missing sidecar {side}")
    try:
        meta = json.loads(side.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptHeaderError(f"{side}: unparseable JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise CorruptHeaderError(f"{side}: sidecar must be a JSON object")
    for key in ("rows", "cols", "role", "technique"):
        if key not in meta:
            raise CorruptHeaderError(f"{side}: missing field {key!r}")
    # bool is a subclass of int, but true/false is no row count
    if any(isinstance(meta[k], bool) or not isinstance(meta[k], int)
           for k in ("rows", "cols")):
        raise CorruptHeaderError(f"{side}: rows/cols must be integers")
    if meta["rows"] < 1 or meta["cols"] < 1:
        raise CorruptHeaderError(f"{side}: rows/cols must be positive")
    if meta["role"] not in ROLES:
        raise CorruptHeaderError(f"{side}: role must be one of {ROLES}")
    return meta


def load_matrix(path, expected_meta: dict | None = None):
    """Load a binary matrix and its sidecar, returning (array, meta).

    The payload byte count must equal rows * cols * 4; entries must be
    finite. ``expected_meta`` entries, when given, are checked against the
    sidecar (shape mismatches raise ShapeMismatchError, label mismatches
    CorruptHeaderError). The payload is read once into a writable buffer
    that the returned float32 array views.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    meta = _read_sidecar(path)
    if expected_meta:
        for key, want in expected_meta.items():
            have = meta.get(key)
            if have != want:
                if key in ("rows", "cols"):
                    raise ShapeMismatchError(
                        f"{path}: expected {key}={want}, sidecar says {have}"
                    )
                raise CorruptHeaderError(
                    f"{path}: expected {key}={want!r}, sidecar says {have!r}"
                )
    expected_bytes = meta["rows"] * meta["cols"] * 4
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == expected_bytes:
            payload = bytearray(size)
            size = fh.readinto(payload)  # fewer if the file shrank meanwhile
    if size != expected_bytes:
        raise ShapeMismatchError(
            f"{path}: payload is {size} bytes, sidecar shape "
            f"{meta['rows']}x{meta['cols']} needs {expected_bytes}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(meta["rows"], meta["cols"])
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{path}: matrix contains non-finite values")
    return arr, meta


def load_csv_matrix(path) -> np.ndarray:
    """Load a small fixture matrix from CSV (header row, one row per image).

    Rows of different lengths raise ShapeMismatchError; text that does not
    parse as numbers raises CorruptHeaderError.
    """
    path = Path(path)
    with open(path) as fh:
        try:
            header = fh.readline()
            if not header.strip():
                raise CorruptHeaderError(f"{path}: empty CSV")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty data handled below
                data = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:  # UnicodeDecodeError too
            if "number of columns" in str(exc):
                raise ShapeMismatchError(f"{path}: ragged CSV ({exc})") from exc
            raise CorruptHeaderError(f"{path}: unparseable CSV ({exc})") from exc
    if data.size == 0:
        raise ShapeMismatchError(f"{path}: CSV has a header but no data rows")
    with np.errstate(over="ignore"):  # overflow becomes inf, rejected below
        data = data.astype(np.float32)
    if not np.all(np.isfinite(data)):
        raise NonFiniteValueError(
            f"{path}: CSV contains non-finite values or values beyond float32 range"
        )
    return data


def compute_similarity(q: DescriptorMatrix, db: DescriptorMatrix,
                       metric: str = "cosine") -> np.ndarray:
    """Score every query descriptor against every database descriptor.

    Larger output means more similar under both metrics; euclidean distances
    are negated. Zero-norm rows under the cosine metric score 0 against
    everything (logged, not fatal).
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if q.dim != db.dim:
        raise DimensionMismatchError(
            f"query dim {q.dim} != database dim {db.dim}"
        )
    qd = q.data.astype(np.float64)
    dd = db.data.astype(np.float64)
    if metric == "cosine":
        qn = np.linalg.norm(qd, axis=1)
        dn = np.linalg.norm(dd, axis=1)
        zq = qn == 0.0
        zd = dn == 0.0
        if zq.any() or zd.any():
            log.warning(
                "zero-norm descriptor rows under cosine metric "
                "(%d query, %d database); their scores are set to 0",
                int(zq.sum()), int(zd.sum()),
            )
        sim = (qd / np.where(zq, 1.0, qn)[:, None]) @ (
            dd / np.where(zd, 1.0, dn)[:, None]
        ).T
        sim[zq, :] = 0.0
        sim[:, zd] = 0.0
    else:
        sq = (qd * qd).sum(axis=1)[:, None] + (dd * dd).sum(axis=1)[None, :]
        sq = sq - 2.0 * (qd @ dd.T)
        np.maximum(sq, 0.0, out=sq)
        sim = -np.sqrt(sq)
    if not np.all(np.isfinite(sim)):
        raise NonFiniteValueError("similarity computation produced non-finite values")
    return sim


def assemble_tensor(per_technique, names) -> SimilarityTensor:
    """Write per-technique Q x D similarity matrices into one tensor of
    len(names) techniques: float32 while every matrix is float32, else
    float64 (see SimilarityTensor).

    ``per_technique`` may be any iterable, a generator included: each
    matrix is checked and copied into its slot as it arrives, so a generator
    keeps at most one alive beside the tensor. The tensor takes the first
    matrix's dtype and is cast to float64 when a wider one follows float32
    ones, which holds both tensors at once; load_similarity_tensor avoids
    that. A bad shape or a surplus matrix stops the iteration there.
    """
    names = list(names)
    data = None
    count = 0
    for m in per_technique:
        if count == len(names):
            raise DimensionMismatchError(
                f"more than {len(names)} matrices for {len(names)} names"
            )
        name = names[count]
        m = np.asarray(m)
        if m.ndim != 2:
            raise DimensionMismatchError(f"{name}: matrix must be 2-D, got {m.shape}")
        float32 = m.dtype == np.float32
        if data is None:
            data = np.empty((len(names), *m.shape),
                            dtype=np.float32 if float32 else np.float64)
        elif m.shape != data.shape[1:]:
            raise DimensionMismatchError(
                f"{name}: shape {m.shape} != {data.shape[1:]} of {names[0]}"
            )
        elif data.dtype == np.float32 and not float32:
            data = data.astype(np.float64)
        data[count] = m
        count += 1
        del m  # free it before the iterable loads the next one
    if count == 0:
        raise EmptyEnsembleError("no techniques given")
    if count != len(names):
        raise DimensionMismatchError(f"{count} matrices but {len(names)} names")
    if data.shape[2] < 2:
        raise ShapeMismatchError(
            f"{names[0]}: {data.shape[2]} database column, need at least 2"
        )
    techniques = [TechniqueId(index=i, name=n) for i, n in enumerate(names)]
    return SimilarityTensor(techniques=techniques, data=data)


def _load_payload(path, role: str) -> np.ndarray:
    """One matrix file: the CSV fixture format for ``.csv`` paths, else a
    binary payload whose sidecar must carry ``role``."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return load_csv_matrix(path)
    return load_matrix(path, expected_meta={"role": role})[0]


def _load_entry(entry: dict) -> np.ndarray:
    """The Q x D similarity matrix of one manifest technique entry."""
    if "similarity" in entry:
        return _load_payload(entry["similarity"], "similarity")
    return compute_similarity(
        DescriptorMatrix(_load_payload(entry["query"], "query"), role="query"),
        DescriptorMatrix(_load_payload(entry["database"], "database"),
                         role="database"),
        metric=entry.get("metric", METRICS[0]),
    )


def load_similarity_tensor(entries) -> SimilarityTensor:
    """Load a tensor from manifest technique entries, one at a time.

    An entry holds a "name" and either a "similarity" path or "query" and
    "database" descriptor paths with an optional "metric" (default cosine);
    a ``(name, path)`` pair is short for a similarity entry. Each binary
    sidecar must carry its entry's role.

    Similarity payloads are float32, so the tensor is float32 unless a
    descriptor pair is among the entries: compute_similarity works in
    float64, and then every entry is loaded as float64, so one float64
    tensor is allocated and never a float32 one beside it. Loading peaks
    near the tensor plus one technique's raw data (and its float64 cast in
    a mixed manifest).
    """
    entries = [
        e if isinstance(e, dict) else {"name": e[0], "similarity": e[1]}
        for e in entries
    ]
    dtype = np.float32 if all("similarity" in e for e in entries) else np.float64
    return assemble_tensor((_load_entry(e).astype(dtype, copy=False) for e in entries),
                           [e["name"] for e in entries])
