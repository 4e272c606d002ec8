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
    for key in ("rows", "cols", "role", "technique"):
        if key not in meta:
            raise CorruptHeaderError(f"{side}: missing field {key!r}")
    if not isinstance(meta["rows"], int) or not isinstance(meta["cols"], int):
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
    CorruptHeaderError).
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
    payload = path.read_bytes()
    expected_bytes = meta["rows"] * meta["cols"] * 4
    if len(payload) != expected_bytes:
        raise ShapeMismatchError(
            f"{path}: payload is {len(payload)} bytes, sidecar shape "
            f"{meta['rows']}x{meta['cols']} needs {expected_bytes}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(meta["rows"], meta["cols"])
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{path}: matrix contains non-finite values")
    return arr.copy(), meta


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
    if not np.all(np.isfinite(data)):
        raise NonFiniteValueError(f"{path}: CSV contains non-finite values")
    return data.astype(np.float32)


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
    """Stack per-technique Q x D similarity matrices into one tensor."""
    matrices = [np.asarray(m, dtype=np.float64) for m in per_technique]
    names = list(names)
    if len(matrices) == 0:
        raise EmptyEnsembleError("no techniques given")
    if len(matrices) != len(names):
        raise DimensionMismatchError(
            f"{len(matrices)} matrices but {len(names)} names"
        )
    shape = matrices[0].shape
    for name, m in zip(names, matrices):
        if m.ndim != 2:
            raise DimensionMismatchError(f"{name}: matrix must be 2-D, got {m.shape}")
        if m.shape != shape:
            raise DimensionMismatchError(
                f"{name}: shape {m.shape} != {shape} of {names[0]}"
            )
    if shape[1] < 2:
        raise ShapeMismatchError(
            f"{names[0]}: {shape[1]} database column, need at least 2"
        )
    techniques = [TechniqueId(index=i, name=n) for i, n in enumerate(names)]
    return SimilarityTensor(techniques=techniques, data=np.stack(matrices, axis=0))


def load_similarity_tensor(entries) -> SimilarityTensor:
    """Load a tensor from (name, path) pairs of similarity-matrix files.

    Binary payloads must carry role "similarity" in their sidecar; ``.csv``
    paths use the CSV fixture format.
    """
    matrices = []
    names = []
    for name, path in entries:
        path = Path(path)
        if path.suffix.lower() == ".csv":
            matrices.append(load_csv_matrix(path))
        else:
            arr, _ = load_matrix(path, expected_meta={"role": "similarity"})
            matrices.append(arr)
        names.append(name)
    return assemble_tensor(matrices, names)
