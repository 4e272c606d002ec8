"""Seeded synthetic benchmark generator with controllable aliasing.

Each generated technique produces, per query, a base noise floor plus a
signal peak at the ground-truth index (unless the technique is scheduled to
fail there) plus a distractor peak somewhere else. Distractor sites can be
shared between techniques (correlated aliasing) or kept mutually distinct,
which is what makes ensembles complementary or adversarial on demand.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (GroundTruth, SimilarityTensor, TechniqueId, json_field,
                   read_json_object, rows_within)
from .errors import ConfigError, InvalidSpecError

_INT = (int, "an integer")
# the items of a list of reals must be numbers; validate checks ranges
_REALS = ((int, float, list), "a number or a list of numbers", ((int, float), "a number"))


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _per_technique(value, n: int, name: str, lo: float, hi: float) -> np.ndarray:
    """Broadcast a scalar or validate a length-n sequence of finite reals."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise InvalidSpecError(f"{name} must be a scalar or length-{n} sequence")
    if not np.isfinite(arr).all():
        raise InvalidSpecError(f"{name} entries must be finite")
    if np.any(arr < lo) or np.any(arr > hi):
        raise InvalidSpecError(f"{name} entries must lie in [{lo}, {hi}]")
    return arr


@dataclass
class SynthSpec:
    """Recipe for one synthetic ensemble.

    Scalar fields broadcast across techniques; sequences set one value per
    technique. ``failure_schedule[n]`` lists half-open (start, stop) query
    ranges where technique n's ground-truth peak is suppressed.
    ``drift_period``, when set, additionally rotates which pair of
    techniques is healthy every that-many queries. ``r_window`` is the
    downstream exclusion half-width the fixture targets: distractor sites
    are kept at least 2*r_window + 2 indices away from the ground-truth
    index so window exclusion is exercised unambiguously.
    """

    n_techniques: int = json_field(*_INT)
    queries: int = json_field(*_INT)
    database_size: int = json_field(*_INT)
    peak_strength: object = json_field(*_REALS, default=1.0)
    alias_strength: object = json_field(*_REALS, default=0.5)
    alias_secondary: object = json_field(*_REALS, default=0.0)
    alias_correlation: object = json_field(*_REALS, default=0.0)
    noise_sigma: object = json_field(*_REALS, default=0.0)
    failure_schedule: list = json_field(list, "a list of lists of [start, stop] pairs",
                                        default_factory=list)
    drift_period: int | None = json_field((int, type(None)), "an integer or null",
                                          default=None)
    r_window: int = json_field(*_INT, default=0)
    gt_tolerance: int = json_field(*_INT, default=0)
    seed: int = json_field(*_INT, default=0)
    names: list | None = json_field((list, type(None)), "a list of strings or null",
                                    default=None)

    def validate(self) -> tuple[np.ndarray, ...]:
        """Check the spec's ranges with InvalidSpecError. Returns the
        per-technique arrays of peak_strength, alias_strength,
        alias_secondary, alias_correlation and noise_sigma."""
        n, q, d = self.n_techniques, self.queries, self.database_size
        if self.r_window < 0:
            raise InvalidSpecError("r_window must be non-negative")
        if n < 1:
            raise InvalidSpecError("n_techniques must be >= 1")
        if q < 1:
            raise InvalidSpecError("queries must be >= 1")
        if d <= 2 * self.r_window + 1:
            raise InvalidSpecError(
                "database_size must exceed 2 * r_window + 1 for downstream validity"
            )
        # each drawn distractor reserves its site plus a companion echo site;
        # sites stay outside the protected region around the ground-truth
        # index and beyond window range of each other. A query draws at most
        # n + 1 pairs, so a draw finds at most n placed. Among the allowed
        # positions (see _draw_pair), a placed pair sits at p and
        # p + size // 2 (mod size) and blocks the 2r + 1 positions around
        # each for a new site. A new echo sits half a ring past its site, so
        # the positions blocked for it are those shifted by half a ring: the
        # same ones, and one more per pair where size is odd. So n pairs
        # block at most n (4r + 3) positions, whatever the order of the
        # draws, and this many allowed positions always leave one free.
        excluded = 2 * (2 * self.r_window + 1) + 1
        if d - excluded < n * (4 * self.r_window + 3) + 1:
            raise InvalidSpecError(
                f"database_size {d} too small for {n} well-separated "
                f"distractor sites at r_window {self.r_window}"
            )
        strengths = tuple(
            _per_technique(getattr(self, name), n, name, 0.0, hi)
            for name, hi in (("peak_strength", 1.0), ("alias_strength", np.inf),
                             ("alias_secondary", 1.0), ("alias_correlation", 1.0),
                             ("noise_sigma", np.inf)))
        peak, alias, _, _, sigma = strengths
        # the peak, the distractor and its echo sit at distinct sites, on a
        # noise floor; the synth command writes float32 payloads
        if np.any(sigma > np.finfo(np.float32).max - np.maximum(peak, alias)):
            raise InvalidSpecError(
                "noise_sigma + max(peak_strength, alias_strength) must stay "
                "within float32 range"
            )
        if self.failure_schedule and len(self.failure_schedule) != n:
            raise InvalidSpecError("failure_schedule must have one entry per technique")
        for tech, ranges in enumerate(self.failure_schedule):
            if not isinstance(ranges, (list, tuple)):
                raise InvalidSpecError(
                    f"failure_schedule entry for technique {tech} must be a list of "
                    f"[start, stop] pairs"
                )
            for r in ranges:
                if not (isinstance(r, (list, tuple)) and len(r) == 2
                        and all(_is_int(x) for x in r)):
                    raise InvalidSpecError(
                        f"failure range {r!r} for technique {tech} is not a "
                        f"[start, stop] pair of integers"
                    )
                start, stop = int(r[0]), int(r[1])
                if not (0 <= start < stop <= q):
                    raise InvalidSpecError(
                        f"failure range ({start}, {stop}) for technique {tech} "
                        f"outside [0, {q})"
                    )
        if self.drift_period is not None and not (
            _is_int(self.drift_period) and self.drift_period >= 1
        ):
            raise InvalidSpecError("drift_period must be a positive integer")
        if self.gt_tolerance < 0:
            raise InvalidSpecError("gt_tolerance must be non-negative")
        if self.seed < 0:
            # numpy's generators take only non-negative seeds
            raise InvalidSpecError("seed must be non-negative")
        if self.names is not None:
            if len(self.names) != n:
                raise InvalidSpecError("names must have one entry per technique")
            if not all(isinstance(x, str) and x and "/" not in x and "\x00" not in x
                       for x in self.names) or len(set(self.names)) != n:
                # each name is also a file name
                raise InvalidSpecError(
                    "names must be unique non-empty strings without '/' or NUL"
                )
        return strengths

    def technique_names(self) -> list[str]:
        if self.names is not None:
            return list(self.names)
        return [f"tech-{i:02d}" for i in range(self.n_techniques)]

    def to_dict(self) -> dict:
        """The spec as JSON values: arrays, numpy scalars and (start, stop)
        pairs become plain lists and numbers."""
        def plain(v):
            if isinstance(v, (list, tuple)):
                return [plain(x) for x in v]
            return v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v

        return {name: plain(v) for name, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d) -> "SynthSpec":
        """Build a spec from a parsed JSON object with read_json_object,
        raising its errors (unknown or missing keys, wrong JSON types) as
        InvalidSpecError; ranges are checked by validate."""
        try:
            return cls(**read_json_object(cls, d, "spec"))
        except ConfigError as exc:
            raise InvalidSpecError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidSpecError(f"spec is not UTF-8 JSON text ({exc})") from None
        return cls.from_dict(raw)

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


def _suppressed_mask(spec: SynthSpec) -> np.ndarray:
    """Boolean (N, Q): True where the ground-truth peak is withheld."""
    n, q = spec.n_techniques, spec.queries
    mask = np.zeros((n, q), dtype=bool)
    for tech, ranges in enumerate(spec.failure_schedule or []):
        for start, stop in ranges:
            mask[tech, int(start):int(stop)] = True
    if spec.drift_period is not None:
        # a period beyond q is one block, like q itself, and fits in an int64
        blocks = np.arange(q) // min(spec.drift_period, q)
        for tech in range(n):
            healthy = (blocks % n == tech) | ((blocks + 1) % n == tech)
            mask[tech, ~healthy] = True
    return mask


def _draw_pair(rng, low: int, shift: int, size: int, taken: bytearray, r: int):
    """Draw a distractor site and its echo; return them and mark both taken.

    The allowed sites are the runs [0, low) and [low + shift, D): the
    ``size`` of them outside the protected region around the ground-truth
    index. Allowed position p is site p, or p + shift past the first run;
    the echo is the allowed site half a ring away, a bijection on the
    allowed sites, so distinct distractors get distinct echoes. ``taken``
    marks, offset by ``r``, every index within ``r`` of a reserved site, so
    that neither the site nor its echo lands in another site's window.
    """
    window = b"\x01" * (2 * r + 1)
    for _ in range(100_000):
        pos = int(rng.integers(size))
        echo = (pos + size // 2) % size
        site = pos + shift if pos >= low else pos
        echo = echo + shift if echo >= low else echo
        if site != echo and not taken[site + r] and not taken[echo + r]:
            taken[site:site + 2 * r + 1] = window
            taken[echo:echo + 2 * r + 1] = window
            return site, echo
    raise InvalidSpecError("could not place well-separated distractor sites")


def generate(spec: SynthSpec):
    """Build a (SimilarityTensor, GroundTruth) pair from ``spec``.

    The ground-truth index advances linearly through the database
    (query q maps to index q * D // Q). Per query, every technique gets a
    uniform [0, noise_sigma] floor, a peak of ``peak_strength`` at the
    ground-truth index unless suppressed, and a distractor peak of
    ``alias_strength`` at either the query's shared site (with probability
    ``alias_correlation``) or at a site of its own; all sites drawn within
    one query are mutually distinct. A nonzero ``alias_secondary`` echoes
    the distractor at a deterministic companion site, which lets correlated
    techniques present identical two-peak aliasing.

    Output is bitwise reproducible for a fixed seed, and the files written
    from it are part of the contract, so each query must consume the seed's
    stream in this order: one ``random((N, D))`` noise draw, one
    ``integers(size)`` per attempt at the shared site, one ``random(N)``
    deciding which techniques share it, then one ``integers(size)`` per
    attempt at each other technique's site, in technique order. Batching
    draws across attempts or queries would reorder the stream.
    """
    peak, alias, secondary, correlation, sigma = spec.validate()
    n, q_total, d = spec.n_techniques, spec.queries, spec.database_size
    try:
        data = np.zeros((n, q_total, d), dtype=np.float64)
    except (MemoryError, ValueError):
        raise InvalidSpecError(
            f"a ({n}, {q_total}, {d}) float64 tensor needs {n * q_total * d * 8} "
            f"bytes, more than can be allocated"
        ) from None
    suppressed = _suppressed_mask(spec)
    r = spec.r_window
    gap = 2 * r + 1

    rng = np.random.default_rng(spec.seed)
    gt_indices = [(q * d) // q_total for q in range(q_total)]
    # noise rows are drawn into a buffer of about core.WORK_BYTES, then
    # scaled into the tensor one chunk of queries at a time
    chunk = min(q_total, rows_within(n * d * 8))
    noise = np.empty((chunk, n, d))
    sites, echoes = [], []

    for q, gt in enumerate(gt_indices):
        rng.random(out=noise[q % chunk])
        if q % chunk == chunk - 1 or q == q_total - 1:
            first = q - q % chunk
            np.multiply(noise[:q + 1 - first].transpose(1, 0, 2), sigma[:, None, None],
                        out=data[:, first:q + 1])

        low, high = max(0, gt - gap), gt + gap + 1
        shift, size = high - low, low + max(0, d - high)
        taken = bytearray(d + 2 * r)
        shared = _draw_pair(rng, low, shift, size, taken, r)
        for use_shared in (rng.random(n) < correlation).tolist():
            site, echo = shared if use_shared else _draw_pair(rng, low, shift, size, taken, r)
            sites.append(site)
            echoes.append(echo)

    # the ground-truth index, the site and its echo of one (technique,
    # query) vector are distinct, so each entry gets at most one addition
    techs, queries = np.nonzero(~suppressed)
    data[techs, queries, np.asarray(gt_indices)[queries]] += peak[techs]
    techs, queries = np.arange(n)[:, None], np.arange(q_total)
    sites, echoes = (np.reshape(s, (q_total, n)).T for s in (sites, echoes))
    data[techs, queries, sites] += alias[:, None]
    echoed = secondary > 0.0
    data[techs[echoed], queries, echoes[echoed]] += (alias * secondary)[echoed, None]

    techniques = [
        TechniqueId(index=i, name=name)
        for i, name in enumerate(spec.technique_names())
    ]
    tensor = SimilarityTensor(techniques=techniques, data=data)
    gt = GroundTruth.from_indices(gt_indices, spec.gt_tolerance, d)
    return tensor, gt


def complementary_fixture_spec(noise_sigma: float = 0.01, seed: int = 42) -> SynthSpec:
    """Disjoint-failure benchmark: two strong techniques that fail on
    opposite halves of the traverse, plus two techniques whose correlated
    two-peak distractors always outgun their own ground-truth signal.

    Fusing the healthy strong technique with one weak supporter is the only
    combination with both an unambiguous peak and the right answer, so
    per-frame selection stays perfect while summing everything is dragged to
    the shared distractor whenever the ground-truth support dips.
    """
    return SynthSpec(
        n_techniques=4,
        queries=200,
        database_size=100,
        peak_strength=[1.0, 1.0, 0.6, 0.55],
        alias_strength=[0.3, 0.3, 1.0, 1.0],
        alias_secondary=0.95,
        alias_correlation=[0.0, 0.0, 1.0, 1.0],
        noise_sigma=noise_sigma,
        failure_schedule=[[(0, 100)], [(100, 200)], [(95, 105)], []],
        r_window=2,
        seed=seed,
        names=["comp-a", "comp-b", "aliased-a", "aliased-b"],
    )


def drifting_fixture_spec(seed: int = 42) -> SynthSpec:
    """Sequential traverse whose healthy technique pair rotates every
    ``drift_period`` queries, so stale subset selections go bad."""
    return SynthSpec(
        n_techniques=4,
        queries=500,
        database_size=120,
        peak_strength=1.0,
        alias_strength=0.55,
        noise_sigma=0.02,
        drift_period=20,
        r_window=2,
        seed=seed,
        names=["drift-a", "drift-b", "drift-c", "drift-d"],
    )
