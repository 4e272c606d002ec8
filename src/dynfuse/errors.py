"""Exception types raised by the dynfuse library."""

from __future__ import annotations


class DynfuseError(Exception):
    """Base class for all dynfuse errors."""


class ConfigError(DynfuseError):
    """Invalid configuration or manifest; names the offending field when known."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        self.reason = message  # the message without the field
        if field:
            message = f"{field}: {message}"
        super().__init__(message)


class ShapeMismatchError(DynfuseError):
    """Payload byte count or matrix shape disagrees with its metadata."""


class CorruptHeaderError(DynfuseError):
    """Sidecar metadata is missing, unparseable, or inconsistent."""


class NonFiniteValueError(DynfuseError):
    """A matrix or vector contains NaN or infinite entries."""


class DimensionMismatchError(DynfuseError):
    """Per-technique matrices do not share the same query/database shape."""


class EmptyEnsembleError(DynfuseError):
    """A tensor was requested from zero techniques."""


class WindowCoversAllError(DynfuseError):
    """The exclusion window around the best match spans the whole vector,
    leaving no candidate for the ratio denominator."""


class TooFewTechniquesError(DynfuseError):
    """Fewer usable (non-degenerate) techniques remain than the minimum
    subset size requires."""


class MissingRankingError(DynfuseError):
    """Recall was requested at a depth for which no ranking is available."""


class InvalidSpecError(DynfuseError):
    """A synthetic benchmark spec violates its own invariants."""
