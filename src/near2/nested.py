"""Nested embedding primitives: prefix truncation, normalization, prefix cosine.

A nested embedding is a single unnormalized vector of length D together with a
descending set M of valid prefix lengths. The first m entries (m in M) are an
independently usable lower-dimensional embedding; normalization always happens
per prefix at similarity time, never in storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDimensionError, ZeroVectorError

# Norms at or below this are treated as degenerate zero vectors. Far below any
# trained-encoder norm, so only genuinely broken inputs trip it.
EPS_ZERO = 1e-12


@dataclass(frozen=True)
class DimSet:
    """Strictly descending set of valid prefix dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("DimSet must contain at least one dimension")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be >= 1, got {list(dims)}")
        if any(a <= b for a, b in zip(dims, dims[1:])):
            raise ValueError(f"dimensions must be strictly descending, got {list(dims)}")
        object.__setattr__(self, "dims", dims)

    @property
    def full(self) -> int:
        """The full dimension D = max(M)."""
        return self.dims[0]

    def __contains__(self, m) -> bool:
        return int(m) in self.dims

    def __iter__(self):
        return iter(self.dims)

    def __len__(self):
        return len(self.dims)

    def require(self, m: int) -> int:
        """Validate m against the set, returning it as an int."""
        m = int(m)
        if m not in self.dims:
            raise InvalidDimensionError(m, self.dims)
        return m

    @property
    def edges(self) -> tuple[int, ...]:
        """Column edges of the bands the dims cut: 0, then every dim ascending."""
        return (0, *reversed(self.dims))


@dataclass(frozen=True)
class NestedEmbedding:
    """One full-dimension vector plus its valid prefix dimensions.

    Values are stored unnormalized in float64. `degenerate` marks vectors that
    came from empty inputs (all-zero); cosine against them is an error.
    """

    values: np.ndarray
    dims: DimSet
    degenerate: bool = field(default=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"embedding values must be 1-D, got shape {values.shape}")
        if values.shape[0] != self.dims.full:
            raise ValueError(
                f"embedding length {values.shape[0]} != max dimension {self.dims.full}"
            )
        if not self.degenerate and not np.isfinite(values).all():
            raise ValueError("embedding values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def full_dim(self) -> int:
        return self.dims.full


def truncate(e: NestedEmbedding, m: int) -> np.ndarray:
    """First m entries of the embedding; m must be a declared prefix dimension."""
    m = e.dims.require(m)
    return e.values[:m]


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale v to unit L2 norm. Raises ZeroVectorError on (near-)zero input."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= EPS_ZERO:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm!r}")
    return v / norm


def cosine_prefix(a: NestedEmbedding, b: NestedEmbedding, m: int) -> float:
    """Cosine similarity of the m-prefixes of a and b, clamped to [-1, 1]."""
    ap = l2_normalize(truncate(a, m))
    bp = l2_normalize(truncate(b, m))
    return float(np.clip(np.dot(ap, bp), -1.0, 1.0))

