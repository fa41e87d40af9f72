"""Domain types for paired multivariate samples.

``pool`` stacks the two samples into one matrix whose rows are the graph
nodes; ``moments.CrossPairGraph`` states the pair layout this gives.
User-facing messages and files report 1-based indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["ValidationError", "PairedSample", "pool"]

# 17 significant digits: every float64 written as text reads back to the same bits
FLOAT_FORMAT = ".17g"


class ValidationError(ValueError):
    """Input violates a documented precondition."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool, a float or any other non-integer is refused."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def _check_seed(seed) -> int | None:
    """The seed as an int, refused unless a non-negative integer; None passes."""
    seed = None if seed is None else _integer(seed, "seed")
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _check_matrix(arr, name: str) -> np.ndarray:
    mat = np.asarray(arr, dtype=float)
    if mat.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {mat.shape}")
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        row, col = bad[0]
        raise ValidationError(
            f"non-finite entry in {name} at row {row + 1}, column {col + 1}"
        )
    return mat


@dataclass(frozen=True, eq=False)
class PairedSample:
    """n pairs of d-dimensional observations, one (x row, y row) per pair."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = _check_matrix(self.x, "x")
        y = _check_matrix(self.y, "y")
        if x.shape != y.shape:
            raise ValidationError(
                f"x and y must have identical shape, got {x.shape} and {y.shape}"
            )
        if x.shape[0] < 1:
            raise ValidationError("at least one pair is required")
        if x.shape[1] < 1:
            raise ValidationError("dimension must be at least 1")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def pool(sample: PairedSample) -> np.ndarray:
    """Stack the two samples into one read-only matrix: x rows, then y rows."""
    pooled = np.vstack([sample.x, sample.y])
    pooled.setflags(write=False)
    return pooled
