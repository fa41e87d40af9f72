"""Distance matrices and k-MST similarity graphs on pooled observations.

The k-MST is the union of k successive spanning trees: tree i is the minimum
spanning tree of the complete distance graph with the edges of trees 1..i-1
removed. One lexsort decides the edge order once, by (weight, smaller
endpoint, larger endpoint); Prim then grows each tree over these distinct
ranks, so construction is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import ValidationError

__all__ = [
    "DisconnectedError",
    "DistanceMatrix",
    "SimilarityGraph",
    "distance_matrix",
    "precomputed_distance",
    "build_kmst",
]

_METRICS = {"euclidean": "euclidean", "manhattan": "cityblock"}


class DisconnectedError(RuntimeError):
    """No spanning tree exists once the earlier trees' edges are removed."""

    def __init__(self, message: str, level: int = 1) -> None:
        super().__init__(message)
        self.level = level


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric, non-negative, zero-diagonal inter-point distances."""

    dist: np.ndarray
    metric: str

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValidationError(f"distance matrix must be square, got {d.shape}")
        if d.shape[0] < 2:
            raise ValidationError("distance matrix needs at least 2 nodes")
        if not np.isfinite(d).all():
            raise ValidationError("distance matrix contains non-finite entries")
        if (d < 0).any():
            raise ValidationError("distance matrix contains negative entries")
        if not np.array_equal(d, d.T):
            raise ValidationError("distance matrix is not symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValidationError("distance matrix diagonal must be zero")
        out = np.array(d, copy=True)
        out.setflags(write=False)
        object.__setattr__(self, "dist", out)

    @property
    def n_nodes(self) -> int:
        return self.dist.shape[0]


def distance_matrix(pooled, metric: str = "euclidean") -> DistanceMatrix:
    """Pairwise distances between the rows of ``pooled``."""
    if metric not in _METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of {sorted(_METRICS)} "
            "or a precomputed matrix"
        )
    points = np.asarray(pooled, dtype=float)
    if points.ndim != 2:
        raise ValidationError("pooled observations must be a 2-D matrix")
    if not np.isfinite(points).all():
        raise ValidationError("pooled observations contain non-finite entries")
    return DistanceMatrix(cdist(points, points, metric=_METRICS[metric]), metric)


def precomputed_distance(matrix) -> DistanceMatrix:
    """Wrap a user-supplied distance matrix (any metric, already evaluated)."""
    return DistanceMatrix(np.asarray(matrix, dtype=float), "precomputed")


@dataclass(frozen=True)
class SimilarityGraph:
    """Undirected edge set over pooled nodes.

    ``edges`` is an (m, 2) integer array with u < v per row, rows sorted
    lexicographically. ``k`` records the MST multiplicity when the graph was
    built as a k-MST (0 for ad hoc edge sets).
    """

    edges: np.ndarray
    n_nodes: int
    k: int = 0

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            lo = edges.min(axis=1)
            hi = edges.max(axis=1)
            if (lo == hi).any():
                raise ValidationError("self-loops are not allowed")
            if lo.min() < 0 or hi.max() >= self.n_nodes:
                raise ValidationError("edge endpoint out of range")
            edges = np.stack([lo, hi], axis=1)
            keys = lo * self.n_nodes + hi
            if np.unique(keys).size != keys.size:
                raise ValidationError("duplicate edges are not allowed")
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def build_kmst(dist: DistanceMatrix, k: int = 5) -> SimilarityGraph:
    """Union of k successive edge-disjoint minimum spanning trees.

    One lexsort ranks every edge by (weight, smaller endpoint, larger
    endpoint). The ranks are distinct, so each level's tree is unique, and
    Prim grows it from node 0 over the ranks alone. A used edge, like the
    diagonal, gets the rank ``gone`` = N(N-1)/2, above every real edge.
    Raises DisconnectedError with the first level whose tree cannot span.
    """
    if int(k) != k or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    k = int(k)
    n = dist.n_nodes
    if k > n // 2:
        raise ValidationError(
            f"k={k} exceeds floor(N/2)={n // 2}: the complete graph on {n} "
            f"nodes cannot hold {k} edge-disjoint spanning trees"
        )
    iu, iv = np.triu_indices(n, 1)
    order = np.lexsort((iv, iu, dist.dist[iu, iv]))
    iu, iv = iu[order], iv[order]  # edge r is (iu[r], iv[r])
    gone = iu.size
    rank = np.full((n, n), gone, dtype=np.int64)
    rank[iu, iv] = rank[iv, iu] = np.arange(gone)
    chosen = []
    # best[w] is the lowest rank joining outside node w to the tree; a tree
    # node holds gone + 1, so argmin picks an outside node while one is left
    for level in range(1, k + 1):
        best = rank[0].copy()
        best[0] = gone + 1
        outside = np.ones(n, dtype=bool)
        outside[0] = False
        for reached in range(1, n):
            v = int(best.argmin())
            r = int(best[v])
            if r == gone:
                raise DisconnectedError(
                    f"graph is disconnected at MST level {level}: the tree "
                    f"from node 0 reaches only {reached} of {n} nodes",
                    level=level,
                )
            chosen.append(r)
            a, b = iu[r], iv[r]
            rank[a, b] = rank[b, a] = gone
            outside[v] = False
            best[v] = gone + 1
            np.minimum(best, rank[v], out=best, where=outside)
    chosen = np.array(chosen, dtype=np.int64)
    return SimilarityGraph(np.stack([iu[chosen], iv[chosen]], axis=1), n, k=k)
