"""Condensed (``pdist`` order) distances and k-MST graphs on pooled observations.

The k-MST is the union of k successive spanning trees, each the minimum one
without the earlier trees' edges, grown as a single-linkage dendrogram (Gower &
Ross 1969) over edge ranks decided once; construction is fully deterministic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import pdist, squareform

from .core import ValidationError, _integer

__all__ = [
    "DisconnectedError",
    "DistanceMatrix",
    "SimilarityGraph",
    "distance_matrix",
    "precomputed_distance",
    "build_kmst",
]

_METRICS = {"euclidean": "euclidean", "manhattan": "cityblock"}
_KEY_MAX = np.iinfo(np.int64).max  # build_kmst's sort keys reach E**2 - 1


class DisconnectedError(RuntimeError):
    """No spanning tree exists once the earlier trees' edges are removed."""

    def __init__(self, message: str, level: int = 1) -> None:
        super().__init__(message)
        self.level = level


def _check_entries(d: np.ndarray) -> None:
    if not np.isfinite(d).all():
        raise ValidationError("distance matrix contains non-finite entries")
    if (d < 0).any():
        raise ValidationError("distance matrix contains negative entries")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Distances of the pairs u < v of N >= 2 nodes, condensed in pdist order."""

    condensed: np.ndarray
    metric: str

    def __post_init__(self) -> None:
        d = np.array(self.condensed, dtype=float)  # a private copy
        object.__setattr__(self, "condensed", d)
        n = self.n_nodes
        if d.ndim != 1 or n < 2 or n * (n - 1) // 2 != d.size:
            raise ValidationError(f"need N(N-1)/2 distances, N >= 2; got {d.shape}")
        _check_entries(d)
        d.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int((2 * self.condensed.size) ** 0.5) + 1  # sqrt(N(N-1)) < N - 1/2


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
    dist = pdist(points, _METRICS[metric])
    if not np.isfinite(dist).all():
        raise ValidationError(
            "distances between the finite pooled observations overflow float64 "
            f"(largest absolute coordinate {np.abs(points).max():.4g})"
        )
    return DistanceMatrix(dist, metric)


def precomputed_distance(matrix) -> DistanceMatrix:
    """Check and condense a user-supplied N x N matrix (any metric, evaluated)."""
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"distance matrix must be square, got {d.shape}")
    if d.shape[0] < 2:
        raise ValidationError("distance matrix needs at least 2 nodes")
    _check_entries(d)
    if not np.array_equal(d, d.T):
        raise ValidationError("distance matrix is not symmetric")
    if np.any(np.diag(d) != 0.0):
        raise ValidationError("distance matrix diagonal must be zero")
    return DistanceMatrix(squareform(d, checks=False), "precomputed")


@dataclass(frozen=True, eq=False)
class SimilarityGraph:
    """Undirected edge set over pooled nodes.

    ``edges`` is an (m, 2) integer array with u < v per row, rows sorted
    lexicographically.
    """

    edges: np.ndarray
    n_nodes: int

    def __post_init__(self) -> None:
        n = _integer(self.n_nodes, "n_nodes")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        if (lo == hi).any():
            raise ValidationError("self-loops are not allowed")
        if (lo < 0).any() or (hi >= n).any():
            raise ValidationError("edge endpoint out of range")
        keys = np.sort(lo * n + hi)  # rows in (u, v) order
        if (keys[1:] == keys[:-1]).any():
            raise ValidationError("duplicate edges are not allowed")
        edges = np.stack(np.divmod(keys, n), axis=1)
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_nodes", n)

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def _edge_order(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions sorted by (w, position), and w sorted; only ties are re-sorted."""
    order = np.argsort(w)  # equal weights come out in any order
    w = w[order]
    head = np.r_[True, w[1:] != w[:-1]]  # slot s starts an equal-weight run
    slots = np.flatnonzero(~(head & np.r_[head[1:], True]))  # in a tied run
    key = np.maximum.accumulate(np.where(head[slots], slots, 0)) * w.size
    key += order[slots]  # distinct (run start, position) keys
    key.sort()
    order[slots] = key % w.size
    return order, w


def _checked_k(k, n_nodes: int) -> int:
    """k as an int, refused unless 1 <= k <= floor(N/2) for N = ``n_nodes``."""
    k = _integer(k, "k")
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    if k > n_nodes // 2:
        raise ValidationError(
            f"k={k} exceeds floor(N/2)={n_nodes // 2}: the complete graph on "
            f"{n_nodes} nodes cannot hold {k} edge-disjoint spanning trees"
        )
    return k


def build_kmst(dist: DistanceMatrix, k: int = 5) -> SimilarityGraph:
    """Union of k successive edge-disjoint minimum spanning trees.

    Edges are ranked once by (weight, u, v), u < v, which is (weight, condensed
    position), so each level's tree is unique; scipy's single-linkage Prim grows
    it over the condensed ranks and returns its edges' ranks as merge heights. A
    used edge gets the rank ``gone`` = N(N-1)/2, above every real edge. Raises
    DisconnectedError at the first level that cannot span.
    """
    n = dist.n_nodes
    k = _checked_k(k, n)
    gone = n * (n - 1) // 2
    if gone * gone > _KEY_MAX:
        raise ValidationError(f"N={n} nodes overflow the k-MST's int64 sort keys")
    order, rank = _edge_order(dist.condensed)  # order[r]: the edge of rank r
    rank[order] = np.arange(gone)  # reuses the sorted weights' buffer
    chosen = []
    for level in range(1, k + 1):
        tree = linkage(rank, method="single")
        if tree[:, 2].max() == gone:
            labels = fcluster(tree, gone - 0.5, criterion="distance")
            raise DisconnectedError(
                f"graph is disconnected at MST level {level}: the tree from node "
                f"0 reaches only {np.count_nonzero(labels == labels[0])} of {n} nodes",
                level=level,
            )
        chosen.append(order[tree[:, 2].astype(np.int64)])
        rank[chosen[-1]] = gone
    pos = np.concatenate(chosen)
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # row u holds edges below ends[u]
    u = np.searchsorted(ends, pos, side="right")
    return SimilarityGraph(np.stack([u, pos - ends[u] + n], axis=1), n)
