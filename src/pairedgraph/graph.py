"""Condensed (``pdist`` order) distances and k-MST graphs on pooled observations.

The k-MST is the union of k successive spanning trees, each the minimum one
without the earlier trees' edges, grown as a single-linkage dendrogram (Gower &
Ross 1969). Its heights are the distances with an edge label in their low
mantissa bits, so they order like (weight, position) and name the chosen
edges; construction is fully deterministic.
"""

from dataclasses import dataclass
from typing import NamedTuple

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
_LABEL_BITS = 32  # edge labels; a near-tie sort packs two in one uint64 key
_SLICE = 1 << 16  # keys labelled, scanned or relabelled at a time
_GONE = np.finfo(np.float64).max  # a used edge's key: its label is all ones


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
        self._own(np.array(self.condensed, dtype=float))  # a private copy

    def _own(self, d: np.ndarray) -> None:
        """Check ``d`` and keep it, read-only, as the condensed distances."""
        object.__setattr__(self, "condensed", d)
        n = self.n_nodes
        if d.ndim != 1 or n < 2 or n * (n - 1) // 2 != d.size:
            raise ValidationError(f"need N(N-1)/2 distances, N >= 2; got {d.shape}")
        _check_entries(d)
        d.setflags(write=False)

    @classmethod
    def _adopt(cls, d: np.ndarray, metric: str) -> "DistanceMatrix":
        """A DistanceMatrix over a fresh float vector no caller holds, not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "metric", metric)
        out._own(d)
        return out

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
    return DistanceMatrix._adopt(dist, metric)


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
    return DistanceMatrix._adopt(squareform(d, checks=False), "precomputed")


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


def _labelled(wbits: np.ndarray, key: np.ndarray, high: np.uint64) -> None:
    """Write w's high bits into ``key`` and each edge's position below them."""
    np.bitwise_and(wbits, high, out=key)
    for start in range(0, key.size, _SLICE):  # no E-length arange is held
        stop = min(start + _SLICE, key.size)
        key[start:stop] |= np.arange(start, stop, dtype=np.uint64)


def _positions(key: np.ndarray, low: np.uint64) -> np.ndarray:
    """The labels of ``key`` as an int64 index array, which numpy need not cast."""
    return (key & low).view(np.int64)


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """``ascending`` without its repeats."""
    keep = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=keep[1:])
    return ascending[keep]


def _near_tie_buckets(key: np.ndarray, w: np.ndarray, low: np.uint64) -> np.ndarray:
    """High bits, ascending, of the buckets of sorted ``key`` whose weights differ."""
    shift = np.uint64(int(low).bit_length())
    found = [np.zeros(0, dtype=np.uint64)]  # E = 1 has no pair of slots
    for start in range(0, key.size - 1, _SLICE):
        run = key[start:min(start + _SLICE, key.size - 1) + 1]
        pair = np.flatnonzero((run[1:] ^ run[:-1]) <= low)  # t, t + 1 share a bucket
        seen = w[_positions(run[pair], low)]
        pair = pair[seen != w[_positions(run[pair + 1], low)]]
        found.append(_distinct(run[pair] >> shift))
    return _distinct(np.concatenate(found))  # a bucket may cross a slice boundary


def _chunks(offset: np.ndarray):
    """(lo, hi) spans of whole buckets, of up to _SLICE slots or one bucket."""
    lo = 0
    while lo < offset.size - 1:
        hi = max(lo + 1, int(np.searchsorted(offset, offset[lo] + _SLICE, "right")) - 1)
        yield lo, hi
        lo = hi


class _Labels(NamedTuple):
    """How to read an edge's position from its key."""

    low: np.uint64  # the label bits
    buckets: np.ndarray  # high bits of the relabelled buckets, ascending
    offset: np.ndarray  # bucket b's edges are order[offset[b]:offset[b + 1]]
    order: np.ndarray  # positions of the relabelled edges, in label order


def _edge_keys(w: np.ndarray) -> tuple[np.ndarray, _Labels]:
    """uint64 keys of the edges in (w, position) order, and how to decode them.

    A key is w's bits with the low L = E.bit_length() mantissa bits replaced by
    a label, so the keys of finite weights w >= 0 order like the weights
    except within a bucket of equal high bits. The label is the edge's
    position, which orders exact ties. A bucket whose weights differ in the
    dropped bits is relabelled 0, 1, ... in (w, position) order instead. The
    all-ones label is no edge's, so every key is below the largest finite float.
    """
    bits = w.size.bit_length()
    low = np.uint64((1 << bits) - 1)
    high = np.uint64(0x7FFF_FFFF_FFFF_FFFF) & ~low  # and a -0.0 sorts as 0.0
    shift = np.uint64(bits)
    wbits = w.view(np.uint64)
    key = np.empty(w.size, dtype=np.uint64)
    _labelled(wbits, key, high)
    key.sort()  # by (high bits, position): a bucket is a run of sorted slots
    buckets = _near_tie_buckets(key, w, low)
    first = np.searchsorted(key, buckets << shift)
    sizes = np.searchsorted(key, (buckets + np.uint64(1)) << shift) - first
    offset = np.zeros(buckets.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offset[1:])
    order = np.empty(offset[-1], dtype=np.uint32)
    for lo, hi in _chunks(offset):
        count = int(offset[hi] - offset[lo])
        slot = np.arange(count)  # in the chunk; + base is the sorted slot
        base = np.repeat(first[lo:hi] - offset[lo:hi] + offset[lo], sizes[lo:hi])
        pos = _positions(key[base + slot], low)
        # (bucket, dropped weight bits, slot) composites, the slot keeping
        # ties in position order: 31 + L bits for many buckets, 2L for one
        width = np.uint64((count - 1).bit_length())
        sort = np.arange(hi - lo, dtype=np.uint64) << shift + width
        sort = np.repeat(sort, sizes[lo:hi])
        sort |= (wbits[pos] & low) << width
        sort |= slot.astype(np.uint64)
        sort.sort()
        order[offset[lo]:offset[hi]] = pos[sort & (np.uint64(1) << width) - np.uint64(1)]
    _labelled(wbits, key, high)
    for lo, hi in _chunks(offset):  # label: offset - the bucket's first offset
        label = (offset[lo:hi] - offset[lo]).astype(np.uint64)
        label = np.repeat((buckets[lo:hi] << shift) - label, sizes[lo:hi])
        label += np.arange(label.size, dtype=np.uint64)
        np.put(key, order[offset[lo]:offset[hi]], label)  # no intp copy of order
    return key, _Labels(low, buckets, offset, order)


def _edge_positions(heights: np.ndarray, labels: _Labels) -> np.ndarray:
    """Condensed positions of the edges whose keys are ``heights``."""
    key = np.ascontiguousarray(heights).view(np.uint64)
    pos = (key & labels.low).astype(np.int64)
    if labels.buckets.size:
        bucket = key >> np.uint64(int(labels.low).bit_length())
        at = np.searchsorted(labels.buckets, bucket)
        at = np.minimum(at, labels.buckets.size - 1)
        hit = labels.buckets[at] == bucket
        pos[hit] = labels.order[labels.offset[at[hit]] + pos[hit]]
    return pos


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

    Edges are ordered by (weight, u, v), u < v, which is (weight, condensed
    position), so each level's tree is unique. scipy's single-linkage Prim
    grows it over float keys in that order (``_edge_keys``) and returns the
    chosen keys, bit for bit, as merge heights. A used edge gets the key
    ``_GONE``, the largest finite float, above every real key. Raises
    DisconnectedError at the first level that cannot span.
    """
    n = dist.n_nodes
    k = _checked_k(k, n)
    bits = (n * (n - 1) // 2).bit_length()
    if bits > _LABEL_BITS:
        raise ValidationError(
            f"N={n} nodes need {bits}-bit edge labels; the k-MST's keys hold "
            f"{_LABEL_BITS}"
        )
    key, labels = _edge_keys(dist.condensed)
    height = key.view(np.float64)
    chosen = []
    for level in range(1, k + 1):
        tree = linkage(height, method="single")
        if tree[:, 2].max() == _GONE:
            cluster = fcluster(tree, np.nextafter(_GONE, 0), criterion="distance")
            raise DisconnectedError(
                f"graph is disconnected at MST level {level}: the tree from node "
                f"0 reaches only {np.count_nonzero(cluster == cluster[0])} of {n} nodes",
                level=level,
            )
        chosen.append(_edge_positions(tree[:, 2], labels))
        height[chosen[-1]] = _GONE
    pos = np.concatenate(chosen)
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # row u holds edges below ends[u]
    u = np.searchsorted(ends, pos, side="right")
    return SimilarityGraph(np.stack([u, pos - ends[u] + n], axis=1), n)
