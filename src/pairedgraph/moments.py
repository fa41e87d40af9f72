"""Exact null moments of the within-sample edge counts.

The tests condition on the similarity graph and randomize only over the 2^n
within-pair label swaps (each pair sends one node to sample 1 and the other
to sample 2, independently and uniformly; ``_partner`` states which pooled
nodes form a pair). Within-pair edges can never join two equal labels, so
every moment is a function of the cross-pair subgraph alone: of its edge
count m, its degree vector deg and the signed weight w of each pair-pair
link, the sum of t_u t_v over the link's edges with side sign t = +1 below
n and -1 otherwise. ``CrossPairGraph`` contracts its edges to these links
once, by ``_pair_links``, and keeps the table as ``links``; the moments,
the diagnostics and the swap counts of ``inference`` all read it.

A swap is a spin vector sigma in {+1, -1}^n with 4 (R1 + R2) = 2m +
2 sum w sigma_pa sigma_pb over the links {pa, pb} (``inference._swap_counts``
counts it on packed swap bits). The products sigma_pa sigma_pb of distinct
links are uncorrelated signs, so that sum has variance 4 sum w^2. So with
q = sum of w^2 over links and s = sum over pairs of (deg(i) - deg(i*))^2,
the counts R1 (both endpoints labeled 1) and R2 (both labeled 2) satisfy

    E(R1) = E(R2)     = m / 4
    Var(R1) = Var(R2) = (q + s) / 16
    Cov(R1, R2)       = (q - s) / 16
    Var(R1 + R2) = q / 4        Var(R1 - R2) = s / 4

All counting is done in 64-bit integers; floats appear only in the final
division, so every moment is an exact binary fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import ValidationError
from .graph import SimilarityGraph

__all__ = [
    "CrossPairGraph",
    "NullMoments",
    "ConditionDiagnostics",
    "extract_cross_pair_graph",
    "null_moments",
    "condition_diagnostics",
    "census_q3",
]


@dataclass(frozen=True, eq=False)
class CrossPairGraph:
    """Cross-pair edges and degrees, with the pair form derived from them once."""

    edges: np.ndarray  # (m, 2) int64, u < v, no edge joins a node to its partner
    deg: np.ndarray  # degree of every pooled node
    links: tuple = field(init=False)  # (pa, pb, mult, w) from _pair_links
    c: np.ndarray = field(init=False)  # deg(p) - deg(p + n) for every pair p
    q: int = field(init=False)  # w'w over the links
    s: int = field(init=False)  # c'c

    def __post_init__(self) -> None:
        n = self.n_pairs
        links = _pair_links(self.edges, n)
        c = self.deg[:n] - self.deg[n:]
        for arr in (self.edges, self.deg, *links, c):
            arr.setflags(write=False)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", int(links[3] @ links[3]))
        object.__setattr__(self, "s", int(c @ c))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.deg.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.deg.shape[0] // 2


@dataclass(frozen=True)
class NullMoments:
    """First and second moments of (R1, R2) under the label-swap null."""

    e_r1: float
    var_r1: float
    cov_r12: float
    var_sum: float  # Var(R1 + R2)
    var_diff: float  # Var(R1 - R2)

    @property
    def sigma_r(self) -> np.ndarray:
        return np.array(
            [[self.var_r1, self.cov_r12], [self.cov_r12, self.var_r1]]
        )


@dataclass(frozen=True)
class ConditionDiagnostics:
    """Raw graph quantities governing the quality of the normal limit.

    A cross-pair edge e joins two pairs pa and pb. ``sum_ab`` adds, over every
    such edge, |A_e| * |B_e|: A_e holds the edges touching pa or pb, B_e the
    edges touching N[pa] | N[pb], the closed pair-neighborhoods (the union of
    A_f over f in A_e). Small ``ab_ratio`` = sum_ab / q3^1.5 indicates a
    healthy normal approximation. No pass/fail verdict is attached.
    """

    sum_ab: int
    sum_degdiff_sq: int
    q3: int
    ab_ratio: float | None


def _partner(n_nodes: int) -> np.ndarray:
    """Partner of every pooled node.

    The pooled matrix holds the n pairs as rows 0..n-1 (first sample, x)
    followed by rows n..2n-1 (second sample, y), so node i is paired with
    node i +/- n. The observed labeling puts nodes below n in sample 1.
    """
    return (np.arange(n_nodes) + n_nodes // 2) % n_nodes


def _pair_id(nodes: np.ndarray, n_pairs: int) -> np.ndarray:
    """Pair of each pooled node: node i and its partner both map to i mod n."""
    return nodes % n_pairs


def extract_cross_pair_graph(graph: SimilarityGraph) -> CrossPairGraph:
    """Drop within-pair edges and compute the node degrees."""
    n_nodes = graph.n_nodes
    if n_nodes < 2 or n_nodes % 2:
        raise ValidationError(
            f"graph has {n_nodes} nodes; paired data need an even count of at "
            "least 2"
        )
    edges = graph.edges
    edges = edges[_partner(n_nodes)[edges[:, 0]] != edges[:, 1]]
    deg = np.bincount(edges.ravel(), minlength=n_nodes).astype(np.int64)
    return CrossPairGraph(edges=edges, deg=deg)


def _pair_links(edges: np.ndarray, n: int):
    """The cross edges contracted to pair-pair links {pa < pb}, once per graph.

    Returns int64 arrays (pa, pb, mult, w) with one entry per link: its edge
    count and its signed weight w = sum of t_u t_v over its edges, side sign
    t = +1 for nodes below n and -1 otherwise.
    """
    u, v = edges[:, 0], edges[:, 1]
    pu, pv = _pair_id(u, n), _pair_id(v, n)
    key = np.minimum(pu, pv) * n + np.maximum(pu, pv)
    links, link = np.unique(key, return_inverse=True)
    same_side = (u < n) == (v < n)
    plus = np.bincount(link[same_side], minlength=links.size)
    minus = np.bincount(link[~same_side], minlength=links.size)
    return links // n, links % n, plus + minus, plus - minus


def null_moments(cross: CrossPairGraph) -> NullMoments:
    """Closed-form moments of (R1, R2); exact binary fractions."""
    return NullMoments(
        e_r1=cross.n_edges / 4.0,
        var_r1=(cross.q + cross.s) / 16.0,
        cov_r12=(cross.q - cross.s) / 16.0,
        var_sum=cross.q / 4.0,
        var_diff=cross.s / 4.0,
    )


def condition_diagnostics(cross: CrossPairGraph) -> ConditionDiagnostics:
    """Pair-neighborhood sizes and the two variance numerators.

    With pairs contracted to pair-nodes (``cross.links``), W the symmetric
    link multiplicity matrix and dp = W 1: |A_e| = dp[pa] + dp[pb] - W[pa, pb]
    and |B_e| = X dp - X W X' / 2, X the indicator row of N[pa] | N[pb]. Each
    link {pa, pb} is evaluated once, weighted by W[pa, pb]; all in int64.
    """
    n, q = cross.n_pairs, cross.q
    pa, pb, w_link, _ = cross.links
    rows, cols = np.concatenate([pa, pb]), np.concatenate([pb, pa])
    w = sp.csr_matrix((np.tile(w_link, 2), (rows, cols)), shape=(n, n))
    dp = cross.deg[:n] + cross.deg[n:]
    closed = (w + sp.identity(n, dtype=np.int64, format="csr")).sign()
    x = (closed[pa] + closed[pb]).sign()
    a = dp[pa] + dp[pb] - w_link
    b = x @ dp - np.asarray(x.multiply(x @ w).sum(axis=1)).ravel() // 2

    sum_ab = int(w_link @ (a * b))
    ratio = float(sum_ab / q**1.5) if q > 0 else None
    return ConditionDiagnostics(
        sum_ab=sum_ab, sum_degdiff_sq=cross.s, q3=q, ab_ratio=ratio
    )


def census_q3(cross: CrossPairGraph) -> int:
    """Recompute q3 by a census over pairs of pairs.

    Every cross-pair edge joins exactly two pairs, so grouping edges by the
    unordered pair of pairs they connect partitions the graph into groups of
    at most 4 edges. Each group contributes

        (#edges) + 2 * (#edge pairs sharing no node)
                 - 2 * (#edge pairs sharing a node)

    and the grand total equals q, the sum of the squared link weights. Two
    distinct edges share at most one node, so a group of g edges, k_x of them
    at its node x (edges from x into the other pair), contributes
    g^2 - 2 * sum_x k_x (k_x - 1). This counts edges and never reads the
    signed weights: an independent path to q3 used as a cross-check.
    """
    n = cross.n_pairs
    u, v = cross.edges[:, 0], cross.edges[:, 1]
    pu, pv = _pair_id(u, n), _pair_id(v, n)
    g = np.unique(np.minimum(pu, pv) * n + np.maximum(pu, pv), return_counts=True)[1]
    k = np.unique(np.concatenate([u * n + pv, v * n + pu]), return_counts=True)[1]
    return int(g @ g) - 2 * int(k @ (k - 1))
