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
the diagnostics and the swap counts of ``inference`` all read it. It also
counts the observed R1 and R2 once, as ``r1`` and ``r2``.

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

The normal-approximation diagnostic sum_ab is evaluated on the same
pair-nodes (``condition_diagnostics``): with C the closed pair adjacency and
W the matrix of the links' multiplicities mult, dense n x n tables of M = C W,
of C's membership and of Y' diag(mult) Y (Y the indicator rows of the links'
common closed neighbourhoods N[a] & N[b]) are read per link by plain
indexing. Links are taken a bounded block at a time, so no indicator of
N[a] | N[b] over all links is ever built.

All counting is done in 64-bit integers; floats appear only in the final
division, so every moment is an exact binary fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import ValidationError, _integer
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
    """Cross-pair edges on n_pairs pairs, with the degrees, the pair form and
    the observed counts (nodes below n in sample 1) derived from them once."""

    edges: np.ndarray  # (m, 2) int64, u < v, no edge joins a node to its partner
    n_pairs: int
    deg: np.ndarray = field(init=False)  # degree of every pooled node
    links: tuple = field(init=False)  # (pa, pb, mult, w) from _pair_links
    c: np.ndarray = field(init=False)  # deg(p) - deg(p + n) for every pair p
    q: int = field(init=False)  # w'w over the links
    s: int = field(init=False)  # c'c
    r1: int = field(init=False)  # edges with v < n
    r2: int = field(init=False)  # edges with u >= n

    def __post_init__(self) -> None:
        n = _integer(self.n_pairs, "n_pairs")
        if n < 1:
            raise ValidationError(
                f"a cross-pair graph needs at least one pair, got {n}"
            )
        edges = np.array(self.edges, dtype=np.int64).reshape(-1, 2)  # a private copy
        u, v = edges[:, 0], edges[:, 1]
        if edges.size and (edges.min() < 0 or edges.max() >= 2 * n):
            raise ValidationError("edge endpoint out of range")
        if (u >= v).any():
            raise ValidationError("every cross-pair edge (u, v) needs u < v")
        if (v - u == n).any():
            raise ValidationError("an edge joins a node to its partner")
        # duplicate edges are allowed: a multigraph's links just weigh more
        deg = np.bincount(edges.ravel(), minlength=2 * n).astype(np.int64)
        links = _pair_links(edges, n)
        c = deg[:n] - deg[n:]
        for arr in (edges, deg, *links, c):
            arr.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "n_pairs", n)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "links", links)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", int(links[3] @ links[3]))
        object.__setattr__(self, "s", int(c @ c))
        object.__setattr__(self, "r1", int(np.count_nonzero(v < n)))
        object.__setattr__(self, "r2", int(np.count_nonzero(u >= n)))

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_pairs


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
    """Drop within-pair edges; the degrees follow from the edges that remain."""
    n_nodes = graph.n_nodes
    if n_nodes < 2 or n_nodes % 2:
        raise ValidationError(
            f"graph has {n_nodes} nodes; paired data need an even count of at "
            "least 2"
        )
    edges = graph.edges
    edges = edges[_partner(n_nodes)[edges[:, 0]] != edges[:, 1]]
    return CrossPairGraph(edges=edges, n_pairs=n_nodes // 2)


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


# Links are evaluated in blocks of about this many gathered entries of N[b],
# so the diagnostics' gathers stay bounded on dense graphs too; a block's
# product Y' diag(mult) Y has at most n^2 entries whatever its size.
_LINK_BUDGET = 1 << 17


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of the consecutive runs of ``values`` with the given lengths."""
    total = np.r_[0, np.cumsum(values)]
    return np.diff(total[np.r_[0, np.cumsum(lengths)]])


def _blocks(cost: np.ndarray, budget: int):
    """Consecutive (start, stop) runs of items, each run's cost below budget
    plus the cost of its last item."""
    first = np.cumsum(cost) - cost
    bounds = np.r_[0, np.flatnonzero(np.diff(first // budget)) + 1, cost.size]
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def condition_diagnostics(cross: CrossPairGraph) -> ConditionDiagnostics:
    """Pair-neighborhood sizes and the two variance numerators.

    Pairs are contracted to pair-nodes (``cross.links``): C is the closed
    pair adjacency, W the symmetric matrix of the link multiplicities mult,
    dp = W 1, D = C dp and M = C W. A link e = {a, b} covers |A_e| = dp[a] +
    dp[b] - W[a, b] edges, and |B_e| = u'dp - u'W u / 2 with u the indicator
    of N[a] | N[b]. With y_e the indicator of I_e = N[a] & N[b] (it holds a
    and b) and S[a] the sum of M[a, j] over j in N[a],

        u'dp  = D[a] + D[b] - sum_{t in I_e} dp[t]
        u'W u = S[a] + S[b] + 2 sum_{j in N[b]} M[a, j]
                - 2 sum_{t in I_e} (M[a, t] + M[b, t]) + y_e'W y_e,

    and as a link f lies inside I_e exactly when a and b lie in I_f,
    y_e'W y_e = 2 (Y' diag(mult) Y)[a, b], Y the links x n indicator of the
    sets I_f. Per link only N[b] (the smaller closed neighborhood) is
    gathered from dense n x n tables of M and of C's membership, and
    Y' diag(mult) Y is summed into a third, in blocks of about ``_LINK_BUDGET``
    gathered entries. The tables take 2 * 8 n^2 + n^2 bytes, below the
    k-MST's three E-length 8-byte arrays on the same 2n nodes (about 48 n^2
    bytes). Each link is weighted by W[a, b]; every count is int64, and no
    BLAS routine is called.
    """
    n, q = cross.n_pairs, cross.q
    pa, pb, w_link, _ = cross.links
    dp = cross.deg[:n] + cross.deg[n:]
    # W with an explicit 0 on the diagonal, so that C shares its structure
    nodes = np.arange(n)
    w = sp.csr_matrix(
        (
            np.concatenate([w_link, w_link, np.zeros(n, np.int64)]),
            (np.concatenate([pa, pb, nodes]), np.concatenate([pb, pa, nodes])),
        ),
        shape=(n, n),
    )
    c = sp.csr_matrix((np.ones_like(w.data), w.indices, w.indptr), shape=(n, n))
    size = np.diff(c.indptr)  # |N[r]|
    rows = np.repeat(nodes, size)
    m = (c @ w).toarray()
    member = np.zeros((n, n), dtype=bool)  # j in N[r]
    member[rows, c.indices] = True
    d = c @ dp
    s = _run_sums(m[rows, c.indices], size)
    g = np.zeros((n, n), dtype=np.int64)  # Y' diag(mult) Y over all links

    a, b = np.where(size[pa] < size[pb], (pb, pa), (pa, pb))
    sizes_b = np.empty(a.size, np.int64)
    for lo, hi in _blocks(size[b], _LINK_BUDGET):
        a_, b_ = a[lo:hi], b[lo:hi]
        link = np.repeat(np.arange(hi - lo), size[b_])
        j = c[b_].indices  # N[b] of every link
        m_aj = m[a_[link], j]
        common = member[a_[link], j]  # j in I
        t, owner = j[common], link[common]
        i_size = np.bincount(owner, minlength=hi - lo)
        m_i = m_aj[common] + m[b_[owner], t]
        u_dp = d[a_] + d[b_] - _run_sums(dp[t], i_size)
        u_w_u = s[a_] + s[b_] + 2 * _run_sums(m_aj, size[b_]) - 2 * _run_sums(m_i, i_size)
        sizes_b[lo:hi] = u_dp - u_w_u // 2  # u'W u less its y'W y term, read below
        indptr = np.r_[0, np.cumsum(i_size)]
        y = sp.csr_matrix((np.ones_like(t), t, indptr), shape=(hi - lo, n))
        wy = sp.csr_matrix((w_link[lo:hi][owner], t, indptr), shape=(hi - lo, n))
        prod = (y.T @ wy).tocoo()  # no repeated (row, col): += adds each once
        g[prod.row, prod.col] += prod.data
    sizes_b -= g[a, b]
    sizes_a = dp[pa] + dp[pb] - w_link
    sum_ab = int(w_link @ (sizes_a * sizes_b))
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
