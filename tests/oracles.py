"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from the definitions, without reusing
the library's vectorized machinery: plain loops over all 2^n label swaps,
Prufer-sequence enumeration of spanning trees, Kruskal passes for the k-MST,
the k-MST's earlier edge ranking (one key sort over every edge) and its
earlier construction over those ranks (an argsort, a tie re-sort and a rank
scatter),
exact rational arithmetic for permutation p-values, a per-edge label gather
for swap counts, the earlier dense spin form of the swap counts (an n x n
float pair matrix), edge-pair key matching for the variance count q, the
pair-of-pairs census of q3 as a loop over edge pairs, the condition
diagnostics' earlier sparse form (an m_links x n neighbourhood indicator
times the link matrix), the paired-CSV reader's earlier cell-by-cell record
loop, the generator's earlier draw through the dense 2d x 2d stacked
covariance, the Monte Carlo swap bits drawn one bounded uint8 at a time,
and the paired t-test that checks Hotelling's T2 at d = 1. One helper is
no oracle: ``packed_words`` packs swap bit rows with the library's own
``_pack_into``, so tests can feed chosen swaps to the counting code.
"""

import csv
import itertools
import math
from fractions import Fraction
from io import StringIO
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform
from scipy.special import stdtr

from pairedgraph import (
    ConditionDiagnostics,
    DisconnectedError,
    PairedSample,
    ValidationError,
)
from pairedgraph.inference import _pack_into
from pairedgraph.io import _expected_header, _read_text


def enumerate_counts(edges, n):
    """(r1, r2) under every one of the 2^n within-pair swaps, in code order.

    Swap code bit p set means pair p exchanges labels; node p (p < n) then
    carries label 2 and node p + n label 1.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    table = []
    for code in range(1 << n):
        first = [2 if (code >> p) & 1 else 1 for p in range(n)]
        labels = first + [3 - lab for lab in first]
        r1 = sum(1 for u, v in edges if labels[u] == 1 and labels[v] == 1)
        r2 = sum(1 for u, v in edges if labels[u] == 2 and labels[v] == 2)
        table.append((r1, r2))
    return table


def gather_counts(cross, flips):
    """(r1, r2) for a batch of swap bit rows, by looking up every edge's labels.

    Bit 0 keeps the first-sample node of a pair labeled 1, so a node is
    labeled 1 exactly when its side (rows below n are side 0) equals its
    pair's bit. Four B x m boolean gathers per batch.
    """
    n = cross.n_pairs
    flips = np.asarray(flips, dtype=bool)
    u, v = cross.edges[:, 0], cross.edges[:, 1]
    lu = flips[:, u % n] == (u >= n)
    lv = flips[:, v % n] == (v >= n)
    r1 = (lu & lv).sum(axis=1)
    r2 = (~lu & ~lv).sum(axis=1)
    return r1.astype(np.int64), r2.astype(np.int64)


def spin_dtype(n_edges):
    """float32 while 2m <= 2^24, where it counts swaps exactly; else float64."""
    return np.float32 if 2 * n_edges <= 1 << 24 else np.float64


def dense_spin_counts(cross, flips):
    """(r1, r2) for a batch of swap bit rows, as the package once counted them.

    A bit b_p becomes the spin sigma_p = 1 - 2 b_p, and with W the symmetric
    n x n matrix of the link weights (zero diagonal)

        2 (R1 - R2) = c' sigma,    4 (R1 + R2) = 2m + sigma' W sigma,

    one mat-vec and one B x n by n x n product. Every partial sum is an
    integer bounded by 2m, so floats with a 24-bit significand hold it
    exactly in any summation order while 2m <= 2^24 (``spin_dtype``).
    """
    n, m = cross.n_pairs, cross.n_edges
    dtype = spin_dtype(m)
    pa, pb, _, w_link = cross.links
    w = np.zeros((n, n), dtype=dtype)
    w[pa, pb] = w_link
    w[pb, pa] = w_link
    s = np.asarray(flips).astype(dtype)
    s *= -2
    s += 1
    diff = (s @ cross.c.astype(dtype)).astype(np.int64)  # 2 (R1 - R2)
    total = 2 * m + np.einsum("ij,ij->i", s @ w, s).astype(np.int64)  # 4 (R1 + R2)
    return (total + 2 * diff) // 8, (total - 2 * diff) // 8


def mirror_counts(cross):
    """(c1, c2): the two edge-pair counts behind q = m + 2 c1 - 2 c2.

    c1 counts unordered pairs of edges that are partner images of each other,
    {(i, j), (i*, j*)}; c2 counts unordered pairs of distinct edges sharing
    an endpoint whose other endpoints are partners, {(i, j), (i, j*)}. Found
    by key matching on the edge list, without contracting pairs.
    """
    if cross.n_edges == 0:
        return 0, 0
    n_nodes = cross.n_nodes
    partner = (np.arange(n_nodes) + cross.n_pairs) % n_nodes
    u, v = cross.edges[:, 0], cross.edges[:, 1]
    keys = u * n_nodes + v
    # c1: edge (u, v) whose partner image (u*, v*) is also present; each
    # unordered pair of mirror-image edges is detected from both sides.
    mu, mv = partner[u], partner[v]
    mirror = np.minimum(mu, mv) * n_nodes + np.maximum(mu, mv)
    c1 = int(np.isin(mirror, keys).sum()) // 2
    # c2: directed incidences (i, j) such that (i, j*) is also an edge; each
    # unordered pair {(i, j), (i, j*)} is detected from both of its j-side
    # endpoints.
    di = np.concatenate([u, v])
    dj = np.concatenate([v, u])
    dir_keys = di * n_nodes + dj
    swapped = di * n_nodes + partner[dj]
    c2 = int(np.isin(swapped, dir_keys).sum()) // 2
    return c1, c2


def empirical_moments(edges, n):
    """Population moments of (R1, R2) over the full swap set."""
    table = enumerate_counts(edges, n)
    total = len(table)
    r1 = [a for a, _ in table]
    r2 = [b for _, b in table]
    e1 = sum(r1) / total
    e2 = sum(r2) / total
    var1 = sum((a - e1) ** 2 for a in r1) / total
    var2 = sum((b - e2) ** 2 for b in r2) / total
    cov = sum((a - e1) * (b - e2) for a, b in table) / total
    var_sum = sum((a + b - e1 - e2) ** 2 for a, b in table) / total
    var_diff = sum((a - b - e1 + e2) ** 2 for a, b in table) / total
    return {
        "e_r1": e1,
        "e_r2": e2,
        "var_r1": var1,
        "var_r2": var2,
        "cov_r12": cov,
        "var_sum": var_sum,
        "var_diff": var_diff,
    }


def integers_swap_bits(rng, size, n):
    """(size, n) Monte Carlo swap bits as ``Generator.integers`` draws them,
    one bounded uint8 per bit."""
    return rng.integers(0, 2, size=(size, n), dtype=np.uint8)


def packed_words(bits):
    """(B, n) swap bit rows as (n, ceil(B / 64)) words, pairs-major, zero padded."""
    size, n = bits.shape
    buf = np.zeros((n, 8 * -(-size // 64)), dtype=np.uint8)
    _pack_into(buf, bits)
    return buf.view("<u8")


def exact_pvalues(edges, n, strict=False):
    """Exact permutation p-values for the identity labeling, by definition.

    Rational arithmetic throughout, so ties are unambiguous. Returns
    (p_m, p_s, p_g) with None where the null variance is zero.
    """
    table = enumerate_counts(edges, n)
    total = len(table)
    mom = empirical_moments(edges, n)
    e1 = Fraction(sum(a for a, _ in table), total)
    var1 = Fraction(sum((Fraction(a) - e1) ** 2 for a, _ in table), total)
    cov = Fraction(
        sum((Fraction(a) - e1) * (Fraction(b) - e1) for a, b in table), total
    )
    det = var1 * var1 - cov * cov

    obs_r1, obs_r2 = table[0]

    def tail(values, observed):
        if strict:
            hits = sum(1 for v in values if v > observed)
        else:
            hits = sum(1 for v in values if v >= observed)
        return Fraction(hits, total)

    p_m = p_s = p_g = None
    if mom["var_sum"] > 0:
        p_m = tail([a + b for a, b in table], obs_r1 + obs_r2)
    if mom["var_diff"] > 0:
        p_s = tail([abs(a - b) for a, b in table], abs(obs_r1 - obs_r2))
    if det > 0:

        def quad(a, b):
            v1 = Fraction(a) - e1
            v2 = Fraction(b) - e1
            return (var1 * (v1 * v1 + v2 * v2) - 2 * cov * v1 * v2) / det

        p_g = tail([quad(a, b) for a, b in table], quad(obs_r1, obs_r2))
    return p_m, p_s, p_g


def tree_from_prufer(seq, n_nodes):
    """Decode a Prufer sequence into its labeled tree (list of sorted edges)."""
    degree = [1] * n_nodes
    for s in seq:
        degree[s] += 1
    alive = set(range(n_nodes))
    edges = []
    for s in seq:
        leaf = min(i for i in alive if degree[i] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
        alive.discard(leaf)
    u, v = sorted(i for i in alive if degree[i] == 1)
    edges.append((u, v))
    return edges


def all_spanning_trees(n_nodes):
    """Every labeled tree on n_nodes nodes (n_nodes^(n_nodes-2) of them)."""
    if n_nodes == 2:
        yield [(0, 1)]
        return
    seq = [0] * (n_nodes - 2)
    while True:
        yield tree_from_prufer(seq, n_nodes)
        pos = len(seq) - 1
        while pos >= 0 and seq[pos] == n_nodes - 1:
            seq[pos] = 0
            pos -= 1
        if pos < 0:
            return
        seq[pos] += 1


def brute_sum_ab(cross):
    """sum over cross-pair edges e of |A_e| * |B_e|, by explicit edge sets.

    A_e holds the edges touching an endpoint of e or the partner of one; B_e
    is the union of A_f over f in A_e. One np.unique per edge and per hood.
    """
    if cross.n_edges == 0:
        return 0

    partner = (np.arange(cross.n_nodes) + cross.n_pairs) % cross.n_nodes
    incident = [[] for _ in range(cross.n_nodes)]
    for eid, (a, b) in enumerate(cross.edges):
        incident[a].append(eid)
        incident[b].append(eid)

    neighborhoods = []
    for a, b in cross.edges:
        ids = (
            incident[a]
            + incident[partner[a]]
            + incident[b]
            + incident[partner[b]]
        )
        neighborhoods.append(np.unique(np.array(ids, dtype=np.int64)))

    sum_ab = 0
    for hood in neighborhoods:
        two_step = np.unique(np.concatenate([neighborhoods[f] for f in hood]))
        sum_ab += hood.size * two_step.size
    return int(sum_ab)


def sparse_condition_diagnostics(cross) -> ConditionDiagnostics:
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


def min_spanning_weight(dist):
    """Minimum spanning tree weight by exhaustive enumeration."""
    n = dist.shape[0]
    best = np.inf
    for tree in all_spanning_trees(n):
        weight = sum(dist[u, v] for u, v in tree)
        best = min(best, weight)
    return best


def kruskal_kmst(dist, k):
    """k-MST edges of a DistanceMatrix by k Kruskal passes, rows sorted.

    All N(N-1)/2 edges are sorted once by (weight, u, v); each pass runs a
    union-find over the edges no earlier pass took. Raises DisconnectedError
    with the first level whose pass cannot complete a spanning tree.
    """
    n = dist.n_nodes
    iu, iv = np.triu_indices(n, 1)
    order = np.lexsort((iv, iu, squareform(dist.condensed)[iu, iv]))
    us = iu[order].tolist()
    vs = iv[order].tolist()
    taken = bytearray(len(us))
    edges = []
    for level in range(1, k + 1):
        parent = list(range(n))
        size = [1] * n
        found = 0
        for pos in range(len(us)):
            if taken[pos]:
                continue
            a = us[pos]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = vs[pos]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a == b:
                continue
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            taken[pos] = 1
            edges.append((us[pos], vs[pos]))
            found += 1
            if found == n - 1:
                break
        else:
            raise DisconnectedError(f"no spanning tree at level {level}", level=level)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def key_sort_order(w):
    """Positions sorted by (w, position) as build_kmst once ranked them.

    One int64 sort over all E edges of (equal-weight run, position) keys,
    built after an argsort whose tie order is arbitrary.
    """
    gone = w.size
    order = np.argsort(w)
    w = w[order]
    key = np.zeros(gone, dtype=np.int64)
    np.cumsum(w[1:] != w[:-1], out=key[1:])  # equal-weight run of each slot
    key *= gone
    key += order
    key.sort()
    return key % gone


def edge_order(w):
    """Positions sorted by (w, position), and w sorted; only ties are re-sorted."""
    order = np.argsort(w)  # equal weights come out in any order
    w = w[order]
    head = np.ones(w.size, dtype=bool)  # slot s starts an equal-weight run
    np.not_equal(w[1:], w[:-1], out=head[1:])
    if head.all():  # no ties, so no run masks to build
        return order, w
    slots = np.flatnonzero(~(head & np.r_[head[1:], True]))  # in a tied run
    key = np.maximum.accumulate(np.where(head[slots], slots, 0)) * w.size
    key += order[slots]  # distinct (run start, position) keys
    key.sort()
    order[slots] = key % w.size
    return order, w


def rank_kmst(dist, k):
    """k-MST edges of a DistanceMatrix over float ranks of (weight, position).

    ``edge_order`` ranks the edges once; scipy's single linkage grows each
    level's tree over the ranks and returns the chosen ranks as merge
    heights, and a used edge is ranked E = N(N-1)/2, above every real edge.
    Raises DisconnectedError, with build_kmst's message, at the first level
    that cannot span.
    """
    n = dist.n_nodes
    gone = n * (n - 1) // 2
    order, rank = edge_order(dist.condensed)  # order[r]: the edge of rank r
    rank[order] = np.arange(gone)
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
    iu, iv = np.triu_indices(n, 1)
    edges = np.stack([iu[pos], iv[pos]], axis=1)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def random_cross_edges(rng, n, prob=None):
    """A random admissible cross-pair edge set on 2n nodes (0-based)."""
    if prob is None:
        prob = rng.uniform(0.15, 0.7)
    edges = []
    for u in range(2 * n):
        for v in range(u + 1, 2 * n):
            if v == u + n:
                continue
            if rng.random() < prob:
                edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def census_q3_loop(cross):
    """q3 by walking every pair-pair group of edges and every pair of its edges.

    Each group of edges joining the same two pairs adds its edge count, +2 per
    two edges sharing no node and -2 per two edges sharing one.
    """
    if cross.n_edges == 0:
        return 0
    n = cross.n_pairs
    u, v = cross.edges[:, 0], cross.edges[:, 1]
    pu, pv = u % n, v % n
    group = np.minimum(pu, pv) * n + np.maximum(pu, pv)
    order = np.argsort(group, kind="stable")
    total = 0
    for _, members in itertools.groupby(order, key=lambda eid: group[eid]):
        ids = list(members)
        total += len(ids)
        for a, b in itertools.combinations(ids, 2):
            shared = len(
                {int(u[a]), int(v[a])} & {int(u[b]), int(v[b])}
            )
            total += -2 if shared else 2
    return total


def read_paired_csv_by_cell(path) -> PairedSample:
    """The paired-CSV reader as it was before its records shared one parser.

    It converts cell by cell, counts records rather than file lines, and lets
    ``csv.Error`` escape.
    """
    path = Path(path)
    with StringIO(_read_text(path), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if len(header) < 2 or len(header) % 2:
            raise ValidationError(
                f"{path}: header must list x1..xd,y1..yd, got {len(header)} columns"
            )
        d = len(header) // 2
        if header != _expected_header(d):
            raise ValidationError(
                f"{path}: header must be exactly x1..x{d},y1..y{d}"
            )

        rows: list[list[float]] = []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != 2 * d:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {2 * d} fields, "
                    f"got {len(record)}"
                )
            values = []
            for name, cell in zip(header, record):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}: column {name}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{path}: line {lineno}: column {name}: "
                        "non-finite value"
                    )
                values.append(value)
            rows.append(values)

    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    data = np.array(rows, dtype=float)
    return PairedSample(x=data[:, :d], y=data[:, d:])


def dense_generate(spec, rng) -> PairedSample:
    """One replicate drawn as the generator once drew it: the stacked covariance
    assembled as a dense 2d x 2d matrix from the block scales times I_d,
    symmetrised, factored (Cholesky, or eigh when singular) and applied to
    the n x 2d standard normal draw by one matrix product."""
    n, d = spec.n, spec.d
    eye = np.eye(d)
    full = np.block([[spec.gamma1 * eye, spec.gamma12 * eye],
                     [spec.gamma12 * eye, spec.gamma2 * eye]])
    sym = full / 2.0 + full.T / 2.0
    try:
        factor = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(sym)
        factor = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rows = rng.standard_normal((n, 2 * d)) @ factor.T
    if spec.family == "t3":
        rows /= np.sqrt(rng.chisquare(3, size=n))[:, None]
    rows += np.concatenate([spec.nu1, spec.nu2])
    if spec.family == "lognormal":
        rows = np.exp(rows)
    return PairedSample(x=rows[:, :d], y=rows[:, d:])


def paired_t_test(x, y):
    """Two-sided paired t-test on two 1-D samples; returns (t, p).

    ``stdtr`` is the ufunc behind ``scipy.stats.t.sf``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValidationError("paired t-test needs samples of equal length")
    if x.size < 2:
        raise ValidationError("paired t-test needs at least 2 pairs")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("paired t-test needs finite values")
    diffs = x - y
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        if float(diffs.mean()) == 0.0:
            return 0.0, 1.0
        raise ValueError("differences are constant and nonzero, so t is unbounded")
    t = float(diffs.mean() / (sd / np.sqrt(diffs.size)))
    p = float(2.0 * stdtr(diffs.size - 1, -abs(t)))
    return t, p
