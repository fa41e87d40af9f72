from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import cdist, pdist, squareform

from pairedgraph import (
    DisconnectedError,
    DistanceMatrix,
    SimilarityGraph,
    ValidationError,
    build_kmst,
    distance_matrix,
    graph,
    precomputed_distance,
)

from oracles import (
    edge_order,
    key_sort_order,
    kruskal_kmst,
    min_spanning_weight,
    rank_kmst,
)
from test_moments import traced_peak


def square(dist):
    return squareform(dist.condensed)


def weight(graph, dist):
    """Total distance over the graph's edges."""
    return float(square(dist)[graph.edges[:, 0], graph.edges[:, 1]].sum())


def test_euclidean_three_four_five():
    d = distance_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d.condensed.tolist() == [5.0]
    assert d.n_nodes == 2
    assert square(d).tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_identical_rows_distance_zero():
    d = distance_matrix(np.array([[1.5, -2.0], [1.5, -2.0]]))
    assert d.condensed.tolist() == [0.0]


def test_distance_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((6, 3))
    for metric, norm in (("euclidean", 2), ("manhattan", 1)):
        got = square(distance_matrix(points, metric))
        for i in range(6):
            for j in range(6):
                diff = points[i] - points[j]
                want = np.sqrt(np.sum(diff**2)) if norm == 2 else np.sum(np.abs(diff))
                assert got[i, j] == pytest.approx(want, abs=1e-12)


def distance_inputs():
    """Continuous, tie-heavy, rescaled and two-point inputs."""
    rng = np.random.default_rng(34)
    inputs = [rng.standard_normal((2, 3)), np.array([[0.0, 1.0], [0.0, 1.0]])]
    for n_nodes in (3, 17, 120, 301):
        inputs.append(rng.standard_normal((n_nodes, 7)))
        inputs.append(np.round(rng.standard_normal((n_nodes, 4)), 1))
        inputs.append(rng.integers(0, 3, size=(n_nodes, 3)).astype(float))
        for scale in (1e-5, 1e5):
            inputs.append(scale * rng.standard_normal((n_nodes, 5)))
            inputs.append(scale * np.round(rng.standard_normal((n_nodes, 2)), 1))
    return inputs


METRICS = (("euclidean", "euclidean"), ("manhattan", "cityblock"))


def test_distances_are_byte_equal_to_cdist():
    # each pair is computed once; expanded, it must carry cdist's bytes
    for points in distance_inputs():
        for metric, name in METRICS:
            got = square(distance_matrix(points, metric))
            assert got.tobytes() == cdist(points, points, name).tobytes()


def test_condensed_distances_are_pdist_bytes():
    # nothing is expanded, checked twice or re-condensed on the way in
    for points in distance_inputs():
        for metric, name in METRICS:
            got = distance_matrix(points, metric)
            assert got.condensed.tobytes() == pdist(points, name).tobytes()
            assert got.n_nodes == points.shape[0]
            assert not got.condensed.flags.writeable


def test_overflowing_distances_are_named():
    points = np.array([[1e308, 0.0], [-1e308, 0.0]])
    with pytest.raises(ValidationError, match="overflow float64") as err:
        distance_matrix(points)
    assert "largest absolute coordinate 1e+308" in str(err.value)


def test_unknown_metric_rejected():
    with pytest.raises(ValidationError, match="metric"):
        distance_matrix(np.zeros((2, 2)), "chebyshev")


def test_precomputed_validation():
    # every check on the user's square matrix, in order, with its full message
    for matrix, message in [
        (np.zeros((2, 3)), r"distance matrix must be square, got \(2, 3\)"),
        (np.zeros(4), r"distance matrix must be square, got \(4,\)"),
        (np.zeros((1, 1)), "distance matrix needs at least 2 nodes"),
        # a NaN or a negative entry below the diagonal is named as such, not
        # as an asymmetry
        ([[0.0, 1.0], [np.nan, 0.0]], "distance matrix contains non-finite entries"),
        ([[0.0, 1.0], [np.inf, 0.0]], "distance matrix contains non-finite entries"),
        ([[0.0, 1.0], [-1.0, 0.0]], "distance matrix contains negative entries"),
        ([[0.0, 1.0], [2.0, 0.0]], "distance matrix is not symmetric"),
        ([[1.0, 2.0], [2.0, 0.0]], "distance matrix diagonal must be zero"),
    ]:
        with pytest.raises(ValidationError, match=f"^{message}$"):
            precomputed_distance(matrix)


def test_precomputed_distance_is_condensed():
    matrix = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    d = precomputed_distance(matrix)
    assert d.condensed.tolist() == [1.0, 2.0, 3.0]
    assert (d.n_nodes, d.metric) == (3, "precomputed")
    matrix[0, 1] = 9.0  # the caller's matrix is not shared
    assert d.condensed[0] == 1.0
    assert not d.condensed.flags.writeable


@pytest.mark.parametrize("condensed", [[], [1.0, 2.0], np.zeros((1, 1)), np.zeros(5)])
def test_condensed_length_must_be_triangular(condensed):
    with pytest.raises(ValidationError, match=r"need N\(N-1\)/2 distances, N >= 2"):
        DistanceMatrix(condensed, "precomputed")


@pytest.mark.parametrize(
    "condensed, message",
    [([1.0, np.nan, 2.0], "non-finite"), ([1.0, -2.0, 2.0], "negative")],
)
def test_condensed_entries_are_checked(condensed, message):
    with pytest.raises(ValidationError, match=message):
        DistanceMatrix(condensed, "precomputed")


def test_mst_two_nodes():
    d = distance_matrix(np.array([[0.0], [1.0]]))
    tree = build_kmst(d, 1)
    assert tree.edges.tolist() == [[0, 1]]


def test_mst_path_on_a_line():
    d = distance_matrix(np.array([[0.0], [1.0], [3.0]]))
    tree = build_kmst(d, 1)
    assert tree.edges.tolist() == [[0, 1], [1, 2]]
    assert weight(tree, d) == 3.0


def test_mst_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(8):
        points = rng.standard_normal((6, 3))
        d = distance_matrix(points)
        tree = build_kmst(d, 1)
        assert tree.n_edges == 5
        assert weight(tree, d) == pytest.approx(
            min_spanning_weight(square(d)), abs=1e-10
        )


def test_kmst_k1_equals_mst():
    # k = 1 is the minimum spanning tree, and it is the first level of k = 2
    rng = np.random.default_rng(5)
    d = distance_matrix(rng.standard_normal((8, 2)))
    tree = build_kmst(d, 1)
    assert tree.n_edges == 7
    assert weight(tree, d) == pytest.approx(min_spanning_weight(square(d)), abs=1e-10)
    two = {tuple(e) for e in build_kmst(d, 2).edges.tolist()}
    assert {tuple(e) for e in tree.edges.tolist()} <= two


def test_kmst_k2_on_k4_is_the_complete_graph():
    rng = np.random.default_rng(9)
    d = distance_matrix(rng.standard_normal((4, 2)))
    graph = build_kmst(d, 2)
    assert graph.n_edges == 6
    assert graph.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_kmst_edge_count_at_report_scale():
    # 5-MST on 120 pooled nodes carries exactly 5 * 119 = 595 edges
    rng = np.random.default_rng(1)
    d = distance_matrix(rng.standard_normal((120, 10)))
    graph = build_kmst(d, 5)
    assert graph.n_edges == 595


def test_kmst_levels_are_edge_disjoint():
    rng = np.random.default_rng(2)
    d = distance_matrix(rng.standard_normal((20, 3)))
    graph = build_kmst(d, 4)
    keys = graph.edges[:, 0] * 20 + graph.edges[:, 1]
    assert np.unique(keys).size == graph.n_edges == 4 * 19


def test_kmst_k_too_large_rejected():
    d = distance_matrix(np.random.default_rng(0).standard_normal((6, 2)))
    with pytest.raises(ValidationError, match="floor"):
        build_kmst(d, 4)
    with pytest.raises(ValidationError):
        build_kmst(d, 0)


def test_disconnection_reports_level():
    # A star MST at level 1 empties the hub, so level 2 cannot span.
    center = np.zeros((1, 2))
    ring = np.array([[np.cos(t), np.sin(t)] for t in np.linspace(0, 5, 3)])
    d = distance_matrix(np.vstack([center, ring]))
    with pytest.raises(DisconnectedError) as err:
        build_kmst(d, 2)
    assert err.value.level == 2


def test_row_permutation_invariance():
    rng = np.random.default_rng(21)
    points = rng.standard_normal((10, 4))
    d = distance_matrix(points)
    base = build_kmst(d, 1)
    perm = rng.permutation(10)
    permuted = build_kmst(distance_matrix(points[perm]), 1)
    # map edges back through the permutation
    mapped = perm[permuted.edges]
    mapped = np.sort(mapped, axis=1)
    mapped = mapped[np.lexsort((mapped[:, 1], mapped[:, 0]))]
    assert weight(base, d) == pytest.approx(
        weight(permuted, distance_matrix(points[perm])), rel=1e-12
    )
    # distances are almost surely distinct, so the edge sets agree too
    assert np.array_equal(mapped, base.edges)


def test_tie_break_is_lexicographic():
    # four identical points: every distance ties at zero, so the tree is
    # decided purely by (weight, u, v) ordering: a star at node 0
    d = distance_matrix(np.zeros((4, 3)))
    tree = build_kmst(d, 1)
    assert tree.edges.tolist() == [[0, 1], [0, 2], [0, 3]]
    # the star exhausts node 0, so a second level cannot span
    with pytest.raises(DisconnectedError) as err:
        build_kmst(d, 2)
    assert err.value.level == 2
    assert str(err.value) == (
        "graph is disconnected at MST level 2: the tree from node 0 reaches "
        "only 1 of 4 nodes"
    )


def reach_of_node_0(dist, used):
    """Nodes joined to node 0 by edges of the complete graph not in ``used``."""
    n = dist.n_nodes
    free = np.ones((n, n), dtype=bool)
    free[used[:, 0], used[:, 1]] = free[used[:, 1], used[:, 0]] = False
    seen, todo = {0}, [0]
    while todo:
        for v in np.flatnonzero(free[todo.pop()]).tolist():
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen)


def test_disconnection_message_counts_the_component_of_node_0():
    # on tie-heavy grids a level often fails with node 0 in a larger component
    rng = np.random.default_rng(35)
    reaches = []
    for n_nodes in (8, 13, 21, 34):
        for dim in (1, 2):
            pooled = rng.integers(0, 3, size=(n_nodes, dim)).astype(float)
            dist = distance_matrix(pooled, "manhattan")
            for k in range(2, n_nodes // 2 + 1):
                try:
                    build_kmst(dist, k)
                except DisconnectedError as err:
                    used = build_kmst(dist, err.level - 1).edges
                    reach = reach_of_node_0(dist, used)
                    want = f"reaches only {reach} of {n_nodes} nodes"
                    assert str(err).endswith(want)
                    reaches.append(reach)
                    break
    assert max(reaches) > 1


def test_kmst_label_width_guard_names_the_node_count(monkeypatch):
    # an edge's label takes L = E.bit_length() low mantissa bits of its key
    # for E = N(N-1)/2 edges, and a near-tie sort packs two labels in one
    # uint64: at the real limit of 32 bits N = 92 683 is the first count
    # refused, and a smaller limit checks both sides without a large allocation
    with pytest.raises(ValidationError, match="N=92683 nodes"):
        build_kmst(SimpleNamespace(n_nodes=92_683), 1)
    dist = distance_matrix(np.random.default_rng(4).standard_normal((6, 2)))
    monkeypatch.setattr(graph, "_LABEL_BITS", 4)  # E = 15 needs 4 bits
    assert build_kmst(dist, 2).n_edges == 10
    monkeypatch.setattr(graph, "_LABEL_BITS", 3)
    with pytest.raises(ValidationError, match="N=6 nodes"):
        build_kmst(dist, 2)


@pytest.mark.parametrize(
    "w",
    [
        [1.0, 1.0, 1.0, 2.0, 3.0],  # a tied run at slot 0
        [3.0, 2.0, 1.0, 5.0, 5.0],  # a tied run at the last slot
        [4.0, 0.5, 2.0, 0.5, 3.0],  # a single tied pair
        [7.0] * 9,  # all weights equal
        [0.0] * 6,
        [4.0, 1.0, 3.0, 2.0, 0.0, 5.0],  # no ties
        [2.0],  # one edge (N = 2)
        [2.0, 1.0, 2.0, 1.0, 2.0, 0.0, 1.0],  # several runs, interleaved
    ],
)
def test_edge_order_matches_the_full_key_sort(w):
    w = np.array(w)
    order, ranked = edge_order(w)
    assert np.array_equal(order, key_sort_order(w))
    assert np.array_equal(ranked, w[order])


def test_edge_order_breaks_a_tie_between_the_two_largest_weights():
    # the only tie is the last slot's run; argsort returns that pair out of
    # position order for some of these permutations
    rng = np.random.default_rng(37)
    for _ in range(10):
        w = rng.permutation(200).astype(float)
        w[w == 199] = 198
        order, ranked = edge_order(w)
        assert np.array_equal(order, key_sort_order(w))
        assert np.array_equal(ranked, w[order])


def test_edge_order_matches_the_full_key_sort_on_grids():
    # {0, 1, 2}^d points: long runs of equal distances
    rng = np.random.default_rng(36)
    for n_nodes in (2, 3, 7, 12, 34, 78, 150):
        for dim in (1, 2, 4):
            pooled = rng.integers(0, 3, size=(n_nodes, dim)).astype(float)
            for metric in ("manhattan", "euclidean"):
                w = distance_matrix(pooled, metric).condensed
                order, ranked = edge_order(w)
                assert np.array_equal(order, key_sort_order(w))
                assert np.array_equal(ranked, w[order])


ULP = [1.0, np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 0.0), 1.0]


@pytest.mark.parametrize(
    "w",
    [
        [1.0, 1.0, 1.0, 2.0, 3.0],
        [2.0, 1.0, 2.0, 1.0, 2.0, 0.0, 1.0],
        [0.0] * 6,
        [2.0],
        ULP,  # weights one ulp apart share a bucket: relabelled
        ULP[::-1] + [0.0, 5e-324, 0.0, 1e-320, 5e-324],  # subnormal weights too
        [np.finfo(float).max, np.nextafter(np.finfo(float).max, 0.0)] * 3,
        [0.0, -0.0, 1.0, -0.0, 0.0],  # a precomputed -0.0 is a zero weight
    ],
)
def test_edge_keys_sort_into_the_full_key_sort(w):
    w = np.array(w)
    key, labels = graph._edge_keys(w)
    assert np.array_equal(np.argsort(key, kind="stable"), key_sort_order(w))
    assert np.unique(key).size == w.size
    assert (key < np.array(np.finfo(float).max).view(np.uint64)).all()
    positions = graph._edge_positions(key.view(np.float64), labels)
    assert np.array_equal(positions, np.arange(w.size))


def test_rounded_data_take_the_relabel_path():
    # distances of points on a 0.1 lattice tie up to rounding: equal high
    # bits, different low bits, so buckets are relabelled in (weight,
    # position) order and decoded through the table
    pooled = np.round(np.random.default_rng(41).standard_normal((60, 3)), 1)
    for metric in ("euclidean", "manhattan"):
        dist = distance_matrix(pooled, metric)
        key, labels = graph._edge_keys(dist.condensed)
        assert labels.buckets.size > 0 and labels.order.size > 0
        assert np.array_equal(np.argsort(key), key_sort_order(dist.condensed))
        assert same_as_kruskal(dist, 5) is None


def kmst_input(kind, metric, n_nodes, seed):
    """A DistanceMatrix of one of the k-MST property test's input families."""
    rng = np.random.default_rng(seed)
    if kind in ("last bits", "near max"):
        # precomputed entries that differ only in their last mantissa bits
        top = np.array(np.finfo(float).max if kind == "near max" else 1.0 + seed % 7)
        size = n_nodes * (n_nodes - 1) // 2
        upper = top.view(np.uint64) - rng.integers(0, 8, size, dtype=np.uint64)
        matrix = np.zeros((n_nodes, n_nodes))
        matrix[np.triu_indices(n_nodes, 1)] = upper.view(np.float64)
        return precomputed_distance(matrix + matrix.T)
    shape = (n_nodes, 1 + seed % 4)
    pooled = {
        "normal": lambda: rng.standard_normal(shape),
        "lognormal": lambda: rng.lognormal(size=shape),
        "grid": lambda: rng.integers(0, 3, (n_nodes, 4)).astype(float),
        "scores": lambda: rng.integers(0, 31, (n_nodes, 10)).astype(float),
        "rounded 0.1": lambda: np.round(rng.standard_normal(shape), 1),
        "rounded 0.01": lambda: np.round(rng.standard_normal(shape), 2),
        "duplicates": lambda: rng.standard_normal((3, 2))[rng.integers(0, 3, n_nodes)],
        "scaled": lambda: rng.standard_normal(shape) * 2.0 ** (300 * (-1) ** seed),
    }[kind]()
    return distance_matrix(pooled, metric)


def kmst_outcome(build, dist, k):
    """The k-MST's edges, or the level and message of its DisconnectedError."""
    try:
        return build(dist, k)
    except DisconnectedError as err:
        return err.level, str(err)


@settings(max_examples=150)
@given(
    kind=st.sampled_from(
        [
            "normal", "lognormal", "grid", "scores", "rounded 0.1",
            "rounded 0.01", "duplicates", "scaled", "last bits", "near max",
        ]
    ),
    metric=st.sampled_from(["euclidean", "manhattan"]),
    n_nodes=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_kmst_matches_both_oracles(kind, metric, n_nodes, seed, data):
    k = data.draw(st.integers(min_value=1, max_value=n_nodes // 2))
    same_as_both_oracles(kmst_input(kind, metric, n_nodes, seed), k)


def same_as_both_oracles(dist, k):
    """Require build_kmst's edges, or its error's level and message, of both oracles."""
    got = kmst_outcome(lambda d, k: build_kmst(d, k).edges, dist, k)
    ranked = kmst_outcome(rank_kmst, dist, k)
    kruskal = kmst_outcome(kruskal_kmst, dist, k)
    if isinstance(got, tuple):
        assert got == ranked
        assert isinstance(kruskal, tuple) and kruskal[0] == got[0]
    else:
        assert np.array_equal(got, ranked)
        assert np.array_equal(got, kruskal)


@given(
    st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    st.integers(min_value=1, max_value=30),
)
def test_spans_tile_the_items_within_the_budget(cost, budget):
    offset = np.concatenate([[0], np.cumsum(cost, dtype=np.int64)])
    spans = list(graph._spans(offset, budget))
    assert [0] + [hi for _, hi in spans] == [lo for lo, _ in spans] + [len(cost)]
    for lo, hi in spans:
        assert hi - lo == 1 or lo < hi and sum(cost[lo:hi]) <= budget


@pytest.mark.parametrize("slice_size", [2, 5, 64])
def test_kmst_in_small_slices_matches_the_ranked_kmst(monkeypatch, slice_size):
    # slices and relabelling spans far smaller than the buckets: buckets
    # cross slice boundaries, and some fill a span alone
    monkeypatch.setattr(graph, "_SLICE", slice_size)
    whole, runs = graph._spans, []

    def spans(offset, budget):
        assert budget == slice_size
        runs.append(list(whole(offset, budget)))
        return runs[-1]

    monkeypatch.setattr(graph, "_spans", spans)
    rng = np.random.default_rng(43)
    rounded = np.round(rng.standard_normal((40, 2)), 1)
    grid = rng.integers(0, 3, size=(40, 2)).astype(float)
    for pooled in (rounded, grid):
        for metric in ("euclidean", "manhattan"):
            dist = distance_matrix(pooled, metric)
            key, _ = graph._edge_keys(dist.condensed)
            assert np.array_equal(np.argsort(key), key_sort_order(dist.condensed))
            same_as_both_oracles(dist, 4)
    assert max(map(len, runs)) > 1  # the relabel loops ran in several spans


@pytest.mark.parametrize("top", [False, True])
def test_single_linkage_returns_its_input_bits_as_heights(top):
    # build_kmst names the chosen edges by their keys, so scipy's single
    # linkage must return them bit for bit and order them as floats:
    # subnormal keys (zero distances; no flush to zero) and keys up to the
    # largest finite float, the key of a used edge
    n_nodes = 12
    size = n_nodes * (n_nodes - 1) // 2
    bits = np.random.default_rng(42).permutation(size).astype(np.uint64)
    if top:
        bits = np.array(np.finfo(float).max).view(np.uint64) - bits
    else:
        bits += np.uint64(1)
    dist = DistanceMatrix(bits.view(np.float64), "precomputed")
    heights = np.ascontiguousarray(linkage(dist.condensed, method="single")[:, 2])
    u, v = kruskal_kmst(dist, 1).T
    want = square(dist)[u, v].view(np.uint64)
    assert np.array_equal(np.sort(heights.view(np.uint64)), np.sort(want))


def same_as_kruskal(dist, k):
    """Require build_kmst to give Kruskal's edges, or fail at Kruskal's level.

    Returns the level at which both failed, or None when both spanned.
    """
    try:
        want = kruskal_kmst(dist, k)
    except DisconnectedError as err:
        with pytest.raises(DisconnectedError) as got:
            build_kmst(dist, k)
        assert got.value.level == err.level
        return err.level
    assert np.array_equal(build_kmst(dist, k).edges, want)
    return None


def test_kmst_matches_kruskal_on_tie_heavy_grids():
    # coordinates in {0, 1, 2}: most edges tie, so the (weight, u, v) order
    # decides the trees and, on one or two axes, where they disconnect
    rng = np.random.default_rng(31)
    levels = []
    for metric in ("manhattan", "euclidean"):
        for n_nodes in (4, 7, 12, 21, 34, 55, 78):
            for dim in (1, 2, 4):
                pooled = rng.integers(0, 3, size=(n_nodes, dim)).astype(float)
                dist = distance_matrix(pooled, metric)
                for k in range(1, min(6, n_nodes // 2) + 1):
                    levels.append(same_as_kruskal(dist, k))
    assert any(level is not None for level in levels)
    assert any(level is None for level in levels)


def test_kmst_matches_kruskal_on_identical_points():
    # every distance is zero: level 1 is the star at node 0, level 2 fails
    for n_nodes in (4, 5, 9, 16):
        dist = distance_matrix(np.zeros((n_nodes, 2)))
        assert same_as_kruskal(dist, 1) is None
        for k in range(2, n_nodes // 2 + 1):
            assert same_as_kruskal(dist, k) == 2


def test_kmst_matches_kruskal_on_continuous_draws():
    rng = np.random.default_rng(32)
    for n_nodes in (4, 6, 11, 24, 45, 78):
        for dim in (1, 3, 10):
            dist = distance_matrix(rng.standard_normal((n_nodes, dim)))
            for k in range(1, min(6, n_nodes // 2) + 1):
                same_as_kruskal(dist, k)


@given(st.data())
def test_kmst_matches_kruskal_on_integer_matrices(data):
    # entries in {0, 1, 2, 3}, zeros off the diagonal included: ties everywhere
    n_nodes = data.draw(st.integers(min_value=2, max_value=12))
    upper = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=n_nodes * (n_nodes - 1) // 2,
            max_size=n_nodes * (n_nodes - 1) // 2,
        )
    )
    matrix = np.zeros((n_nodes, n_nodes))
    matrix[np.triu_indices(n_nodes, 1)] = upper
    k = data.draw(st.integers(min_value=1, max_value=n_nodes // 2))
    same_as_kruskal(precomputed_distance(matrix + matrix.T), k)


def test_kmst_matches_kruskal_at_a_thousand_pairs():
    rng = np.random.default_rng(33)
    dist = distance_matrix(rng.standard_normal((2000, 20)))
    assert same_as_kruskal(dist, 5) is None


def test_distances_and_kmst_hold_few_edge_length_arrays():
    # E = N(N-1)/2 = 1 999 000 distances of 8 bytes at N = 2000
    rng = np.random.default_rng(33)
    pooled = rng.standard_normal((2000, 20))
    eight_e = 8 * 2000 * 1999 // 2
    # pdist's vector is kept, not copied (copying it peaked at 2 x 8E), and
    # only one-byte masks check it
    assert traced_peak(lambda: distance_matrix(pooled)) < 1.3 * eight_e
    # the keys, one 8E array, and slices of them: an argsort order and ranks
    # made it 2.13 x 8E, and 5.13 x 8E on the tie-heavy grids
    grid = rng.integers(0, 3, size=(2000, 4)).astype(float)
    for dist in (
        distance_matrix(pooled),
        distance_matrix(grid, "euclidean"),
        distance_matrix(grid, "manhattan"),
    ):
        assert traced_peak(lambda: build_kmst(dist, 5)) <= 2.25 * eight_e
    # near-ties relabel nearly every edge and keep a 4-byte position for
    # each; the ranked order peaked at 5.12 x 8E on these
    dist = distance_matrix(np.round(pooled, 1))
    assert traced_peak(lambda: build_kmst(dist, 5)) <= 5.12 * eight_e


def test_similarity_graph_rejects_junk():
    with pytest.raises(ValidationError, match="self-loop"):
        SimilarityGraph(np.array([[1, 1]]), 4)
    with pytest.raises(ValidationError, match="duplicate"):
        SimilarityGraph(np.array([[0, 1], [1, 0]]), 4)
    with pytest.raises(ValidationError, match="^duplicate edges are not allowed$"):
        SimilarityGraph(np.array([[2, 3], [0, 1], [1, 2], [3, 2]]), 4)
    with pytest.raises(ValidationError, match="range"):
        SimilarityGraph(np.array([[0, 9]]), 4)
    with pytest.raises(ValidationError, match="^n_nodes must be an integer, got 6.0$"):
        SimilarityGraph([[0, 1], [1, 2], [0, 4]], n_nodes=6.0)


def test_similarity_graph_orders_rows():
    graph = SimilarityGraph(np.array([[3, 2], [0, 3], [1, 0], [2, 1]]), 4)
    assert graph.edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert SimilarityGraph(np.zeros((0, 2), dtype=int), 4).n_edges == 0
