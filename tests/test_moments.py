import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairedgraph import (
    ConditionDiagnostics,
    SimilarityGraph,
    ValidationError,
    build_kmst,
    census_q3,
    condition_diagnostics,
    distance_matrix,
    extract_cross_pair_graph,
    null_moments,
    run_paired_test,
    run_power_study,
    scalar_block_spec,
)
from pairedgraph import moments
from pairedgraph.inference import _random_cross_pair_edges

from oracles import (
    brute_sum_ab,
    census_q3_loop,
    empirical_moments,
    enumerate_counts,
    mirror_counts,
    random_cross_edges,
    sparse_condition_diagnostics,
)

# Worked examples on n = 2 pairs (nodes 0..3, partners 0<->2, 1<->3).
# Values frozen from the brute-force swap enumeration in oracles.py:
#   edges {(0,1),(2,3)}: R1 over the 4 swaps is (1,0,0,1), R2 likewise
#   edges {(0,1),(0,3)}: R1 is (1,0,1,0) and R2 (0,1,0,1)
DISJOINT = np.array([[0, 1], [2, 3]])
SHARED = np.array([[0, 1], [0, 3]])


def cross_of(edges, n):
    return extract_cross_pair_graph(SimilarityGraph(np.asarray(edges), 2 * n))


def links_of(cross):
    return [arr.tolist() for arr in cross.links]


def test_extract_drops_within_pair_edges():
    cross = cross_of([[0, 1], [2, 3], [0, 2]], 2)
    assert cross.edges.tolist() == [[0, 1], [2, 3]]
    assert cross.deg.tolist() == [1, 1, 1, 1]
    # both edges join pairs 0 and 1 on equal sides: one link of weight 2
    assert links_of(cross) == [[0], [1], [2], [2]]
    assert (cross.q, cross.s) == (4, 0)


def test_extract_shared_endpoint_counts():
    cross = cross_of(SHARED, 2)
    assert cross.deg.tolist() == [2, 1, 0, 1]
    # (0, 1) keeps to one side and (0, 3) crosses over: their signs cancel
    assert links_of(cross) == [[0], [1], [2], [0]]
    assert (cross.q, cross.s) == (0, 4)


def test_extract_within_pair_only_graph_is_empty():
    cross = cross_of([[0, 2], [1, 3]], 2)
    assert cross.n_edges == 0
    assert links_of(cross) == [[], [], [], []]
    assert (cross.q, cross.s) == (0, 0)
    assert cross.deg.tolist() == [0, 0, 0, 0]


def test_each_cross_pair_graph_is_contracted_once(monkeypatch):
    # moments, diagnostics and the spin form all read the table built on
    # construction, so a test and a study replicate each contract once
    calls = []
    contract = moments._pair_links

    def counted(edges, n):
        calls.append(n)
        return contract(edges, n)

    monkeypatch.setattr(moments, "_pair_links", counted)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 3))
    run_paired_test(x, x + rng.standard_normal((12, 3)), k=2, pvalue="both",
                    n_perm=100, seed=0)
    assert calls == [12]
    calls.clear()
    spec = scalar_block_spec("normal", 10, 2, mean_diff_norm=1.0)
    run_power_study(spec, replicates=3, k=2)
    assert calls == [10, 10, 10]


def test_moments_disjoint_mirror_pair():
    m = null_moments(cross_of(DISJOINT, 2))
    assert m.e_r1 == 0.5
    assert m.var_r1 == 0.25
    assert m.cov_r12 == 0.25
    assert m.var_diff == 0.0
    assert m.var_sum == 1.0


def test_moments_shared_endpoint():
    m = null_moments(cross_of(SHARED, 2))
    assert m.e_r1 == 0.5
    assert m.var_r1 == 0.25
    assert m.cov_r12 == -0.25
    assert m.var_sum == 0.0
    assert m.var_diff == 1.0


def test_moments_empty_graph():
    m = null_moments(cross_of([[0, 2]], 2))
    assert (m.e_r1, m.var_r1, m.cov_r12, m.var_sum, m.var_diff) == (0, 0, 0, 0, 0)


def test_sigma_r_shape_and_symmetry():
    m = null_moments(cross_of(DISJOINT, 2))
    sigma = m.sigma_r
    assert sigma.shape == (2, 2)
    assert sigma[0, 0] == sigma[1, 1] == m.var_r1
    assert sigma[0, 1] == sigma[1, 0] == m.cov_r12


def test_diagnostics_disjoint_mirror_pair():
    diag = condition_diagnostics(cross_of(DISJOINT, 2))
    assert diag.sum_ab == 8  # each edge sees both edges one and two steps away
    assert diag.sum_degdiff_sq == 0
    assert diag.q3 == 4
    assert diag.ab_ratio == pytest.approx(8 / 4**1.5)


def test_diagnostics_shared_endpoint():
    diag = condition_diagnostics(cross_of(SHARED, 2))
    assert diag.q3 == 0
    assert diag.sum_degdiff_sq == 4
    assert diag.ab_ratio is None


def test_diagnostics_empty():
    diag = condition_diagnostics(cross_of([[0, 2]], 2))
    assert (diag.sum_ab, diag.sum_degdiff_sq, diag.q3) == (0, 0, 0)
    assert diag.ab_ratio is None


def test_diagnostics_identities_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        cross = cross_of(random_cross_edges(rng, n), n)
        m = null_moments(cross)
        diag = condition_diagnostics(cross)
        assert diag.sum_degdiff_sq == pytest.approx(4 * m.var_diff, abs=0)
        assert diag.q3 == pytest.approx(4 * m.var_sum, abs=0)


def assert_diagnostics_match_oracle(cross):
    n = cross.n_pairs
    diff = cross.deg[:n] - cross.deg[n:]
    q = census_q3(cross)
    sum_ab = brute_sum_ab(cross)
    want = ConditionDiagnostics(
        sum_ab=sum_ab,
        sum_degdiff_sq=int(diff @ diff),
        q3=q,
        ab_ratio=float(sum_ab / q**1.5) if q > 0 else None,
    )
    got = condition_diagnostics(cross)
    assert got == want
    assert repr(got.ab_ratio) == repr(want.ab_ratio)


def random_pair_graphs():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        yield cross_of(_random_cross_pair_edges(rng, n), n)


def dense_multigraphs():
    # with every cross-pair edge kept, two pairs share all 4 possible edges
    rng = np.random.default_rng(67)
    for prob in (0.8, 0.95, 1.0):
        for n in range(2, 9):
            cross = cross_of(random_cross_edges(rng, n, prob), n)
            if prob == 1.0:
                assert cross.n_edges == 2 * n * (2 * n - 2) // 2
            yield cross


def tie_heavy_kmsts():
    # coordinates in {0, 1, 2}: the k-MST is decided by the tie-break
    rng = np.random.default_rng(71)
    for metric in ("manhattan", "euclidean"):
        for n in (4, 9, 16, 25):
            pooled = rng.integers(0, 3, size=(2 * n, 3)).astype(float)
            for k in (1, 2, 3):
                graph = build_kmst(distance_matrix(pooled, metric), k)
                yield extract_cross_pair_graph(graph)


def empty_and_one_pair_graphs():
    for cross in (
        cross_of(np.empty((0, 2)), 3),
        cross_of([[0, 1]], 1),
        cross_of(np.empty((0, 2)), 1),
    ):
        assert cross.n_edges == 0
        yield cross


def hub_graph(n=40):
    """Pair 0 linked to every other pair by repeated edges, so the links carry
    negative and large weights and c_0 is large; built without the graph
    layer, which refuses duplicate edges."""
    rng = np.random.default_rng(43)
    edges = []
    for j in range(1, n):
        for u, v, top in ((0, j, 3 * j), (0, j + n, 3 * j), (n, j + n, j), (n, j, j)):
            edges += [(u, v)] * int(rng.integers(0, top))
        edges.append((j, (j + 1) % n + n))  # a ring keeps the other pairs busy
    edges = np.array(edges, dtype=np.int64)
    edges.sort(axis=1)
    return moments.CrossPairGraph(edges=edges, n_pairs=n)


def kmst_cross(n, k=5, d=20):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, d))
    y = 0.8 * x + 0.6 * rng.standard_normal((n, d))
    return extract_cross_pair_graph(build_kmst(distance_matrix(np.vstack([x, y])), k))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_edge_set(data):
    """A hypothesis-drawn subset of all node pairs on 1..7 pairs, as a cross graph."""
    n = data.draw(st.integers(min_value=1, max_value=7))
    iu, iv = np.triu_indices(2 * n, 1)
    keep = np.array(
        data.draw(st.lists(st.booleans(), min_size=iu.size, max_size=iu.size)),
        dtype=bool,
    )
    return cross_of(np.stack([iu[keep], iv[keep]], axis=1), n)


def assert_q_matches_mirror_counts(cross):
    c1, c2 = mirror_counts(cross)
    assert cross.q == cross.n_edges + 2 * c1 - 2 * c2


@pytest.mark.parametrize(
    "family",
    [random_pair_graphs, dense_multigraphs, tie_heavy_kmsts, empty_and_one_pair_graphs],
)
def test_link_weight_q_matches_mirror_counts(family):
    for cross in family():
        assert_q_matches_mirror_counts(cross)


@given(st.data())
def test_link_weight_q_matches_mirror_counts_on_hypothesis_edge_sets(data):
    assert_q_matches_mirror_counts(draw_edge_set(data))


def test_diagnostics_match_oracle_on_random_cross_pair_graphs():
    for cross in random_pair_graphs():
        assert_diagnostics_match_oracle(cross)


def test_diagnostics_match_oracle_on_dense_multigraphs():
    for cross in dense_multigraphs():
        assert_diagnostics_match_oracle(cross)


def test_diagnostics_match_oracle_on_tie_heavy_kmst():
    for cross in tie_heavy_kmsts():
        assert_diagnostics_match_oracle(cross)


def test_diagnostics_match_oracle_on_empty_and_one_pair_graphs():
    for cross in empty_and_one_pair_graphs():
        assert_diagnostics_match_oracle(cross)
        assert condition_diagnostics(cross) == ConditionDiagnostics(0, 0, 0, None)


@given(st.data())
def test_diagnostics_match_oracle_on_hypothesis_edge_sets(data):
    assert_diagnostics_match_oracle(draw_edge_set(data))


def assert_diagnostics_match_sparse_form(cross):
    got, want = condition_diagnostics(cross), sparse_condition_diagnostics(cross)
    assert got == want
    assert repr(got.ab_ratio) == repr(want.ab_ratio)


@pytest.mark.parametrize(
    "family",
    [
        random_pair_graphs,
        dense_multigraphs,
        tie_heavy_kmsts,
        empty_and_one_pair_graphs,
        lambda: [hub_graph()],
        lambda: [kmst_cross(300), kmst_cross(1000)],
    ],
    ids=["random", "dense", "tie-heavy", "empty", "hub", "kmst-300-1000"],
)
def test_diagnostics_equal_the_sparse_form(family):
    for cross in family():
        assert_diagnostics_match_sparse_form(cross)


def test_diagnostics_memory_at_most_half_the_sparse_form():
    # The sparse form multiplies an m_links x n indicator of N[a] | N[b] by
    # W (70 MB traced at n = 1000); per pair-node only N[b] and the common
    # neighbours are expanded, a block of links at a time (7 MB).
    cross = kmst_cross(1000)
    new = traced_peak(lambda: condition_diagnostics(cross))
    old = traced_peak(lambda: sparse_condition_diagnostics(cross))
    assert new <= old / 2


def test_diagnostics_memory_on_a_dense_graph():
    # k = n / 2: every pair-node reaches most others, so the common
    # neighbourhoods hold dozens of pair-nodes per link. Taken all at once
    # they would outgrow the sparse form (25 against 20 MB traced); the link
    # blocks keep the peak near 12 MB.
    cross = kmst_cross(100, k=50)
    assert_diagnostics_match_sparse_form(cross)
    new = traced_peak(lambda: condition_diagnostics(cross))
    old = traced_peak(lambda: sparse_condition_diagnostics(cross))
    assert new <= 0.8 * old


@pytest.mark.parametrize("budget", [1, 40])
def test_diagnostics_do_not_depend_on_the_link_blocks(monkeypatch, budget):
    # budget 1 puts every link in a block of its own
    monkeypatch.setattr(moments, "_LINK_BUDGET", budget)
    for family in (random_pair_graphs, dense_multigraphs, tie_heavy_kmsts,
                   empty_and_one_pair_graphs, lambda: [hub_graph()]):
        for cross in family():
            assert_diagnostics_match_sparse_form(cross)


def test_diagnostics_in_blocks_at_a_benchmark_size(monkeypatch):
    monkeypatch.setattr(moments, "_LINK_BUDGET", 1 << 12)
    assert_diagnostics_match_sparse_form(kmst_cross(300))


@pytest.mark.slow
def test_diagnostics_match_oracle_at_benchmark_size():
    # n = 300 pairs in d = 100 with k = 5, the shape of a full paired test
    rng = np.random.default_rng(73)
    x = rng.standard_normal((300, 100))
    y = 0.8 * x + 0.6 * rng.standard_normal((300, 100)) + 0.1
    graph = build_kmst(distance_matrix(np.vstack([x, y])), 5)
    cross = extract_cross_pair_graph(graph)
    assert cross.n_edges > 2000
    assert_diagnostics_match_oracle(cross)


def test_census_examples():
    assert census_q3(cross_of(DISJOINT, 2)) == 4
    assert census_q3(cross_of(SHARED, 2)) == 0
    assert census_q3(cross_of([[0, 2]], 2)) == 0


@pytest.mark.parametrize(
    "family",
    [random_pair_graphs, dense_multigraphs, tie_heavy_kmsts, empty_and_one_pair_graphs],
)
def test_census_equals_the_edge_pair_loop(family):
    for cross in family():
        assert census_q3(cross) == census_q3_loop(cross)


def test_census_equals_q3_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        cross = cross_of(random_cross_edges(rng, n), n)
        assert census_q3(cross) == condition_diagnostics(cross).q3


def test_oracle_equivalence_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        edges = random_cross_edges(rng, n)
        got = null_moments(cross_of(edges, n))
        want = empirical_moments(edges, n)
        assert got.e_r1 == pytest.approx(want["e_r1"], abs=1e-10)
        assert got.var_r1 == pytest.approx(want["var_r1"], abs=1e-10)
        assert got.cov_r12 == pytest.approx(want["cov_r12"], abs=1e-10)
        assert got.var_sum == pytest.approx(want["var_sum"], abs=1e-10)
        assert got.var_diff == pytest.approx(want["var_diff"], abs=1e-10)
        assert got.var_sum == pytest.approx(2 * (got.var_r1 + got.cov_r12), abs=1e-12)
        assert got.var_diff == pytest.approx(2 * (got.var_r1 - got.cov_r12), abs=1e-12)
        # partner-swap symmetry of the null
        assert want["e_r1"] == pytest.approx(want["e_r2"], abs=1e-12)
        assert want["var_r1"] == pytest.approx(want["var_r2"], abs=1e-12)


def test_r2_distribution_mirrors_r1():
    # swapping every pair maps each labeling onto its complement, so the
    # null laws of R1 and R2 coincide, not just their moments
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        edges = random_cross_edges(rng, n)
        table = enumerate_counts(edges, n)
        assert sorted(a for a, _ in table) == sorted(b for _, b in table)


def test_oracle_equivalence_kmst_graphs():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        d = int(rng.integers(1, 4))
        pooled = rng.standard_normal((2 * n, d))
        graph = build_kmst(distance_matrix(pooled), int(rng.integers(1, 3)))
        cross = extract_cross_pair_graph(graph)
        got = null_moments(cross)
        want = empirical_moments(cross.edges, n)
        for field in ("e_r1", "var_r1", "cov_r12", "var_sum", "var_diff"):
            assert getattr(got, field) == pytest.approx(want[field], abs=1e-10)


def test_moments_invariant_under_pair_relabeling():
    rng = np.random.default_rng(41)
    n = 6
    edges = random_cross_edges(rng, n)
    base = null_moments(cross_of(edges, n))

    perm = rng.permutation(n)
    node_map = np.concatenate([perm, perm + n])
    remapped = node_map[edges]
    relabeled = null_moments(cross_of(remapped, n))
    assert base == relabeled


def test_extract_rejects_mismatched_sizes():
    # a single node cannot hold one pair
    with pytest.raises(ValidationError, match="least 2"):
        extract_cross_pair_graph(SimilarityGraph(np.empty((0, 2)), 1))


def test_cross_pair_graph_refuses_a_partner_edge():
    # a partner edge would become a link of pair 0 with itself: E(R1) = 0.25
    # although R1 = R2 = 0 under every swap
    with pytest.raises(ValidationError, match="partner"):
        moments.CrossPairGraph(edges=[[0, 2]], n_pairs=2)
    with pytest.raises(ValidationError, match="partner"):
        moments.CrossPairGraph(edges=[[0, 1], [1, 4]], n_pairs=3)


@pytest.mark.parametrize(
    "edges, n_pairs, match",
    [
        ([[1, 0]], 2, "u < v"),
        ([[0, 1], [2, 2]], 2, "u < v"),
        ([[0, 4]], 2, "out of range"),
        ([[-1, 1]], 2, "out of range"),
        ([], 0, "at least one pair"),
    ],
)
def test_cross_pair_graph_validates_its_input(edges, n_pairs, match):
    with pytest.raises(ValidationError, match=match):
        moments.CrossPairGraph(edges=edges, n_pairs=n_pairs)


def test_cross_pair_graph_derives_its_degrees():
    cross = moments.CrossPairGraph(edges=[[0, 1], [0, 1], [1, 2]], n_pairs=3)
    assert cross.deg.tolist() == [2, 3, 1, 0, 0, 0]
    assert cross.deg.dtype == np.int64 and cross.n_nodes == 6
    assert moments.CrossPairGraph(edges=[], n_pairs=1).deg.tolist() == [0, 0]


def test_cross_pair_graph_accepts_duplicate_edges():
    cross = moments.CrossPairGraph(edges=[[0, 1], [0, 1]], n_pairs=2)
    assert links_of(cross) == [[0], [1], [2], [2]]
    assert not cross.edges.flags.writeable and not cross.deg.flags.writeable


def test_extract_rejects_odd_node_count():
    graph = SimilarityGraph(np.array([[0, 1]]), 5)
    with pytest.raises(ValidationError, match="even"):
        extract_cross_pair_graph(graph)
