import numpy as np
import pytest

from pairedgraph import (
    EdgeCounts,
    NullMoments,
    StatisticTriple,
    distance_matrix,
    exhaustive_edge_counts,
    graph_test,
    null_moments,
    standardize,
    statistics,
)

from oracles import empirical_moments, enumerate_counts, random_cross_edges
from test_moments import DISJOINT, SHARED, cross_of


def moments_of(edges, n):
    return null_moments(cross_of(edges, n))


def test_count_edges_identity():
    # swap code 0 is the observed labeling: nodes below n in sample 1
    r1, r2 = exhaustive_edge_counts(cross_of(DISJOINT, 2))
    assert (r1[0], r2[0]) == (1, 1)
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        pooled = rng.standard_normal((2 * n, 2))
        _, cross, _, counts, _ = graph_test(distance_matrix(pooled), 2)
        assert (counts.r1, counts.r2) == enumerate_counts(cross.edges, n)[0]


def test_count_edges_swapped_pair():
    # code 2 swaps pair 1 only: labels (1, 2, 2, 1)
    r1, r2 = exhaustive_edge_counts(cross_of(DISJOINT, 2))
    assert (r1[2], r2[2]) == (0, 0)


def test_count_edges_empty_graph():
    r1, r2 = exhaustive_edge_counts(cross_of([[0, 2]], 2))
    assert r1.tolist() == r2.tolist() == [0, 0, 0, 0]


def test_count_edges_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    n = 5
    edges = random_cross_edges(rng, n)
    r1, r2 = exhaustive_edge_counts(cross_of(edges, n))
    assert list(zip(r1.tolist(), r2.tolist())) == enumerate_counts(edges, n)


def test_standardize_is_statistics_elementwise():
    # the batch and the single-count paths give the same bits, so the
    # permutation tie rule compares like with like
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        edges = random_cross_edges(rng, n)
        m = moments_of(edges, n)
        r1, r2 = exhaustive_edge_counts(cross_of(edges, n))
        batch = standardize(r1, r2, m)
        for pos in range(r1.size):
            one = statistics(EdgeCounts(int(r1[pos]), int(r2[pos])), m)
            for got, want in zip(batch, (one.z_m, one.z_s, one.z_g)):
                assert (got is None) == (want is None)
                if got is not None:
                    assert float(got[pos]) == want


def test_statistics_centered_case_is_zero():
    m = NullMoments(e_r1=1.0, var_r1=0.5, cov_r12=0.1, var_sum=1.2, var_diff=0.8)
    triple = statistics(EdgeCounts(r1=1, r2=1), m)
    assert triple.z_m == 0.0
    assert triple.z_s == 0.0
    assert triple.z_g == 0.0
    assert triple.degenerate_flags == ()


def test_degenerate_scale_direction_flagged():
    # the disjoint mirror pair has Var(R1 - R2) = 0
    triple = statistics(EdgeCounts(2, 0), moments_of(DISJOINT, 2))
    assert triple.z_m is not None
    assert triple.z_s is None
    assert triple.z_g is None
    assert triple.degenerate_flags == ("s", "g")


def test_degenerate_mean_direction_flagged():
    # the shared-endpoint pair has Var(R1 + R2) = 0
    triple = statistics(EdgeCounts(1, 0), moments_of(SHARED, 2))
    assert triple.z_m is None
    assert triple.z_s is not None
    assert triple.degenerate_flags == ("m", "g")


def test_degenerate_flags_follow_the_statistics():
    assert StatisticTriple(z_m=None, z_s=1.0, z_g=None).degenerate_flags == ("m", "g")
    assert StatisticTriple(z_m=0.0, z_s=0.0, z_g=0.0).degenerate_flags == ()
    assert StatisticTriple(None, None, None).degenerate_flags == ("m", "s", "g")


def test_quadratic_identity_on_random_instances():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 9))
        edges = random_cross_edges(rng, n)
        m = moments_of(edges, n)
        if m.var_sum == 0.0 or m.var_diff == 0.0:
            continue
        cross = cross_of(edges, n)
        for a, b in set(enumerate_counts(edges, n)):
            triple = statistics(EdgeCounts(a, b), m)
            assert triple.z_g == pytest.approx(
                triple.z_m**2 + triple.z_s**2, abs=1e-10
            )
        checked += 1


def test_label_swap_negates_scale_statistic():
    rng = np.random.default_rng(19)
    n = 6
    edges = random_cross_edges(rng, n)
    m = moments_of(edges, n)
    if m.var_sum == 0.0 or m.var_diff == 0.0:
        pytest.skip("degenerate draw")
    a = statistics(EdgeCounts(5, 2), m)
    b = statistics(EdgeCounts(2, 5), m)
    assert b.z_s == -a.z_s
    assert b.z_m == a.z_m
    assert b.z_g == pytest.approx(a.z_g, abs=1e-12)


def test_exhaustive_standardization_is_exact():
    # over all swaps: mean 0, second moment 1 for both statistics, and
    # their sample correlation vanishes
    rng = np.random.default_rng(29)
    done = 0
    while done < 10:
        n = int(rng.integers(3, 9))
        edges = random_cross_edges(rng, n)
        m = moments_of(edges, n)
        if m.var_sum == 0.0 or m.var_diff == 0.0:
            continue
        table = enumerate_counts(edges, n)
        z_m = np.array([statistics(EdgeCounts(a, b), m).z_m for a, b in table])
        z_s = np.array([statistics(EdgeCounts(a, b), m).z_s for a, b in table])
        assert z_m.mean() == pytest.approx(0.0, abs=1e-10)
        assert z_s.mean() == pytest.approx(0.0, abs=1e-10)
        assert np.mean(z_m**2) == pytest.approx(1.0, abs=1e-10)
        assert np.mean(z_s**2) == pytest.approx(1.0, abs=1e-10)
        assert np.mean(z_m * z_s) == pytest.approx(0.0, abs=1e-10)
        done += 1


def test_statistics_consistent_with_empirical_moments():
    # standardizing with the analytic moments equals standardizing with the
    # brute-force ones, because the moments agree exactly
    rng = np.random.default_rng(43)
    n = 5
    edges = random_cross_edges(rng, n)
    analytic = moments_of(edges, n)
    brute = empirical_moments(edges, n)
    assert analytic.var_sum == brute["var_sum"]
    assert analytic.var_diff == brute["var_diff"]
