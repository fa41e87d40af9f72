import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairedgraph import (
    DistanceMatrix,
    GeneratorSpec,
    PairedSample,
    SimilarityGraph,
    ValidationError,
    extract_cross_pair_graph,
    pool,
)
from pairedgraph.moments import _partner


def test_pool_single_pair():
    sample = PairedSample(x=[[1.0, 2.0]], y=[[3.0, 4.0]])
    assert pool(sample).tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert _partner(2).tolist() == [1, 0]


def test_pool_two_pairs_partner_map():
    sample = PairedSample(x=np.zeros((2, 1)), y=np.ones((2, 1)))
    assert pool(sample).shape == (4, 1)
    assert _partner(4).tolist() == [2, 3, 0, 1]


def test_pool_row_layout_round_trips():
    rng = np.random.default_rng(0)
    sample = PairedSample(x=rng.standard_normal((7, 3)), y=rng.standard_normal((7, 3)))
    pooled = pool(sample)
    assert np.array_equal(pooled[:7], sample.x)
    assert np.array_equal(pooled[7:], sample.y)
    assert not pooled.flags.writeable


@given(st.integers(min_value=1, max_value=50))
def test_partner_is_an_involution(n):
    partner = _partner(2 * n)
    assert (partner != np.arange(2 * n)).all()
    assert np.array_equal(partner[partner], np.arange(2 * n))


@given(st.integers(min_value=1, max_value=30))
def test_identity_assignment_is_balanced(n):
    # the observed labeling (nodes below n in sample 1) gives every pair one
    # node in each sample
    in_first = np.arange(2 * n) < n
    assert np.count_nonzero(in_first) == n
    assert (in_first != in_first[_partner(2 * n)]).all()


def test_sample_rejects_nan_with_location():
    x = np.zeros((3, 2))
    x[1, 1] = np.nan
    with pytest.raises(ValidationError, match="row 2, column 2"):
        PairedSample(x=x, y=np.zeros((3, 2)))


def test_sample_rejects_inf():
    y = np.zeros((2, 2))
    y[0, 0] = np.inf
    with pytest.raises(ValidationError, match="y"):
        PairedSample(x=np.zeros((2, 2)), y=y)


def test_sample_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        PairedSample(x=np.zeros((3, 2)), y=np.zeros((2, 2)))


def test_types_are_immutable():
    sample = PairedSample(x=np.zeros((2, 2)), y=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        sample.x[0, 0] = 1.0

    # a distance matrix keeps its own read-only copy of the caller's vector
    condensed = np.arange(1.0, 7.0)
    dist = DistanceMatrix(condensed, "precomputed")
    condensed[:] = 0.0
    np.testing.assert_array_equal(dist.condensed, np.arange(1.0, 7.0))
    with pytest.raises(ValueError):
        dist.condensed[0] = 0.0

    # the cross-pair graph and the pair form derived from it cannot drift apart
    cross = extract_cross_pair_graph(SimilarityGraph(np.array([[0, 1], [0, 3]]), 4))
    for arr in (cross.edges, cross.deg, *cross.links, cross.c):
        with pytest.raises(ValueError):
            arr[0] = 0

    # a spec keeps its own copy of the means, and neither they nor its factor
    # can be written
    nu = np.zeros(3)
    spec = GeneratorSpec(family="normal", nu1=nu, nu2=nu, gamma1=1.0, gamma2=1.0,
                         gamma12=0.5, n=4, d=3)
    nu[:] = 5.0
    assert not spec.nu1.any() and not spec.nu2.any()
    for arr in (spec.nu1, spec.nu2, spec.factor):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(TypeError):
        GeneratorSpec(family="normal", nu1=nu, nu2=nu, gamma1=1.0, gamma2=1.0,
                      gamma12=0.5, n=4, d=3, factor=np.eye(2))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PairedSample(x=np.zeros((2, 2)), y=np.ones((2, 2))),
        lambda: DistanceMatrix(np.arange(1.0, 7.0), "precomputed"),
        lambda: SimilarityGraph(np.array([[0, 1], [0, 3]]), 4),
        lambda: extract_cross_pair_graph(
            SimilarityGraph(np.array([[0, 1], [0, 3]]), 4)
        ),
        lambda: GeneratorSpec(family="normal", nu1=np.zeros(3), nu2=np.zeros(3),
                              gamma1=1.0, gamma2=1.0, gamma12=0.5, n=4, d=3),
    ],
    ids=["PairedSample", "DistanceMatrix", "SimilarityGraph", "CrossPairGraph",
         "GeneratorSpec"],
)
def test_array_types_compare_by_identity(build):
    a, b = build(), build()
    assert a == a
    assert a != b
    assert hash(a) == hash(a) and hash(a) != hash(b)
