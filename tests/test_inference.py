import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pairedgraph import inference
from pairedgraph import (
    ExactTooLargeError,
    ValidationError,
    asymptotic_pvalues,
    build_kmst,
    distance_matrix,
    exhaustive_edge_counts,
    extract_cross_pair_graph,
    null_moments,
    permutation_pvalues,
    run_oracle_validation,
    run_paired_test,
    standardize,
)
from pairedgraph.inference import _chi2_2_sf, _normal_sf
from pairedgraph.stats import StatisticTriple

from oracles import (
    dense_spin_counts,
    enumerate_counts,
    exact_pvalues,
    gather_counts,
    integers_swap_bits,
    mirror_counts,
    packed_words,
    random_cross_edges,
    spin_dtype,
)
from test_moments import (
    cross_of,
    dense_multigraphs,
    draw_edge_set,
    empty_and_one_pair_graphs,
    hub_graph,
    random_pair_graphs,
    tie_heavy_kmsts,
    traced_peak,
)


def hp_normal_sf(x):
    return float(mpmath.erfc(x / mpmath.sqrt(2)) / 2)


def test_normal_sf_against_high_precision_oracle():
    for x in (-8.0, -3.2, -1.0, 0.0, 0.5, 1.959963985, 3.7, 8.0):
        assert _normal_sf(x) == pytest.approx(hp_normal_sf(x), rel=1e-10)
    assert _normal_sf(0.0) == 0.5
    assert _normal_sf(1.959963985) == pytest.approx(0.025, abs=1e-7)


def test_chi2_sf_closed_form():
    assert _chi2_2_sf(0.0) == 1.0
    assert _chi2_2_sf(2 * math.log(20)) == pytest.approx(0.05, abs=1e-15)
    assert _chi2_2_sf(5.991464547) == pytest.approx(0.05, abs=1e-6)
    for x in (0.1, 1.0, 7.3):
        assert _chi2_2_sf(x) == pytest.approx(float(mpmath.exp(-x / 2)), abs=1e-12)
    with pytest.raises(ValidationError):
        _chi2_2_sf(-1.0)


def test_asymptotic_pvalue_conventions():
    from pairedgraph.stats import StatisticTriple

    report = asymptotic_pvalues(StatisticTriple(z_m=0.0, z_s=0.0, z_g=0.0))
    assert report.p_m_asym == 0.5
    assert report.p_s_asym == 1.0
    assert report.p_g_asym == 1.0

    report = asymptotic_pvalues(StatisticTriple(z_m=2.0, z_s=-2.0, z_g=8.0))
    assert report.p_m_asym == pytest.approx(hp_normal_sf(2.0), rel=1e-12)
    assert report.p_s_asym == pytest.approx(2 * hp_normal_sf(2.0), rel=1e-12)
    assert report.p_g_asym == pytest.approx(math.exp(-4.0), rel=1e-12)

    report = asymptotic_pvalues(StatisticTriple(z_m=1.0, z_s=None, z_g=None))
    assert report.p_s_asym is None
    assert report.p_g_asym is None


def test_exact_pvalues_match_independent_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        edges = random_cross_edges(rng, n)
        cross = cross_of(edges, n)
        report = permutation_pvalues(cross)
        want_m, want_s, want_g = exact_pvalues(edges, n)
        assert report.mode == "exact"
        assert report.n_permutations == 2**n
        for got, want in (
            (report.p_m_perm, want_m),
            (report.p_s_perm, want_s),
            (report.p_g_perm, want_g),
        ):
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(float(want), abs=1e-12)


def test_exact_pvalues_n3_hand_enumeration():
    # n = 3 pairs, a fixed 3-edge graph: compare against the rational oracle
    edges = np.array([[0, 1], [1, 2], [0, 5]])
    cross = cross_of(edges, 3)
    report = permutation_pvalues(cross)
    want_m, want_s, want_g = exact_pvalues(edges, 3)
    assert report.p_m_perm == float(want_m)
    assert report.p_s_perm == float(want_s)
    assert report.p_g_perm == float(want_g)


def test_strict_flag_counts_only_larger():
    edges = np.array([[0, 1], [1, 2], [0, 5]])
    cross = cross_of(edges, 3)
    loose = permutation_pvalues(cross)
    strict = permutation_pvalues(cross, strict=True)
    want = exact_pvalues(edges, 3, strict=True)
    assert strict.p_m_perm == float(want[0])
    # the identity swap always ties with itself, so >= includes it
    assert strict.p_m_perm < loose.p_m_perm


def test_maximal_statistic_has_minimal_exact_pvalue():
    # identity labeling attains the maximum of R1 + R2 on a same-section path
    edges = np.array([[0, 1], [1, 2]])
    cross = cross_of(edges, 3)
    report = permutation_pvalues(cross)
    table = enumerate_counts(edges, 3)
    best = max(a + b for a, b in table)
    ties = sum(1 for a, b in table if a + b == best)
    assert table[0][0] + table[0][1] == best
    assert report.p_m_perm == ties / 2**3


def test_monte_carlo_close_to_exact(monkeypatch):
    rng = np.random.default_rng(8)
    n = 12
    edges = random_cross_edges(rng, n, prob=0.2)
    cross = cross_of(edges, n)
    exact = permutation_pvalues(cross)
    monkeypatch.setattr(inference, "DEFAULT_EXACT_THRESHOLD", n - 1)  # sample instead
    mc = permutation_pvalues(cross, n_perm=100_000, seed=123)
    assert mc.mode == "monte-carlo"
    assert mc.rng_algorithm == "PCG64"
    for got, want in (
        (mc.p_m_perm, exact.p_m_perm),
        (mc.p_s_perm, exact.p_s_perm),
        (mc.p_g_perm, exact.p_g_perm),
    ):
        if want is None:
            assert got is None
            continue
        noise = 3 * math.sqrt(want * (1 - want) / 100_000)
        assert abs(got - want) <= noise + 2 / 100_000


def test_monte_carlo_reproducible_and_never_zero():
    rng = np.random.default_rng(10)
    n = 25
    edges = random_cross_edges(rng, n, prob=0.1)
    cross = cross_of(edges, n)
    a = permutation_pvalues(cross, n_perm=2000, seed=77)
    b = permutation_pvalues(cross, n_perm=2000, seed=77)
    assert a == b
    assert a.mode == "monte-carlo"
    for p in (a.p_m_perm, a.p_s_perm, a.p_g_perm):
        if p is not None:
            assert p >= 1 / 2001


def test_exact_mode_threshold():
    rng = np.random.default_rng(11)
    n = 25
    edges = random_cross_edges(rng, n, prob=0.1)
    cross = cross_of(edges, n)
    message = r"exact enumeration needs 2\^25 assignments; the threshold is n <= 20"
    with pytest.raises(ExactTooLargeError, match=message):
        exhaustive_edge_counts(cross)
    x, y = rng.standard_normal((2, n, 2))
    with pytest.raises(ExactTooLargeError, match=message):
        run_paired_test(x, y, pvalue="permutation", exact=True)
    # README: "exhaustive for n <= 20"; exact runs refuse the first n above it
    for n, mode in ((20, "exact"), (21, "monte-carlo")):
        cross = cross_of(random_cross_edges(rng, n, prob=0.1), n)
        assert permutation_pvalues(cross, n_perm=10, seed=0).mode == mode
    with pytest.raises(ExactTooLargeError, match=message.replace("25", "21")):
        exhaustive_edge_counts(cross)
    x, y = rng.standard_normal((2, n, 2))
    with pytest.raises(ExactTooLargeError, match=message.replace("25", "21")):
        run_paired_test(x, y, pvalue="both", exact=True)
    # no permutation p-value is asked for, so nothing is refused
    assert run_paired_test(x, y, exact=True).pvalues.mode is None


def test_exact_pvalues_invariant_under_pair_relabeling():
    rng = np.random.default_rng(14)
    n = 6
    edges = random_cross_edges(rng, n)
    cross = cross_of(edges, n)
    base = permutation_pvalues(cross)

    perm = rng.permutation(n)
    node_map = np.concatenate([perm, perm + n])
    cross2 = cross_of(node_map[edges], n)
    relabeled = permutation_pvalues(cross2)
    assert base.p_m_perm == relabeled.p_m_perm
    assert base.p_s_perm == relabeled.p_s_perm
    assert base.p_g_perm == relabeled.p_g_perm


def test_permutation_pvalues_take_only_the_graph():
    cross = cross_of(np.array([[0, 1], [1, 2], [0, 5]]), 3)
    with pytest.raises(TypeError):
        permutation_pvalues(cross, null_moments(cross))


def test_degenerate_statistics_propagate_none():
    cross = cross_of(np.array([[0, 1], [2, 3]]), 2)
    report = permutation_pvalues(cross)
    assert report.p_m_perm is not None
    assert report.p_s_perm is None
    assert report.p_g_perm is None


def test_empty_graph_all_undefined():
    cross = cross_of(np.empty((0, 2), dtype=np.int64), 3)
    report = permutation_pvalues(cross)
    assert report.p_m_perm is None
    assert report.p_s_perm is None
    assert report.p_g_perm is None


@pytest.mark.slow
def test_exact_test_is_valid_under_null():
    # exchangeable pairs: rejection rate at level alpha stays at or below
    # alpha (within 3-sigma binomial noise) for every statistic
    rng = np.random.default_rng(99)
    alpha = 0.05
    replicates = 2000
    rejections = {"m": 0, "s": 0, "g": 0}
    valid = {"m": 0, "s": 0, "g": 0}
    n = 10
    for _ in range(replicates):
        base = rng.standard_normal((2 * n, 2))
        cross = extract_cross_pair_graph(build_kmst(distance_matrix(base), 1))
        report = permutation_pvalues(cross)
        for key, p in (
            ("m", report.p_m_perm),
            ("s", report.p_s_perm),
            ("g", report.p_g_perm),
        ):
            if p is None:
                continue
            valid[key] += 1
            rejections[key] += p <= alpha
    for key in rejections:
        rate = rejections[key] / valid[key]
        bound = alpha + 3 * math.sqrt(alpha * (1 - alpha) / valid[key])
        assert rate <= bound, (key, rate, bound)


@pytest.mark.slow
def test_exact_enumeration_at_chunked_scale(monkeypatch):
    # n = 18 needs 262144 swaps across many chunks; spot-check against the
    # monte-carlo estimate and the identity-inclusion lower bound
    rng = np.random.default_rng(91)
    n = 18
    pooled = rng.standard_normal((2 * n, 3))
    cross = extract_cross_pair_graph(build_kmst(distance_matrix(pooled), 2))
    exact = permutation_pvalues(cross)
    assert exact.n_permutations == 2**18
    monkeypatch.setattr(inference, "DEFAULT_EXACT_THRESHOLD", n - 1)  # sample instead
    mc = permutation_pvalues(cross, n_perm=40_000, seed=5)
    for got, want in (
        (mc.p_m_perm, exact.p_m_perm),
        (mc.p_s_perm, exact.p_s_perm),
        (mc.p_g_perm, exact.p_g_perm),
    ):
        assert want >= 1 / 2**18
        assert abs(got - want) <= 3 * math.sqrt(want * (1 - want) / 40_000) + 1e-4


def test_oracle_validation_small_run():
    summary = run_oracle_validation(30, seed=5)
    assert summary.ok
    assert summary.max_moment_error <= 1e-10
    assert summary.max_identity_residual <= 1e-10
    assert summary.census_mismatches == 0


def test_oracle_validation_argument_errors():
    with pytest.raises(ValidationError):
        run_oracle_validation(0)
    message = r"exact enumeration needs 2\^25 assignments; the threshold is n <= 20"
    with pytest.raises(ExactTooLargeError, match=message):
        run_oracle_validation(10, max_pairs=25)
    with pytest.raises(ValidationError, match="^seed must be an integer, got 1.5$"):
        run_oracle_validation(2, seed=1.5)
    assert type(run_oracle_validation(2, seed=np.int64(4)).seed) is int
    with pytest.raises(ValidationError, match=r"^instances must be an integer, got 2\.5$"):
        run_oracle_validation(2.5)
    with pytest.raises(ValidationError, match=r"^max_dim must be an integer, got 2\.5$"):
        run_oracle_validation(2, max_dim=2.5)
    with pytest.raises(ValidationError, match="^max_pairs must be an integer, got True$"):
        run_oracle_validation(2, min_pairs=1, max_pairs=True)
    with pytest.raises(ValidationError, match="^min_pairs must be an integer, got None$"):
        run_oracle_validation(2, min_pairs=None)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be non-negative, got -1"),
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
])
def test_permutation_pvalues_checks_its_seed(seed, message):
    # whether it enumerates (3 pairs) or samples (21 pairs)
    for cross in (cross_of([[0, 1], [1, 2], [0, 5]], 3), shifted_kmst(21)):
        with pytest.raises(ValidationError) as info:
            permutation_pvalues(cross, n_perm=10, seed=seed)
        assert str(info.value) == message


def test_only_sampling_draws_a_seed_and_reports_it():
    enumerated = permutation_pvalues(shifted_kmst(10), n_perm=200)
    assert (enumerated.mode, enumerated.seed, enumerated.rng_algorithm) == ("exact", None, None)
    cross = shifted_kmst(25)
    first = permutation_pvalues(cross, n_perm=200)
    assert (first.mode, first.rng_algorithm) == ("monte-carlo", "PCG64")
    assert type(first.seed) is int and 0 <= first.seed < 2**63
    assert permutation_pvalues(cross, n_perm=200, seed=first.seed) == first


def test_statistics_match_manual_standardization():
    edges = np.array([[0, 1], [1, 2], [0, 5]])
    cross = cross_of(edges, 3)
    moments = null_moments(cross)
    r1, r2 = exhaustive_edge_counts(cross)
    table = enumerate_counts(edges, 3)
    assert list(zip(r1.tolist(), r2.tolist())) == table
    triple = StatisticTriple(*standardize(int(r1[0]), int(r2[0]), moments))
    assert triple.z_m == (r1[0] + r2[0] - 2 * moments.e_r1) / math.sqrt(
        moments.var_sum
    )


def test_spin_dtype_switches_at_the_exactness_bound():
    # the dense oracle's float rule: float32 holds every integer up to 2^24
    # and loses 2^24 + 1
    assert int(np.float32(2**24)) == 2**24
    assert int(np.float32(2**24 + 1)) != 2**24 + 1
    assert spin_dtype(0) is np.float32
    assert spin_dtype(2**23) is np.float32
    assert spin_dtype(2**23 + 1) is np.float64


def unpacked(words, size):
    """(size, n) uint8 swap bit rows of pairs-major packed words."""
    bits = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=size, bitorder="little").T


def assert_counts_match_gather(cross):
    n = cross.n_pairs
    bits = np.random.default_rng(n).integers(0, 2, size=(257, n), dtype=np.uint8)
    got = inference._swap_counts(cross, packed_words(bits), 257)
    for g, w, d in zip(got, gather_counts(cross, bits), dense_spin_counts(cross, bits)):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(g, d)
    if n <= 10:
        codes = np.arange(1 << n)[:, None]
        table = gather_counts(cross, (codes >> np.arange(n)) & 1)
        for g, w in zip(exhaustive_edge_counts(cross), table):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize(
    "family",
    [random_pair_graphs, dense_multigraphs, tie_heavy_kmsts, empty_and_one_pair_graphs],
)
def test_spin_counts_match_gather(family):
    for cross in family():
        assert_counts_match_gather(cross)


@given(st.data())
def test_spin_counts_match_gather_on_hypothesis_edge_sets(data):
    assert_counts_match_gather(draw_edge_set(data))


def test_spin_form_carries_the_null_moments():
    # over the link table, w'w = m + 2 c1 - 2 c2 = q and c'c = s, so
    # Var(R1 + R2) = q / 4 and Var(R1 - R2) = s / 4 read off the spin form;
    # c1 and c2 come from the edge-pair key matching oracle, which never
    # contracts pairs
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        cross = cross_of(inference._random_cross_pair_edges(rng, n), n)
        pa, pb, mult, w = cross.links
        c1, c2 = mirror_counts(cross)
        diff = cross.deg[:n] - cross.deg[n:]
        assert int(mult.sum()) == cross.n_edges
        assert (pa < pb).all()
        assert int(w @ w) == cross.n_edges + 2 * c1 - 2 * c2
        assert int(cross.c @ cross.c) == int(diff @ diff)


def shifted_kmst(n, k=3):
    rng = np.random.default_rng(41)
    x = rng.standard_normal((n, 3))
    y = 0.5 * x + rng.standard_normal((n, 3)) + 0.4
    return extract_cross_pair_graph(build_kmst(distance_matrix(np.vstack([x, y])), k))


@pytest.mark.parametrize("size", [1, 63, 64, 65, 257, 2 * inference._CHUNK + 1])
def test_padding_bits_are_never_counted(size):
    cross = shifted_kmst(30)
    bits = np.random.default_rng(size).integers(0, 2, size=(size, 30), dtype=np.uint8)
    words = packed_words(bits)
    assert words.shape == (30, -(-size // 64))
    np.testing.assert_array_equal(unpacked(words, size), bits)
    padding = np.packbits(np.arange(64 * words.shape[1]) >= size, bitorder="little")
    assert not (words & padding.view("<u8")).any()
    # fill every padding bit, and one more word of them, with ones
    garbage = np.hstack([words | padding.view("<u8"), np.full((30, 1), inference._ONES)])
    got = inference._swap_counts(cross, garbage, size)
    for g, w in zip(got, gather_counts(cross, bits)):
        assert g.shape == (size,)
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 5, 1000, 2 * inference._ROW_CHUNK + 1])
def test_column_counts_match_unpacked_bits(n_rows):
    # 2 * _ROW_CHUNK + 1 rows are gathered and counted in three chunks
    rng = np.random.default_rng(n_rows)
    rows = rng.integers(0, 1 << 63, size=(n_rows, 3), dtype=np.uint64)
    rows[: n_rows // 2] |= inference._ONES << np.uint64(63)  # set the top bits too
    want = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").sum(axis=0)
    planes = inference._count_planes(rows)
    assert len(planes) <= n_rows.bit_length()
    np.testing.assert_array_equal(inference._unsliced(planes, 192), want)
    weights = rng.integers(-40, 41, size=n_rows)
    bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").astype(np.int64)
    got = inference._weighted_bit_sums(lambda i: rows[i], weights, 150)
    np.testing.assert_array_equal(got, (weights @ bits)[:150])


@pytest.mark.parametrize("seed", [0, 1, 2, 2**40])
@pytest.mark.parametrize(
    "size, n",
    [(1, 1), (7, 1), (5, 3), (3, 9), (1, 7), (9, 7), (3, 21), (11, 33),
     (inference._CHUNK, 1), (inference._CHUNK, 21)],
)
def test_swap_bits_equal_the_integers_draw(seed, size, n):
    # size * n is not a multiple of 8 in most cases: the last word is read
    # only in part, as numpy's own draw leaves its unused bytes
    got = inference._swap_bits(np.random.default_rng(seed), size, n)
    want = integers_swap_bits(np.random.default_rng(seed), size, n)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [1, 7, 33])
def test_swap_bit_blocks_continue_the_integers_stream(n):
    # full blocks end on a whole raw word, so consecutive draws from one
    # generator read the stream as numpy's consecutive draws do
    assert inference._CHUNK * n % 8 == 0
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for size in (inference._CHUNK, inference._CHUNK, 5):
        np.testing.assert_array_equal(
            inference._swap_bits(ours, size, n), integers_swap_bits(theirs, size, n)
        )
    # so do sub-blocks: a block drawn and packed _SUB rows at a time, after a
    # full block and ending one row below or above a sub-block boundary,
    # unpacks to the rows of numpy's draw of the whole block
    assert inference._SUB % 64 == 0 and inference._CHUNK % inference._SUB == 0
    for size in (2 * inference._SUB - 1, 2 * inference._SUB + 1):
        ours, theirs = np.random.default_rng(size), np.random.default_rng(size)
        for block in (inference._CHUNK, size):
            words = inference._drawn_words(ours, block, n)
            assert words.shape == (n, -(-block // 64))
            np.testing.assert_array_equal(
                unpacked(words, block), integers_swap_bits(theirs, block, n)
            )


@pytest.mark.parametrize("n, seed", [(21, 0), (33, 2**40)])
def test_monte_carlo_pvalues_equal_a_tally_over_integers_blocks(n, seed):
    cross = shifted_kmst(n)
    moments = null_moments(cross)
    o_m, o_s, o_g = standardize(cross.r1, cross.r2, moments)
    for blocks in (
        # two full blocks and a last one of 5 swaps
        (inference._CHUNK, inference._CHUNK, 5),
        # a full block and a last one that ends 5 swaps into its second sub-block
        (inference._CHUNK, inference._SUB + 5),
    ):
        n_perm = sum(blocks)
        got = permutation_pvalues(cross, n_perm=n_perm, seed=seed)
        rng = np.random.default_rng(seed)
        bits = np.concatenate([integers_swap_bits(rng, size, n) for size in blocks])
        z_m, z_s, z_g = standardize(*gather_counts(cross, bits), moments)
        hits = (
            np.count_nonzero(z_m >= o_m),
            np.count_nonzero(np.abs(z_s) >= abs(o_s)),
            np.count_nonzero(z_g >= o_g),
        )
        want = [(1 + int(h)) / (n_perm + 1) for h in hits]
        assert [repr(p) for p in (got.p_m_perm, got.p_s_perm, got.p_g_perm)] == [
            repr(p) for p in want
        ]


def test_hub_graph_counts_exercise_every_magnitude_bit():
    cross = hub_graph()
    # negative weights, and magnitudes past 2^6 and 2^10: at least 7 and 11
    # magnitude bits, each counted on its own rows and shifted into the sum
    for weights, bits in ((cross.links[3], 7), (cross.c, 11)):
        assert (weights < 0).any()
        assert int(np.abs(weights).max()).bit_length() >= bits
    assert_counts_match_gather(cross)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_enumerated_words_follow_code_order(n):
    # n = 16 spans two enumeration blocks
    blocks = list(inference._enumerated_words(n))
    sizes = [size for _, size in blocks]
    assert sum(sizes) == 1 << n
    assert all(size == inference._ENUMERATED_CHUNK for size in sizes[:-1])
    assert (len(blocks) > 1) == (n == 16)
    codes = np.arange(1 << n)[:, None]
    want = ((codes >> np.arange(n)) & 1).astype(np.uint8)
    got = np.concatenate([unpacked(words, size) for words, size in blocks])
    np.testing.assert_array_equal(got, want)


def test_swap_null_memory_stays_near_the_draw():
    # A Monte Carlo block draws its B x n uint8 rows _SUB at a time (0.2 B n
    # here) and packs them into B n / 8 bytes of words. Counting gathers
    # _ROW_CHUNK link or pair rows at a time, B / 8 bytes each (0.2 B n
    # here, whatever the links), XORs them into the first gather, and the
    # adder tree's first level takes as much again. Ten or so B-long int64
    # and float64 arrays hold the counts and statistics (0.3 B n). That comes
    # to about 0.9 B n (0.85 B n measured); gathering every row at once took
    # 3.8 B n, and the dense spin form 9.2 B n.
    n, n_perm = 300, 10_000
    cross = shifted_kmst(n, k=5)
    peak = traced_peak(lambda: permutation_pvalues(cross, n_perm=n_perm, seed=1))
    assert peak < 5 * n_perm * n
    # enumeration has no draw: its blocks of 2^15 swaps need about 75 bytes
    # a swap, and the dense form needed 3.4 MB at n = 20
    cross = shifted_kmst(20, k=5)
    peak = traced_peak(lambda: permutation_pvalues(cross))
    assert peak < 100 * inference._ENUMERATED_CHUNK


def test_swap_null_memory_does_not_grow_with_the_links():
    # about 34 links a pair: gathering every link row at once peaked at
    # 34 MiB here, 7 times the bound, and grew by 3.4 MiB per 1000 links.
    # A block's words, one sub-block's draw, the row chunks and the B-long
    # counts bound it instead.
    n, n_perm = 300, 10_000
    cross = shifted_kmst(n, k=20)
    assert cross.links[0].size > 30 * n
    peak = traced_peak(lambda: permutation_pvalues(cross, n_perm=n_perm, seed=1))
    chunk = inference._CHUNK
    assert peak < n * chunk // 4 + inference._ROW_CHUNK * chunk // 4 + 100 * chunk


def test_monte_carlo_block_sizes_are_not_listed_up_front(monkeypatch):
    # a run of 10^10 swaps draws its first block at once; listing the
    # 610 352 block sizes first peaked at 5.4 MiB, and at 10^20 swaps the
    # list would outgrow memory before one swap was drawn
    class FirstBlock(Exception):
        pass

    def first_block(cross, words, size):
        raise FirstBlock(size)

    cross = shifted_kmst(21)
    monkeypatch.setattr(inference, "_swap_counts", first_block)
    caught = []

    def run():
        with pytest.raises(FirstBlock) as info:
            permutation_pvalues(cross, n_perm=10**10, seed=0)
        caught.append(info.value.args)

    assert traced_peak(run) < 1 << 20
    assert caught == [(inference._CHUNK,)]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "n, kwargs",
    [
        (60, {"n_perm": 2 * inference._CHUNK + 1, "seed": 4}),
        (15, {}),
    ],
)
def test_pvalues_byte_equal_to_gather_path(monkeypatch, n, kwargs, strict):
    cross = shifted_kmst(n)
    spin = permutation_pvalues(cross, strict=strict, **kwargs)
    for oracle in (gather_counts, dense_spin_counts):
        monkeypatch.setattr(
            inference,
            "_swap_counts",
            lambda cross, words, size: oracle(cross, unpacked(words, size)),
        )
        assert repr(permutation_pvalues(cross, strict=strict, **kwargs)) == repr(spin)
    assert 0 < spin.p_g_perm < 1


def observed_label_graphs():
    """The oracle families: random cross edges, and k-MSTs on continuous,
    rounded and Manhattan integer-grid data."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        yield cross_of(random_cross_edges(rng, n), n)
    for n in (4, 9, 25):
        x = rng.standard_normal((2 * n, 3))
        grid = rng.integers(0, 3, size=(2 * n, 3)).astype(float)
        for pooled, metric in ((x, "euclidean"), (x.round(), "euclidean"), (grid, "manhattan")):
            for k in (1, 2, 3):
                yield extract_cross_pair_graph(build_kmst(distance_matrix(pooled, metric), k))


def folded_bits(z):
    """(z_m, |z_s|, z_g) as permutation_pvalues compares them, as exact hex."""
    z_m, z_s, z_g = (None if v is None else float(np.ravel(v)[0]) for v in z)
    return [None if v is None else v.hex() for v in (z_m, None if z_s is None else abs(z_s), z_g)]


def test_observed_counts_are_the_unswapped_counts():
    # the all-zero swap word is the observed labeling, so its counts and
    # statistics are the graph's own r1 and r2 and their statistics, bit for bit
    for cross in observed_label_graphs():
        n, m = cross.n_pairs, null_moments(cross)
        r1, r2 = inference._swap_counts(cross, np.zeros((n, 1), np.uint64), 1)
        assert (r1.tolist(), r2.tolist()) == ([cross.r1], [cross.r2])
        assert folded_bits(standardize(r1, r2, m)) == folded_bits(
            standardize(cross.r1, cross.r2, m)
        )
