"""Asymptotic and permutation p-values, plus the exhaustive small-n check.

Permutation p-values condition on the graph: each of the 2^n within-pair
swaps only changes the labels. A swap sets one bit b_p per pair, and with
the spin sigma = 1 - 2 b, 2 (R1 - R2) = c' sigma and 4 (R1 + R2) = 2m +
2 sum w sigma_pa sigma_pb over the graph's ``c`` and ``links``.
``_swap_counts`` reads both as weighted counts of set bits: the swap bits
are packed pairs-major into uint64 words, 64 swaps to a word, and a
bit-sliced adder tree sums the link rows (b_pa xor b_pb) and the pair rows
in int64, gathering and counting ``_ROW_CHUNK`` rows at a time. A block of
B swaps costs O((links + n) B / 64) word operations and no n x n array, and
its working set is bounded by n and B, not by the link count. For n at or
below the exact threshold all 2^n swaps are enumerated in code order, their
words built directly; beyond it, blocks of at most ``_CHUNK`` swaps take
the top bit of each byte of a seeded PCG64 generator's raw words (the bits
``Generator.integers(0, 2, dtype=np.uint8)`` draws), ``_SUB`` swap rows at
a time, and pack them. Both reach one tally loop, which compares every
swap's statistics with the observed ones, standardized from the graph's own
``r1`` and ``r2``. Each p-value is (extra + hits) / (total + extra): extra =
0 for enumeration, and extra = 1 for sampling, the add-one estimator, which
can never return 0. Enumeration past the threshold raises
``ExactTooLargeError`` from one guard. The oracle sweep enumerates each
random instance once and reads the population moments and the z_g identity
residual from the same counts.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import ValidationError, _check_seed, _integer
from .graph import DisconnectedError, SimilarityGraph, build_kmst, distance_matrix
from .moments import CrossPairGraph, census_q3, extract_cross_pair_graph, null_moments
from .stats import StatisticTriple, standardize

__all__ = [
    "ExactTooLargeError",
    "PValueReport",
    "asymptotic_pvalues",
    "permutation_pvalues",
    "exhaustive_edge_counts",
    "run_oracle_validation",
]

DEFAULT_EXACT_THRESHOLD = 20
RNG_ALGORITHM = "PCG64"
# Swaps per Monte Carlo block: each numpy call on a packed row covers
# _CHUNK / 64 = 256 words, which keeps the per-call overhead small.
_CHUNK = 1 << 14
# Swap rows per draw. A multiple of 64 that divides _CHUNK, so a sub-block
# fills whole words of its block, and _SUB * n % 8 == 0 for every n, so
# every sub-block but a run's last ends on a whole raw word (``_swap_bits``).
# The draw's uint8 rows take _SUB * n bytes, an eighth of a block's.
_SUB = 1 << 11
# Link or pair rows gathered and counted at a time: 512 rows of a block's
# 256 words take 1 MiB, whatever the graph's link count.
_ROW_CHUNK = 1 << 9
# Swaps per enumeration block. Each swap's counts and statistics take about
# 75 bytes, so a block peaks near 2.4 MB whatever n is, and half as many
# blocks as _CHUNK would give save Python overhead.
_ENUMERATED_CHUNK = 2 * _CHUNK
_ORACLE_MAX_K = 3  # largest k-MST multiplicity the oracle sweep draws
ORACLE_MAX_DIM = 1000  # largest max_dim: each instance draws 2n x d normals
_ORACLE_TOLERANCE = 1e-9


class ExactTooLargeError(ValidationError):
    """Exact enumeration was requested beyond the exact threshold."""


@dataclass(frozen=True)
class PValueReport:
    """Asymptotic and/or permutation p-values; None marks an undefined one."""

    p_m_asym: float | None = None
    p_s_asym: float | None = None
    p_g_asym: float | None = None
    p_m_perm: float | None = None
    p_s_perm: float | None = None
    p_g_perm: float | None = None
    n_permutations: int | None = None
    mode: str | None = None  # "exact" or "monte-carlo"
    seed: int | None = None
    rng_algorithm: str | None = None


def _normal_sf(x: float) -> float:
    """Standard normal survival function P(Z >= x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _chi2_2_sf(x: float) -> float:
    """Chi-square(2 df) survival function, exp(-x/2) in closed form."""
    if x < 0:
        raise ValidationError("chi-square survival function needs x >= 0")
    return math.exp(-0.5 * x)


def asymptotic_pvalues(s: StatisticTriple) -> PValueReport:
    """Normal / chi-square tail areas for the defined statistics.

    z_m is one-sided (reject large), z_s two-sided, z_g upper chi-square.
    """
    return PValueReport(
        p_m_asym=None if s.z_m is None else _normal_sf(s.z_m),
        p_s_asym=None if s.z_s is None else 2.0 * _normal_sf(abs(s.z_s)),
        p_g_asym=None if s.z_g is None else _chi2_2_sf(s.z_g),
    )


_WORD = 64  # swaps per packed word
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_BYTE_PLACES = np.array([1 << i for i in range(8)], dtype=np.uint8)
# bit p < 6 of the codes 64 j .. 64 j + 63, as one word whatever j is
_LOW_CODE_BITS = np.array(
    [sum(1 << i for i in range(_WORD) if i >> p & 1) for p in range(6)],
    dtype=np.uint64,
)


def _add_counts(x: list, y: list) -> list:
    """The sum of two bit-sliced counts.

    A count is a list of word planes, low bit first: bit i of word j in
    plane k is bit k of the count at position 64 j + i. None stands for a
    plane of zeros, so a count shifted up by k planes starts with k Nones.
    """
    width = max(len(x), len(y))
    out, carry = [], None
    for a, b in zip(x + [None] * (width - len(x)), y + [None] * (width - len(y))):
        terms = [plane for plane in (a, b, carry) if plane is not None]
        carry = None
        if len(terms) == 3:  # full adder, in place on its own temporaries
            a, b, c = terms
            t = a ^ b
            out.append(t ^ c)
            t &= c
            carry = a & b
            carry |= t
        elif len(terms) == 2:  # half adder
            a, b = terms
            out.append(a ^ b)
            carry = a & b
        else:
            out.append(terms[0] if terms else None)
    return out if carry is None else out + [carry]


def _count_planes(rows: np.ndarray) -> list:
    """How many of the (R, W) uint64 rows set each bit position, bit-sliced.

    A carry-save adder tree: each level adds the bottom half of the rows to
    the top half, one word plane per bit of the partial counts, so R rows
    take about 10 R W word operations over log2(R) levels. A row left over
    at an odd level waits and joins the root. The count of R rows takes at
    most R.bit_length() planes.
    """
    if not rows.shape[0]:
        return []
    planes, waiting = [rows], []
    while planes[0].shape[0] > 1:
        half = planes[0].shape[0] // 2
        if planes[0].shape[0] % 2:  # a copy, so the level's arrays can go
            waiting.append([p[-1:].copy() for p in planes])
        planes = _add_counts([p[:half] for p in planes], [p[half : 2 * half] for p in planes])
    for extra in waiting:
        planes = _add_counts(planes, extra)
    while planes and not planes[-1].any():  # zero carries out of the top
        planes.pop()
    return planes


def _unsliced(planes: list, size: int) -> np.ndarray:
    """The int64 values of a bit-sliced count at its first ``size`` positions."""
    total = np.zeros(size, dtype=np.int64)
    for k, plane in enumerate(planes):
        if plane is not None:
            bits = plane.astype("<u8", copy=False).view(np.uint8)
            total += np.unpackbits(bits, count=size, bitorder="little").astype(np.int64) << k
    return total


def _weighted_bit_sums(rows_of, weights: np.ndarray, size: int) -> np.ndarray:
    """sum over r of weights[r] times bit j of row r, for each swap j < size.

    ``rows_of(index)`` gathers the packed rows into a fresh array. A
    negative weight counts the row's complement, since w b = |w| (1 - b) -
    |w|, and the rows with bit k of |w| set add their count shifted up by k
    planes. They are gathered and counted ``_ROW_CHUNK`` at a time, each
    chunk's count folded into the running planes, so the working set does
    not grow with the number of rows. Exact in int64.
    """
    magnitude = np.abs(weights)
    flip = np.where(weights < 0, _ONES, np.uint64(0))
    planes = []
    for k in range(int(magnitude.max(initial=0)).bit_length()):
        index = np.flatnonzero(magnitude >> k & 1)
        for start in range(0, index.size, _ROW_CHUNK):
            part = index[start : start + _ROW_CHUNK]
            rows = rows_of(part)
            rows ^= flip[part, None]
            planes = _add_counts(planes, [None] * k + _count_planes(rows))
    return _unsliced(planes, size) - int(magnitude[weights < 0].sum())


def _swap_counts(cross: CrossPairGraph, words: np.ndarray, size: int):
    """(r1, r2) for ``size`` swaps whose bits are packed pairs-major in ``words``.

    Bit i of word j in row p is pair p's swap bit b in swap 64 j + i; bits
    from ``size`` on are padding and never counted. A spin sigma = 1 - 2 b
    gives sigma_pa sigma_pb = 1 - 2 (b_pa xor b_pb), so over the links
    (pa, pb, w) of ``cross.links`` and the pairs' ``cross.c``

        4 (R1 + R2) = 2m + 2 sum w - 4 sum w (b_pa xor b_pb),
        2 (R1 - R2) = sum c - 2 sum c_p b_p,

    two weighted counts of set bits per swap.
    """
    pa, pb, _, w = cross.links
    c = cross.c

    def linked_rows(i):  # the XOR is written into the first gather
        rows = words[pa[i]]
        rows ^= words[pb[i]]
        return rows

    linked = _weighted_bit_sums(linked_rows, w, size)
    total = 2 * cross.n_edges + 2 * int(w.sum()) - 4 * linked  # 4 (R1 + R2)
    diff = int(c.sum()) - 2 * _weighted_bit_sums(lambda i: words[i], c, size)
    return (total + 2 * diff) // 8, (total - 2 * diff) // 8


def _pack_into(buf: np.ndarray, bits: np.ndarray) -> None:
    """Pack (B, n) swap bit rows into the leading ceil(B / 8) bytes of buf's n rows."""
    size, n = bits.shape
    whole = size // 8
    rows = bits[: 8 * whole].reshape(whole, 8, n)
    buf[:, :whole] = np.einsum("jin,i->nj", rows, _BYTE_PLACES)
    if size % 8:
        buf[:, whole] = np.einsum("in,i->n", bits[8 * whole :], _BYTE_PLACES[: size % 8])


def _packed(bits: np.ndarray) -> np.ndarray:
    """(B, n) swap bit rows as (n, ceil(B / 64)) words, pairs-major, zero padded."""
    size, n = bits.shape
    buf = np.zeros((n, 8 * -(-size // _WORD)), dtype=np.uint8)
    _pack_into(buf, bits)
    return buf.view("<u8")


def _drawn_words(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """``_packed(_swap_bits(rng, size, n))``, drawn and packed ``_SUB`` rows at a time.

    A sub-block starts on a word of the block, so its bytes land where the
    whole block's would.
    """
    buf = np.zeros((n, 8 * -(-size // _WORD)), dtype=np.uint8)
    for start in range(0, size, _SUB):
        _pack_into(buf[:, start // 8 :], _swap_bits(rng, min(_SUB, size - start), n))
    return buf.view("<u8")


def _swap_bits(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    """The bits of ``rng.integers(0, 2, (size, n), dtype=np.uint8)``, read raw.

    At range 2, numpy's bounded uint8 draw never rejects and returns the top
    bit of each byte of the raw words, low byte first. It keeps a word's
    unused half for its next draw, so every block but the last must end on
    a whole word, as every ``_SUB`` rows do.
    """
    raw = rng.bit_generator.random_raw(-(-size * n // 8)).astype("<u8", copy=False)
    bits = raw.view(np.uint8)[: size * n].reshape(size, n)
    bits >>= 7
    return bits


def _require_exact(n: int) -> None:
    """Refuse to enumerate the 2^n swaps of n pairs past the exact threshold."""
    if n > DEFAULT_EXACT_THRESHOLD:
        raise ExactTooLargeError(
            f"exact enumeration needs 2^{n} assignments; the threshold is "
            f"n <= {DEFAULT_EXACT_THRESHOLD}"
        )


def _enumerated_words(n: int):
    """Every swap in code order (bit p of the code is pair p), as packed blocks.

    Yields (words, size) blocks of at most ``_ENUMERATED_CHUNK`` swaps, a
    multiple of 64 apart, so every block starts a word. Within a word,
    code bit p < 6 is the fixed pattern ``_LOW_CODE_BITS[p]``; bit p >= 6 is
    bit p - 6 of the word's index, so the word is all ones or all zeros.
    """
    total = 1 << n
    shifts = np.arange(max(n - 6, 0), dtype=np.uint64)[:, None]
    for start in range(0, total, _ENUMERATED_CHUNK):
        size = min(_ENUMERATED_CHUNK, total - start)
        index = np.arange(start // _WORD, -(-(start + size) // _WORD), dtype=np.uint64)
        words = np.empty((n, index.size), dtype=np.uint64)
        words[:6] = _LOW_CODE_BITS[:n, None]
        words[6:] = (index >> shifts & np.uint64(1)) * _ONES
        yield words, size


def permutation_pvalues(
    cross: CrossPairGraph,
    *,
    n_perm: int = 10000,
    seed: int | None = None,
    mode: str = "auto",
    strict: bool = False,
) -> PValueReport:
    """Permutation p-values for the observed (identity) labeling.

    Every swap is standardized by ``null_moments(cross)``. ``mode`` is
    "exact", "monte-carlo", or "auto" (exact when n is at or below
    ``DEFAULT_EXACT_THRESHOLD``). Exact mode counts swaps whose statistic is
    >= the observed one (or > with ``strict=True``) out of all 2^n.
    """
    seed = _check_seed(seed)
    n = cross.n_pairs
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ValidationError(f"unknown permutation mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= DEFAULT_EXACT_THRESHOLD else "monte-carlo"
    if mode == "exact":
        _require_exact(n)
        blocks, total, extra = _enumerated_words(n), 1 << n, 0
    else:
        n_perm = _integer(n_perm, "n_perm")
        if n_perm < 1:
            raise ValidationError("monte-carlo needs at least one permutation")
        rng = np.random.default_rng(seed)
        sizes = (min(_CHUNK, n_perm - start) for start in range(0, n_perm, _CHUNK))
        blocks = ((_drawn_words(rng, size, n), size) for size in sizes)
        total, extra = n_perm, 1

    moments = null_moments(cross)

    def folded(r1, r2):  # (z_m, |z_s|, z_g); None where degenerate
        z_m, z_s, z_g = standardize(r1, r2, moments)
        return z_m, None if z_s is None else np.abs(z_s), z_g

    observed = folded(cross.r1, cross.r2)
    hits = [0, 0, 0]
    for words, size in blocks:
        swaps = folded(*_swap_counts(cross, words, size))
        for slot, (stat, obs) in enumerate(zip(swaps, observed)):
            if obs is not None:
                hits[slot] += int(np.count_nonzero(stat > obs if strict else stat >= obs))
    p_m, p_s, p_g = (
        None if obs is None else (extra + hit) / (total + extra)
        for obs, hit in zip(observed, hits)
    )
    return PValueReport(
        p_m_perm=p_m,
        p_s_perm=p_s,
        p_g_perm=p_g,
        n_permutations=total,
        mode=mode,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM if mode == "monte-carlo" else None,
    )


def exhaustive_edge_counts(cross: CrossPairGraph):
    """(r1, r2) for every one of the 2^n swaps, in code order."""
    _require_exact(cross.n_pairs)
    r1, r2 = zip(
        *(_swap_counts(cross, *block) for block in _enumerated_words(cross.n_pairs))
    )
    return np.concatenate(r1), np.concatenate(r2)


@dataclass(frozen=True)
class _OracleSummary:
    """Result of the randomized analytic-vs-exhaustive validation sweep."""

    instances: int
    seed: int
    max_moment_error: float
    max_identity_residual: float
    census_mismatches: int
    tolerance: float

    @property
    def ok(self) -> bool:
        return (
            self.max_moment_error <= self.tolerance
            and self.max_identity_residual <= self.tolerance
            and self.census_mismatches == 0
        )


def _random_cross_pair_edges(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random admissible cross-pair edge set on 2n nodes."""
    nodes = 2 * n
    iu, iv = np.triu_indices(nodes, 1)
    admissible = iv != iu + n
    iu, iv = iu[admissible], iv[admissible]
    keep = rng.random(iu.size) < rng.uniform(0.15, 0.7)
    return np.stack([iu[keep], iv[keep]], axis=1)


def run_oracle_validation(
    instances: int = 200,
    *,
    min_pairs: int = 2,
    max_pairs: int = 10,
    max_dim: int = 5,
    seed: int = 0,
) -> _OracleSummary:
    """Compare analytic moments with exhaustive enumeration on random inputs.

    Even-numbered instances build a k-MST on random data; odd-numbered ones
    draw a random admissible cross-pair edge set directly. Also accumulates
    the worst |z_g - z_m^2 - z_s^2| over all swaps of nondegenerate
    instances and cross-checks the pair-of-pairs census of q3.
    """
    instances = _integer(instances, "instances")
    min_pairs = _integer(min_pairs, "min_pairs")
    max_pairs = _integer(max_pairs, "max_pairs")
    max_dim = _integer(max_dim, "max_dim")
    if instances < 1:
        raise ValidationError("instance count must be positive")
    if not 1 <= min_pairs <= max_pairs:
        raise ValidationError("need 1 <= min_pairs <= max_pairs")
    if not 1 <= max_dim <= ORACLE_MAX_DIM:
        raise ValidationError(f"need 1 <= max_dim <= {ORACLE_MAX_DIM}, got {max_dim}")
    seed = _check_seed(seed)
    _require_exact(max_pairs)
    rng = np.random.default_rng(seed)
    max_moment_error = 0.0
    max_residual = 0.0
    census_mismatches = 0

    for i in range(instances):
        n = int(rng.integers(min_pairs, max_pairs + 1))
        if i % 2 == 0:
            d = int(rng.integers(1, max_dim + 1))
            k = int(rng.integers(1, min(_ORACLE_MAX_K, n) + 1))
            pooled = rng.standard_normal((2 * n, d))
            dist = distance_matrix(pooled)
            # Successive MSTs can run out of edges at a node on tiny inputs;
            # fall back to a sparser multiplicity instead of skipping.
            while True:
                try:
                    graph = build_kmst(dist, k)
                    break
                except DisconnectedError:
                    k -= 1
        else:
            graph = SimilarityGraph(_random_cross_pair_edges(rng, n), 2 * n)
        cross = extract_cross_pair_graph(graph)

        # one enumeration gives the population moments and the z_g residual
        r1, r2 = exhaustive_edge_counts(cross)
        f1, f2 = r1.astype(float), r2.astype(float)
        population = (  # in NullMoments field order
            f1.mean(),
            f1.var(),
            np.mean((f1 - f1.mean()) * (f2 - f2.mean())),
            np.var(f1 + f2),
            np.var(f1 - f2),
        )
        analytic = null_moments(cross)
        for value, empirical in zip(astuple(analytic), population):
            max_moment_error = max(max_moment_error, abs(value - float(empirical)))

        if cross.q != census_q3(cross):
            census_mismatches += 1

        z_m, z_s, z_g = standardize(r1, r2, analytic)
        if z_m is not None and z_s is not None and z_g is not None:
            residual = float(np.max(np.abs(z_g - z_m**2 - z_s**2)))
            max_residual = max(max_residual, residual)

    return _OracleSummary(
        instances=instances,
        seed=seed,
        max_moment_error=max_moment_error,
        max_identity_residual=max_residual,
        census_mismatches=census_mismatches,
        tolerance=_ORACLE_TOLERANCE,
    )
