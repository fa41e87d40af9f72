"""Asymptotic and permutation p-values, plus the exhaustive small-n check.

Permutation p-values condition on the graph: each of the 2^n within-pair
swaps only changes the labels. Written as a spin vector sigma in {+1, -1}^n,
a swap gives 2 (R1 - R2) = c' sigma and 4 (R1 + R2) = 2m + sigma' W sigma,
a linear and a quadratic form that ``_spin_form`` reads off the graph's
``c`` and ``links``, so a block of B swaps costs one B x n mat-vec and one
B x n by n x n product. For n at or below the exact threshold all 2^n
swaps are enumerated in code order; beyond it, swaps are sampled with a
seeded PCG64 generator. Both reach one tally loop as blocks of at most
``_CHUNK`` swap bit rows, and each p-value is (extra + hits) /
(total + extra): extra = 0 for enumeration, and extra = 1 for sampling,
the add-one estimator, which can never return 0. Enumeration past the
threshold raises ``ExactTooLargeError`` from one guard. The oracle sweep
enumerates each random instance once and reads the population moments and
the z_g identity residual from the same counts.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import ValidationError
from .graph import DisconnectedError, SimilarityGraph, build_kmst, distance_matrix
from .moments import (
    CrossPairGraph,
    NullMoments,
    census_q3,
    extract_cross_pair_graph,
    null_moments,
)
from .stats import StatisticTriple, standardize

__all__ = [
    "DEFAULT_EXACT_THRESHOLD",
    "RNG_ALGORITHM",
    "ExactTooLargeError",
    "PValueReport",
    "asymptotic_pvalues",
    "permutation_pvalues",
    "exhaustive_edge_counts",
    "run_oracle_validation",
]

DEFAULT_EXACT_THRESHOLD = 20
RNG_ALGORITHM = "PCG64"
_CHUNK = 1 << 14
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


def _spin_dtype(n_edges: int):
    """float32 while 2m <= 2^24, where it counts swaps exactly; else float64."""
    return np.float32 if 2 * n_edges <= 1 << 24 else np.float64


def _spin_form(cross: CrossPairGraph):
    """The swap null as a linear and a quadratic form in the pair spins.

    A swap bit b_p becomes the spin sigma_p = 1 - 2 b_p. With side sign
    t = +1 for nodes below n and -1 otherwise, node u carries label 1 exactly
    when t_u sigma_p(u) = +1. Summing the edge indicators of R1 and R2 gives

        2 (R1 - R2) = c' sigma,           c_p = deg(p) - deg(p + n),
        4 (R1 + R2) = 2m + sigma' W sigma,

    with W the symmetric pair matrix of the signed link weights in
    ``cross.links``: W_pq = W_qp = sum of t_u t_v over the cross edges
    joining pairs p and q, and W has a zero diagonal. Returns (c, W, m).

    Every partial sum of S @ c, S @ W and the row-wise sigma' (W sigma) is an
    integer bounded by sum_p |c_p| <= 2m or sum_pq |W_pq| <= 2m, so floats
    with a 24-bit significand hold it exactly in any summation order, BLAS or
    FMA included, while 2m <= 2^24. ``_spin_dtype`` takes float32 under that
    bound and float64 above it.
    """
    n, m = cross.n_pairs, cross.n_edges
    dtype = _spin_dtype(m)
    pa, pb, _, w_link = cross.links
    w = np.zeros((n, n), dtype=dtype)
    w[pa, pb] = w_link
    w[pb, pa] = w_link
    return cross.c.astype(dtype), w, m


def _spin_counts(spin, bits: np.ndarray):
    """(r1, r2) for a block of swap bit rows: one mat-vec and one GEMM."""
    c, w, m = spin
    s = bits.astype(w.dtype)
    s *= -2
    s += 1
    diff = (s @ c).astype(np.int64)  # 2 (R1 - R2)
    total = 2 * m + np.einsum("ij,ij->i", s @ w, s).astype(np.int64)  # 4 (R1 + R2)
    return (total + 2 * diff) // 8, (total - 2 * diff) // 8


def _require_exact(n: int) -> None:
    """Refuse to enumerate the 2^n swaps of n pairs past the exact threshold."""
    if n > DEFAULT_EXACT_THRESHOLD:
        raise ExactTooLargeError(
            f"exact enumeration needs 2^{n} assignments; the threshold is "
            f"n <= {DEFAULT_EXACT_THRESHOLD}"
        )


def _enumerated_flip_chunks(n: int):
    """Every swap's bit row, in code order (bit p of the code is pair p)."""
    total = 1 << n
    bits = np.arange(n, dtype=np.uint64)
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
        yield ((codes[:, None] >> bits) & np.uint64(1)).astype(np.uint8)


def permutation_pvalues(
    cross: CrossPairGraph,
    moments: NullMoments,
    *,
    n_perm: int = 10000,
    seed: int | None = None,
    mode: str = "auto",
    strict: bool = False,
) -> PValueReport:
    """Permutation p-values for the observed (identity) labeling.

    ``mode`` is "exact", "monte-carlo", or "auto" (exact when n is at or
    below ``DEFAULT_EXACT_THRESHOLD``). Exact mode counts swaps whose
    statistic is >= the observed one (or > with ``strict=True``) out of all
    2^n.
    """
    n = cross.n_pairs
    if mode not in ("auto", "exact", "monte-carlo"):
        raise ValidationError(f"unknown permutation mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n <= DEFAULT_EXACT_THRESHOLD else "monte-carlo"
    if mode == "exact":
        _require_exact(n)
        blocks, total, extra = _enumerated_flip_chunks(n), 1 << n, 0
    elif n_perm < 1:
        raise ValidationError("monte-carlo needs at least one permutation")
    else:
        rng = np.random.default_rng(seed)
        blocks = (
            rng.integers(0, 2, size=(min(_CHUNK, n_perm - start), n), dtype=np.uint8)
            for start in range(0, n_perm, _CHUNK)
        )
        total, extra = n_perm, 1

    spin = _spin_form(cross)

    def folded(bits):  # (z_m, |z_s|, z_g) per swap row; None where degenerate
        z_m, z_s, z_g = standardize(*_spin_counts(spin, bits), moments)
        return z_m, None if z_s is None else np.abs(z_s), z_g

    observed = [
        None if z is None else float(z[0])
        for z in folded(np.zeros((1, n), dtype=np.uint8))
    ]
    hits = [0, 0, 0]
    for bits in blocks:
        for slot, (stat, obs) in enumerate(zip(folded(bits), observed)):
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
    spin = _spin_form(cross)
    r1, r2 = zip(
        *(_spin_counts(spin, bits) for bits in _enumerated_flip_chunks(cross.n_pairs))
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
    if instances < 1:
        raise ValidationError("instance count must be positive")
    if not 1 <= min_pairs <= max_pairs:
        raise ValidationError("need 1 <= min_pairs <= max_pairs")
    if not 1 <= max_dim <= ORACLE_MAX_DIM:
        raise ValidationError(f"need 1 <= max_dim <= {ORACLE_MAX_DIM}, got {max_dim}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
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
