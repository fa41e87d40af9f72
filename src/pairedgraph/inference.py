"""Asymptotic and permutation p-values, plus the exhaustive small-n check.

Permutation p-values condition on the graph: each of the 2^n within-pair
swaps only changes the labels. Written as a spin vector sigma in {+1, -1}^n,
a swap gives 2 (R1 - R2) = c' sigma and 4 (R1 + R2) = 2m + sigma' W sigma,
a linear and a quadratic form built once per cross-pair graph
(``_spin_form``), so a block of B swaps costs one B x n mat-vec and one
B x n by n x n product. For n at or below the exact threshold all 2^n
swaps are enumerated in code order; beyond it, swaps are sampled with a
seeded PCG64 generator and the add-one estimator
(1 + #{stat >= observed}) / (1 + B) is reported, which can never return 0.
Both feed the same counter in blocks of ``_CHUNK`` swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError
from .graph import DisconnectedError, SimilarityGraph, build_kmst, distance_matrix
from .moments import (
    CrossPairGraph,
    NullMoments,
    _pair_links,
    _q_and_s,
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
    "exhaustive_null_moments",
    "run_oracle_validation",
]

DEFAULT_EXACT_THRESHOLD = 20
RNG_ALGORITHM = "PCG64"
_CHUNK = 1 << 14
_ORACLE_MAX_K = 3  # largest k-MST multiplicity the oracle sweep draws
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

    with W the symmetric pair matrix of the signed link weights of
    ``moments._pair_links``: W_pq = W_qp = sum of t_u t_v over the cross edges
    joining pairs p and q, and W has a zero diagonal. Returns (c, W, m).

    Every partial sum of S @ c, S @ W and the row-wise sigma' (W sigma) is an
    integer bounded by sum_p |c_p| <= 2m or sum_pq |W_pq| <= 2m, so floats
    with a 24-bit significand hold it exactly in any summation order, BLAS or
    FMA included, while 2m <= 2^24. ``_spin_dtype`` takes float32 under that
    bound and float64 above it.
    """
    n, m = cross.n_pairs, cross.n_edges
    dtype = _spin_dtype(m)
    pa, pb, _, w_link = _pair_links(cross)
    w = np.zeros((n, n), dtype=dtype)
    w[pa, pb] = w_link
    w[pb, pa] = w_link
    c = (cross.deg[:n] - cross.deg[n:]).astype(dtype)
    return c, w, m


def _spin_counts(spin, bits: np.ndarray):
    """(r1, r2) for a block of swap bit rows: one mat-vec and one GEMM."""
    c, w, m = spin
    s = bits.astype(w.dtype)
    s *= -2
    s += 1
    diff = (s @ c).astype(np.int64)  # 2 (R1 - R2)
    total = 2 * m + np.einsum("ij,ij->i", s @ w, s).astype(np.int64)  # 4 (R1 + R2)
    return (total + 2 * diff) // 8, (total - 2 * diff) // 8


def _enumerated_flip_chunks(n: int):
    """Every swap's bit row, in code order (bit p of the code is pair p)."""
    total = 1 << n
    step = min(total, _CHUNK)
    bits = np.arange(n, dtype=np.uint64)
    for start in range(0, total, step):
        codes = np.arange(start, min(start + step, total), dtype=np.uint64)
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
    if mode == "exact" and n > DEFAULT_EXACT_THRESHOLD:
        raise ExactTooLargeError(
            f"exact enumeration needs 2^{n} assignments; the threshold is "
            f"n <= {DEFAULT_EXACT_THRESHOLD}"
        )
    if mode == "monte-carlo" and n_perm < 1:
        raise ValidationError("monte-carlo needs at least one permutation")

    spin = _spin_form(cross)
    identity = np.zeros((1, n), dtype=np.uint8)

    def batch_stats(flips):
        z_m, z_s, z_g = standardize(*_spin_counts(spin, flips), moments)
        return z_m, None if z_s is None else np.abs(z_s), z_g

    obs_m, obs_s, obs_g = (
        None if a is None else float(a[0]) for a in batch_stats(identity)
    )

    hits = np.zeros(3, dtype=np.int64)
    observed = (obs_m, obs_s, obs_g)

    def tally(flips):
        for slot, (stat, obs) in enumerate(zip(batch_stats(flips), observed)):
            if stat is None:
                continue
            hits[slot] += np.count_nonzero(stat > obs if strict else stat >= obs)

    if mode == "exact":
        total = 1 << n
        for flips in _enumerated_flip_chunks(n):
            tally(flips)
        denom = total
        extra = 0
    else:
        rng = np.random.default_rng(seed)
        remaining = n_perm
        while remaining > 0:
            block = min(remaining, _CHUNK)
            tally(rng.integers(0, 2, size=(block, n), dtype=np.uint8))
            remaining -= block
        denom = n_perm + 1
        extra = 1

    def pvalue(slot, obs):
        if obs is None:
            return None
        return (extra + int(hits[slot])) / denom

    return PValueReport(
        p_m_perm=pvalue(0, obs_m),
        p_s_perm=pvalue(1, obs_s),
        p_g_perm=pvalue(2, obs_g),
        n_permutations=(1 << n) if mode == "exact" else n_perm,
        mode=mode,
        seed=seed,
        rng_algorithm=RNG_ALGORITHM if mode == "monte-carlo" else None,
    )


def exhaustive_edge_counts(cross: CrossPairGraph):
    """(r1, r2) for every one of the 2^n swaps, in code order."""
    n = cross.n_pairs
    if n > DEFAULT_EXACT_THRESHOLD:
        raise ExactTooLargeError(
            f"exhaustive enumeration limited to n <= {DEFAULT_EXACT_THRESHOLD}, "
            f"got {n}"
        )
    spin = _spin_form(cross)
    parts = [_spin_counts(spin, flips) for flips in _enumerated_flip_chunks(n)]
    r1 = np.concatenate([p[0] for p in parts])
    r2 = np.concatenate([p[1] for p in parts])
    return r1, r2


def exhaustive_null_moments(cross: CrossPairGraph) -> NullMoments:
    """Empirical moments over the full swap set (population normalization)."""
    r1, r2 = exhaustive_edge_counts(cross)
    r1 = r1.astype(float)
    r2 = r2.astype(float)
    e1 = r1.mean()
    var1 = float(np.mean((r1 - e1) ** 2))
    cov = float(np.mean((r1 - e1) * (r2 - r2.mean())))
    return NullMoments(
        e_r1=float(e1),
        var_r1=var1,
        cov_r12=cov,
        var_sum=float(np.var(r1 + r2)),
        var_diff=float(np.var(r1 - r2)),
    )


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
    if max_pairs > DEFAULT_EXACT_THRESHOLD:
        raise ExactTooLargeError(
            f"max_pairs={max_pairs} exceeds the exact threshold "
            f"{DEFAULT_EXACT_THRESHOLD}"
        )
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

        analytic = null_moments(cross)
        empirical = exhaustive_null_moments(cross)
        for field in ("e_r1", "var_r1", "cov_r12", "var_sum", "var_diff"):
            err = abs(getattr(analytic, field) - getattr(empirical, field))
            max_moment_error = max(max_moment_error, err)

        if _q_and_s(cross)[0] != census_q3(cross):
            census_mismatches += 1

        z_m, z_s, z_g = standardize(*exhaustive_edge_counts(cross), analytic)
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
