"""The staged graph test and its three standardized statistics.

``graph_test`` runs k-MST -> cross-pair graph and its observed counts ->
null moments -> statistics. ``standardize`` is the one formula that turns
counts into statistics, for the observed labeling and for every permuted one.

z_m targets mean alternatives (rejects for large values), z_s targets scale
alternatives (rejects for large |z_s|), and z_g is the quadratic form in
(R1, R2) combining both; whenever both directions are nondegenerate,
z_g = z_m^2 + z_s^2. A statistic whose null variance vanishes is None, and
``StatisticTriple.degenerate_flags`` names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import DistanceMatrix, SimilarityGraph, build_kmst
from .moments import CrossPairGraph, NullMoments, extract_cross_pair_graph, null_moments

__all__ = [
    "EdgeCounts",
    "StatisticTriple",
    "standardize",
    "statistics",
    "graph_test",
]


@dataclass(frozen=True)
class EdgeCounts:
    """Cross-pair edges with both endpoints in sample 1 (r1) or sample 2 (r2)."""

    r1: int
    r2: int


@dataclass(frozen=True)
class StatisticTriple:
    """The three test statistics; None marks a degenerate (undefined) one."""

    z_m: float | None
    z_s: float | None
    z_g: float | None

    @property
    def degenerate_flags(self) -> tuple[str, ...]:
        """The names ("m", "s", "g") of the statistics that are None."""
        return tuple(f for f, z in zip("msg", (self.z_m, self.z_s, self.z_g)) if z is None)


def standardize(r1, r2, moments: NullMoments):
    """Signed (z_m, z_s, z_g) for counts or arrays of counts.

    A direction whose null variance vanishes gives None instead of a value.
    The variances are q/4 and s/4 for integers q and s, so the test is exact.
    """
    var_sum = moments.var_sum
    var_diff = moments.var_diff
    det = var_sum * var_diff / 4.0  # = det(sigma_r)

    z_m = z_s = z_g = None
    if var_sum > 0:
        z_m = (r1 + r2 - 2.0 * moments.e_r1) / math.sqrt(var_sum)
    if var_diff > 0:
        z_s = (r1 - r2) / math.sqrt(var_diff)
    if det > 0:
        v1 = r1 - moments.e_r1
        v2 = r2 - moments.e_r1
        z_g = (
            moments.var_r1 * (v1 * v1 + v2 * v2) - 2.0 * moments.cov_r12 * v1 * v2
        ) / det
    return z_m, z_s, z_g


def statistics(counts: EdgeCounts, moments: NullMoments) -> StatisticTriple:
    """Standardize the observed counts; a degenerate statistic is None, not NaN."""
    return StatisticTriple(*standardize(counts.r1, counts.r2, moments))


def graph_test(
    dist: DistanceMatrix, k: int
) -> tuple[SimilarityGraph, CrossPairGraph, NullMoments, EdgeCounts, StatisticTriple]:
    """The k-MST test on the pooled distances, stage by stage.

    Returns the graph, its cross-pair part, the null moments, the observed
    counts and their statistics.
    """
    graph = build_kmst(dist, k)
    cross = extract_cross_pair_graph(graph)
    moments = null_moments(cross)
    counts = EdgeCounts(cross.r1, cross.r2)
    return graph, cross, moments, counts, statistics(counts, moments)
