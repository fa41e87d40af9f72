"""The staged graph test and its three standardized statistics.

``graph_test`` runs pooled distances -> k-MST -> cross-pair graph (which
carries the observed counts R1 and R2 as ``cross.r1`` and ``cross.r2``) ->
null moments -> statistics, and drops the distances when it returns.
``standardize`` is the one formula that turns counts into statistics, for
the observed labeling and for every permuted one.

z_m targets mean alternatives (rejects for large values), z_s targets scale
alternatives (rejects for large |z_s|), and z_g is the quadratic form in
(R1, R2) combining both; whenever both directions are nondegenerate,
z_g = z_m^2 + z_s^2. A statistic whose null variance vanishes is None, and
``StatisticTriple.degenerate_flags`` names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import DistanceMatrix, SimilarityGraph, build_kmst, distance_matrix
from .moments import CrossPairGraph, NullMoments, extract_cross_pair_graph, null_moments

__all__ = ["StatisticTriple", "standardize", "graph_test"]


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


def graph_test(
    pooled, k: int, metric: str = "euclidean"
) -> tuple[SimilarityGraph, CrossPairGraph, NullMoments, StatisticTriple]:
    """The k-MST test on the pooled sample, stage by stage.

    ``pooled`` is the (2n, d) matrix of ``pool(sample)``, whose ``metric``
    distances are computed here and dropped with this call, or a precomputed
    ``DistanceMatrix``, whose own metric applies. Returns the graph, its
    cross-pair part (with the observed counts), the null moments and the
    observed counts' statistics.
    """
    if not isinstance(pooled, DistanceMatrix):
        pooled = distance_matrix(pooled, metric)  # drops the points before the k-MST
    graph = build_kmst(pooled, k)
    cross = extract_cross_pair_graph(graph)
    moments = null_moments(cross)
    triple = StatisticTriple(*standardize(cross.r1, cross.r2, moments))
    return graph, cross, moments, triple
