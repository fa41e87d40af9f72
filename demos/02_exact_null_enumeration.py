"""Why the closed-form moments can be trusted.

With n pairs there are exactly 2^n ways of relabeling each pair, and for
small n we can simply enumerate them all. This script builds a 2-MST on
seven random pairs, computes the closed-form moments of the within-sample
edge counts, and compares them against the brute-force enumeration. It also
verifies the z_g = z_m^2 + z_s^2 identity on every relabeling.
"""

import numpy as np

from pairedgraph import (
    build_kmst,
    condition_diagnostics,
    distance_matrix,
    exhaustive_edge_counts,
    exhaustive_null_moments,
    extract_cross_pair_graph,
    null_moments,
    pool,
    standardize,
)
from pairedgraph.core import PairedSample

rng = np.random.default_rng(42)
n, d = 7, 3

sample = PairedSample(x=rng.standard_normal((n, d)), y=rng.standard_normal((n, d)))
cross = extract_cross_pair_graph(build_kmst(distance_matrix(pool(sample)), 2))

diag = condition_diagnostics(cross)
print(f"{n} pairs, 2-MST: {cross.n_edges} cross-pair edges, "
      f"q={diag.q3}, s={diag.sum_degdiff_sq}")

analytic = null_moments(cross)
brute = exhaustive_null_moments(cross)

print(f"\n{'moment':<10}{'closed form':>16}{'all 2^n swaps':>16}")
for field in ("e_r1", "var_r1", "cov_r12", "var_sum", "var_diff"):
    print(f"{field:<10}{getattr(analytic, field):>16.10f}"
          f"{getattr(brute, field):>16.10f}")

z_m, z_s, z_g = standardize(*exhaustive_edge_counts(cross), analytic)
residual = np.max(np.abs(z_g - z_m**2 - z_s**2))
print(f"\nmax |z_g - z_m^2 - z_s^2| over all {2**n} swaps: {residual:.2e}")
