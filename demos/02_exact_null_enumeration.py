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

# one enumeration of all 2^n swaps gives every population moment
r1, r2 = exhaustive_edge_counts(cross)
f1, f2 = r1.astype(float), r2.astype(float)
brute = {
    "e_r1": f1.mean(),
    "var_r1": f1.var(),
    "cov_r12": np.mean((f1 - f1.mean()) * (f2 - f2.mean())),
    "var_sum": np.var(f1 + f2),
    "var_diff": np.var(f1 - f2),
}

print(f"\n{'moment':<10}{'closed form':>16}{'all 2^n swaps':>16}")
for field, value in brute.items():
    print(f"{field:<10}{getattr(analytic, field):>16.10f}{value:>16.10f}")

z_m, z_s, z_g = standardize(r1, r2, analytic)
residual = np.max(np.abs(z_g - z_m**2 - z_s**2))
print(f"\nmax |z_g - z_m^2 - z_s^2| over all {2**n} swaps: {residual:.2e}")
