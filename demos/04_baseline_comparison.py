"""Graph tests versus classical baselines when the dimension grows.

Hotelling's T2 needs n > d and weakens as d approaches n; the graph tests
only need a distance, so they run at any dimension.
"""

import numpy as np

from pairedgraph import (
    DimensionError,
    PairedSample,
    hotelling_paired,
    run_paired_test,
)

rng = np.random.default_rng(11)
n = 60

print("one draw per dimension, mean shift of norm 1.2, level 0.05:\n")
print(f"{'d':>6}{'z_m p':>12}{'z_g p':>12}{'Hotelling p':>14}")
for d in (10, 30, 50, 100, 500):
    shift = 1.2 / np.sqrt(d)
    x = rng.standard_normal((n, d))
    y = 0.6 * x + 0.8 * rng.standard_normal((n, d)) + shift
    report = run_paired_test(x, y, k=5)
    try:
        ht = f"{hotelling_paired(PairedSample(x=x, y=y)).p:.4f}"
    except DimensionError:
        ht = "-"  # not applicable once d >= n
    print(f"{d:>6}{report.pvalues.p_m_asym:>12.4f}"
          f"{report.pvalues.p_g_asym:>12.4f}{ht:>14}")
