"""Metamorphic invariants of the whole pipeline in exact mode.

These relations hold for any correct implementation, so they guard the
graph, moment and enumeration stages beyond the fixed golden inputs:

- relabeling the pairs leaves the report unchanged (continuous draws only,
  since under ties the (weight, u, v) tie-break follows the node labels);
- scaling x and y by 4 scales every distance exactly, so ties survive and
  the report keeps its bytes;
- swapping x and y exchanges R1 and R2: z_m, z_g, the diagnostics and the
  exact p-values stay, and z_s changes sign.
"""

import json

import numpy as np

from pairedgraph import report_json, run_paired_test


def exact_report(x, y, k, metric="euclidean"):
    return run_paired_test(x, y, k=k, metric=metric, pvalue="both", exact=True, seed=0)


def continuous_cases(seed, count=30):
    """(x, y, k) with n = 4..15 pairs, d = 1..5 and k = 1..3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d = int(rng.integers(4, 16)), int(rng.integers(1, 6))
        x = rng.standard_normal((n, d))
        y = 0.7 * x + rng.standard_normal((n, d)) + rng.choice([0.0, 0.5])
        yield x, y, int(rng.integers(1, 4))


def tie_heavy_cases(seed, count=30):
    """(x, y, k, metric) on the integer grid {0, 1, 2}^d, where most edges tie."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = int(rng.integers(4, 16)), int(rng.integers(1, 4))
        x = rng.integers(0, 3, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=(n, d)).astype(float)
        yield x, y, int(rng.integers(1, 4)), ("manhattan", "euclidean")[i % 2]


def test_relabeling_pairs_keeps_the_report_bytes():
    rng = np.random.default_rng(40)
    for x, y, k in continuous_cases(41):
        perm = rng.permutation(len(x))
        want = report_json(exact_report(x, y, k))
        assert report_json(exact_report(x[perm], y[perm], k)) == want


def test_scaling_by_four_keeps_the_report_bytes():
    for x, y, k in continuous_cases(42):
        want = report_json(exact_report(x, y, k))
        assert report_json(exact_report(4 * x, 4 * y, k)) == want
    for x, y, k, metric in tie_heavy_cases(43):
        want = report_json(exact_report(x, y, k, metric))
        assert report_json(exact_report(4 * x, 4 * y, k, metric)) == want


def test_swapping_samples_negates_only_z_s():
    checked = 0
    for x, y, k in continuous_cases(44):
        base = json.loads(report_json(exact_report(x, y, k)))
        swapped = json.loads(report_json(exact_report(y, x, k)))
        for key in ("z_m", "z_g", "degenerate"):
            assert swapped["statistics"][key] == base["statistics"][key]
        z_s = base["statistics"]["z_s"]
        assert swapped["statistics"]["z_s"] == (None if z_s is None else -z_s)
        assert swapped["diagnostics"] == base["diagnostics"]
        r1, r2 = base["counts"]["r1"], base["counts"]["r2"]
        assert swapped["counts"] == {"r1": r2, "r2": r1}
        for key in ("m_permutation", "s_permutation", "g_permutation", "mode"):
            assert swapped["p_values"][key] == base["p_values"][key]
        assert base["p_values"]["mode"] == "exact"
        checked += z_s is not None and z_s != 0
    assert checked > 10

