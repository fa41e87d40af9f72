"""Golden output bytes: a fixed seed must keep giving the same report.

Each case renders one run to text and compares its sha256 with a digest
recorded from an earlier version of the library. A refactor that changes
any byte of a report or a study CSV fails here; a change meant to alter the
output must say so and record the new digests.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from pairedgraph import (
    load_scenario,
    report_csv,
    report_json,
    results_to_csv,
    run_paired_test,
    run_power_study,
    run_scenario,
    scalar_block_spec,
)
from pairedgraph.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def monte_carlo_both():
    rng = np.random.default_rng(40)
    x = rng.standard_normal((40, 25))
    y = 0.8 * x + 0.6 * rng.standard_normal((40, 25)) + 0.1
    return run_paired_test(
        x, y, pvalue="both", n_perm=999, baseline_ht=True, seed=3
    )


def exact_n12():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((12, 4))
    y = x + 0.5 * rng.standard_normal((12, 4)) + 0.4
    return run_paired_test(x, y, k=3, pvalue="both", exact=True, seed=0)


def manhattan_integer_grid():
    # coordinates in {0, 1, 2}: almost every distance ties with many others,
    # so the k-MST is decided by the (weight, u, v) tie-break
    rng = np.random.default_rng(7)
    x = rng.integers(0, 3, size=(30, 4)).astype(float)
    y = rng.integers(0, 3, size=(30, 4)).astype(float)
    return run_paired_test(
        x, y, k=3, metric="manhattan", pvalue="both", n_perm=999, seed=11
    )


def degenerate_mean():
    # four pairs on a 1-D integer grid whose MST leaves Var(R1 + R2) = 0,
    # so z_m and z_g are flagged as undefined
    rng = np.random.default_rng(6)
    n = int(rng.integers(3, 6))
    x = rng.integers(0, 3, size=(n, 1)).astype(float)
    y = rng.integers(0, 3, size=(n, 1)).astype(float)
    return run_paired_test(x, y, k=1, metric="manhattan", pvalue="both", seed=1)


def asymptotic_n1500():
    # 3000 pooled nodes: a k-MST over 4.5 million candidate edges
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1500, 20))
    y = 0.8 * x + 0.6 * rng.standard_normal((1500, 20))
    return run_paired_test(x, y, k=5, pvalue="asymptotic")


def exact_n20():
    # 2^20 swaps: the exact null in many enumeration blocks
    rng = np.random.default_rng(20)
    x = rng.standard_normal((20, 6))
    y = 0.8 * x + 0.6 * rng.standard_normal((20, 6)) + 0.3
    return run_paired_test(x, y, k=3, pvalue="permutation", exact=True, seed=0)


def monte_carlo_three_blocks():
    # 2 * 16384 + 1 swaps: two full Monte Carlo draws and a one-row third
    rng = np.random.default_rng(33)
    x = rng.standard_normal((50, 8))
    y = 0.8 * x + 0.78 * rng.standard_normal((50, 8))
    return run_paired_test(x, y, k=5, pvalue="both", n_perm=2 * 16384 + 1, seed=9)


GOLDEN = {
    "monte_carlo_both_json": (
        lambda: report_json(monte_carlo_both()),
        "b07e430e9272bbe38aacb6abe28755508480ea2bf8d56c85a8af079abb37ea1b",
    ),
    "exact_n12_json": (
        lambda: report_json(exact_n12()),
        "bc30c036b710467fcec94a6f9fc3865100190c4d22785e453b50db2b97530d49",
    ),
    "exact_n12_csv": (
        lambda: report_csv(exact_n12()),
        "f1d775f686b981cd788efc0eab1805b0b684679c4c5a9976e9f4a4024c5481f6",
    ),
    "manhattan_integer_grid_json": (
        lambda: report_json(manhattan_integer_grid()),
        "783299b19582419e5b358233344aff804307ab50922c8e2f462d82fc745fb1b1",
    ),
    "degenerate_mean_json": (
        lambda: report_json(degenerate_mean()),
        "0781c2216a2a439d56c2e588623baa9d28ef4558e4e8514daeb8d447eea57ca4",
    ),
    "asymptotic_n1500_json": (
        lambda: report_json(asymptotic_n1500()),
        "4439665d38e15de6f93f108a5dd19ee76f85473ee75b2e31f4c621e2363356e4",
    ),
    "exact_n20_json": (
        lambda: report_json(exact_n20()),
        "b5820a677c15b3c162634188917c0a7d6c8bc2a19dd3340f39e0a0e9b4cc351d",
    ),
    "monte_carlo_three_blocks_json": (
        lambda: report_json(monte_carlo_three_blocks()),
        "a95dd6c40043ff25b79d72f6dbf99ce7b888e80c4f21450eec5eecff9876fbff",
    ),
    "smoke_size_small_csv": (
        lambda: results_to_csv(
            [run_scenario(load_scenario(DEMOS / "scenarios" / "smoke_size_small.cfg"))]
        ),
        "1d0d747632cace4dca67fab441d866b138dd4e2ecebc1782e0f16e08653abb52",
    ),
    "power_with_hotelling_csv": (
        lambda: results_to_csv(
            [
                run_power_study(
                    scalar_block_spec("normal", 30, 5, mean_diff_norm=1.0),
                    replicates=20,
                    seed=7,
                    scenario="golden-power",
                )
            ]
        ),
        "3bbc11806a6e9b195f79ab8250d231cdf95219dce4e488d7ecfc43f07c1ddf1f",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_bytes(case):
    render, want = GOLDEN[case]
    assert sha256(render()) == want


# the two sweeps CI runs, comparing the closed-form moments with enumeration
ORACLE_SWEEPS = {
    "oracle --instances 200": (
        "e2d99360b136d5355d0b669acb5295650713acaacac6ae2c0189486925075d61"
    ),
    "oracle --instances 40 --min-pairs 11 --max-pairs 14 --seed 1": (
        "63d3c8a54623923d8c3b67e127ee5d5aefa0f08184d8d1bc1eadc1cb8c243e2e"
    ),
}


@pytest.mark.parametrize("command", sorted(ORACLE_SWEEPS))
def test_oracle_sweep_bytes(command, capsys):
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out) == ORACLE_SWEEPS[command]
