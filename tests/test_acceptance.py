"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output). Monte Carlo criteria use fixed seeds, so the whole module
is deterministic.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pairedgraph import (
    DimensionError,
    PairedSample,
    SimilarityGraph,
    build_kmst,
    census_q3,
    condition_diagnostics,
    distance_matrix,
    extract_cross_pair_graph,
    graph_test,
    hotelling_paired,
    load_scenario,
    null_moments,
    permutation_pvalues,
    run_scenario,
    scalar_block_spec,
    write_paired_csv,
)
from pairedgraph.graph import DisconnectedError
from pairedgraph.simulate import _generate
from pairedgraph.stats import StatisticTriple, standardize
from pairedgraph.inference import asymptotic_pvalues
from pairedgraph.core import pool

from oracles import (
    census_q3_loop,
    empirical_moments,
    enumerate_counts,
    paired_t_test,
    random_cross_edges,
)

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "demos" / "scenarios"

MOMENT_FIELDS = ("e_r1", "var_r1", "cov_r12", "var_sum", "var_diff")


def announce(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def oracle_instances():
    """200 random instances: alternating k-MSTs on data and raw edge sets."""
    rng = np.random.default_rng(2024)
    instances = []
    while len(instances) < 200:
        n = int(rng.integers(2, 11))
        if len(instances) % 2 == 0:
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(3, n) + 1))
            dist = distance_matrix(rng.standard_normal((2 * n, d)))
            try:
                graph = build_kmst(dist, k)
            except DisconnectedError:
                graph = build_kmst(dist, 1)
        else:
            graph = SimilarityGraph(random_cross_edges(rng, n), 2 * n)
        instances.append((n, extract_cross_pair_graph(graph)))
    return instances


def test_c1_oracle_moment_equivalence(oracle_instances):
    start = time.monotonic()
    worst = 0.0
    for n, cross in oracle_instances:
        analytic = null_moments(cross)
        brute = empirical_moments(cross.edges, n)
        for field in MOMENT_FIELDS:
            worst = max(worst, abs(getattr(analytic, field) - brute[field]))
    elapsed = time.monotonic() - start
    announce(
        1,
        "oracle moment equivalence",
        worst <= 1e-10 and elapsed < 60.0,
        f"max |analytic - exhaustive| = {worst:.3e} over "
        f"{len(oracle_instances)} instances in {elapsed:.1f}s",
    )


def test_c2_quadratic_identity_and_zero_correlation(oracle_instances):
    worst_identity = 0.0
    worst_corr = 0.0
    checked = 0
    for n, cross in oracle_instances:
        moments = null_moments(cross)
        if moments.var_sum < 1e-12 or moments.var_diff < 1e-12:
            continue
        table = enumerate_counts(cross.edges, n)
        z_m = np.empty(len(table))
        z_s = np.empty(len(table))
        for pos, (a, b) in enumerate(table):
            triple = StatisticTriple(*standardize(a, b, moments))
            worst_identity = max(
                worst_identity, abs(triple.z_g - triple.z_m**2 - triple.z_s**2)
            )
            z_m[pos] = triple.z_m
            z_s[pos] = triple.z_s
        worst_corr = max(worst_corr, abs(float(np.mean(z_m * z_s))))
        checked += 1
    announce(
        2,
        "z_g = z_m^2 + z_s^2 and cov(z_m, z_s) = 0",
        worst_identity <= 1e-10 and worst_corr <= 1e-10 and checked > 0,
        f"max identity residual {worst_identity:.3e}, max |corr| "
        f"{worst_corr:.3e} over {checked} nondegenerate instances",
    )


def test_c3_census_cross_check(oracle_instances):
    mismatches = sum(
        1
        for _, cross in oracle_instances
        if census_q3(cross) != condition_diagnostics(cross).q3
        or census_q3(cross) != census_q3_loop(cross)
    )
    announce(
        3,
        "pair-of-pairs census equals q3",
        mismatches == 0,
        f"{mismatches} mismatches over {len(oracle_instances)} instances",
    )


# Published empirical sizes for the two desk-scale scenarios.
SIZE_CELLS = {
    "size-normal-d100-n50": {
        0.05: {"z_m": 0.046, "z_s": 0.048, "z_g": 0.042},
        0.1: {"z_m": 0.082, "z_s": 0.090, "z_g": 0.089},
    },
    "size-lognormal-d10-n100": {
        0.05: {"z_m": 0.048, "z_s": 0.050, "z_g": 0.042},
        0.1: {"z_m": 0.099, "z_s": 0.092, "z_g": 0.085},
    },
}


@pytest.mark.slow
def test_c4_empirical_size():
    failures = []
    details = []
    for name in SIZE_CELLS:
        scenario = load_scenario(SCENARIOS / f"{name.replace('-', '_')}.cfg")
        result = run_scenario(scenario)
        for level, cells in SIZE_CELLS[name].items():
            band = 3 * math.sqrt(level * (1 - level) / result.replicates)
            for test, cell in cells.items():
                got = result.proportion(test, level)
                details.append(f"{name} {test}@{level}: {got:.3f} (ref {cell:.3f})")
                if abs(got - cell) > band:
                    failures.append(
                        f"{name} {test}@{level}: {got:.3f} vs {cell:.3f} "
                        f"(band {band:.3f})"
                    )
    announce(
        4,
        "empirical size matches published cells",
        not failures,
        "; ".join(failures) if failures else "; ".join(details),
    )


POWER_TARGETS = {
    "power_normal_d100_mean.cfg": {
        "z_m": (0.827, 0.05),
        "z_s": (0.058, 0.04),
        "z_g": (0.657, 0.06),
    },
    "power_normal_d50_mean_scale.cfg": {
        "z_g": (0.943, 0.04),
        "ht": (0.629, 0.06),
    },
}


@pytest.mark.slow
def test_c5_power():
    failures = []
    details = []
    for filename, targets in POWER_TARGETS.items():
        result = run_scenario(load_scenario(SCENARIOS / filename))
        for test, (target, tol) in targets.items():
            got = result.proportion(test, 0.05)
            details.append(f"{result.scenario} {test}: {got:.3f} (ref {target:.3f})")
            if abs(got - target) > tol:
                failures.append(
                    f"{result.scenario} {test}: {got:.3f} vs {target:.3f} +-{tol}"
                )
    announce(
        5,
        "power matches published cells",
        not failures,
        "; ".join(failures) if failures else "; ".join(details),
    )


@pytest.mark.slow
def test_c6_permutation_asymptotic_agreement():
    spec = scalar_block_spec("normal", 100, 10)
    diffs = {"m": [], "s": [], "g": []}
    for rep in range(100):
        rng = np.random.default_rng([1, rep])
        sample = _generate(spec, rng)
        _, cross, _, triple = graph_test(distance_matrix(pool(sample)), 5)
        asym = asymptotic_pvalues(triple)
        perm = permutation_pvalues(cross, n_perm=10_000, seed=rep)
        for key, a, p in (
            ("m", asym.p_m_asym, perm.p_m_perm),
            ("s", asym.p_s_asym, perm.p_s_perm),
            ("g", asym.p_g_asym, perm.p_g_perm),
        ):
            diffs[key].append(abs(a - p))
    means = {key: float(np.mean(vals)) for key, vals in diffs.items()}
    announce(
        6,
        "monte-carlo vs asymptotic p-values",
        all(v < 0.02 for v in means.values()),
        "mean abs diff "
        + ", ".join(f"{key}={val:.4f}" for key, val in sorted(means.items())),
    )


def test_c7_baseline_correctness():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 1))
    y = rng.standard_normal((30, 1)) + 0.4
    ht = hotelling_paired(PairedSample(x=x, y=y))
    _, t_p = paired_t_test(x[:, 0], y[:, 0])
    agree = abs(ht.p - t_p) <= 1e-10

    wide = PairedSample(
        x=rng.standard_normal((60, 100)), y=rng.standard_normal((60, 100))
    )
    try:
        hotelling_paired(wide)
        raises = False
    except DimensionError:
        raises = True
    announce(
        7,
        "baseline correctness",
        agree and raises,
        f"|p_HT - p_t| = {abs(ht.p - t_p):.2e}; d >= n raises DimensionError: {raises}",
    )


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "pairedgraph", *args], capture_output=True, text=True
    )


def test_c8_determinism(tmp_path):
    rng = np.random.default_rng(12)
    sample = PairedSample(
        x=rng.standard_normal((14, 4)), y=rng.standard_normal((14, 4)) + 0.2
    )
    pairs = tmp_path / "pairs.csv"
    write_paired_csv(sample, pairs)
    test_args = (
        "test",
        "--input",
        str(pairs),
        "--pvalue",
        "both",
        "--n-perm",
        "500",
        "--seed",
        "99",
        "--baseline-ht",
    )
    a, b = run_cli(*test_args), run_cli(*test_args)

    sim_args = ("simulate", str(SCENARIOS / "smoke_size_small.cfg"))
    c, d = run_cli(*sim_args), run_cli(*sim_args)

    e, f = run_cli("oracle", "--instances", "10"), run_cli("oracle", "--instances", "10")

    same = (
        a.returncode == b.returncode == 0
        and a.stdout == b.stdout
        and c.returncode == d.returncode == 0
        and c.stdout == d.stdout
        and e.returncode == f.returncode == 0
        and e.stdout == f.stdout
    )
    announce(
        8,
        "byte-identical reruns",
        same,
        "test/simulate/oracle commands reproduce byte-identically under a fixed seed",
    )
    # sanity: the JSON report parses and carries the seed
    assert json.loads(a.stdout)["seed"] == 99
