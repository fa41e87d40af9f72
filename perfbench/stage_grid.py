"""One-off stage grid: regenerates the ROADMAP baseline table from a traced run.

Not a workload. For each row of the grid it runs one traced
``run_paired_test(k=5, pvalue="both", n_perm=10000)`` on x ~ N(0, I),
y = 0.8x + 0.6e and prints each stage's wall time, then the end-to-end
figures listed under the table: exact enumeration at n = 20 and the cost of
a 100-replicate power study at n = 60, d = 100.

    python3 perfbench/run.py --stage-grid [--seed 0]
"""

from __future__ import annotations

import resource
import time

import numpy as np

from layers import Tracer

GRID = ((50, 100), (200, 100), (500, 100), (1000, 50))
COLUMNS = (
    ("dist", "graph.distance_matrix"),
    ("k-MST", "graph.build_kmst"),
    ("cross", "moments.extract_cross_pair_graph"),
    ("moments", "moments.null_moments"),
    ("diagnostics", "moments.condition_diagnostics"),
    ("census", "moments.census_q3"),
    ("perm 10k", "inference.permutation_pvalues"),
    ("total", "report.run_paired_test"),
)


def _pairs(rng, n, d):
    x = rng.standard_normal((n, d))
    return x, 0.8 * x + 0.6 * rng.standard_normal((n, d))


def _ms(seconds: float | None) -> str:
    if seconds is None:
        return "absent"
    ms = seconds * 1e3
    return "<0.1 ms" if ms < 0.1 else f"{ms:.0f} ms" if ms >= 1 else f"{ms:.1f} ms"


def _stage_times(pg, x, y, **kwargs) -> dict:
    tracer = Tracer()
    with tracer:
        pg.run_paired_test(x, y, **kwargs)
    times = {}
    for span in tracer.spans:
        times[span.name] = times.get(span.name, 0.0) + span.duration
    return times


def print_stage_grid(pg, seed: int) -> None:
    rng = np.random.default_rng(seed)
    print("| n (d)     | " + " | ".join(label for label, _ in COLUMNS) + " |")
    print("|-----------|" + "|".join("-" * (len(label) + 2) for label, _ in COLUMNS) + "|")
    for n, d in GRID:
        x, y = _pairs(rng, n, d)
        times = _stage_times(pg, x, y, k=5, pvalue="both", n_perm=10_000, seed=seed)
        cells = " | ".join(_ms(times.get(span)) for _, span in COLUMNS)
        print(f"| {f'{n} ({d})':<9} | {cells} |")

    x, y = _pairs(rng, 20, 10)
    times = _stage_times(pg, x, y, k=5, pvalue="permutation", exact=True)
    print(f"\n- Exact enumeration at n = 20, d = 10: {_ms(times.get('report.run_paired_test'))}"
          f" end to end, {_ms(times.get('inference.permutation_pvalues'))} enumerating 2^20 swaps.")

    eye = np.eye(100)
    spec = pg.GeneratorSpec(family="normal", nu1=np.full(100, 0.15), nu2=np.zeros(100),
                            gamma1=eye, gamma2=eye, gamma12=0.6 * eye, n=60, d=100)
    start = time.perf_counter()
    pg.run_power_study(spec, replicates=100, k=5, seed=seed)
    print(f"- Power study with 100 replicates at n = 60, d = 100: "
          f"{_ms(time.perf_counter() - start)}.")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"- Peak RSS of the whole grid run: {peak:.0f} MB.")
