"""End-to-end test pipeline and the deterministic report format.

Reports serialize to JSON with sorted keys and 17-significant-digit floats,
so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._version import __version__
from .baselines import HotellingReport, hotelling_paired
from .core import FLOAT_FORMAT, PairedSample, ValidationError, _check_seed, pool
from .graph import DistanceMatrix, _checked_k, _checked_metric
from .inference import PValueReport, _checked_n_perm, _require_exact
from .inference import asymptotic_pvalues, permutation_pvalues
from .moments import ConditionDiagnostics, NullMoments, census_q3, condition_diagnostics
from .stats import StatisticTriple, graph_test

__all__ = ["TestReport", "run_paired_test", "report_json", "report_csv"]


@dataclass(frozen=True)
class TestReport:
    """Everything one run produces, ready for serialization."""

    n: int
    d: int
    k: int
    metric: str
    n_graph_edges: int
    n_cross_pair_edges: int
    r1: int
    r2: int
    moments: NullMoments
    diagnostics: ConditionDiagnostics
    census_q3: int
    stats: StatisticTriple
    pvalues: PValueReport
    hotelling: HotellingReport | None
    seed: int | None
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "input": {"n": self.n, "d": self.d, "k": self.k, "metric": self.metric},
            "graph": {
                "edges": self.n_graph_edges,
                "cross_pair_edges": self.n_cross_pair_edges,
            },
            "counts": {"r1": self.r1, "r2": self.r2},
            "moments": {**asdict(self.moments), "sigma_r": self.moments.sigma_r.tolist()},
            "diagnostics": {**asdict(self.diagnostics), "census_q3": self.census_q3},
            "statistics": {
                **asdict(self.stats),
                "degenerate": list(self.stats.degenerate_flags),
            },
            "p_values": {
                "m_asymptotic": self.pvalues.p_m_asym,
                "s_asymptotic": self.pvalues.p_s_asym,
                "g_asymptotic": self.pvalues.p_g_asym,
                "m_permutation": self.pvalues.p_m_perm,
                "s_permutation": self.pvalues.p_s_perm,
                "g_permutation": self.pvalues.p_g_perm,
                "n_permutations": self.pvalues.n_permutations,
                "mode": self.pvalues.mode,
                "rng": self.pvalues.rng_algorithm,
            },
            "baseline": None
            if self.hotelling is None
            else {
                "hotelling": {
                    "t2": self.hotelling.t2,
                    "f": self.hotelling.f_stat,
                    "df1": self.hotelling.df1,
                    "df2": self.hotelling.df2,
                    "p": self.hotelling.p,
                }
            },
        }


def run_paired_test(
    x,
    y,
    *,
    k: int = 5,
    metric: str = "euclidean",
    distances: DistanceMatrix | None = None,
    pvalue: str = "asymptotic",
    n_perm: int = 10000,
    exact: bool = False,
    strict: bool = False,
    baseline_ht: bool = False,
    seed: int | None = None,
) -> TestReport:
    """Full pipeline: pool, graph, moments, statistics, p-values.

    ``distances`` overrides metric-based computation (precomputed matrices
    must cover all 2n pooled nodes, x rows first). ``pvalue`` selects
    "asymptotic", "permutation", or "both". ``permutation_pvalues`` decides
    whether to enumerate or sample; ``exact=True`` refuses a permutation run
    it would sample. The arguments are checked before Hotelling or any
    distance runs. The report carries the caller's seed, else the one a
    sampling run drew, else None.
    """
    if pvalue not in ("asymptotic", "permutation", "both"):
        raise ValidationError(f"unknown pvalue choice {pvalue!r}")
    seed = _check_seed(seed)
    sample = PairedSample(x=np.asarray(x, dtype=float), y=np.asarray(y, dtype=float))
    if sample.n < 2:
        raise ValidationError("need at least 2 pairs to run a test")
    k = _checked_k(k, 2 * sample.n)
    if pvalue != "asymptotic":
        n_perm = _checked_n_perm(n_perm)
        if exact:
            _require_exact(sample.n)
    if distances is None:
        _checked_metric(metric)
    elif distances.n_nodes != 2 * sample.n:
        raise ValidationError(
            f"distance matrix covers {distances.n_nodes} nodes but the "
            f"pooled sample has {2 * sample.n}"
        )
    else:
        metric = distances.metric
    # Hotelling draws nothing, so running it first lets d >= n fail before the graph
    hotelling = hotelling_paired(sample) if baseline_ht else None

    graph, cross, moments, triple = graph_test(
        pool(sample) if distances is None else distances, k, metric
    )

    pvals = PValueReport()
    if pvalue in ("permutation", "both"):
        pvals = permutation_pvalues(cross, n_perm=n_perm, seed=seed, strict=strict)
    if pvalue in ("asymptotic", "both"):
        asym = asymptotic_pvalues(triple)
        pvals = replace(
            pvals,
            p_m_asym=asym.p_m_asym,
            p_s_asym=asym.p_s_asym,
            p_g_asym=asym.p_g_asym,
        )

    return TestReport(
        n=sample.n,
        d=sample.d,
        k=k,
        metric=metric,
        n_graph_edges=graph.n_edges,
        n_cross_pair_edges=cross.n_edges,
        r1=cross.r1,
        r2=cross.r2,
        moments=moments,
        diagnostics=condition_diagnostics(cross),
        census_q3=census_q3(cross),
        stats=triple,
        pvalues=pvals,
        hotelling=hotelling,
        seed=pvals.seed if seed is None else seed,
    )


def _render(value, pieces: list[str]) -> None:
    if value is None:
        pieces.append("null")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format(float(value), FLOAT_FORMAT))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, dict):
        pieces.append("{")
        for pos, key in enumerate(sorted(value)):
            if pos:
                pieces.append(",")
            pieces.append(json.dumps(key))
            pieces.append(":")
            _render(value[key], pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for pos, item in enumerate(value):
            if pos:
                pieces.append(",")
            _render(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def report_json(report: TestReport) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting."""
    pieces: list[str] = []
    _render(report.to_dict(), pieces)
    return "".join(pieces)


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, (list, tuple)):
        for pos, item in enumerate(value):
            _flatten(f"{prefix}.{pos}", item, rows)
    else:
        pieces: list[str] = []
        _render(value, pieces)
        rows.append((prefix, "".join(pieces)))


def report_csv(report: TestReport) -> str:
    """Flat two-column key,value rendering of the same report."""
    rows: list[tuple[str, str]] = []
    _flatten("", report.to_dict(), rows)
    lines = ["key,value"]
    lines += [f"{key},{value}" for key, value in rows]
    return "\n".join(lines) + "\n"
