"""Graph-based non-parametric two-sample tests for multivariate paired data.

The pipeline pools the n pairs into 2n points, builds a k-MST similarity
graph, removes within-pair edges, and tests the observed within-sample edge
counts (R1, R2) against their exact moments under the 2^n within-pair label
swaps. ``run_paired_test`` wires the whole pipeline around ``graph_test``;
the individual stages are exported for piecemeal use.
"""

from ._version import __version__
from .baselines import (
    DimensionError,
    HotellingReport,
    SingularCovarianceError,
    ZeroVarianceError,
    bonferroni,
    hotelling_paired,
    paired_t_test,
)
from .core import PairedSample, ValidationError, pool
from .graph import (
    DisconnectedError,
    DistanceMatrix,
    SimilarityGraph,
    build_kmst,
    distance_matrix,
    precomputed_distance,
)
from .inference import (
    ExactTooLargeError,
    PValueReport,
    asymptotic_pvalues,
    exhaustive_edge_counts,
    permutation_pvalues,
    run_oracle_validation,
)
from .io import read_distance_csv, read_paired_csv, write_paired_csv
from .moments import (
    ConditionDiagnostics,
    CrossPairGraph,
    NullMoments,
    census_q3,
    condition_diagnostics,
    extract_cross_pair_graph,
    null_moments,
)
from .report import TestReport, report_csv, report_json, run_paired_test
from .simulate import (
    GeneratorSpec,
    StudyResult,
    load_scenario,
    results_to_csv,
    run_power_study,
    run_scenario,
    run_size_study,
    scalar_block_spec,
)
from .stats import (
    EdgeCounts,
    StatisticTriple,
    graph_test,
    standardize,
    statistics,
)

__all__ = [
    "__version__",
    "ConditionDiagnostics",
    "CrossPairGraph",
    "DimensionError",
    "DisconnectedError",
    "DistanceMatrix",
    "EdgeCounts",
    "ExactTooLargeError",
    "GeneratorSpec",
    "HotellingReport",
    "NullMoments",
    "PValueReport",
    "PairedSample",
    "SimilarityGraph",
    "SingularCovarianceError",
    "StatisticTriple",
    "StudyResult",
    "TestReport",
    "ValidationError",
    "ZeroVarianceError",
    "asymptotic_pvalues",
    "bonferroni",
    "build_kmst",
    "census_q3",
    "condition_diagnostics",
    "distance_matrix",
    "exhaustive_edge_counts",
    "extract_cross_pair_graph",
    "graph_test",
    "hotelling_paired",
    "load_scenario",
    "null_moments",
    "paired_t_test",
    "permutation_pvalues",
    "pool",
    "precomputed_distance",
    "read_distance_csv",
    "read_paired_csv",
    "report_csv",
    "report_json",
    "results_to_csv",
    "run_oracle_validation",
    "run_paired_test",
    "run_power_study",
    "run_scenario",
    "run_size_study",
    "scalar_block_spec",
    "standardize",
    "statistics",
    "write_paired_csv",
]
