"""The package exports exactly its modules' ``__all__`` lists."""

import importlib.metadata

import pytest

import pairedgraph
from pairedgraph import baselines, core, graph, inference, io, moments, report, simulate, stats

MODULES = (baselines, core, graph, inference, io, moments, report, simulate, stats)

PUBLIC = [
    "ConditionDiagnostics", "CrossPairGraph", "DimensionError", "DisconnectedError",
    "DistanceMatrix", "EdgeCounts", "ExactTooLargeError", "GeneratorSpec",
    "HotellingReport", "NullMoments", "PValueReport", "PairedSample", "SimilarityGraph",
    "SingularCovarianceError", "StatisticTriple", "StudyResult", "TestReport",
    "ValidationError", "ZeroVarianceError", "__version__", "asymptotic_pvalues",
    "bonferroni", "build_kmst", "census_q3", "condition_diagnostics", "distance_matrix",
    "exhaustive_edge_counts", "extract_cross_pair_graph", "graph_test",
    "hotelling_paired", "load_scenario", "null_moments", "paired_t_test",
    "permutation_pvalues", "pool", "precomputed_distance", "read_distance_csv",
    "read_paired_csv", "report_csv", "report_json", "results_to_csv",
    "run_oracle_validation", "run_paired_test", "run_power_study", "run_scenario",
    "run_size_study", "scalar_block_spec", "standardize", "statistics",
    "write_paired_csv",
]


def test_package_exports_the_public_names():
    assert sorted(pairedgraph.__all__) == PUBLIC


def test_no_two_modules_export_one_name():
    # a star import would let the later module's object shadow the earlier one
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_names_are_their_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pairedgraph, name) is getattr(module, name), name


def test_inference_constants_stay_in_their_module():
    assert inference.DEFAULT_EXACT_THRESHOLD == 20
    assert inference.RNG_ALGORITHM == "PCG64"


def test_installed_version_is_the_package_version():
    # pyproject.toml reads the version from pairedgraph._version
    try:
        installed = importlib.metadata.version("pairedgraph")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the pairedgraph distribution is not installed")
    assert installed == pairedgraph.__version__
