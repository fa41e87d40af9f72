"""The package exports exactly its modules' ``__all__`` lists, and keeps no
private helper that only the tests call."""

import ast
import importlib.metadata
from pathlib import Path

import pytest

import pairedgraph
from pairedgraph import baselines, core, graph, inference, io, moments, report, simulate, stats

MODULES = (baselines, core, graph, inference, io, moments, report, simulate, stats)

PUBLIC = [
    "ConditionDiagnostics", "CrossPairGraph", "DimensionError", "DisconnectedError",
    "DistanceMatrix", "ExactTooLargeError", "GeneratorSpec",
    "HotellingReport", "NullMoments", "PValueReport", "PairedSample", "SimilarityGraph",
    "SingularCovarianceError", "StatisticTriple", "StudyResult", "TestReport",
    "ValidationError", "__version__", "asymptotic_pvalues",
    "build_kmst", "census_q3", "condition_diagnostics", "distance_matrix",
    "exhaustive_edge_counts", "extract_cross_pair_graph", "graph_test",
    "hotelling_paired", "load_scenario", "null_moments",
    "permutation_pvalues", "pool", "precomputed_distance", "read_distance_csv",
    "read_paired_csv", "report_csv", "report_json", "results_to_csv",
    "run_oracle_validation", "run_paired_test", "run_power_study", "run_scenario",
    "run_size_study", "scalar_block_spec", "standardize",
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


def test_private_helpers_have_a_caller_in_the_package():
    # a module-level _name that no package code loads serves only the tests,
    # which keep such helpers in tests/oracles.py
    package = Path(pairedgraph.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    defined, loaded = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    assert sorted(private - loaded) == []
