"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 degenerate null for a requested
statistic. Every run is replayable: a run needing permutations without --seed
draws one and reports it; asymptotic-only runs report seed null.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .core import ValidationError
from .graph import DisconnectedError
from .inference import run_oracle_validation
from .io import read_distance_csv, read_paired_csv
from .report import report_csv, report_json, run_paired_test
from .simulate import load_scenario, results_to_csv, run_scenario

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairedgraph",
        description="Graph-based non-parametric tests for multivariate paired data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run the paired tests on a CSV of pairs")
    test.add_argument("--input", required=True, help="CSV with header x1..xd,y1..yd")
    test.add_argument(
        "--metric",
        choices=["euclidean", "manhattan", "precomputed"],
        default="euclidean",
    )
    test.add_argument(
        "--dist-matrix",
        help="N x N distance CSV, required with --metric precomputed",
    )
    test.add_argument("--k", type=int, default=5, help="MST multiplicity (default 5)")
    test.add_argument("--test", choices=["m", "s", "g", "all"], default="all")
    test.add_argument(
        "--pvalue",
        choices=["asymptotic", "permutation", "both"],
        default="asymptotic",
    )
    test.add_argument("--n-perm", type=int, default=10000)
    test.add_argument(
        "--exact",
        action="store_true",
        help="force exhaustive enumeration of all 2^n swaps",
    )
    test.add_argument(
        "--strict",
        action="store_true",
        help="count only strictly larger permutation statistics",
    )
    test.add_argument("--baseline-ht", action="store_true")
    test.add_argument("--seed", type=int)
    test.add_argument("--output", choices=["json", "csv"], default="json")

    sim = sub.add_parser("simulate", help="run size/power scenario files")
    sim.add_argument("scenarios", nargs="+", help="flat key = value scenario files")
    sim.add_argument("--output", help="write the CSV here instead of stdout")

    oracle = sub.add_parser(
        "oracle", help="validate analytic moments against exhaustive enumeration"
    )
    oracle.add_argument("--instances", type=int, default=200)
    oracle.add_argument("--min-pairs", type=int, default=2)
    oracle.add_argument("--max-pairs", type=int, default=10)
    oracle.add_argument("--max-dim", type=int, default=5)
    oracle.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_test(args) -> int:
    if args.metric == "precomputed" and not args.dist_matrix:
        raise ValidationError("--metric precomputed requires --dist-matrix")
    if args.dist_matrix and args.metric != "precomputed":
        raise ValidationError("--dist-matrix only applies with --metric precomputed")

    sample = read_paired_csv(args.input)
    distances = read_distance_csv(args.dist_matrix) if args.dist_matrix else None

    report = run_paired_test(
        sample.x,
        sample.y,
        k=args.k,
        metric=args.metric,
        distances=distances,
        pvalue=args.pvalue,
        n_perm=args.n_perm,
        exact=args.exact,
        strict=args.strict,
        baseline_ht=args.baseline_ht,
        seed=args.seed,
    )

    print(report_json(report) if args.output == "json" else report_csv(report), end="")
    if args.output == "json":
        print()

    requested = ("m", "s", "g") if args.test == "all" else (args.test,)
    undefined = sorted(set(requested) & set(report.stats.degenerate_flags))
    if undefined:
        print(
            f"degenerate null: statistic(s) {', '.join(undefined)} undefined "
            "(zero null variance); a denser graph usually helps: increase k",
            file=sys.stderr,
        )
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    results = [run_scenario(load_scenario(path)) for path in args.scenarios]
    csv_text = results_to_csv(results)
    if args.output:
        Path(args.output).write_text(csv_text)
    else:
        print(csv_text, end="")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    summary = run_oracle_validation(
        args.instances,
        min_pairs=args.min_pairs,
        max_pairs=args.max_pairs,
        max_dim=args.max_dim,
        seed=args.seed,
    )
    print(f"instances: {summary.instances}")
    print(f"seed: {summary.seed}")
    print(f"max moment discrepancy: {summary.max_moment_error:.3e}")
    print(f"max z_g identity residual: {summary.max_identity_residual:.3e}")
    print(f"census mismatches: {summary.census_mismatches}")
    print(f"result: {'PASS' if summary.ok else 'FAIL'} (tolerance {summary.tolerance:g})")
    return EXIT_OK if summary.ok else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"test": _cmd_test, "simulate": _cmd_simulate, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except (ValidationError, DisconnectedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
