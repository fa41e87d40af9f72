"""pairedgraph benchmark: one workload in one fresh process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload test_both --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --stage-grid

Each operation starts when the previous one returns, until ``--seconds`` have
passed. Every output is checked; an operation that raises or fails a check is
counted as failed and the run goes on. Every metric is printed by name and
unit, then the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
README.md next to this file documents workloads, metrics and units.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set before numpy loads: one BLAS thread, so timings do not depend on how
# many cores other processes leave free.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2  # set-ups repeated in fresh interpreters; setup_s is the median
PROBE_TIMEOUT_S = 120
SHOWN_PROBLEMS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def load_program():
    """Import pairedgraph from this checkout's src/, never from elsewhere."""
    package = SRC / "pairedgraph"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no pairedgraph sources at {package}")
    sys.path.insert(0, str(SRC))
    import pairedgraph

    if Path(pairedgraph.__file__).resolve().parent != package.resolve():
        raise ImportError(f"pairedgraph was imported from {pairedgraph.__file__}")
    return pairedgraph


def run_metadata(seed) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "seed": seed,
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Tally:
    """Attempts, failures, latencies and completed work of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy = 0.0
        self.latencies = {False: [], True: []}  # keyed by "traced"

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_PROBLEMS:
            print(f"perfbench: {what} failed: {reason}", file=sys.stderr)


def attempt(workload, tally: Tally, op: int, tracer=None) -> None:
    """Operation ``op``, timed, then checked outside the timing."""
    tally.attempted += 1
    if tracer is not None:
        tracer.op = op
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(op)
        else:
            with tracer:
                output = workload.run(op)
    except Exception:  # a failed operation is counted, never ends the run
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    tally.busy += elapsed
    tally.latencies[tracer is not None].append(elapsed)
    if error is not None:
        tally.fail(f"operation {op}", error)
        return
    problems = workload.check(op, output)
    if problems:
        tally.fail(f"operation {op}", "; ".join(problems))
    else:
        tally.units += workload.units


def measure(workload, seconds: float, tally: Tally, tracer=None) -> None:
    """Closed loop: operation j runs on input j mod INPUTS until ``seconds`` pass.

    With a tracer, every operation runs twice in a row, traced and untraced
    in alternating order, so the two latency lists pair up for the tracing
    overhead. Without one, a run in which no input repeated ends by running
    input 0 again, so that same-seed determinism is always checked.
    """
    start = time.perf_counter()
    op = 0
    while op == 0 or time.perf_counter() - start < seconds:
        if tracer is None:
            attempt(workload, tally, op)
        else:
            for traced in (op % 2 == 0, op % 2 == 1):
                attempt(workload, tally, op, tracer if traced else None)
        op += 1
    if tracer is None and op <= workload.INPUTS:
        attempt(workload, tally, workload.INPUTS)


def probe_setups(args) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=True)
            times.append(float(done.stdout.split()[-1]))
        except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
    return times


def end_to_end_metrics(workload, tally: Tally, setups: list[float]) -> dict:
    ok = tally.attempted - tally.failed
    lat = tally.latencies[False]
    return {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "op_p50_s": (statistics.median(lat), f"median of {len(lat)} operations"),
        "throughput": (tally.units / tally.busy, f"{workload.work_unit} per second"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "ru_maxrss of this process"),
        "ok_frac": (ok / tally.attempted,
                    f"failed_frac = {tally.failed / tally.attempted:.6g} "
                    f"({tally.failed} of {tally.attempted} attempted, warm-up included)"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("test_both", "power_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stage-grid", action="store_true",
                        help="print the per-stage table of the ROADMAP grid and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.stage_grid:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    setup_start = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        pg = load_program()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    if args.stage_grid:
        from stage_grid import print_stage_grid

        print_stage_grid(pg, args.seed)
        return 0

    from layers import Tracer, layer_metrics
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        workload = WORKLOADS[args.workload](pg, args.seed, workdir)
        tally.attempted += 1
        try:
            workload.warm_up()
        except Exception:  # counted like any failed operation
            tally.fail("warm-up", traceback.format_exc(limit=3))
        own_setup = time.perf_counter() - setup_start
        if args.setup_only:
            print(repr(own_setup))
            return 0
        setups = [own_setup] + probe_setups(args)
        tracer = Tracer() if args.trace else None
        measure(workload, args.seconds, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# meta " + json.dumps(run_metadata(args.seed), sort_keys=True))
    metrics = {}
    if tracer is None:
        for name, (value, note) in end_to_end_metrics(workload, tally, setups).items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            print(f"{name:<36} {value:<14.6g} {END_TO_END_UNITS[name]:<6} {note}")
    else:
        overhead = statistics.median(
            [t / u for u, t in zip(tally.latencies[False], tally.latencies[True])]) - 1
        ops = len(tally.latencies[True])
        for name, (value, unit, note) in layer_metrics(tracer, ops, overhead).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<36} {value:<14.6g} {unit:<6} {note}")
        print(f"# {ops} operations, each run both traced and untraced")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
