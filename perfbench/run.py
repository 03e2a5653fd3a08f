"""pairspec's benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload verify-two-aspects --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the workload repeats
whole rounds of its commands, on the same inputs, until ``--seconds``
would pass, and reports the end-to-end metrics: ``setup_s`` (the lower
quartile of fresh interpreters doing ``import pairspec`` plus config
parse and validation, half of them started before the rounds and half
after), medians of ``wall_s`` and ``cpu_s`` over the rounds after the
first (over the one round if there is only one), and the process's
``peak_rss_mib``.  With ``--trace 1`` it runs one traced round and, for
the CLI workloads, the command once per check with only that check
enabled, and reports the per-layer metrics.  A run in which any
operation failed prints ``"correct": false`` and exits with code 1.
``--single-thread`` pins OpenBLAS and the harness to one thread, for the
plain reference run in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"
SETUP_REPEATS = 12

# One fresh interpreter: process start to the point where the first
# command could be called.  It prints the monotonic clock, which is
# shared across processes, at that point.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import pairspec
from pairspec.harness import ExperimentConfig, validate_config
with open(sys.argv[2], encoding="utf-8") as fh:
    validate_config(ExperimentConfig.from_json(fh.read()))
print(time.monotonic())
"""


def measure_setup(config_path: Path, repeats: int, warm_up: bool = False) -> list[float]:
    """Set-up times of ``repeats`` fresh interpreters, one after another."""
    times = []
    for i in range(repeats + warm_up):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
            check=True, capture_output=True, text=True, timeout=60,
        )
        if i or not warm_up:
            times.append(float(done.stdout.split()[-1]) - start)
    return times


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, or (0, 0) if unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(t) for t in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return ticks[7], sum(ticks)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_runs(wl, seconds: float) -> tuple[dict, list[float], int, int, list[str]]:
    walls, cpus, attempted, failed, problems = [], [], 0, 0, []
    start = time.perf_counter()
    # A round starts only if one as quick as the quickest so far, checks
    # included, still ends within ``seconds``; the first always runs.
    spans = []
    while not spans or time.perf_counter() - start + min(spans) <= seconds:
        began = time.perf_counter()
        rnd, out = wl.run_round()
        walls.append(rnd.wall_s)
        cpus.append(rnd.cpu_s)
        attempted += rnd.attempted
        failed += rnd.failed
        problems += rnd.problems
        if out is not None:
            shutil.rmtree(out)
        spans.append(time.perf_counter() - began)
    # The first of several rounds is a warm-up, left out of the medians so
    # that one-time work of first calls does not count.
    warm_up = int(len(walls) > 1)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": metric(statistics.median(walls[warm_up:]), "s"),
        "cpu_s": metric(statistics.median(cpus[warm_up:]), "s"),
        "peak_rss_mib": metric(peak_kib / 1024.0, "MiB"),
    }
    return metrics, walls, attempted, failed, problems


def traced_run(wl) -> tuple[dict, int, int, list[str]]:
    from tracing import Tracer
    from workloads import CHECK_NAMES, CliWorkload, report_bytes

    with Tracer() as tracer:
        traced, out = wl.run_round()
    metrics = {k: metric(v, unit) for k, (v, unit) in tracer.metrics().items()}
    is_cli = isinstance(wl, CliWorkload)
    metrics["harness.bytes_written"] = metric(report_bytes(out) if is_cli else 0, "B")
    for name in CHECK_NAMES:
        took = wl.run_single_check(name) if is_cli else 0.0
        metrics[f"harness.check.{name}.s"] = metric(took, "s")
    return metrics, traced.attempted, traced.failed, traced.problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.single_thread:
        # Read by OpenBLAS when numpy loads, so set before the import.
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.environ["OMP_NUM_THREADS"] = "1"
    if not (SRC / "pairspec" / "__init__.py").is_file():
        print(f"error: no pairspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=RUNS))
    try:
        wl = WORKLOADS[args.workload](args.seed, work, threads=1 if args.single_thread else None)
        if args.trace:
            metrics, attempted, failed, problems = traced_run(wl)
        else:
            # Interpreter start and imports are fixed work that the host can
            # only slow down; the lower quartile of many probes, half before
            # the rounds and half after, moves least with the host's load.
            setups = measure_setup(wl.config_path, SETUP_REPEATS // 2, warm_up=True)
            import pairspec  # noqa: F401  (the workload's own set-up, untimed)

            stolen0, total0 = cpu_ticks()
            metrics, walls, attempted, failed, problems = timed_runs(wl, args.seconds)
            stolen1, total1 = cpu_ticks()
            setups += measure_setup(wl.config_path, SETUP_REPEATS - SETUP_REPEATS // 2)
            metrics["setup_s"] = metric(statistics.quantiles(setups, n=4)[0], "s")
            # The host's CPU steal moves every timing; it is shown, not corrected.
            steal = (stolen1 - stolen0) / max(total1 - total0, 1)
            print(f"host steal: {steal:.1%}", file=sys.stderr)
            print("round wall_s: " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in problems:
        print(f"rejected: {line}", file=sys.stderr)
    # No operation is known to fail, so any failure makes the run wrong.
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
