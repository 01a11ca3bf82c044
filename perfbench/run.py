"""The chrkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads (see workloads.py) are
``run-symmetric``, ``run-deep`` and ``verify-corpus``.  Each call goes
through ``chrkit.cli.main`` in this process, one call in flight at a time
(a closed loop with a single client), and every output is checked.

``--trace 0`` repeats the seed's round of calls until ``--seconds`` have
passed, finishing the round in flight, and reports the end-to-end metrics.
``--trace 1`` runs the round once untraced and once traced (layertrace.py) and
reports the per-layer metrics; one round has a fixed set of calls, so its
work counts repeat exactly for a seed.

The inputs, a record of every call (to replay one by hand:
``PYTHONPATH=src python3 -m chrkit.cli ARGV...``), any mismatches and the
spans of a traced run (layertrace.py) of the last run are written under
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
import threading
import time
from pathlib import Path

from check import invoke, mismatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")

# setup_s is the median of this many fresh processes
SETUP_REPEATS = 7
# call_ms_tail: per workload, the highest of p50/p75/p90/p95/p99 that leaves
# at least ten calls beyond it in a --seconds 30 run of the seed version.
# Fixed, so that the metric means the same on every commit.
TAIL_PERCENTILE = {"run-symmetric": 90, "run-deep": 75, "verify-corpus": 99}

E2E_UNITS = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def percentile(values: list, p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_chrkit():
    """chrkit.cli from this checkout's src/, or exit 1."""
    sys.path.insert(0, str(SRC))
    try:
        import chrkit.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import chrkit from {SRC}: {exc}")
    if Path(chrkit.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: chrkit comes from {chrkit.cli.__file__}, not {SRC}")
    return chrkit.cli


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of fresh processes that import chrkit, then generate and
    write the workload's inputs: what a run pays before its first call."""
    times = []
    for k in range(SETUP_REPEATS):
        inputs = OUT / "setup" / f"{workload}-{seed}-{k}"
        code = (
            f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}\n"
            "import pathlib, chrkit.cli, workloads\n"
            f"workloads.build({workload!r}, {seed}, pathlib.Path({str(inputs)!r}))\n"
        )
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code])
        # wait() with a timeout polls in steps of up to 50 ms, too coarse
        # for this clock, so a timer kills a hung child instead
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        returncode = child.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        shutil.rmtree(inputs, ignore_errors=True)
        if returncode != 0:
            raise SystemExit(f"perfbench: set-up process exited {returncode}")
    return times


def run_round(main, calls: list, results: list) -> float:
    """Run every call once; append (call index, duration, outcome) to
    results and return the round's wall time."""
    t_round = time.perf_counter()
    for i, call in enumerate(calls):
        t0 = time.perf_counter()
        outcome = invoke(main, call.argv)
        results.append((i, time.perf_counter() - t0, outcome))
    return time.perf_counter() - t_round


def check_all(calls: list, results: list) -> list:
    out = []
    for i, _, outcome in results:
        report = mismatch(calls[i], *outcome)
        if report is not None:
            out.append(report)
    return out


def end_to_end(workload: str, main, calls: list, seconds: float, setup: list):
    results: list = []
    walls: list = []
    while not walls or sum(walls) < seconds:
        walls.append(run_round(main, calls, results))
    rounds, wall = len(walls), sum(walls)
    durations = [d for _, d, _ in results]
    p = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(setup),
        "call_ms_p50": percentile(durations, 50) * 1000,
        "call_ms_tail": percentile(durations, p) * 1000,
        "calls_per_s": len(durations) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beyond = sum(d > percentile(durations, p) for d in durations)
    notes = [
        f"rounds: {rounds} of {len(calls)} calls, {len(durations)} calls in {wall:.2f} s",
        f"round walls: {', '.join(f'{w:.3f}' for w in walls)} s",
        f"call_ms_tail is p{p} over {len(durations)} calls, {beyond} beyond it",
        f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}",
    ]
    return results, metrics, notes


def traced(main, calls: list, work: Path):
    from layertrace import Tracer

    results: list = []
    plain_wall = run_round(main, calls, results)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall = run_round(tracer.wrap("cli", "main", main), calls, results)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    tracer.write(work / "spans.tsv.gz")
    notes = [
        f"one round of {len(calls)} calls: {plain_wall:.3f} s untraced, "
        f"{traced_wall:.3f} s traced, {len(tracer.start)} spans in {work / 'spans.tsv.gz'}",
    ]
    return results, metrics, notes


def unit(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    cli = import_chrkit()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    # the outputs of the last run only, so repeated runs do not pile up spans
    shutil.rmtree(OUT, ignore_errors=True)
    work = OUT / f"{args.workload}-seed{args.seed}"
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    calls = workloads.build(args.workload, args.seed, work / "inputs")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "replay": "PYTHONPATH=src python3 -m chrkit.cli ARGV...",
        "calls": [{"label": c.label, "argv": c.argv, "exit": c.exit_code,
                   "expected": c.lines} for c in calls],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    if args.trace:
        results, metrics, notes = traced(cli.main, calls, work)
    else:
        results, metrics, notes = end_to_end(
            args.workload, cli.main, calls, args.seconds, setup
        )
    failures = check_all(calls, results)
    if failures:
        (work / "mismatches.json").write_text(json.dumps(failures, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, record {work / 'record.json'}")
    for note in notes:
        print(note)
    print(f"failed_ratio = {len(failures) / len(results):.6f} "
          f"({len(failures)} of {len(results)} calls)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    for report in failures[:5]:
        print("MISMATCH " + json.dumps(report))
    if failures:
        print(f"{len(failures)} mismatches in {work / 'mismatches.json'}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
