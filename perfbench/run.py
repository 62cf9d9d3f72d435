"""Benchmark of the aaul checker: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py                    # every workload, seed 0
    python3 perfbench/run.py --trace 1          # tracer self-test, then traced runs
    python3 perfbench/run.py --workload torus --seed 3 --seconds 30 --trace 0

Each workload runs in processes of its own (worker.py): a few that only set
up, for the median set-up time, then one that sets up, measures and checks
every verdict. `--seconds` is the length of the timed phase; the benchmark
is defined with 30, the `run_seconds` of BENCHMARK.json, and at most 60
fits in the time limit of a workload. The last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 if any verdict is
wrong or a query raised, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("torus", "random", "sat-search")
SETUP_REPEATS = 4  # set-up-only processes per untraced run, plus the measured one
TIME_LIMIT_S = 170  # per workload, from its first process to its last
RUN_SECONDS = 30  # BENCHMARK.json's run_seconds
MAX_SECONDS = 60  # leaves room in TIME_LIMIT_S for set-up and whole passes that overrun


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float, script: str = "worker.py") -> tuple[dict, float]:
    """(last JSON line of a worker, monotonic time just before it started)."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args],
            capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def setup_seconds(ready: dict, started: float) -> float:
    """Process start to the end of set-up, less the worker's calibrations,
    at the host speed the worker measured around its set-up."""
    return (ready["ready"] - started - ready["calibration_s"]) * ready["scale"]


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            ready, started = _worker([*common, "--seconds", "0", "--trace", "0", "--setup-only"], deadline)
            setups.append(setup_seconds(ready, started))
    result, started = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(setup_seconds(result, started))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["notes"]["setup_samples"] = len(setups)
    return result


def report(name: str, result: dict):
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    for key, value in result["notes"].items():
        print(f"  ({key}: {value})")
    for fault in result["faults"]:
        print(f"  FAULT {fault}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")

    if not (ROOT / "src" / "aaul" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'aaul'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.trace and args.workload == "all":
            _worker([], time.monotonic() + TIME_LIMIT_S, script="selftest.py")
            print("tracer self-test: passed")
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    for name, result in results.items():
        report(name, result)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
