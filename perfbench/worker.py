"""One workload in one process: set-up, timed passes over its queries,
verdict checks, and the metrics of that process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

run.py starts this; it prints one JSON object as its last line. With
--setup-only it stops once set-up is done. The timed phase runs whole
passes over the query set, one query at a time (a closed loop with one
client), as many passes as fit in the time given, judged by the first.
Untraced timings are corrected for the host's speed (hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Failure, decided  # noqa: E402

TAIL_LADDER = (50, 90, 99, 99.9, 99.99)
SETUP_CALIBRATIONS = 3  # before set-up, and again after it


def timed_passes(queries, run, seconds: float | None = None, count: int | None = None):
    """[(per-query (start, end) perf_counter readings, per-query outcomes)]
    for `count` passes, or for as many as fit in `seconds` (at least one)."""
    passes = []
    while count is None or len(passes) < count:
        spans, outcomes = [], []
        for q in queries:
            t = time.perf_counter()
            try:
                out = run(q)
            except Exception as e:  # reported as a failed query, the run goes on
                out = Failure(f"{type(e).__name__}: {e}")
            spans.append((t, time.perf_counter()))
            outcomes.append(out)
        passes.append((spans, outcomes))
        if count is None:
            count = max(1, round(seconds / (spans[-1][1] - spans[0][0])))
    return passes


def timed(passes, seconds=lambda t0, t1: t1 - t0):
    """[(pass seconds, per-query seconds, per-query outcomes)], each query
    timed by `seconds(start, end)`; a pass is the sum of its queries."""
    out = []
    for spans, outcomes in passes:
        latencies = [seconds(t0, t1) for t0, t1 in spans]
        out.append((sum(latencies), latencies, outcomes))
    return out


def nearest_rank(sorted_values: list, pct: float):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail(sorted_values: list):
    """(percentile, value): the highest ladder percentile with at least 10
    samples beyond it, or the maximum when no percentile has that many."""
    n = len(sorted_values)
    best = None
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            best = pct
    if best is None:
        return 100, sorted_values[-1]
    return best, nearest_rank(sorted_values, best)


def verdict_faults(workload, passes) -> tuple[list[str], int]:
    """(messages, failed): queries whose verdict a reference rejects or that
    changed between passes count once per pass, raised queries once per
    raise."""
    outcomes = [p[2] for p in passes]
    faults = workload.check(outcomes[0])
    failed = 0
    for i, first in enumerate(outcomes[0]):
        column = [outs[i] for outs in outcomes]
        errors = [o for o in column if isinstance(o, Failure)]
        if errors:
            faults.setdefault(i, f"raised {errors[0]}")
            failed += len(errors)
        elif i in faults or any(o != first for o in column):
            faults.setdefault(i, f"verdict changed between passes: {column}")
            failed += len(passes)
    return [f"query {i}: {message}" for i, message in sorted(faults.items())], failed


def end_to_end(passes) -> tuple[dict, dict]:
    n = len(passes[0][1])
    per_query = sorted(statistics.median(p[1][i] for p in passes) for i in range(n))
    outcomes = [o for p in passes for o in p[2]]
    pct, tail_value = tail(per_query)
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "queries_per_s": (len(outcomes) / sum(p[0] for p in passes), "1/s"),
        "latency_p50_ms": (nearest_rank(per_query, 50) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "decided_frac": (sum(map(decided, outcomes)) / len(outcomes), "fraction"),
    }
    notes = {"passes": len(passes), "tail_percentile": pct, "tail_samples": n}
    return metrics, notes


def per_layer(setup: tracing.Summary, timed: tracing.Summary, passes: int, overhead: float) -> dict:
    """Set-up once plus one pass of the timed phase."""
    s = setup + timed.scaled(1 / passes)
    count, total, self_time, counts = s.count, s.total, s.self_time, s.counts
    blocks = s.block_counts
    unions = counts["checker.unions"]
    quantifiers = count["bisim.arrow_blocks"]
    offered = counts["updates.offered"]
    canonical = counts["cli.canonical_calls"]
    return {
        "checker.self_s": (self_time[tracing.SATISFIES], "s"),
        "checker.unions": (unions, "count"),
        "checker.unions_per_quantifier": (unions / quantifiers if quantifiers else 0.0, "count"),
        "kripke.models_built": (count["kripke.init"], "count"),
        "kripke.build_s": (total["kripke.init"], "s"),
        "kripke.load_s": (total["kripke.load"], "s"),
        "bisim.partitions": (count["bisim.partition"], "count"),
        "bisim.partition_s": (total["bisim.partition"], "s"),
        "bisim.refine_rounds": (counts["bisim.refine_rounds"], "count"),
        "bisim.blocks_max": (max(blocks, default=0), "count"),
        "bisim.blocks_mean": (statistics.fmean(blocks) if blocks else 0.0, "count"),
        "bisim.arrow_blocks_s": (total["bisim.arrow_blocks"], "s"),
        "bisim.charform_s": (total["bisim.charform"], "s"),
        "syntax.parse_s": (total["syntax.parse"], "s"),
        "syntax.parse_calls": (count["syntax.parse"], "count"),
        "syntax.desugar_s": (total["syntax.desugar"], "s"),
        "syntax.desugar_calls": (count["syntax.desugar"], "count"),
        "syntax.print_s": (total["syntax.print"], "s"),
        "updates.applies": (count[tracing.APPLY], "count"),
        "updates.apply_s": (total[tracing.APPLY], "s"),
        "updates.kept_frac": (counts["updates.kept"] / offered if offered else 0.0, "fraction"),
        "cli.self_s": (self_time[tracing.CLI_RUN], "s"),
        "cli.candidates_checked": (counts["cli.candidates_checked"], "count"),
        "cli.canonical_pass_frac": (counts["cli.canonical_passed"] / canonical if canonical else 0.0, "fraction"),
        "tiling.search_s": (total["tiling.find_periodic_tiling"], "s"),
        "tiling.encode_s": (total["tiling.encode_parts"], "s"),
        "tiling.torus_s": (total["tiling.build_torus_model"], "s"),
        "trace.overhead_frac": (overhead, "fraction"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    calibrations = [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    calibration_s = sum(calibrations)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.prepare()
    if tracer:
        setup_summary = tracer.summary()
        tracer.uninstall()
    ready = time.monotonic()
    calibrations += [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    setup = {"ready": ready, "calibration_s": calibration_s, "scale": hostspeed.factor(calibrations)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    notes: dict = {}
    if tracer:
        # untraced and traced passes alternate, so that drift of the host's
        # speed falls on both alike; as many pairs as fit in the time given
        traced_run = tracer.wrap(workload.run, tracing.QUERY)
        plain, traced = timed(timed_passes(workload.queries, workload.run, count=1)), []
        pairs = max(1, round(args.seconds / 2 / plain[0][0]))
        while len(traced) < pairs:
            if traced:
                plain += timed(timed_passes(workload.queries, workload.run, count=1))
            tracer.install()
            traced += timed(timed_passes(workload.queries, traced_run, count=1))
            tracer.uninstall()
        timed_summary = tracer.summary()
        overhead = statistics.median(p[0] for p in traced) / statistics.median(p[0] for p in plain) - 1
        metrics = per_layer(setup_summary, timed_summary, len(traced), overhead)
        passes = plain + traced
        notes["passes"] = len(plain)
        notes["unwrapped_sites"] = tracer.missing
    else:
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            spans = timed_passes(workload.queries, workload.run, seconds=args.seconds)
        finally:
            sampler.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = timed(spans, sampler.corrected)
        metrics, notes = end_to_end(passes)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        notes["uncorrected_wall_s"] = statistics.median(p[0] for p in timed(spans))
        notes["host_speed"] = hostspeed.NOMINAL_S / statistics.median(sampler.seconds)
        leaked = tracing.wrapped_sites()
        if leaked:
            raise RuntimeError(f"untraced run found tracer wrappers at {leaked}")

    messages, failed = verdict_faults(workload, passes)
    if getattr(workload, "unchecked", 0):
        notes["unchecked_verdicts"] = workload.unchecked
    print(json.dumps({
        **setup,
        "correct": not messages,
        "attempted": sum(len(p[2]) for p in passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "faults": messages[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
