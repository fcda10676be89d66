"""One benchmark run of one workload, in its own process.

Started by ``run.py`` (never imported by it), with a fixed
``PYTHONHASHSEED`` and ``src`` on ``PYTHONPATH``.  The worker

1. builds the workload (the set-up: importing ``repro`` and building the
   scenarios and catalogs) and reports its duration from process start;
2. runs one untimed warm-up pass, whose digest every later pass must match;
3. runs timed passes, each after ``gc.collect()``, until the next pass
   would end past ``--seconds`` (at least two), recording each pass's
   wall clock and process CPU time;
4. with ``--trace 1``, alternates untraced and traced passes, records spans
   of the traced ones and of the set-up, and writes the spans out at the
   end;
5. prints one JSON object with everything measured as its last line.

``--setup-only`` stops after step 1; ``run.py`` starts several such
processes to take the median set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

MIN_PASSES = 2
MIN_TRACED_PASSES = 2


def _layer_metrics(
    recorder, labels: list[int], traced_wall: float, untraced_wall: float
) -> dict[str, float]:
    """Per-layer timings (median over traced passes) and span counts."""
    passes = [recorder.layer_totals(label) for label in labels]

    def median(name: str, key: str) -> float:
        return statistics.median(p.get(name, {}).get(key, 0.0) for p in passes)

    optimize_total = median("optimizer.optimize", "total_s")
    evaluations = median("optimizer.optimize", "attr")
    cost_evaluations = median("costmodel.evaluate", "count")
    sim_total = median("sim.run", "total_s")
    sim_seconds = median("sim.run", "attr")
    setup = recorder.layer_totals("setup")
    return {
        "optimizer.optimize_s": median("optimizer.optimize", "self_s"),
        "optimizer.calls": median("optimizer.optimize", "count"),
        "optimizer.evaluations": evaluations,
        "optimizer.evals_per_s": evaluations / optimize_total if optimize_total else 0.0,
        "optimizer.neighbor_s": median("optimizer.neighbor", "self_s"),
        "costmodel.evaluate_s": median("costmodel.evaluate", "self_s"),
        "costmodel.evaluations": cost_evaluations,
        "costmodel.node_visits": median("costmodel.evaluate", "attr"),
        "costmodel.visits_per_eval": (
            median("costmodel.evaluate", "attr") / cost_evaluations
            if cost_evaluations
            else 0.0
        ),
        "workloads.scenario_s": setup.get("workloads.scenario", {}).get("self_s", 0.0),
        "plans.bind_s": median("plans.bind", "self_s"),
        "plans.binds": median("plans.bind", "count"),
        "engine.execute_s": median("engine.execute", "total_s"),
        "engine.build_s": median("engine.execute", "self_s"),
        "sim.run_s": median("sim.run", "self_s"),
        "sim.sim_s": sim_seconds,
        "sim.sim_s_per_wall_s": sim_seconds / sim_total if sim_total else 0.0,
        "workload.run_s": median("workload.run", "self_s"),
        "workload.plan_s": median("workload.run", "nested_optimize_s"),
        "obs.trace_overhead": traced_wall / untraced_wall,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=None,
        help="time.monotonic() of the parent just before it started this process",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None, help="file to write traced spans to")
    args = parser.parse_args(argv)
    started = time.monotonic() if args.spawned_at is None else args.spawned_at

    # ---- set-up: import repro, build scenarios and catalogs -------------
    import spans
    import suite

    recorder = spans.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()
    try:
        workload = suite.build(args.workload, args.seed, args.size)
    finally:
        if recorder is not None:
            recorder.uninstall()
    setup_s = time.monotonic() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # ---- warm-up pass: untimed, the reference digest ---------------------
    reference = workload.run_pass()
    attempted = reference.operations
    failures = list(reference.failures)

    # ---- timed passes ------------------------------------------------------
    walls: list[float] = []
    cpus: list[float] = []
    traced_walls: list[float] = []
    traced_labels: list[int] = []
    outcome = reference
    begun = time.perf_counter()
    index = 0
    while True:
        traced = recorder is not None and index % 2 == 1
        gc.collect()
        if traced:
            recorder.pass_label = index
            recorder.install()
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            outcome = workload.run_pass()
        finally:
            cpu = time.process_time() - cpu_start
            wall = time.perf_counter() - wall_start
            if traced:
                recorder.uninstall()
        if traced:
            traced_walls.append(wall)
            traced_labels.append(index)
        else:
            walls.append(wall)
            cpus.append(cpu)
        attempted += outcome.operations
        failures.extend(outcome.failures)
        if outcome.digest != reference.digest:
            failures.append(f"pass {index}: simulated results differ from the warm-up pass")
        index += 1
        elapsed = time.perf_counter() - begun
        enough = len(walls) >= MIN_PASSES and (
            recorder is None or len(traced_labels) >= MIN_TRACED_PASSES
        )
        if enough and elapsed + elapsed / index > args.seconds:
            break

    wall_s = statistics.median(walls)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "passes": len(walls),
        "traced_passes": len(traced_labels),
        "wall_s": wall_s,
        "cpu_s": statistics.median(cpus),
        "pass_walls": walls,
        "pass_cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digest": reference.digest,
        "sim": reference.sim,
        "counts": reference.counts,
    }
    if recorder is not None:
        result["layers"] = _layer_metrics(
            recorder, traced_labels, statistics.median(traced_walls), wall_s
        )
        if args.spans_out:
            os.makedirs(os.path.dirname(os.path.abspath(args.spans_out)), exist_ok=True)
            recorder.export(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
