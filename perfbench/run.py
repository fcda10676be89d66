"""Benchmark of the ``repro`` reproduction: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2_grid --seed 1 --seconds 15 --trace 0

Workloads: ``fig2_grid``, ``fig8_10way``, ``closed_100``, ``write_mix``
(see ``suite.py`` and ``README.md``).  Each run starts the workload in a
fresh worker process with a fixed ``PYTHONHASHSEED``, between set-up-only
processes, so that ``setup_s`` is a median of five set-ups.  It prints every
metric by name with its unit, then, as the last line, one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones, whose timings
come from traced passes (spans are written to
``.perfbench/spans-<workload>-<seed>.json``).  The exit code is 0 only
when every check passed; a checkout without ``src/repro`` is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Set-up-only processes started before and after the measured one, so
#: that the median set-up samples the machine at both ends of the run.
SETUP_PROBES = 4
#: Every run ends within this many seconds.
DEADLINE_S = 170.0
HASH_SEED = "0"

WORKLOADS = ("fig2_grid", "fig8_10way", "closed_100", "write_mix")

#: End-to-end metrics reported with ``--trace 0`` (all in BENCHMARK.json).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pages_sent": "pages",
}

#: Printed beside the end-to-end metrics but left out of BENCHMARK.json:
#: wall and CPU time do not repeat within the largest bound on a shared
#: machine, ``ops_failed_share`` is 0 on a correct run, and the others
#: spread too far across seeds or are not defined on every workload.  See
#: README.md, "Steadiness study".
END_TO_END_PRINTED: dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "ops_failed_share": "ratio",
    "sim_resp_s": "sim_s",
    "sim_p95_resp_s": "sim_s",
    "sim_p95_samples": "count",
    "sim_qps": "1/sim_s",
    "hy_over_best_pure": "ratio",
}

#: Per-layer metrics reported with ``--trace 1`` (all in BENCHMARK.json).
PER_LAYER: dict[str, str] = {
    "optimizer.optimize_s": "s",
    "optimizer.calls": "count",
    "optimizer.evaluations": "count",
    "optimizer.evals_per_s": "1/s",
    "optimizer.neighbor_s": "s",
    "optimizer.plan_cache_hit_ratio": "ratio",
    "optimizer.plan_cache_lookups": "count",
    "costmodel.evaluate_s": "s",
    "costmodel.evaluations": "count",
    "costmodel.node_visits": "count",
    "costmodel.visits_per_eval": "ratio",
    "costmodel.rel_err_mean": "ratio",
    "costmodel.rel_err_max": "ratio",
    "workloads.scenario_s": "s",
    "plans.bind_s": "s",
    "plans.binds": "count",
    "engine.execute_s": "s",
    "engine.build_s": "s",
    "sim.run_s": "s",
    "sim.sim_s": "sim_s",
    "sim.sim_s_per_wall_s": "sim_s/s",
    "hardware.disk_pages_read": "pages",
    "hardware.disk_pages_written": "pages",
    "hardware.disk_random_ios": "count",
    "hardware.disk_busy_s": "sim_s",
    "hardware.net_data_pages": "pages",
    "hardware.net_control_msgs": "count",
    "hardware.net_busy_s": "sim_s",
    "hardware.cpu_busy_s": "sim_s",
    "storage.spill_pages": "pages",
    "storage.memory_waits": "count",
    "caching.hit_ratio": "ratio",
    "caching.lookups": "count",
    "caching.evictions": "count",
    "caching.invalidations": "count",
    "consistency.invalidations": "count",
    "consistency.validations": "count",
    "consistency.stale_hits": "count",
    "workload.run_s": "s",
    "workload.plan_s": "s",
    "workload.memo_replays": "count",
    "workload.memo_recordings": "count",
    "workload.memo_replay_ratio": "ratio",
    "workload.completed": "count",
    "workload.shed": "count",
    "workload.failed": "count",
    "workload.queue_delay_s": "sim_s",
    "obs.trace_overhead": "ratio",
}


class BenchmarkError(Exception):
    """A worker process failed or the checkout cannot be benchmarked."""


def _spawn(arguments: list[str], deadline: float) -> dict:
    """Run one worker process to completion; return its JSON result."""
    environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    environment["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SOURCE), environment.get("PYTHONPATH", "")) if part
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    spawned_at = time.monotonic()
    try:
        process = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *arguments, "--spawned-at", repr(spawned_at)],
            cwd=ROOT,
            env=environment,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"worker {arguments} exceeded the run deadline") from error
    if process.returncode != 0:
        raise BenchmarkError(f"worker {arguments} exited with code {process.returncode}")
    lines = process.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {arguments} printed no result")
    return json.loads(lines[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full"
) -> dict:
    """Run the measured worker between ``SETUP_PROBES`` set-up-only runs."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro package under {SOURCE}; run from a full checkout")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]

    def probe() -> float:
        return _spawn([*common, "--setup-only"], deadline)["setup_s"]

    before = [probe() for _ in range(SETUP_PROBES // 2)]
    arguments = [*common, "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        arguments += ["--spans-out", str(ROOT / ".perfbench" / f"spans-{workload}-{seed}.json")]
    result = _spawn(arguments, deadline)
    after = [probe() for _ in range(SETUP_PROBES - len(before))]
    result["setup_samples"] = [*before, result["setup_s"], *after]
    result["setup_s"] = statistics.median(result["setup_samples"])
    return result


def metrics_of(result: dict, trace: bool) -> dict[str, float]:
    """Every metric of a worker result, end-to-end or per-layer."""
    if trace:
        values = {**result["counts"], **result["layers"]}
        return {name: values[name] for name in PER_LAYER}
    values = {
        **result["sim"],
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ops_failed_share": result["failed"] / result["attempted"],
    }
    return {name: values[name] for name in (*END_TO_END, *END_TO_END_PRINTED) if name in values}


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print every metric with its unit; return the final JSON object."""
    units = PER_LAYER if trace else {**END_TO_END, **END_TO_END_PRINTED}
    values = metrics_of(result, trace)
    print(
        f"# {workload} seed={result['seed']} passes={result['passes']} "
        f"traced_passes={result['traced_passes']} attempted={result['attempted']} "
        f"failed={result['failed']} digest={result['digest'][:16]}"
    )
    print(f"#   pass walls (s): {' '.join(f'{w:.4f}' for w in result['pass_walls'])}")
    print(f"#   setups (s): {' '.join(f'{s:.4f}' for s in result['setup_samples'])}")
    for failure in result["failures"]:
        print(f"#   FAILED: {failure}")
    for name, value in values.items():
        print(f"{workload:<11} {name:<32} {value:>16.6f} {units[name]}")
    gated = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": gated[name]} for name in gated
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    final = report(args.workload, result, bool(args.trace))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
