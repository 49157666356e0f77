"""Run one workload of the explanation benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

The process is pinned to one CPU before the program is imported.  Host
probes are timed around every op (or slice of a closed loop) and set-up, and
every time reported is scaled by ``REFERENCE_PROBE_MS`` over their median
(see ``perfbench.common.probe_ms``).  ``--trace 0`` sets up
the workload ``setup_repeats`` times (``setup_s`` is the median), runs one
timed phase of ``--seconds`` and prints every end-to-end metric.
``--trace 1`` sets up once and runs ``TRACE_SLICES`` slices of the phase,
alternately untraced and traced, so that host-speed drift falls on both
sides of the tracing-overhead comparison; it prints every per-layer metric
from the traced slices and writes their spans to ``perfbench/results/``.
Both check the program's outputs after the timed phases.  The last stdout
line is the JSON result; the line before it carries details (sample
counts, the tail percentile used, check tallies, the wall-clock figures
behind the calibrated ones).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
#: Alternating untraced/traced slices of a traced run's timed phase.
TRACE_SLICES = 4


def _import_program() -> None:
    source = REPO_ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {source}")
    # The benchmark's modules are imported as ``perfbench.*``; the script's
    # own directory must not shadow top-level module names.
    if sys.path and Path(sys.path[0]).resolve() == BENCH_DIR:
        del sys.path[0]
    sys.path[:0] = [str(source), str(REPO_ROOT)]


def workloads() -> dict:
    from perfbench.live_mutating import LiveMutating
    from perfbench.serve_warm import ServeWarm
    from perfbench.sweep_cold import SweepCold

    return {workload.name: workload for workload in (SweepCold, ServeWarm, LiveMutating)}


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[str, str]:
    """Run one workload; returns (detail line, result line)."""
    from perfbench import fixtures
    from perfbench.common import (
        REFERENCE_PROBE_MS, Phase, fault_free_violations, probe_ms, result_line, summarize_latencies,
    )
    from perfbench.metrics import STAGE_GAP_BOUND, end_to_end_metrics, guarded_counters, layer_metrics
    from perfbench.tracing import Tracer
    from repro import faults

    workload = workloads()[name](seed)
    try:
        setups, setup_probes = [], []
        for repeat in range(1 if trace else workload.setup_repeats):
            if repeat:
                workload.teardown()
            fixtures.clear_process_caches()
            gc.collect()
            setup_probes.append(probe_ms())
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            setup_probes.append(probe_ms())

        tracer = Tracer() if trace else None
        count = TRACE_SLICES if trace else 1
        slices = []
        for index in range(count):
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
            try:
                gc.collect()
                slices.append(workload.phase(seconds / count, tracer if traced else None))
            finally:
                if traced:
                    tracer.uninstall()
        problems, detail = workload.check()
    finally:
        workload.close()

    plan_active = faults.active_plan() is not None
    for phase in slices:
        problems += fault_free_violations(guarded_counters(phase), plan_active)
    attempted = sum(phase.attempted for phase in slices)
    failed = sum(phase.failed for phase in slices)
    untraced, measured = Phase.merged(slices[0::2]), Phase.merged(slices[1::2] or slices)
    if not measured.latencies_ms:
        problems.append("no op completed in the timed phase")
        return json.dumps({"problems": problems}), result_line(False, max(attempted, 1), failed, {})

    summary = summarize_latencies(measured.latencies_ms, workload.tail_cap)
    probes = setup_probes + [probe for phase in slices for probe in phase.probes_ms]
    # Every time the run reports is scaled to a host on which the probe
    # takes REFERENCE_PROBE_MS (see the README's *Calibrated times*).
    factor = REFERENCE_PROBE_MS / statistics.median(probes)
    detail.update(
        workload=name,
        seed=seed,
        samples=summary.samples,
        tail_percentile=summary.tail_pct,
        tail_samples_beyond=summary.tail_beyond,
        calibration_factor=factor,
        host_probe_ms=[min(probes), statistics.median(probes), max(probes)],
        raw_setup_s=setups,
        raw_latency_p50_ms=summary.p50_ms,
        raw_latency_tail_ms=summary.tail_ms,
        raw_throughput_per_s=measured.throughput,
        fault_plan_active=plan_active,
    )
    if tracer is not None:
        spans = tracer.columns()
        metrics = layer_metrics(spans, measured, untraced)
        gap = metrics["trace.stage_gap_frac"][0]
        if gap > STAGE_GAP_BOUND:
            problems.append(f"trace.stage_gap_frac {gap:.3f} exceeds its bound {STAGE_GAP_BOUND}")
        spans.save(BENCH_DIR / "results" / f"spans-{name}.npz")
        detail.update(spans=len(spans), untraced_tput=untraced.throughput, missing_trace_points=tracer.missing)
    else:
        metrics = end_to_end_metrics(statistics.median(setups), summary, measured, factor)
    detail["problems"] = problems
    return json.dumps(detail, default=str), result_line(not problems and failed == 0, attempted, failed, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.common import pin_to_one_cpu

    pin_to_one_cpu()
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads())}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(detail)
    print(result, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
