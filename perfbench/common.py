"""Pieces shared by every workload: latency summaries, checks, memory, output.

Nothing here imports the program under test, so the unit tests of these
pieces run without building a dataset or training a matcher.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

#: Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10

#: Counters that must read zero on a run with no fault plan: a nonzero value
#: means a retry, fallback tier or refusal answered instead of the fast path.
FAULT_FREE_COUNTERS = (
    "models.engine.retries",
    "data.index.degraded_queries",
    "serve.shed",
    "serve.retried",
    "serve.failed",
    "serve.budget_deadline",
    "serve.budget_nodes",
)

#: Payload fields that carry raw model scores.  A matcher's last bits may
#: depend on the batch it was scored in, so these alone are compared within
#: ``SCORE_TOLERANCE`` when the byte-level comparison fails.
SCORE_FIELDS = frozenset({"prediction", "score", "original_score"})
SCORE_TOLERANCE = 1e-9

#: Iterations of the host probe's loop.
PROBE_LOOPS = 100_000
#: The probe time that calibrated times are scaled to: about what the probe
#: takes on the 2-CPU development host when nothing else runs on it.
REFERENCE_PROBE_MS = 8.0


def _allowed_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return list(range(os.cpu_count() or 1))


#: The CPUs this process may use when the benchmark starts, before
#: :func:`pin_to_one_cpu` narrows them.
CPUS = _allowed_cpus()


def client_count() -> int:
    """Clients and workers of the closed loops: the CPUs the process could use."""
    return max(1, len(CPUS))


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on one CPU.

    The serving loop hands work between threads many times per request.
    Across two CPUs each handoff may wait for the host to wake the other
    virtual CPU, and that wait swings with the host's load far more than
    the program's own speed does.  On one CPU the handoffs stay local, and
    the host probe, timed on the same CPU, tracks the speed the program
    runs at.  The GIL lets only one thread run Python at a time anyway.
    Must be called before the program (and numpy's thread pool) is imported.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {CPUS[-1]})


def probe_ms() -> float:
    """Time of one fixed pure-Python loop: how fast the host runs right now.

    The host's speed drifts by up to 2x within seconds and between minutes
    (see the README's *Calibrated times*).  A run probes around every op
    (or slice of a closed loop) and every set-up, and scales the times it
    reports by ``REFERENCE_PROBE_MS`` over the median of its probes.
    """
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int, cap: float) -> float:
    """The highest ladder percentile at or below ``cap`` with enough samples beyond.

    Falls back to the median when even the lowest ladder step has fewer than
    ``MIN_SAMPLES_BEYOND`` samples above it.
    """
    chosen = 50.0
    for pct in TAIL_LADDER:
        if pct > cap:
            break
        if samples_beyond(samples, pct) >= MIN_SAMPLES_BEYOND:
            chosen = pct
    return chosen


def samples_beyond(samples: int, pct: float) -> int:
    """How many of ``samples`` lie above percentile ``pct`` (rounding-safe)."""
    return int(round(samples * (100.0 - pct) / 100.0, 6))


@dataclass(frozen=True)
class LatencySummary:
    """Median and tail of one run's op latencies, with what they rest on."""

    samples: int
    p50_ms: float
    tail_pct: float
    tail_ms: float

    @property
    def tail_beyond(self) -> int:
        """Samples strictly above the tail percentile's rank."""
        return samples_beyond(self.samples, self.tail_pct)


def summarize_latencies(latencies_ms: Sequence[float], cap: float) -> LatencySummary:
    pct = tail_percentile(len(latencies_ms), cap)
    return LatencySummary(
        samples=len(latencies_ms),
        p50_ms=percentile(latencies_ms, 50.0),
        tail_pct=pct,
        tail_ms=percentile(latencies_ms, pct),
    )


def fault_free_violations(counters: Mapping[str, float], plan_active: bool) -> list[str]:
    """Guarded counters that read nonzero although no fault plan is active."""
    if plan_active:
        return []
    return [
        f"{name}={counters[name]:g} with no fault plan active"
        for name in FAULT_FREE_COUNTERS
        if counters.get(name, 0)
    ]


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


def payload_drift(got: object, want: object, key: str = "") -> float | None:
    """Largest score difference between two payloads, or ``None`` if they differ
    anywhere else (or a score differs by more than ``SCORE_TOLERANCE``)."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return None
        drift = 0.0
        for name in got:
            part = payload_drift(got[name], want[name], name)
            if part is None:
                return None
            drift = max(drift, part)
        return drift
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return None
        drift = 0.0
        for left, right in zip(got, want):
            part = payload_drift(left, right, key)
            if part is None:
                return None
            drift = max(drift, part)
        return drift
    if key in SCORE_FIELDS and isinstance(got, float) and isinstance(want, float):
        difference = abs(got - want)
        return difference if difference <= SCORE_TOLERANCE else None
    return 0.0 if got == want and type(got) is type(want) else None


@dataclass
class PayloadCheck:
    """Running tally of payload comparisons against a reference path."""

    compared: int = 0
    byte_identical: int = 0
    max_score_drift: float = 0.0
    problems: list[str] = field(default_factory=list)

    def compare(self, label: str, got: dict, want: dict, count: int = 1) -> None:
        """Compare ``count`` identical copies of ``got`` against ``want``."""
        self.compared += count
        if canonical(got) == canonical(want):
            self.byte_identical += count
            return
        drift = payload_drift(got, want)
        if drift is None:
            self.problems.append(f"{label}: payload differs from the reference path")
        else:
            self.max_score_drift = max(self.max_score_drift, drift)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """One timed phase: per-op latencies plus the program's counters over it.

    Times are wall-clock; ``probes_ms`` holds the host probes taken around
    its ops, from which the run calibrates them.
    """

    latencies_ms: list[float] = field(default_factory=list)
    elapsed_s: float = 0.0
    probes_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Program counters summed over the phase's ops (engine, featurizer,
    #: index, scheduler), keyed by per-layer metric name.
    counters: dict[str, float] = field(default_factory=dict)
    #: Request label -> matcher name, for per-matcher explanation times.
    matcher_of: dict[object, str] = field(default_factory=dict)
    #: Request label -> client-side latency (s), for the serving overhead.
    latency_of: dict[object, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    @property
    def throughput(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def record(self, latencies_s: Sequence[float], elapsed_s: float, before_ms: float, after_ms: float) -> None:
        """Add the ops completed in ``elapsed_s`` between two host probes."""
        self.latencies_ms += [seconds * 1000.0 for seconds in latencies_s]
        self.elapsed_s += elapsed_s
        self.probes_ms += [before_ms, after_ms]

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    @classmethod
    def merged(cls, phases: Iterable["Phase"]) -> "Phase":
        """One phase holding the ops and counters of ``phases``."""
        total = cls()
        for phase in phases:
            total.latencies_ms += phase.latencies_ms
            total.elapsed_s += phase.elapsed_s
            total.probes_ms += phase.probes_ms
            total.attempted += phase.attempted
            total.failed += phase.failed
            for name, value in phase.counters.items():
                total.add(name, value)
            total.matcher_of.update(phase.matcher_of)
            total.latency_of.update(phase.latency_of)
        return total


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
) -> str:
    """The benchmark's final stdout line."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )

