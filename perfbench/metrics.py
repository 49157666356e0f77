"""Metric names and how each is computed from a phase and its spans.

End-to-end metrics come from an untraced run; per-layer metrics from the
traced half of a traced run.  Per-layer values are per op unless the name
ends in ``rate`` or ``frac``.  ``.ms`` is self time, except for the
``certa.*`` stage times, which are inclusive so that ``certa.triangles.ms +
certa.lattice.ms + certa.counterfactual.ms == certa.explain.ms``.
"""

from __future__ import annotations

from perfbench.common import LatencySummary, Phase, peak_rss_mb
from perfbench.tracing import SpanColumns

MATCHERS = ("ditto", "deepmatcher", "deeper", "classical")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("text.levenshtein.calls", "count"),
    ("text.levenshtein.ms", "ms"),
    ("text.jaro_winkler.ms", "ms"),
    ("text.monge_elkan.ms", "ms"),
    ("text.memo.hit_rate", "ratio"),
    ("text.memo.entries", "count"),
    ("models.featurize.ms", "ms"),
    ("models.featurize.rows", "count"),
    ("models.featurizer.value_hit_rate", "ratio"),
    ("models.featurizer.comparison_hit_rate", "ratio"),
    ("models.forward.ms", "ms"),
    ("models.engine.ms", "ms"),
    ("models.engine.requests", "count"),
    ("models.engine.hit_rate", "ratio"),
    ("models.engine.batches", "count"),
    ("models.engine.mean_batch", "count"),
    ("models.engine.retries", "count"),
    ("certa.explain.ms", "ms"),
    *((f"certa.explain.ms.{matcher}", "ms") for matcher in MATCHERS),
    ("certa.triangles.ms", "ms"),
    ("certa.triangles.augmented", "count"),
    ("certa.lattice.ms", "ms"),
    ("certa.lattice.nodes_evaluated", "count"),
    ("certa.lattice.nodes_saved", "count"),
    ("certa.counterfactual.ms", "ms"),
    ("data.index.top_k.ms", "ms"),
    ("data.index.top_k.calls", "count"),
    ("data.index.postings_visited", "count"),
    ("data.index.candidates_pruned", "count"),
    ("data.table.mutate.ms", "ms"),
    ("data.index.ensure_fresh.ms", "ms"),
    ("data.index.delta_applies", "count"),
    ("data.index.builds", "count"),
    ("data.index.compile_ms", "ms"),
    ("data.index.degraded_queries", "count"),
    ("data.index.changed_pairs.ms", "ms"),
    ("data.index.changed_flagged_frac", "ratio"),
    ("serve.overhead_ms", "ms"),
    ("serve.frontier_wait_ms", "ms"),
    ("serve.dispatches", "count"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.merged_per_dispatch", "count"),
    ("serve.deduped_frac", "ratio"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.stage_gap_frac", "ratio"),
)

#: ``trace.stage_gap_frac`` above this means the stage spans no longer
#: account for the explanation's wall time, and the traced run fails.
STAGE_GAP_BOUND = 0.25

# Program counters a phase accumulates, by stats object and field.
ENGINE_FIELDS = ("requests", "hits", "misses", "batches", "retries")
FEATURIZER_FIELDS = ("value_hits", "value_misses", "comparison_hits", "comparison_misses", "rows_built")
INDEX_FIELDS = (
    "builds",
    "delta_applies",
    "postings_visited",
    "candidates_pruned",
    "compile_ms",
    "degraded_queries",
)


def add_stats(phase: Phase, prefix: str, stats: object | None, fields: tuple[str, ...]) -> None:
    """Add a stats snapshot or delta (EngineStats, FeaturizerStats, IndexStats)."""
    if stats is None:
        return
    for name in fields:
        phase.add(f"{prefix}.{name}", float(getattr(stats, name, 0)))


def add_explanation(phase: Phase, explanation: object) -> None:
    """Count one explanation's lattice and triangle work."""
    phase.add("certa.augmented", explanation.augmented_triangles)
    phase.add("certa.nodes_evaluated", explanation.performed_predictions())
    phase.add("certa.nodes_saved", explanation.saved_predictions())


def guarded_counters(phase: Phase) -> dict[str, float]:
    """The phase's counters under their fault-free-guard names."""
    counters = phase.counters
    return {
        "models.engine.retries": counters.get("engine.retries", 0.0),
        "data.index.degraded_queries": counters.get("index.degraded_queries", 0.0),
        "serve.shed": counters.get("serve.shed", 0.0),
        "serve.retried": counters.get("serve.retried", 0.0),
        "serve.failed": counters.get("serve.failed", 0.0),
        "serve.budget_deadline": counters.get("serve.budget_deadline", 0.0),
        "serve.budget_nodes": counters.get("serve.budget_nodes", 0.0),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(
    setup_s: float, summary: LatencySummary, phase: Phase, factor: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with wall-clock times multiplied by ``factor``."""
    values = {
        "setup_s": setup_s * factor,
        "latency_p50_ms": summary.p50_ms * factor,
        "latency_tail_ms": summary.tail_ms * factor,
        "throughput_per_s": phase.throughput / factor,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def layer_metrics(
    spans: SpanColumns, traced: Phase, untraced: Phase
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced phase (zero where a layer is idle)."""
    ops = max(traced.completed, 1)
    counters = traced.counters
    totals = spans.totals()

    def count(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0] / ops

    def self_ms(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] * 1000.0 / ops

    def inclusive_ms(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2] * 1000.0 / ops

    def per_op(name: str) -> float:
        return counters.get(name, 0.0) / ops

    values: dict[str, float] = {
        "text.levenshtein.calls": count("text.levenshtein"),
        "text.levenshtein.ms": self_ms("text.levenshtein"),
        "text.jaro_winkler.ms": self_ms("text.jaro_winkler"),
        "text.monge_elkan.ms": self_ms("text.monge_elkan"),
        "text.memo.hit_rate": _ratio(
            counters.get("memo.hits", 0.0),
            counters.get("memo.hits", 0.0) + counters.get("memo.misses", 0.0),
        ),
        "text.memo.entries": per_op("memo.entries"),
        "models.featurize.ms": self_ms("models.featurize"),
        "models.featurize.rows": per_op("featurizer.rows_built"),
        "models.featurizer.value_hit_rate": _ratio(
            counters.get("featurizer.value_hits", 0.0),
            counters.get("featurizer.value_hits", 0.0) + counters.get("featurizer.value_misses", 0.0),
        ),
        "models.featurizer.comparison_hit_rate": _ratio(
            counters.get("featurizer.comparison_hits", 0.0),
            counters.get("featurizer.comparison_hits", 0.0)
            + counters.get("featurizer.comparison_misses", 0.0),
        ),
        "models.forward.ms": self_ms("models.predict"),
        "models.engine.ms": self_ms("models.engine"),
        "models.engine.requests": per_op("engine.requests"),
        "models.engine.hit_rate": _ratio(counters.get("engine.hits", 0.0), counters.get("engine.requests", 0.0)),
        "models.engine.batches": per_op("engine.batches"),
        "models.engine.mean_batch": _ratio(counters.get("engine.misses", 0.0), counters.get("engine.batches", 0.0)),
        "models.engine.retries": per_op("engine.retries"),
        "certa.explain.ms": inclusive_ms("certa.explain"),
        "certa.triangles.ms": inclusive_ms("certa.triangles"),
        "certa.triangles.augmented": per_op("certa.augmented"),
        "certa.lattice.ms": inclusive_ms("certa.lattice"),
        "certa.lattice.nodes_evaluated": per_op("certa.nodes_evaluated"),
        "certa.lattice.nodes_saved": per_op("certa.nodes_saved"),
        "certa.counterfactual.ms": inclusive_ms("certa.explain")
        - inclusive_ms("certa.triangles")
        - inclusive_ms("certa.lattice"),
        "data.index.top_k.ms": self_ms("data.index.top_k"),
        "data.index.top_k.calls": count("data.index.top_k"),
        "data.index.postings_visited": per_op("index.postings_visited"),
        "data.index.candidates_pruned": per_op("index.candidates_pruned"),
        "data.table.mutate.ms": self_ms("data.table.mutate"),
        "data.index.ensure_fresh.ms": self_ms("data.index.ensure_fresh"),
        "data.index.delta_applies": per_op("index.delta_applies"),
        "data.index.builds": per_op("index.builds"),
        "data.index.compile_ms": per_op("index.compile_ms"),
        "data.index.degraded_queries": per_op("index.degraded_queries"),
        "data.index.changed_pairs.ms": self_ms("data.index.changed_pairs"),
        "data.index.changed_flagged_frac": _ratio(
            counters.get("changed.flagged", 0.0), counters.get("changed.watched", 0.0)
        ),
        "serve.frontier_wait_ms": self_ms("serve.frontier_wait"),
        "serve.dispatches": per_op("serve.dispatches"),
        "serve.coalesced_frac": _ratio(counters.get("serve.coalesced", 0.0), counters.get("serve.dispatches", 0.0)),
        "serve.merged_per_dispatch": _ratio(counters.get("serve.merged", 0.0), counters.get("serve.dispatches", 0.0)),
        "serve.deduped_frac": _ratio(counters.get("serve.deduped", 0.0), counters.get("serve.merged", 0.0)),
        "serve.shed": per_op("serve.shed"),
        "serve.retried": per_op("serve.retried"),
        "trace.overhead_frac": 1.0 - _ratio(traced.throughput, untraced.throughput),
    }

    explain_by_request = spans.inclusive_by_request("certa.explain")
    for matcher in MATCHERS:
        times = [
            seconds
            for request, seconds in explain_by_request.items()
            if traced.matcher_of.get(request) == matcher
        ]
        values[f"certa.explain.ms.{matcher}"] = 1000.0 * sum(times) / len(times) if times else 0.0

    overheads = [
        latency - explain_by_request[request]
        for request, latency in traced.latency_of.items()
        if request in explain_by_request
    ]
    values["serve.overhead_ms"] = 1000.0 * sum(overheads) / len(overheads) if overheads else 0.0

    gaps = spans.stage_gaps()
    values["trace.stage_gap_frac"] = float(gaps.mean()) if gaps.size else 0.0
    return {name: (values[name], unit) for name, unit in PER_LAYER}
