"""Tests of the benchmark's own pieces (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import random
import types
from collections import Counter
from pathlib import Path

import pytest

from perfbench import fixtures
from perfbench.common import (
    FAULT_FREE_COUNTERS,
    REFERENCE_PROBE_MS,
    PayloadCheck,
    Phase,
    fault_free_violations,
    payload_drift,
    summarize_latencies,
    tail_percentile,
)
from perfbench.live_mutating import EditPlanner, ScanOracle
from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end_metrics
from perfbench.serve_warm import request_order
from perfbench.sweep_cold import fixed_pairs, round_ops
from perfbench.tracing import Span, SpanColumns, Tracer
from repro.data.blocking import top_k_neighbours
from repro.data.registry import benchmark_info

BENCH_DIR = Path(__file__).resolve().parent


class TestTailPercentile:
    @pytest.mark.parametrize(
        "samples, cap, expected",
        [
            (1000, 99.0, 99.0),  # exactly ten samples beyond p99
            (999, 99.0, 95.0),  # 9.99 beyond p99 is too few
            (100, 90.0, 90.0),
            (99, 90.0, 75.0),
            (40, 90.0, 75.0),
            (39, 90.0, 50.0),  # nothing on the ladder qualifies: the median
            (10**6, 90.0, 90.0),  # the cap holds however many samples there are
            (10**6, 75.0, 75.0),
        ],
    )
    def test_highest_percentile_with_ten_beyond_under_the_cap(self, samples, cap, expected):
        assert tail_percentile(samples, cap) == expected

    def test_summary_reports_what_the_tail_rests_on(self):
        summary = summarize_latencies([float(value) for value in range(1, 201)], cap=90.0)
        assert summary.samples == 200
        assert summary.p50_ms == pytest.approx(100.5)
        assert summary.tail_pct == 90.0
        assert summary.tail_ms == pytest.approx(180.1)
        assert summary.tail_beyond == 20


class TestCalibration:
    def test_phases_keep_wall_clock_times_and_their_probes(self):
        first, second = Phase(attempted=2), Phase(attempted=1)
        first.record([0.010, 0.030], 0.040, 8.0, 9.0)
        second.record([0.020], 0.020, 10.0, 11.0)
        merged = Phase.merged([first, second])
        assert merged.latencies_ms == pytest.approx([10.0, 30.0, 20.0])
        assert merged.throughput == pytest.approx(3 / 0.060)
        assert merged.probes_ms == [8.0, 9.0, 10.0, 11.0]

    def test_times_scale_by_the_factor_and_throughput_inversely(self):
        phase = Phase(attempted=4)
        phase.record([0.010, 0.020, 0.030, 0.040], 0.100, REFERENCE_PROBE_MS, REFERENCE_PROBE_MS)
        summary = summarize_latencies(phase.latencies_ms, cap=75.0)
        metrics = end_to_end_metrics(2.0, summary, phase, factor=0.5)
        assert metrics["setup_s"] == (pytest.approx(1.0), "s")
        assert metrics["latency_p50_ms"][0] == pytest.approx(summary.p50_ms / 2)
        assert metrics["latency_tail_ms"][0] == pytest.approx(summary.tail_ms / 2)
        assert metrics["throughput_per_s"][0] == pytest.approx(80.0)


class TestOpLists:
    @pytest.fixture(scope="class")
    def sweep_pairs(self):
        return fixed_pairs({code: fixtures.make_dataset(code) for code in ("AB", "DA")})

    def test_sweep_rounds_repeat_for_a_seed(self, sweep_pairs):
        first = round_ops(sweep_pairs, random.Random(3))
        second = round_ops(sweep_pairs, random.Random(3))
        assert [(c, m, p.pair_id) for c, m, p in first] == [(c, m, p.pair_id) for c, m, p in second]

    def test_every_seed_explains_the_same_set(self, sweep_pairs):
        def shape(seed):
            ops = round_ops(sweep_pairs, random.Random(seed))
            return (
                sorted((code, matcher, pair.pair_id) for code, matcher, pair in ops),
                Counter((code, matcher) for code, matcher, _ in ops),
                Counter((code, bool(pair.label)) for code, _, pair in ops),
            )

        reference = shape(0)
        assert reference[1] == {(code, m): 3 for code in ("AB", "DA") for m in ("ditto", "deepmatcher", "deeper", "classical")}
        assert reference[2] == {(code, label): 8 if label else 4 for code in ("AB", "DA") for label in (True, False)}
        orders = set()
        for seed in range(1, 6):
            assert shape(seed) == reference
            orders.add(tuple((c, m, p.pair_id) for c, m, p in round_ops(sweep_pairs, random.Random(seed))))
        assert len(orders) > 1, "the seed must change the order"

    def test_serve_request_list(self):
        order = request_order(16, random.Random(5), 100)
        assert order == request_order(16, random.Random(5), 100)
        assert order != request_order(16, random.Random(6), 100)
        for start in range(0, 96, 16):
            assert sorted(order[start : start + 16]) == list(range(16))

    def test_live_edits_repeat_for_a_seed(self):
        config = benchmark_info("AB").config
        views = {"left": config.left_view, "right": config.right_view}
        growth = {"left": [f"GL{i}" for i in range(50)], "right": [f"GR{i}" for i in range(50)]}

        def edits(seed):
            planner = EditPlanner(seed, views, growth)
            return [
                (side, op, payload if isinstance(payload, str) else (payload.record_id, payload.as_text()))
                for _ in range(10)
                for side, op, payload in planner.cycle()
            ]

        assert edits(4) == edits(4)
        assert edits(4) != edits(5)
        assert {op for _, op, _ in edits(4)} == {"update", "add", "remove"}


class TestSpans:
    # explain [0, 10] > triangles [1, 6] > top_k [2, 3]; lattice [6, 9]; a
    # root on another thread [4, 8] that must not be charged to the explain.
    SPANS = [
        Span(1, "certa.explain", 0.0, 10.0, 0, "r1"),
        Span(2, "certa.triangles", 1.0, 6.0, 1, "r1"),
        Span(3, "data.index.top_k", 2.0, 3.0, 2, "r1"),
        Span(4, "certa.lattice", 6.0, 9.0, 1, "r1"),
        Span(5, "models.engine", 4.0, 8.0, 0, None),
    ]

    def test_self_time_is_duration_minus_direct_children(self):
        columns = SpanColumns.from_spans(self.SPANS)
        selfs = dict(zip(columns.ids.tolist(), columns.self_times().tolist()))
        assert selfs == {1: 2.0, 2: 4.0, 3: 1.0, 4: 3.0, 5: 4.0}
        assert sum(selfs[span_id] for span_id in (1, 2, 3, 4)) == pytest.approx(10.0)

    def test_totals_and_stage_gap(self):
        columns = SpanColumns.from_spans(self.SPANS)
        totals = columns.totals()
        assert totals["certa.triangles"] == (1, 4.0, 5.0)
        assert totals["models.engine"] == (1, 4.0, 4.0)
        assert columns.stage_gaps().tolist() == [pytest.approx(0.2)]
        assert columns.inclusive_by_request("certa.explain") == {"r1": 10.0}

    def test_child_overhanging_its_parent_is_clipped(self):
        columns = SpanColumns.from_spans([Span(1, "a", 0.0, 4.0, 0), Span(2, "b", 3.0, 6.0, 1)])
        assert columns.self_times().tolist() == [3.0, 3.0]

    def test_tracer_records_nesting_and_restores_the_program(self):
        module = types.SimpleNamespace(leaf=lambda value: value + 1)

        class Outer:
            def run(self, value):
                return module.leaf(value) * 2

        original_run, original_leaf = Outer.run, module.leaf
        tracer = Tracer()
        tracer.wrap(Outer, "run", "outer")
        tracer.wrap(module, "leaf", "leaf")
        tracer.set_request("op7")
        tracer.enabled = True
        assert Outer().run(1) == 4
        tracer.enabled = False
        assert Outer().run(1) == 4  # disabled: no span
        tracer.uninstall()
        assert Outer.run is original_run and module.leaf is original_leaf

        columns = tracer.columns()
        assert len(columns) == 2
        outer = columns.ids[columns.mask("outer")][0]
        assert columns.parents[columns.mask("leaf")].tolist() == [outer]
        assert columns.requests == ["op7", "op7"]


class TestFaultFreeGuard:
    def test_trips_on_any_nonzero_guarded_counter(self):
        for name in FAULT_FREE_COUNTERS:
            problems = fault_free_violations({name: 1.0}, plan_active=False)
            assert len(problems) == 1 and name in problems[0]

    def test_quiet_when_zero_or_when_a_plan_is_active(self):
        assert fault_free_violations({name: 0.0 for name in FAULT_FREE_COUNTERS}, plan_active=False) == []
        assert fault_free_violations({"serve.shed": 3.0}, plan_active=True) == []


class TestPayloadComparison:
    PAYLOAD = {"prediction": 0.25, "saliency": {"left_name": 0.5}, "counterfactual": {"examples": [{"score": 0.75}]}}

    def test_scores_may_drift_within_tolerance_only(self):
        drifted = json.loads(json.dumps(self.PAYLOAD))
        drifted["counterfactual"]["examples"][0]["score"] += 1e-15
        assert payload_drift(drifted, self.PAYLOAD) == pytest.approx(1e-15)
        drifted["counterfactual"]["examples"][0]["score"] += 1e-6
        assert payload_drift(drifted, self.PAYLOAD) is None

    def test_non_score_fields_must_match_exactly(self):
        changed = json.loads(json.dumps(self.PAYLOAD))
        changed["saliency"]["left_name"] += 1e-15
        tally = PayloadCheck()
        tally.compare("same", self.PAYLOAD, json.loads(json.dumps(self.PAYLOAD)))
        tally.compare("changed", changed, self.PAYLOAD)
        assert (tally.compared, tally.byte_identical, len(tally.problems)) == (2, 1, 1)


def test_scan_oracle_matches_the_library_scan():
    dataset = fixtures.make_dataset("AB")
    oracle = ScanOracle()
    for pair in dataset.test.pairs[:5]:
        expected = top_k_neighbours(pair.right, list(dataset.left), k=25, exclude_ids=(pair.left.record_id,), indexed=False)
        assert oracle.top_k(pair.right, dataset.left, 25, pair.left.record_id) == [r.record_id for r in expected]


def test_contract_lists_every_metric_the_benchmark_prints():
    contract = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in contract["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in contract["workloads"]} == {"sweep-cold", "serve-warm", "live-mutating"}
