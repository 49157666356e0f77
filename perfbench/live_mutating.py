"""``live-mutating``: monitor explanations while both sources change.

A Ditto matcher trained on AB watches a few AB non-match test pairs while
both sources, grown to ``SOURCE_RECORDS`` records each from the seeded
synthetic record stream, keep changing.  That size is past
``COMPILED_MIN_RECORDS``, so the compiled index tier answers the support
rankings.  One op is one monitoring cycle: apply a seeded batch of
``update``/``add``/``remove`` edits, triage the watched pairs with
``changed_pairs`` and re-explain the next watched pair.  This is the only
workload that writes, so delta replay, dirty-shard recompiles,
``ensure_fresh`` and compiled ``top_k`` dominate here.
"""

from __future__ import annotations

import heapq
import random
import time
import traceback
from itertools import count

from perfbench import fixtures
from perfbench.common import Phase, probe_ms
from perfbench.metrics import ENGINE_FIELDS, FEATURIZER_FIELDS, INDEX_FIELDS, add_explanation, add_stats
from repro.certa.explainer import CertaExplainer
from repro.data import indexing
from repro.data.blocking import (
    DEFAULT_BLOCKING_TOKEN_LENGTH,
    record_blocking_tokens,
    token_jaccard,
    top_k_neighbours,
)
from repro.data.registry import benchmark_info
from repro.data.synthetic import iter_synthetic_records, render_view
from repro.data.table import DataSource
from repro.models.engine import PredictionEngine

SOURCE_RECORDS = 20_000
WATCHED_PAIRS = 3
EDITS_PER_CYCLE = 4
NUM_TRIANGLES = 20
#: Support candidates the triangle search ranks per side (the explainer default).
MAX_CANDIDATES = 400
GROWTH_STREAM_SEED = 7
#: Shares of updates and adds among the edits; the rest are removals.
UPDATE_SHARE, ADD_SHARE = 0.5, 0.25


class EditPlanner:
    """Seeded edits against the grown (never the original) records of each side.

    New record contents come from the synthetic stream seeded by the run's
    seed, rendered through the side's AB view, so the same seed always
    yields the same edits.
    """

    def __init__(self, seed: int, views: dict, growth_ids: dict[str, list[str]]) -> None:
        self.rng = random.Random(seed)
        self.views = views
        self.live_ids = {side: list(ids) for side, ids in growth_ids.items()}
        self.stream = iter_synthetic_records(10**9, seed=seed + 1000, domain="product")
        self.fresh = count()

    def _record(self, side: str, record_id: str):
        entity = dict(next(self.stream).values)
        return render_view(entity, self.views[side], record_id, self.rng)

    def cycle(self) -> list[tuple[str, str, object]]:
        """One cycle's edits as (side, op, record or record id)."""
        edits = []
        for _ in range(EDITS_PER_CYCLE):
            side = self.rng.choice(("left", "right"))
            ids = self.live_ids[side]
            roll = self.rng.random()
            if roll < UPDATE_SHARE:
                edits.append((side, "update", self._record(side, self.rng.choice(ids))))
            elif roll < UPDATE_SHARE + ADD_SHARE:
                record_id = f"N{side[0].upper()}{next(self.fresh)}"
                ids.append(record_id)
                edits.append((side, "add", self._record(side, record_id)))
            else:
                position = self.rng.randrange(len(ids))
                ids[position], ids[-1] = ids[-1], ids[position]
                edits.append((side, "remove", ids.pop()))
        return edits


class ScanOracle:
    """Unindexed support ranking with the scan's semantics.

    Ranks every record by :func:`~repro.data.blocking.token_jaccard` over
    :func:`~repro.data.blocking.record_blocking_tokens`, ties by record id,
    exactly like ``top_k_neighbours(..., indexed=False)``; it only keeps each
    record's token set between calls, so that a check per cycle stays cheap.
    """

    def __init__(self) -> None:
        self._tokens: dict[str, tuple[object, set[str]]] = {}

    def top_k(self, query, source: DataSource, k: int, exclude: str) -> list[str]:
        query_tokens = record_blocking_tokens(query, DEFAULT_BLOCKING_TOKEN_LENGTH)
        overlapping, disjoint = [], []
        for record in source.records:
            record_id = record.record_id
            if record_id == exclude:
                continue
            cached = self._tokens.get(record_id)
            if cached is None or cached[0] is not record:
                cached = (record, record_blocking_tokens(record, DEFAULT_BLOCKING_TOKEN_LENGTH))
                self._tokens[record_id] = cached
            if query_tokens.isdisjoint(cached[1]):
                disjoint.append(record_id)
            else:
                overlapping.append((-token_jaccard(query_tokens, cached[1]), record_id))
        ranked = [record_id for _, record_id in heapq.nsmallest(k, overlapping)]
        return ranked + heapq.nsmallest(k - len(ranked), disjoint)


class LiveMutating:
    name = "live-mutating"
    #: A 20-s phase of ~0.2-s cycles has too few samples beyond p90 on a slow host.
    tail_cap = 75.0
    setup_repeats = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_count = 0
        self.cycles = 0
        self.checked = 0
        self.oracle = ScanOracle()
        self.oracle_validated = False
        self.problems: list[str] = []

    def setup(self) -> None:
        dataset = fixtures.make_dataset("AB")
        self.model = fixtures.train("ditto", dataset)
        config = benchmark_info("AB").config
        views = {"left": config.left_view, "right": config.right_view}
        rng = random.Random(GROWTH_STREAM_SEED)
        sources = {"left": dataset.left, "right": dataset.right}
        growth_ids: dict[str, list[str]] = {}
        grown: dict[str, DataSource] = {}
        stream = iter_synthetic_records(2 * SOURCE_RECORDS, seed=GROWTH_STREAM_SEED, domain="product")
        extra = {side: [] for side in sources}
        for index, streamed in enumerate(stream):
            side = "left" if index % 2 == 0 else "right"
            if len(sources[side]) + len(extra[side]) >= SOURCE_RECORDS:
                continue
            extra[side].append(render_view(dict(streamed.values), views[side], f"G{side[0].upper()}{index}", rng))
        for side, source in sources.items():
            grown[side] = DataSource(
                name=f"live-{side}", schema=source.schema, records=list(source.records) + extra[side]
            )
            growth_ids[side] = [record.record_id for record in extra[side]]
        self.left, self.right = grown["left"], grown["right"]
        fixtures.warm_indexes(self.left, self.right)
        self.watched = fixtures.class_pairs(dataset, False)[:WATCHED_PAIRS]
        self.explainer = CertaExplainer(
            self.model, self.left, self.right, num_triangles=NUM_TRIANGLES,
            max_candidates=MAX_CANDIDATES, engine=PredictionEngine(self.model),
        )
        for pair in self.watched:
            self.explainer.explain_full(pair)
        self.planner = EditPlanner(self.seed, views, growth_ids)
        self.since = (self.left.data_version, self.right.data_version)

    def teardown(self) -> None:
        self.left = self.right = self.explainer = None

    def phase(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            self._cycle(phase, tracer)
        return phase

    def _cycle(self, phase: Phase, tracer) -> None:
        edits = self.planner.cycle()
        sources = {"left": self.left, "right": self.right}
        pair = self.watched[self.cycles % len(self.watched)]
        self.cycles += 1
        label = self.op_count
        self.op_count += 1
        phase.attempted += 1
        phase.matcher_of[label] = "ditto"
        index_before = fixtures.index_stats(self.left, self.right)
        memo_before = fixtures.memo_totals()
        before = probe_ms()
        if tracer is not None:
            tracer.set_request(label)
            tracer.enabled = True
        try:
            started = time.perf_counter()
            for side, op, payload in edits:
                source = sources[side]
                if op == "update":
                    source.update(payload)
                elif op == "add":
                    source.add(payload)
                else:
                    source.remove(payload)
            flagged = indexing.changed_pairs(self.watched, self.left, self.right, *self.since)
            self.since = (self.left.data_version, self.right.data_version)
            explanation = self.explainer.explain_full(pair)
            elapsed = time.perf_counter() - started
        except Exception:  # repro-lint: disable=EXC002 -- benchmark boundary: the failure is recorded with its traceback, counted in `failed`, and the run goes on
            phase.failed += 1
            self.problems.append(f"cycle {label}: {traceback.format_exc(limit=3)}")
            return
        finally:
            if tracer is not None:
                tracer.enabled = False
        phase.record([elapsed], elapsed, before, probe_ms())
        add_stats(phase, "engine", explanation.engine_stats, ENGINE_FIELDS)
        add_stats(phase, "featurizer", explanation.featurizer_stats, FEATURIZER_FIELDS)
        add_stats(phase, "index", fixtures.index_stats(self.left, self.right) - index_before, INDEX_FIELDS)
        add_explanation(phase, explanation)
        memo_after = fixtures.memo_totals()
        phase.add("memo.hits", memo_after[0] - memo_before[0])
        phase.add("memo.misses", memo_after[1] - memo_before[1])
        phase.add("memo.entries", memo_after[2])
        if flagged is None:
            self.problems.append(f"cycle {label}: delta log no longer covers one cycle")
        else:
            phase.add("changed.flagged", len(flagged))
            phase.add("changed.watched", len(self.watched))
        self._check_rankings(label, pair)

    def _check_rankings(self, label: int, pair) -> None:
        """Both support rankings of the explained pair against the scan."""
        queries = (
            (self.left, pair.right, pair.left.record_id),
            (self.right, pair.left, pair.right.record_id),
        )
        for source, query, exclude in queries:
            index = indexing.get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH)
            indexed = [record.record_id for record in index.top_k(query, k=MAX_CANDIDATES, exclude_ids=(exclude,))]
            scanned = self.oracle.top_k(query, source, MAX_CANDIDATES, exclude)
            if not self.oracle_validated:
                reference = top_k_neighbours(
                    query, list(source), k=MAX_CANDIDATES, exclude_ids=(exclude,), indexed=False
                )
                if [record.record_id for record in reference] != scanned:
                    self.problems.append("scan oracle disagrees with top_k_neighbours(indexed=False)")
                self.oracle_validated = True
            self.checked += 1
            if indexed != scanned:
                self.problems.append(f"cycle {label}: indexed top_k differs from the scan on {source.name}")

    def check(self) -> tuple[list[str], dict]:
        detail = {"cycles": self.cycles, "rankings_checked": self.checked}
        if self.checked == 0:
            self.problems.append("no top_k ranking was checked")
        return self.problems, detail

    def close(self) -> None:
        self.teardown()
