"""``serve-warm``: a closed loop of clients against a warm explanation service.

``nproc`` clients each send a request, wait for its response and send the
next, to an :class:`~repro.serve.ExplanationService` with ``nproc`` workers
serving one sealed Ditto target on AB.  Requests walk a seeded order of the
AB test pairs, all of which set-up has already explained through the service,
so every timed score is an engine-cache hit and text and featurisation do no
work.  A closed loop is used because an open loop at a low rate measured
thread-wakeup races more than the service.  The loop runs in slices of about
``SLICE_S``; between slices the service is idle and the host is probed.
"""

from __future__ import annotations

import asyncio
import random
import time

from perfbench import fixtures
from perfbench.common import Phase, PayloadCheck, client_count, probe_ms
from perfbench.metrics import ENGINE_FIELDS, FEATURIZER_FIELDS, INDEX_FIELDS, add_stats
from repro.certa.explainer import CertaExplainer
from repro.models.engine import PredictionEngine
from repro.serve import ExplainRequest, ExplanationService, ServeTarget
from repro.serve.types import explanation_payload

TARGET = "ab-ditto"
#: Hot-set pairs of each class (match, non-match).
HOT_PER_CLASS = 8
#: The closed loop runs in slices of about this length, with host probes
#: between them.
SLICE_S = 1.0
SERVE_COUNTERS = (
    ("dispatches", "dispatches"),
    ("coalesced", "coalesced_dispatches"),
    ("merged", "merged_pairs"),
    ("deduped", "deduped_pairs"),
    ("shed", "shed"),
    ("retried", "retried"),
    ("failed", "failed"),
    ("budget_deadline", "budget_deadline"),
    ("budget_nodes", "budget_nodes"),
)


def request_order(pair_count: int, rng: random.Random, length: int) -> list[int]:
    """Pair indices of the request list: seeded rounds over the whole hot set."""
    order: list[int] = []
    while len(order) < length:
        round_ = list(range(pair_count))
        rng.shuffle(round_)
        order.extend(round_)
    return order[:length]


class ServeWarm:
    name = "serve-warm"
    tail_cap = 90.0
    setup_repeats = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.clients = client_count()
        self.loop = asyncio.new_event_loop()
        self.service: ExplanationService | None = None
        self.sent = 0
        #: Per hot pair: each distinct served payload and how often it came back.
        self.variants: dict[int, list[list]] = {}
        self.problems: list[str] = []

    def setup(self) -> None:
        self.dataset = fixtures.make_dataset("AB")
        self.model = fixtures.train("ditto", self.dataset)
        self.hot = fixtures.class_pairs(self.dataset, True)[:HOT_PER_CLASS] + fixtures.class_pairs(
            self.dataset, False
        )[:HOT_PER_CLASS]
        self.target = ServeTarget(TARGET, self.model, self.dataset.left, self.dataset.right)
        self.service = ExplanationService(
            [self.target],
            workers=self.clients,
            queue_limit=4 * self.clients,
            default_deadline=0.0,
            default_max_nodes=0,
        )
        self.loop.run_until_complete(self._warm())

    async def _warm(self) -> None:
        await self.service.start()
        requests = [ExplainRequest(TARGET, pair, request_id=f"warm{index}") for index, pair in enumerate(self.hot)]
        for start in range(0, len(requests), self.clients):
            for response in await self.service.explain_many(requests[start : start + self.clients]):
                response.raise_for_status()

    def teardown(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None

    def phase(self, seconds: float, tracer=None) -> Phase:
        return self.loop.run_until_complete(self._phase(seconds, tracer))

    async def _phase(self, seconds: float, tracer) -> Phase:
        phase = Phase()
        service = self.service
        indexes = (self.dataset.left, self.dataset.right)
        serve_before = service.stats
        engine_before = service.engine_stats(TARGET)
        featurizer_before = self.model.featurizer_stats
        index_before = fixtures.index_stats(*indexes)
        memo_before = fixtures.memo_totals()
        # Long enough that no client can run out within the phase.
        order = request_order(len(self.hot), self.rng, int(seconds * 5000) + 100)
        sent_before = self.sent
        if tracer is not None:
            tracer.enabled = True
        slices = max(1, round(seconds / SLICE_S))
        try:
            for _ in range(slices):
                await self._slice(phase, order, sent_before, seconds / slices)
        finally:
            if tracer is not None:
                tracer.enabled = False

        serve_after = service.stats
        for name, field_name in SERVE_COUNTERS:
            phase.add(f"serve.{name}", getattr(serve_after, field_name) - getattr(serve_before, field_name))
        add_stats(phase, "engine", service.engine_stats(TARGET) - engine_before, ENGINE_FIELDS)
        add_stats(phase, "featurizer", self.model.featurizer_stats - featurizer_before, FEATURIZER_FIELDS)
        add_stats(phase, "index", fixtures.index_stats(*indexes) - index_before, INDEX_FIELDS)
        memo_after = fixtures.memo_totals()
        phase.add("memo.hits", memo_after[0] - memo_before[0])
        phase.add("memo.misses", memo_after[1] - memo_before[1])
        phase.add("memo.entries", memo_after[2] * phase.completed)
        misses = phase.counters.get("engine.misses", 0.0)
        if misses:
            self.problems.append(f"{misses:g} timed scores missed the warm engine cache")
        return phase

    async def _slice(self, phase: Phase, order: list[int], sent_before: int, seconds: float) -> None:
        """``seconds`` of the closed loop between two host probes; the clients
        stop sending at its end and it ends when the last response is back."""
        service = self.service
        latencies: list[float] = []
        before = probe_ms()
        started = time.perf_counter()
        deadline = started + seconds

        async def client() -> None:
            while time.perf_counter() < deadline:
                number = self.sent
                self.sent += 1
                pair_index = order[number - sent_before]
                label = f"r{number}"
                request = ExplainRequest(TARGET, self.hot[pair_index], request_id=label)
                sent_at = time.perf_counter()
                response = await service.submit(request)
                latency = time.perf_counter() - sent_at
                phase.attempted += 1
                if not response.ok:
                    phase.failed += 1
                    self.problems.append(f"{label}: {response.status} {response.error_type}: {response.error}")
                    continue
                latencies.append(latency)
                phase.latency_of[label] = latency
                phase.matcher_of[label] = "ditto"
                payload = response.payload
                phase.add("certa.augmented", payload["augmented_triangles"])
                phase.add("certa.nodes_evaluated", payload["performed_predictions"])
                phase.add("certa.nodes_saved", payload["saved_predictions"])
                self._keep(pair_index, payload)

        await asyncio.gather(*(client() for _ in range(self.clients)))
        phase.record(latencies, time.perf_counter() - started, before, probe_ms())

    def _keep(self, pair_index: int, payload: dict) -> None:
        """Count a served payload; memory grows with distinct payloads only."""
        variants = self.variants.setdefault(pair_index, [])
        for variant in variants:
            if variant[0] == payload:
                variant[1] += 1
                return
        variants.append([payload, 1])

    def check(self) -> tuple[list[str], dict]:
        """Every served payload must equal a direct explanation of its pair."""
        self.teardown()
        target = self.target
        direct = {}
        for index, pair in enumerate(self.hot):
            explanation = CertaExplainer(
                self.model, target.left_source, target.right_source,
                num_triangles=target.num_triangles, monotone=target.monotone,
                allow_augmentation=target.allow_augmentation, max_candidates=target.max_candidates,
                max_examples=target.max_examples, seed=target.seed,
                engine=PredictionEngine(self.model, batch_size=target.batch_size),
                batched=target.batched, indexed=target.indexed,
            ).explain_full(pair)
            direct[index] = explanation_payload(explanation)
        tally = PayloadCheck()
        for pair_index, variants in sorted(self.variants.items()):
            for payload, count in variants:
                tally.compare(f"pair {self.hot[pair_index].pair_id}", payload, direct[pair_index], count)
        detail = {
            "responses_compared": tally.compared,
            "byte_identical": tally.byte_identical,
            "max_score_drift": tally.max_score_drift,
            "clients": self.clients,
            "hot_pairs": len(self.hot),
        }
        return self.problems + tally.problems[:20], detail

    def close(self) -> None:
        self.teardown()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
