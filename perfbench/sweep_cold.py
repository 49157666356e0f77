"""``sweep-cold``: cold explanations of a fixed pair set by all four matchers.

One client explains, back to back, every (dataset, matcher, pair) combination
of a fixed set: two match and one non-match test pair each of AB and DA,
explained by Ditto, DeepMatcher, DeepER and the classical matcher.  Before
each explanation it creates a fresh engine and clears the matcher's
featurizer caches and the three similarity memos, so each op pays the full
cost of reproducing the paper for one pair.  Cold explanations of one
(dataset, matcher) combination vary about 2x between pairs, so every seed
explains the same set: the seed only changes the order, and a phase always
runs whole rounds of the set.
"""

from __future__ import annotations

import random
import time
import traceback

from perfbench import fixtures
from perfbench.common import Phase, PayloadCheck, canonical, probe_ms
from perfbench.metrics import ENGINE_FIELDS, FEATURIZER_FIELDS, INDEX_FIELDS, MATCHERS, add_explanation, add_stats
from repro.certa.explainer import CertaExplainer
from repro.models.engine import PredictionEngine
from repro.serve.types import explanation_payload

DATASETS = ("AB", "DA")
#: Test pairs per dataset and class.  Non-match explanations cost about
#: twice as much as match ones; with equal classes the median would sit on
#: the boundary between the two, where a few slow samples move it most.
MATCH_PAIRS, NON_MATCH_PAIRS = 2, 1
NUM_TRIANGLES = 20
#: Explanations re-run on the reference paths after the timed phases.
CHECK_SAMPLE = 1
#: Fewest rounds a full-length phase runs, so that its 48 samples keep p75
#: reachable as the tail however slow the host; a traced run's short slices
#: (under ``FULL_PHASE_S``) run whole rounds without this floor.
MIN_ROUNDS = 2
FULL_PHASE_S = 10.0


def fixed_pairs(datasets: dict) -> dict[str, list]:
    """Per dataset: its first match and non-match test pairs, in pair-id order."""
    return {
        code: fixtures.class_pairs(dataset, True)[:MATCH_PAIRS]
        + fixtures.class_pairs(dataset, False)[:NON_MATCH_PAIRS]
        for code, dataset in datasets.items()
    }


def round_ops(pairs: dict[str, list], rng: random.Random) -> list[tuple[str, str, object]]:
    """One round: every (dataset, matcher, pair) once, in seeded order."""
    ops = [
        (code, matcher, pair)
        for code in sorted(pairs)
        for matcher in MATCHERS
        for pair in pairs[code]
    ]
    rng.shuffle(ops)
    return ops


class SweepCold:
    name = "sweep-cold"
    #: p90 of a two-round phase has under ten samples beyond it.
    tail_cap = 75.0
    setup_repeats = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.op_count = 0
        self.payloads: dict[tuple, dict] = {}
        self.problems: list[str] = []

    def setup(self) -> None:
        self.datasets = {code: fixtures.make_dataset(code) for code in DATASETS}
        self.models = {
            (code, matcher): fixtures.train(matcher, dataset)
            for code, dataset in self.datasets.items()
            for matcher in MATCHERS
        }
        self.pairs = fixed_pairs(self.datasets)
        for dataset in self.datasets.values():
            fixtures.warm_indexes(dataset.left, dataset.right)

    def teardown(self) -> None:
        self.datasets, self.models = {}, {}

    def phase(self, seconds: float, tracer=None) -> Phase:
        """Whole rounds only: as many as fit ``seconds`` at the first round's pace."""
        phase = Phase()
        started = time.perf_counter()
        rounds = MIN_ROUNDS if seconds >= FULL_PHASE_S else 1
        done = 0
        while done < rounds:
            for op in round_ops(self.pairs, self.rng):
                self._explain(phase, op, tracer)
            done += 1
            if done == 1:
                rounds = max(rounds, round(seconds / (time.perf_counter() - started)))
        return phase

    def _explain(self, phase: Phase, op: tuple, tracer) -> None:
        code, matcher, pair = op
        dataset = self.datasets[code]
        model = self.models[(code, matcher)]
        model.clear_featurizer_cache()
        fixtures.clear_memos()
        explainer = CertaExplainer(
            model, dataset.left, dataset.right, num_triangles=NUM_TRIANGLES,
            engine=PredictionEngine(model),
        )
        label = self.op_count
        self.op_count += 1
        phase.attempted += 1
        phase.matcher_of[label] = matcher
        before = probe_ms()
        if tracer is not None:
            tracer.set_request(label)
            tracer.enabled = True
        try:
            started = time.perf_counter()
            explanation = explainer.explain_full(pair)
            elapsed = time.perf_counter() - started
        except Exception:  # repro-lint: disable=EXC002 -- benchmark boundary: the failure is recorded with its traceback, counted in `failed`, and the run goes on
            phase.failed += 1
            self.problems.append(f"{matcher} on {code} {pair.pair_id}: {traceback.format_exc(limit=3)}")
            return
        finally:
            if tracer is not None:
                tracer.enabled = False
        phase.record([elapsed], elapsed, before, probe_ms())
        add_stats(phase, "engine", explanation.engine_stats, ENGINE_FIELDS)
        add_stats(phase, "featurizer", explanation.featurizer_stats, FEATURIZER_FIELDS)
        add_stats(phase, "index", explanation.index_stats, INDEX_FIELDS)
        add_explanation(phase, explanation)
        hits, misses, entries = fixtures.memo_totals()
        phase.add("memo.hits", hits)
        phase.add("memo.misses", misses)
        phase.add("memo.entries", entries)

        key = (code, matcher, pair.pair_id)
        payload = explanation_payload(explanation)
        first = self.payloads.setdefault(key, payload)
        if first is not payload and canonical(first) != canonical(payload):
            self.problems.append(f"{key}: repeated cold explanation differs from the first")

    def check(self) -> tuple[list[str], dict]:
        """Re-explain a seeded sample on the reference paths and compare payloads."""
        tally = PayloadCheck()
        sample = random.Random(self.seed).sample(sorted(self.payloads), min(CHECK_SAMPLE, len(self.payloads)))
        for code, matcher, pair_id in sample:
            dataset = self.datasets[code]
            model = self.models[(code, matcher)]
            pair = next(pair for pair in self.pairs[code] if pair.pair_id == pair_id)
            model.batched_featurization = False
            try:
                reference = CertaExplainer(
                    model, dataset.left, dataset.right, num_triangles=NUM_TRIANGLES,
                    engine=PredictionEngine(model), batched=False, indexed=False,
                ).explain_full(pair)
            finally:
                model.batched_featurization = True
            tally.compare(f"{matcher} on {code} {pair_id}", self.payloads[(code, matcher, pair_id)], explanation_payload(reference))
        detail = {
            "reference_compared": tally.compared,
            "byte_identical": tally.byte_identical,
            "max_score_drift": tally.max_score_drift,
        }
        return self.problems + tally.problems, detail

    def close(self) -> None:
        pass
