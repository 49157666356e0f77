"""Inputs and program state every workload builds the same way.

Datasets are the bundled synthetic benchmarks at ``SCALE``; matchers are
trained with the benchmark settings of :func:`repro.models.training.train_model`
(``fast=True``) and without their own score cache, since every score goes
through a :class:`~repro.models.engine.PredictionEngine`.
"""

from __future__ import annotations

from repro.data.blocking import DEFAULT_BLOCKING_TOKEN_LENGTH
from repro.data.dataset import ERDataset
from repro.data import indexing
from repro.data.indexing import IndexStats, get_source_index
from repro.data.records import RecordPair
from repro.data.registry import benchmark_info
from repro.data.synthetic import generate_dataset
from repro.data.table import DataSource
from repro.models.base import ERModel
from repro.models.training import train_model
from repro.text import similarity

#: Dataset scale of every workload (the scale the ROADMAP's numbers use).
SCALE = 0.5

#: The three process-wide similarity memos, captured before any tracing
#: wrapper replaces a module binding.
MEMOS = tuple(
    memo
    for memo in (
        getattr(similarity, "memoized_levenshtein_similarity", None),
        getattr(similarity, "memoized_jaro_winkler", None),
        getattr(similarity, "memoized_monge_elkan", None),
    )
    if memo is not None and hasattr(memo, "cache_info")
)


def make_dataset(code: str) -> ERDataset:
    """A freshly generated copy of benchmark ``code`` (never a memoised one)."""
    return generate_dataset(benchmark_info(code).config.scaled(SCALE))


def train(matcher: str, dataset: ERDataset) -> ERModel:
    return train_model(matcher, dataset, fast=True, cache_predictions=False).model


def class_pairs(dataset: ERDataset, match: bool) -> list[RecordPair]:
    """The dataset's test pairs of one class, in pair-id order."""
    pairs = [pair for pair in dataset.test.pairs if bool(pair.label) == match]
    return sorted(pairs, key=lambda pair: pair.pair_id)


def warm_indexes(*sources: DataSource) -> None:
    for source in sources:
        get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH).ensure_fresh()


def index_stats(*sources: DataSource) -> IndexStats:
    total = IndexStats()
    for source in sources:
        total = total + get_source_index(source, DEFAULT_BLOCKING_TOKEN_LENGTH).stats
    return total


def clear_memos() -> None:
    for memo in MEMOS:
        memo.cache_clear()


def clear_process_caches() -> None:
    """Empty the process-wide caches, so that a repeated set-up starts as cold
    as the first one did in a fresh process."""
    clear_memos()
    token_sets = getattr(indexing, "_TOKEN_SET_CACHE", None)
    if isinstance(token_sets, dict):
        token_sets.clear()


def memo_totals() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the similarity memos."""
    hits = misses = entries = 0
    for memo in MEMOS:
        info = memo.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return hits, misses, entries
