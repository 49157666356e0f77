"""Shared test helpers: tiny hand-built datasets and cheap deterministic matchers.

The unit tests for explainers and metrics do not need a trained neural matcher:
any object exposing the :class:`repro.models.base.ERModel` prediction API will
do.  :class:`SimilarityModel` scores pairs by token overlap, which is fast,
deterministic and (usefully for lattice tests) monotone in content overlap.
:func:`reference_levenshtein_distance` is the textbook dynamic program that
the bit-parallel production kernel is checked against.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import ERDataset, PairSplit
from repro.data.records import Record, RecordPair, Schema
from repro.data.table import DataSource
from repro.text.similarity import jaccard
from repro.text.tokenize import tokenize

LEFT_SCHEMA = Schema.from_names(["name", "description", "price"])
RIGHT_SCHEMA = Schema.from_names(["name", "description", "price"])


def reference_levenshtein_distance(left: str, right: str) -> int:
    """Plain Levenshtein edit distance with a two-row dynamic program."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


def make_record(record_id: str, name: str, description: str, price: str, source: str = "U") -> Record:
    """Build a product record for the toy schema."""
    schema = LEFT_SCHEMA if source == "U" else RIGHT_SCHEMA
    return Record.from_raw(
        record_id,
        {"name": name, "description": description, "price": price},
        schema,
        source=source,
    )


def toy_sources() -> tuple[DataSource, DataSource]:
    """Two tiny product tables with four shared entities and a few extras."""
    left_records = [
        make_record("L0", "sony bravia theater", "sony bravia micro system black", "199.99"),
        make_record("L1", "altec lansing inmotion", "altec portable audio system", "89.99"),
        make_record("L2", "canon powershot camera", "canon digital camera silver", "349.00"),
        make_record("L3", "bose soundlink speaker", "bose portable bluetooth speaker", "129.00"),
        make_record("L4", "garmin nuvi gps", "garmin portable gps navigator", "159.00"),
        make_record("L5", "philips dvd player", "philips progressive scan dvd player", "59.00"),
    ]
    right_records = [
        make_record("R0", "sony bravia theater system", "sony bravia home theater black micro", "205.00", "V"),
        make_record("R1", "altec lansing im600", "altec lansing inmotion portable audio", "92.50", "V"),
        make_record("R2", "canon powershot", "canon powershot digital camera", "355.00", "V"),
        make_record("R3", "bose soundlink", "bose soundlink bluetooth speaker portable", "125.00", "V"),
        make_record("R4", "netgear wireless router", "netgear dual band wireless router", "79.00", "V"),
        make_record("R5", "epson photo printer", "epson compact photo printer", "99.00", "V"),
    ]
    left = DataSource(name="toy-left", schema=LEFT_SCHEMA, records=left_records)
    right = DataSource(name="toy-right", schema=RIGHT_SCHEMA, records=right_records)
    return left, right


def toy_pairs(left: DataSource, right: DataSource) -> list[RecordPair]:
    """Labelled pairs over the toy sources: 4 matches and 6 non-matches."""
    matches = [("L0", "R0"), ("L1", "R1"), ("L2", "R2"), ("L3", "R3")]
    non_matches = [
        ("L0", "R1"), ("L1", "R0"), ("L2", "R3"), ("L3", "R2"), ("L4", "R4"), ("L5", "R5"),
    ]
    pairs = [RecordPair(left.get(a), right.get(b), True) for a, b in matches]
    pairs.extend(RecordPair(left.get(a), right.get(b), False) for a, b in non_matches)
    return pairs


def toy_dataset() -> ERDataset:
    """A complete toy dataset with fixed train/valid/test splits."""
    left, right = toy_sources()
    pairs = toy_pairs(left, right)
    train = PairSplit("train", pairs[:6])
    valid = PairSplit("valid", pairs[6:8])
    test = PairSplit("test", pairs[8:])
    return ERDataset(
        name="TOY", left=left, right=right, train=train, valid=valid, test=test,
        description="hand-built toy dataset for unit tests",
    )


class SimilarityModel:
    """A deterministic matcher scoring pairs by token Jaccard similarity.

    Implements the prediction subset of the :class:`ERModel` API that the
    explainers rely on.  ``threshold`` controls where the match decision falls;
    the score is a squashed version of the record-level Jaccard similarity, so
    copying tokens from a similar record monotonically raises the score.
    """

    name = "similarity"

    def __init__(self, threshold: float = 0.5, sharpness: float = 6.0) -> None:
        self.threshold = threshold
        self.sharpness = sharpness
        self.calls = 0

    def _score(self, pair: RecordPair) -> float:
        overlap = jaccard(tokenize(pair.left.as_text()), tokenize(pair.right.as_text()))
        # Squash around 0.3 overlap so that clearly-different records sit near 0
        # and near-duplicates sit near 1.
        return float(1.0 / (1.0 + np.exp(-self.sharpness * (overlap - 0.3))))

    def predict_proba(self, pairs) -> np.ndarray:
        self.calls += len(pairs)
        return np.array([self._score(pair) for pair in pairs], dtype=np.float64)

    def predict_pair(self, pair: RecordPair) -> float:
        return float(self.predict_proba([pair])[0])

    def predict(self, pairs) -> np.ndarray:
        return self.predict_proba(pairs) > self.threshold

    def predict_match(self, pair: RecordPair) -> bool:
        return self.predict_pair(pair) > self.threshold


class ConstantModel:
    """A matcher that always returns the same score (edge-case testing)."""

    name = "constant"

    def __init__(self, score: float = 0.9) -> None:
        self.score = score

    def predict_proba(self, pairs) -> np.ndarray:
        return np.full(len(pairs), self.score, dtype=np.float64)

    def predict_pair(self, pair: RecordPair) -> float:
        return self.score

    def predict(self, pairs) -> np.ndarray:
        return self.predict_proba(pairs) > 0.5

    def predict_match(self, pair: RecordPair) -> bool:
        return self.score > 0.5
