"""Content-addressed interning of derived text artifacts.

Explanation workloads featurise thousands of perturbed copies of the same few
records: the pivot record of an open triangle never changes and the free
record differs from its original by a token subset, so the *distinct attribute
values* crossing the featurisation layer number in the dozens while the value
comparisons number in the tens of thousands.  :class:`ValueFeatureCache`
interns every distinct value string exactly once per process and hands out its
derived artifacts — token list/set, character q-grams, the truncated form used
by edit-distance features, the parsed numeric value, plus (when providers are
attached) the hashed embedding and hashing-vectorizer vector.

All artifacts are computed by the same public functions the naive per-pair
path uses (:func:`repro.text.tokenize.tokenize`,
:meth:`repro.text.embeddings.HashedEmbeddings.embed_text`, ...), so cached and
uncached featurisation are byte-identical; the cache only changes *how often*
each computation runs.  Cached arrays are shared, never copied — callers must
treat them as read-only.
"""

from __future__ import annotations

import numpy as np

from repro.text.similarity import EDIT_PREFIX, MONGE_ELKAN_TOKENS
from repro.text.tokenize import qgrams, tokenize


class ValueFeatures:
    """Derived artifacts of one attribute-value string, computed once.

    ``numeric`` is the ``float(value)`` parse (``None`` when the value does
    not parse), mirroring the fallback logic of
    :func:`repro.text.similarity.numeric_similarity`.  The q-gram set is
    built lazily because only composite-similarity consumers need it.
    """

    __slots__ = ("value", "tokens", "token_set", "truncated", "me_tokens", "numeric", "_qgram_set")

    def __init__(self, value: str) -> None:
        self.value = value
        tokens = tokenize(value)
        self.tokens = tokens
        self.token_set = frozenset(tokens)
        self.truncated = value[:EDIT_PREFIX]
        self.me_tokens = tuple(tokens[:MONGE_ELKAN_TOKENS])
        try:
            self.numeric: float | None = float(value)
        except ValueError:
            self.numeric = None
        self._qgram_set: frozenset[str] | None = None

    @property
    def qgram_set(self) -> frozenset[str]:
        """Character 3-gram set (padded, lowercased), built on first access."""
        if self._qgram_set is None:
            self._qgram_set = frozenset(qgrams(self.value, q=3))
        return self._qgram_set

    @property
    def is_missing(self) -> bool:
        """True for the canonical missing value (the empty string)."""
        return not self.value


class ValueFeatureCache:
    """Interning cache: distinct value string -> derived artifacts, once each.

    Three independent keyed stores (token-level features, embeddings, hashed
    vectors) so that consumers pay only for the artifact kinds they read —
    e.g. a serialised pair text is vectorised but never tokenised.  ``hits``
    and ``misses`` count lookups across all three stores.

    Thread-safety matches the rest of the library's caches (e.g. the token
    cache inside :class:`~repro.text.embeddings.HashedEmbeddings`): concurrent
    readers may duplicate a deterministic computation but never corrupt state.
    """

    def __init__(self, embeddings=None, vectorizer=None) -> None:
        self.embeddings = embeddings
        self.vectorizer = vectorizer
        self._features: dict[str, ValueFeatures] = {}
        self._embeddings: dict[str, np.ndarray] = {}
        self._vectors: dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def features(self, value: str) -> ValueFeatures:
        """Token-level artifacts of ``value`` (interned)."""
        cached = self._features.get(value)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        features = ValueFeatures(value)
        self._features[value] = features
        return features

    def embedding(self, text: str) -> np.ndarray:
        """Averaged hashed-token embedding of ``text`` (interned, read-only)."""
        cached = self._embeddings.get(text)
        if cached is not None:
            self.hits += 1
            return cached
        if self.embeddings is None:
            raise ValueError("this ValueFeatureCache was built without an embeddings provider")
        self.misses += 1
        vector = self.embeddings.embed_text(text)
        self._embeddings[text] = vector
        return vector

    def vector(self, text: str) -> np.ndarray:
        """Hashing-vectorizer vector of ``text`` (interned, read-only)."""
        cached = self._vectors.get(text)
        if cached is not None:
            self.hits += 1
            return cached
        if self.vectorizer is None:
            raise ValueError("this ValueFeatureCache was built without a vectorizer provider")
        self.misses += 1
        vector = self.vectorizer.transform_text(text)
        self._vectors[text] = vector
        return vector

    def export_state(self) -> dict[str, dict]:
        """The persistable stores as ``{name: {"keys": [...], "values": matrix}}``.

        Only the *expensive* artifact kinds are exported: embeddings and
        hashed vectors (dense float arrays that round-trip exactly through
        ``.npz``).  Token-level :class:`ValueFeatures` are cheap, pure
        re-derivations of the value string, so a warm-loaded cache simply
        recomputes them on demand — byte-identically.  Empty stores are
        omitted.
        """
        state: dict[str, dict] = {}
        if self._embeddings:
            keys = list(self._embeddings)
            state["embeddings"] = {
                "keys": keys,
                "values": np.vstack([self._embeddings[key] for key in keys]),
            }
        if self._vectors:
            keys = list(self._vectors)
            state["vectors"] = {
                "keys": keys,
                "values": np.vstack([self._vectors[key] for key in keys]),
            }
        return state

    def import_state(self, state: dict[str, dict]) -> None:
        """Install exported stores (existing entries win; counters untouched)."""
        for name, target in (("embeddings", self._embeddings), ("vectors", self._vectors)):
            block = state.get(name)
            if block is None:
                continue
            values = np.asarray(block["values"])
            for key, row in zip(block["keys"], values):
                target.setdefault(str(key), row)

    def evict(self, values) -> int:
        """Drop the entries interned for ``values``; the number of entries dropped.

        The targeted counterpart of :meth:`clear` for streaming mutation:
        when :meth:`DataSource.update/remove <repro.data.table.DataSource>`
        retires a value string from every live record (the source journals
        exactly those strings in ``SourceDelta.retired_values``), its
        artifacts here become unreachable through any featurisation call and
        would otherwise accumulate for the life of the process.  Values still
        referenced elsewhere simply re-intern on next use, so eviction can
        never change results — only recomputation counts.
        """
        dropped = 0
        for value in values:
            for store in (self._features, self._embeddings, self._vectors):
                if store.pop(value, None) is not None:
                    dropped += 1
        return dropped

    def size(self) -> int:
        """Total number of interned entries across all stores."""
        return len(self._features) + len(self._embeddings) + len(self._vectors)

    def clear(self) -> None:
        """Drop all interned artifacts (counters are left intact)."""
        self._features.clear()
        self._embeddings.clear()
        self._vectors.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (interned artifacts are left intact)."""
        self.hits = 0
        self.misses = 0
