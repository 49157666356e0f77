"""Span tracing from the benchmark's side of the program's public entry points.

A traced run wraps each entry point in :data:`TRACE_POINTS` where its caller
looks the name up: a module-level function is replaced in the namespace of
the module that calls it (the featurizer binds
``memoized_levenshtein_similarity`` at import, so that binding is the one
wrapped), a method on its class.  Every wrapped call records one span: id,
name, start, end, parent span and request label.  Spans are kept in
per-thread buffers while the run lasts and written out when it ends.

Nesting is tracked per thread, so a span's parent is the innermost open span
of the same thread.  Work the serving layer's dispatcher thread does for
several requests at once therefore has no parent and no request; attributing
it needs tracing inside the program.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

#: Request label of spans that belong to no request (dispatcher-thread work).
NO_REQUEST = None


def _serve_request_label(args: tuple) -> object:
    """``ExplanationService._execute(self, item)``: the item's request id."""
    return args[1].request.request_id


#: (module, class or None, attribute, span name, request labeller).
TRACE_POINTS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("repro.models.featurizer", None, "memoized_levenshtein_similarity", "text.levenshtein", None),
    ("repro.models.featurizer", None, "memoized_monge_elkan", "text.monge_elkan", None),
    ("repro.text.similarity", None, "memoized_jaro_winkler", "text.jaro_winkler", None),
    ("repro.models.base", "ERModel", "featurize", "models.featurize", None),
    ("repro.models.base", "ERModel", "predict_proba", "models.predict", None),
    ("repro.models.engine", "PredictionEngine", "predict_proba", "models.engine", None),
    ("repro.certa.explainer", "CertaExplainer", "explain_full", "certa.explain", None),
    ("repro.certa.explainer", None, "find_open_triangles", "certa.triangles", None),
    ("repro.certa.explainer", None, "explore_lattices", "certa.lattice", None),
    ("repro.certa.explainer", None, "explore_lattice", "certa.lattice", None),
    ("repro.data.indexing", "SourceTokenIndex", "top_k", "data.index.top_k", None),
    ("repro.data.indexing", "SourceTokenIndex", "ensure_fresh", "data.index.ensure_fresh", None),
    ("repro.data.indexing", None, "changed_pairs", "data.index.changed_pairs", None),
    ("repro.data.table", "DataSource", "add", "data.table.mutate", None),
    ("repro.data.table", "DataSource", "update", "data.table.mutate", None),
    ("repro.data.table", "DataSource", "remove", "data.table.mutate", None),
    ("repro.serve.scheduler", "FrontierScheduler", "predict_proba", "serve.frontier_wait", None),
    ("repro.serve.service", "ExplanationService", "_execute", "serve.request", _serve_request_label),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int  # 0 = root
    request: object = NO_REQUEST


class _ThreadBuffer:
    """One thread's open-span stack and finished spans (column arrays)."""

    __slots__ = ("stack", "request", "ids", "parents", "codes", "starts", "ends", "requests")

    def __init__(self) -> None:
        self.stack: list[tuple[int, object]] = []
        self.request: object = NO_REQUEST
        self.ids = array("q")
        self.parents = array("q")
        self.codes = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.requests: list[object] = []


class Tracer:
    """Installs span-recording wrappers and collects what they record."""

    def __init__(self) -> None:
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._buffers_lock = threading.Lock()
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        """Wrap every trace point that exists in this version of the program."""
        self.missing = []
        for module_name, class_name, attribute, span_name, labeller in TRACE_POINTS:
            owner: object = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            if owner is None or not hasattr(owner, attribute):
                self.missing.append(f"{module_name}.{class_name or ''}.{attribute}")
                continue
            self.wrap(owner, attribute, span_name, labeller)

    def wrap(self, owner: object, attribute: str, span_name: str, labeller=None) -> None:
        own = isinstance(owner, type) and attribute in owner.__dict__
        original = owner.__dict__[attribute] if own else getattr(owner, attribute)
        if span_name not in self._names:
            self._names.append(span_name)
        code = self._names.index(span_name)
        setattr(owner, attribute, self._traced(original, code, labeller))
        self._patches.append((owner, attribute, original, own or not isinstance(owner, type)))

    def uninstall(self) -> None:
        for owner, attribute, original, restore in reversed(self._patches):
            if restore:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    def _buffer(self) -> _ThreadBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _ThreadBuffer()
            self._local.buffer = buffer
            with self._buffers_lock:
                self._buffers.append(buffer)
        return buffer

    def set_request(self, label: object) -> None:
        """Label the calling thread's next root spans with ``label``."""
        self._buffer().request = label

    def _traced(self, original, code: int, labeller):
        tracer = self
        clock = time.perf_counter
        next_id = self._ids.__next__

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            buffer = tracer._buffer()
            stack = buffer.stack
            span_id = next_id()
            if stack:
                parent, request = stack[-1]
            else:
                parent, request = 0, buffer.request
            if labeller is not None:
                request = labeller(args)
            stack.append((span_id, request))
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buffer.ids.append(span_id)
                buffer.parents.append(parent)
                buffer.codes.append(code)
                buffer.starts.append(start)
                buffer.ends.append(end)
                buffer.requests.append(request)

        traced.__wrapped__ = original
        return traced

    # ------------------------------------------------------------- reading

    def columns(self) -> "SpanColumns":
        with self._buffers_lock:
            buffers = list(self._buffers)

        def column(field: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(buffer, field), dtype=dtype) for buffer in buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        return SpanColumns(
            ids=column("ids", np.int64),
            parents=column("parents", np.int64),
            codes=column("codes", np.int32),
            starts=column("starts", np.float64),
            ends=column("ends", np.float64),
            requests=[request for buffer in buffers for request in buffer.requests],
            names=list(self._names),
        )


@dataclass
class SpanColumns:
    """All recorded spans as parallel columns (one row per span)."""

    ids: np.ndarray
    parents: np.ndarray
    codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    requests: list
    names: list[str]

    @classmethod
    def from_spans(cls, spans: Sequence[Span]) -> "SpanColumns":
        names = sorted({span.name for span in spans})
        return cls(
            ids=np.array([span.span_id for span in spans], dtype=np.int64),
            parents=np.array([span.parent for span in spans], dtype=np.int64),
            codes=np.array([names.index(span.name) for span in spans], dtype=np.int32),
            starts=np.array([span.start for span in spans], dtype=np.float64),
            ends=np.array([span.end for span in spans], dtype=np.float64),
            requests=[span.request for span in spans],
            names=names,
        )

    def __len__(self) -> int:
        return int(self.ids.size)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self), dtype=bool)
        return self.codes == self.names.index(name)

    def parent_positions(self) -> np.ndarray:
        """Row of each span's parent, or -1 for roots and unknown parents."""
        order = np.argsort(self.ids, kind="stable")
        sorted_ids = self.ids[order]
        found = np.searchsorted(sorted_ids, self.parents)
        found = np.clip(found, 0, max(len(self) - 1, 0))
        positions = np.full(len(self), -1, dtype=np.int64)
        if len(self):
            hit = (self.parents != 0) & (sorted_ids[found] == self.parents)
            positions[hit] = order[found[hit]]
        return positions

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the part of it its direct children cover."""
        durations = self.ends - self.starts
        parents = self.parent_positions()
        covered = np.zeros(len(self))
        child = parents >= 0
        if child.any():
            parent_rows = parents[child]
            overlap = np.minimum(self.ends[child], self.ends[parent_rows]) - np.maximum(
                self.starts[child], self.starts[parent_rows]
            )
            np.add.at(covered, parent_rows, np.clip(overlap, 0.0, None))
        return np.clip(durations - covered, 0.0, None)

    def stage_gaps(self, root: str = "certa.explain") -> np.ndarray:
        """Per ``root`` span: the share of its wall time no child span covers."""
        rows = self.mask(root)
        durations = (self.ends - self.starts)[rows]
        selfs = self.self_times()[rows]
        return np.divide(selfs, durations, out=np.zeros_like(selfs), where=durations > 0)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, summed self seconds, summed inclusive seconds)."""
        selfs = self.self_times()
        durations = self.ends - self.starts
        result: dict[str, tuple[int, float, float]] = {}
        for code, name in enumerate(self.names):
            rows = self.codes == code
            result[name] = (int(rows.sum()), float(selfs[rows].sum()), float(durations[rows].sum()))
        return result

    def inclusive_by_request(self, name: str) -> dict[object, float]:
        """Summed inclusive seconds of ``name`` spans per request label."""
        durations = self.ends - self.starts
        result: dict[object, float] = defaultdict(float)
        for row in np.flatnonzero(self.mask(name)):
            result[self.requests[row]] += float(durations[row])
        return dict(result)

    def save(self, path: Path) -> None:
        """Write the spans to ``path`` (compressed numpy archive)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        labels = np.array([str(request) for request in self.requests])
        np.savez_compressed(
            path,
            ids=self.ids,
            parents=self.parents,
            codes=self.codes,
            starts=self.starts,
            ends=self.ends,
            requests=labels,
            names=np.array(self.names),
        )
