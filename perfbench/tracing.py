"""In-memory spans recorded at tracesvm module boundaries, from outside the package.

Nothing under ``src/`` is modified.  Instead, while a ``Tracer`` is
installed, the names that one tracesvm module imported from another (for
example ``tracesvm.cli.fit_transform``) are replaced by wrappers that open a
span around the original function.  Python resolves module globals at call
time, so the unmodified code then runs through the wrappers; uninstalling
restores the originals.

A span has a name ``<layer>.<function>``, a start and end time, the id of the
span that caused it and the id of the operation (one CLI invocation) it
belongs to.  Counts measured on a call's arguments and result are attached
to its span after the span has closed.  The time they take is taken out of
every span still open and added to ``Tracer.count_seconds``, so it inflates
neither a span nor a parent's self time.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

from tracesvm import cli, linear_model, selection, vectorize


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: str
    name: str
    start: float
    end: float = 0.0
    excluded: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


def _windows(corpus, n_min, n_max) -> int:
    return sum(max(0, len(t.calls) - n + 1) for t in corpus for n in range(n_min, n_max + 1))


def _count_load_corpus(args, kwargs, corpus):
    manifest = args[0]
    return {
        "traces": len(corpus),
        "calls": sum(len(t.calls) for t in corpus),
        "bytes": sum(os.path.getsize(p) for p, _ in manifest.entries),
    }


def _count_fit_transform(args, kwargs, result):
    corpus, n_min, n_max = args[0], args[1], args[2]
    matrix = result[2]
    return {"dim": matrix.dim, "nnz": matrix.nnz, "windows": _windows(corpus, n_min, n_max)}


def _count_count_matrix(args, kwargs, matrix):
    corpus, vocab = args[0], args[1]
    return {
        "windows": _windows(corpus, vocab.n_min, vocab.n_max),
        "hits": int(sum(float(r.values.sum()) for r in matrix.rows)),
    }


def _count_sgd(args, kwargs, model):
    return {
        "epochs": model.metadata["epochs_run"],
        "steps": model.metadata["epochs_run"] * len(args[0]),
        "nonzero_weights": int((model.weights != 0.0).sum()),
    }


def _count_dual(args, kwargs, model):
    active = sum(1 for r in args[0].rows if r.nnz > 0)
    return {
        "sweeps": model.metadata["outer_iters"],
        "updates": model.metadata["outer_iters"] * active,
        "nonconverged": 0 if model.metadata["converged"] else 1,
    }


def _count_grid(args, kwargs, result):
    return {"cells": len(result.table)}


def _count_save(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _count_rows(args, kwargs, result):
    return {"rows": len(args[1])}


_EVALUATION_IN_CLI = (
    "accuracy_score",
    "confusion",
    "classification_report",
    "format_report_text",
    "roc_curve",
    "write_report_csv",
    "write_roc_csv",
)
# (module, attribute, span name, count function).  Each attribute is a name
# the module imported from another tracesvm module, or a same-module helper
# that a traced function calls through the module globals.
BOUNDARIES = (
    (cli, "read_manifest", "ingest.read_manifest", None),
    (cli, "load_corpus", "ingest.load_corpus", _count_load_corpus),
    (cli, "fit_transform", "vectorize.fit_transform", _count_fit_transform),
    (cli, "transform", "vectorize.transform", None),
    (vectorize, "build_vocabulary", "vectorize.build_vocabulary", None),
    (vectorize, "count_matrix", "vectorize.count_matrix", _count_count_matrix),
    (vectorize, "fit_idf", "vectorize.fit_idf", None),
    (vectorize, "tfidf_transform", "vectorize.tfidf_transform", None),
    (vectorize, "normalize_matrix", "vectorize.normalize_matrix", None),
    (cli, "train_sgd", "sgd.train_sgd", _count_sgd),
    (cli, "train_dual_cd", "dual_cd.train_dual_cd", _count_dual),
    (selection, "train_sgd", "sgd.train_sgd", _count_sgd),
    (selection, "train_dual_cd", "dual_cd.train_dual_cd", _count_dual),
    (cli, "train_test_split", "selection.train_test_split", None),
    (cli, "grid_search", "selection.grid_search", _count_grid),
    (cli, "write_grid_csv", "selection.write_grid_csv", None),
    (cli, "predict_many", "linear_model.predict_many", None),
    (selection, "predict_many", "linear_model.predict_many", None),
    (cli, "decision_many", "linear_model.decision_many", _count_rows),
    (linear_model, "decision_many", "linear_model.decision_many", _count_rows),
    (cli, "save_model", "model_io.save_model", _count_save),
    (cli, "load_model", "model_io.load_model", None),
) + tuple((cli, name, f"evaluation.{name}", None) for name in _EVALUATION_IN_CLI)


class Tracer:
    """Collects spans in memory; ``install`` wraps the module boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []
        self.op_id = ""
        self.count_seconds = 0.0

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is span, "spans must close in LIFO order"

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                started = time.perf_counter()
                span.counts = count(args, kwargs, result)
                spent = time.perf_counter() - started
                self.count_seconds += spent
                for ancestor in self._stack:
                    ancestor.excluded += spent
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in BOUNDARIES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent_id is not None:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.seconds
    return {s.span_id: s.seconds - child_time.get(s.span_id, 0.0) for s in spans}


def coverage(spans: list[Span], root: Span) -> float:
    """Share of the root span's wall time covered by its direct children."""
    covered = sum(s.seconds for s in spans if s.parent_id == root.span_id)
    return covered / root.seconds if root.seconds > 0 else 0.0
