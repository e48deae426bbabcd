"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

The tracer wraps module attributes from outside the package and reads
results by shape, so a refactor that renames a wrapped function or stops
calling it through the module globals would break a traced benchmark run
without failing any other test.  The tracer is imported here read-only.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from tracesvm import SyscallTrace, cli

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_every_wrapped_attribute_exists(tracing):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.BOUNDARIES
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_vectorize_spans_nest(tracing):
    calls = ("nta", "ntb", "nta", "ntc", "ntb", "nta")
    corpus = [
        SyscallTrace("a", calls, "malicious"),
        SyscallTrace("b", calls[::-1], "benign"),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        vocab, idf, _ = cli.fit_transform(corpus, 1, 2)
        cli.transform(corpus + [SyscallTrace("c", ("ntz", "nta"), "benign")], vocab, idf)
    finally:
        tracer.uninstall()
    by_id = {s.span_id: s for s in tracer.spans}

    def children(name):
        (parent,) = [s for s in tracer.spans if s.name == name]
        return [s.name for s in tracer.spans if s.parent_id == parent.span_id]

    fit_children = children("vectorize.fit_transform")
    assert "vectorize.build_vocabulary" in fit_children
    assert "vectorize.count_matrix" in fit_children
    assert "vectorize.count_matrix" in children("vectorize.transform")
    for s in tracer.spans:
        if s.name == "vectorize.count_matrix":
            assert by_id[s.parent_id].name in ("vectorize.fit_transform", "vectorize.transform")
            assert 0 < s.counts["hits"] <= s.counts["windows"]
