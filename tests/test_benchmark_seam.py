"""The benchmark's tracer (perfbench/tracing.py) still fits the package.

The tracer wraps module attributes from outside the package and reads
results by shape, so a refactor that renames a wrapped function or stops
calling it through the module globals would break a traced benchmark run
without failing any other test.  The tracer is imported here read-only.
The last test runs the CLI under the tracer and checks the counts it reads
through ``FeatureMatrix.rows`` against the CSR arrays.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from tracesvm import (
    SplitSpec,
    SyscallTrace,
    cli,
    count_matrix,
    fit_transform,
    load_corpus,
    read_manifest,
    train_test_split,
    transform,
)

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


def test_cli_span_counts_match_csr_arrays(tracing, tmp_path):
    # The tracer reads its counts through FeatureMatrix.rows; the expected
    # values come from the CSR arrays of untraced reruns.
    corpus_dir = tmp_path / "corpus"
    flags = ["--n-traces", "30", "--len-min", "12", "--len-max", "16", "--seed", "9"]
    assert cli.main(["gen-corpus", *flags, "--output-dir", str(corpus_dir)]) == 0
    manifest = str(corpus_dir / "manifest.csv")
    dual_model = str(tmp_path / "dual.json")
    runs = {
        "train-sgd": ["train", "--output", str(tmp_path / "sgd.json")],
        "train-dual": ["train", "--trainer", "dual-cd", "--output", dual_model],
        "evaluate": ["evaluate", "--model", dual_model],
        "grid": [
            "grid-search", "--trainer", "dual-cd", "--alpha-grid", "1.0",
            "--tol-grid", "1e-3", "--output", str(tmp_path / "grid.csv"),
        ],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op_id, argv in runs.items():
            tracer.op_id = op_id
            assert cli.main([*argv, "--manifest", manifest]) == 0
    finally:
        tracer.uninstall()

    corpus = load_corpus(read_manifest(manifest))
    train, val = train_test_split(corpus, SplitSpec())
    vocab, idf, fitted = fit_transform(corpus, 8, 10)
    grid_vocab, grid_idf, grid_fitted = fit_transform(train, 8, 10)

    def counts(op_id, name):
        return [s.counts for s in tracer.spans if s.op_id == op_id and s.name == name]

    def hits(traces, vocabulary):
        return int(count_matrix(traces, vocabulary).data.sum())

    # op: (matrix fitted, count_matrix hits in call order, matrices scored)
    expected = {
        "train-sgd": (fitted, [hits(corpus, vocab)], [fitted]),
        "train-dual": (fitted, [hits(corpus, vocab)], [fitted]),
        "evaluate": (None, [hits(corpus, vocab)], [transform(corpus, vocab, idf)]),
        "grid": (
            grid_fitted,
            [hits(train, grid_vocab), hits(val, grid_vocab)],
            [transform(val, grid_vocab, grid_idf)],
        ),
    }
    for op_id, (matrix, hit_counts, scored) in expected.items():
        fit_counts = [(c["dim"], c["nnz"]) for c in counts(op_id, "vectorize.fit_transform")]
        assert fit_counts == ([] if matrix is None else [(matrix.dim, matrix.indices.size)])
        assert [c["hits"] for c in counts(op_id, "vectorize.count_matrix")] == hit_counts
        rows = [c["rows"] for c in counts(op_id, "linear_model.decision_many")]
        assert rows == [len(m.indptr) - 1 for m in scored]
    for op_id, matrix in (("train-dual", fitted), ("grid", grid_fitted)):
        (dual,) = counts(op_id, "dual_cd.train_dual_cd")
        active = np.count_nonzero(np.diff(matrix.indptr))
        assert dual["updates"] == dual["sweeps"] * active > 0
