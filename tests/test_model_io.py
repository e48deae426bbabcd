"""The model file: the writer against its oracle, and strict loading, where
every corrupt field raises ModelFormatError."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import canonical_text
from tracesvm import (
    IdfModel,
    LinearModel,
    ModelArtifact,
    ModelFormatError,
    SgdConfig,
    SyscallTrace,
    TraceSvmError,
    VersionMismatchError,
    Vocabulary,
    fit_transform,
    load_model,
    model_io,
    save_model,
    train_sgd,
)

CALLS = ("nta", "ntb", "ntc", "nta", "ntd", "ntb", "nta", "ntc")


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory):
    corpus = [
        SyscallTrace("m", CALLS, "malicious"),
        SyscallTrace("b", CALLS[::-1], "benign"),
        SyscallTrace("c", CALLS[2:], "benign"),
    ]
    vocab, idf, matrix = fit_transform(corpus, 1, 2)
    model = train_sgd(matrix, np.array([1, -1, -1]), SgdConfig(alpha=1e-2, epochs=5))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(ModelArtifact(model=model, vocabulary=vocab, idf=idf), path)
    doc = json.loads(path.read_text())
    assert len(doc["weights"]) >= 3
    return path, doc


def write_doc(tmp_path, doc):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def test_save_load_save_is_byte_identical(model_doc, tmp_path):
    path, _ = model_doc
    out = tmp_path / "resaved.json"
    save_model(load_model(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_unedited_document_loads(model_doc, tmp_path):
    path, doc = model_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(doc["vocabulary"])
    assert np.count_nonzero(artifact.model.weights) == len(doc["weights"])


def edit_weights(doc, edit):
    weights = [list(p) for p in doc["weights"]]
    edit(weights)
    return {**doc, "weights": weights}


def _set_first_index(value):
    def edit(weights):
        weights[0][0] = value
    return edit


def _swap_first_two(weights):
    weights[0], weights[1] = weights[1], weights[0]


def _repeat_first_index(weights):
    weights[1][0] = weights[0][0]


def _set_first_value(value):
    def edit(weights):
        weights[0][1] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set_first_index(-1),
        _set_first_index(10**6),
        _set_first_index(0.5),
        lambda w: w.__setitem__(0, "12"),
        _swap_first_two,
        _repeat_first_index,
        _set_first_value(float("nan")),
        _set_first_value(float("inf")),
        lambda w: w[0].append(1.0),
        lambda w: w.append(5),
    ],
    ids=[
        "index-minus-one", "index-out-of-range", "index-not-integer", "pair-is-string",
        "indices-unsorted", "index-duplicated", "value-nan", "value-inf",
        "triple-not-pair", "bare-number",
    ],
)
def test_bad_weights_rejected(model_doc, tmp_path, edit):
    _, doc = model_doc
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, edit_weights(doc, edit)))


def test_duplicate_vocabulary_entry_rejected(model_doc, tmp_path):
    _, doc = model_doc
    vocab = list(doc["vocabulary"])
    vocab[1] = vocab[0]
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, "vocabulary": vocab}))


def test_unsorted_vocabulary_rejected(model_doc, tmp_path):
    _, doc = model_doc
    vocab = list(doc["vocabulary"])
    vocab[0], vocab[1] = vocab[1], vocab[0]
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, "vocabulary": vocab}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400, [0.5]])
def test_bad_bias_rejected(model_doc, tmp_path, value):
    _, doc = model_doc
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, "bias": value}))


@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_non_finite_idf_rejected(model_doc, tmp_path, value):
    _, doc = model_doc
    idf = list(doc["idf"])
    idf[0] = value
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, "idf": idf}))


def test_idf_of_wrong_shape_rejected(model_doc, tmp_path):
    _, doc = model_doc
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, "idf": [[v] for v in doc["idf"]]}))


@pytest.mark.parametrize(
    "field, make",
    [
        ("vocabulary", lambda doc: dict.fromkeys(doc["vocabulary"], 0)),
        ("vocabulary", lambda doc: "abcdefghijklmnopqrstuvwxyz"[: len(doc["vocabulary"])]),
        ("ngram_min", lambda doc: 1.9),
        ("n_docs", lambda doc: "200"),
        ("n_docs", lambda doc: -3),
        ("n_docs", lambda doc: 0),
        ("bias", lambda doc: True),
        ("idf", lambda doc: [True, *doc["idf"][1:]]),
        ("config", lambda doc: [["alpha", 0.01]]),
        ("weights", lambda doc: [[True, 0.5]]),
        ("weights", lambda doc: [[0, False]]),
    ],
    ids=[
        "vocabulary-object", "vocabulary-string", "ngram_min-float", "n_docs-string",
        "n_docs-negative", "n_docs-zero", "bias-true", "idf-true", "config-pairs",
        "weight-index-true", "weight-value-false",
    ],
)
def test_field_of_wrong_json_type_rejected(model_doc, tmp_path, field, make):
    _, doc = model_doc
    with pytest.raises(ModelFormatError):
        load_model(write_doc(tmp_path, {**doc, field: make(doc)}))


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_version_must_be_the_integer_one(model_doc, tmp_path, version):
    _, doc = model_doc
    with pytest.raises(VersionMismatchError):
        load_model(write_doc(tmp_path, {**doc, "format_version": version}))


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"a": ' * 100_000, "1" * 5000], ids=["deep-list", "deep-object", "long-integer"]
)
def test_undecodable_text_rejected(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(path)


# --- the writer against canonical_text, with blocks of BLOCK items ----------

BLOCK = 4
NAMES = st.sampled_from(["nta", 'q"uote', "back\\slash", "del\x7f", "caf\u00e9", "clef\U0001d11e"])
NUMBERS = st.sampled_from([5e-324, 1e16, 1.5e300, -1e-7]) | st.floats(allow_nan=False, allow_infinity=False)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


def make_artifact(grams, weights, idf, n_min=1, n_max=3, bias=0.25, config=None):
    metadata = {"trainer": "sgd", **(config or {})}
    return ModelArtifact(
        model=LinearModel(
            weights=np.array(weights, dtype=np.float64), bias=bias, dim=len(grams), metadata=metadata
        ),
        vocabulary=Vocabulary(grams, n_min, n_max),
        idf=IdfModel(idf=np.array(idf, dtype=np.float64), n_docs=7),
    )


@st.composite
def artifacts(draw):
    n_min = draw(st.integers(1, 3))
    n_max = draw(st.integers(n_min, 3))
    gram = st.lists(NAMES, min_size=n_min, max_size=n_max).map(" ".join)
    grams = sorted(draw(st.lists(gram, unique=True, max_size=2 * BLOCK + 1)))
    dim = len(grams)
    return make_artifact(
        grams,
        weights=draw(st.lists(st.just(0.0) | NUMBERS, min_size=dim, max_size=dim)),
        idf=draw(st.lists(NUMBERS, min_size=dim, max_size=dim)),
        n_min=n_min,
        n_max=n_max,
        bias=draw(NUMBERS),
        config=draw(st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3)),
    )


def _grams(n):
    return [f"nt{i:02d}" for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(artifacts())
@example(make_artifact(["nta"], [0.0], [1.5e300]))
@example(make_artifact(["nta"], [5e-324], [-1e-7], n_max=1))
@example(make_artifact(_grams(2 * BLOCK + 1), [0.0] * (2 * BLOCK + 1), [1e16] * (2 * BLOCK + 1)))
@example(make_artifact(_grams(BLOCK - 1), [1.0] * (BLOCK - 1), [2.0] * (BLOCK - 1)))
@example(make_artifact(_grams(BLOCK), [1.0] * BLOCK, [2.0] * BLOCK))
@example(make_artifact(_grams(BLOCK + 1), [1.0] * (BLOCK + 1), [2.0] * (BLOCK + 1)))
@example(make_artifact(_grams(0), [], []))
def test_save_writes_the_canonical_text(artifact):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(model_io, "_BLOCK_ITEMS", BLOCK):
        path = Path(tmp) / "model.json"
        save_model(artifact, path)
        assert path.read_bytes() == canonical_text(artifact).encode("utf-8")


def test_trained_model_writes_the_canonical_text(model_doc):
    path, _ = model_doc
    assert path.read_bytes() == canonical_text(load_model(path)).encode("utf-8")


# --- fuzzing the load boundary ----------------------------------------------

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


FIELDS = (
    "bias", "config", "created_by", "format_version", "idf", "n_docs",
    "ngram_max", "ngram_min", "trainer", "vocabulary", "weights",
)


def load_or_raise(path):
    """load_model either returns an artifact or raises a TraceSvmError."""
    try:
        load_model(path)
    except TraceSvmError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300) | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
def test_any_bytes_load_or_raise_a_tracesvm_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(data)
        load_or_raise(path)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_any_value_of_one_field_loads_or_raises_a_tracesvm_error(model_doc, field, value):
    _, doc = model_doc
    assert set(doc) == set(FIELDS)
    with tempfile.TemporaryDirectory() as tmp:
        load_or_raise(write_doc(Path(tmp), {**doc, field: value}))
