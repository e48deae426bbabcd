"""Strict model loading: every corrupt field raises ModelFormatError."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tracesvm import (
    ModelArtifact,
    ModelFormatError,
    SgdConfig,
    SyscallTrace,
    fit_transform,
    load_model,
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
