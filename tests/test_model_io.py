"""The model file: the writer against its oracle, and strict loading, where
every corrupt field raises ModelFormatError.

``train`` writes format v4.  Formats v1, v2 and v3 are still read; their
documents here come from ``canonical_text_v1``, ``canonical_text_v2`` and
``canonical_text_v3``, as the writers that made them are gone, and from
``data/model_v2.json`` and ``data/model_v3.json``, which the last v2 and v3
writers saved.  v3's and v4's integer fields take the narrowest width that
holds their largest possible value: the round trips at each width's edge
cover uint8, uint16 and uint32, and the fault suite's wide document has all
four of v3's at uint16.
"""

from __future__ import annotations

import base64
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    canonical_text,
    canonical_text_v1,
    canonical_text_v2,
    canonical_text_v3,
    front_code,
    grams,
    vocabulary_of,
)
from tracesvm import (
    ConfigError,
    GeneratorConfig,
    IdfModel,
    LinearModel,
    ModelArtifact,
    ModelFormatError,
    SgdConfig,
    SyscallTrace,
    TraceSvmError,
    VersionMismatchError,
    Vocabulary,
    build_vocabulary,
    decision_many,
    fit_transform,
    generate,
    load_model,
    save_model,
    train_sgd,
    transform,
)

CALLS = ("nta", "ntb", "ntc", "nta", "ntd", "ntb", "nta", "ntc")
CORPUS = [
    SyscallTrace("m", CALLS, "malicious"),
    SyscallTrace("b", CALLS[::-1], "benign"),
    SyscallTrace("c", CALLS[2:], "benign"),
]


@pytest.fixture(scope="module")
def trained():
    vocab, idf, matrix = fit_transform(CORPUS, 1, 2)
    model = train_sgd(matrix, np.array([1, -1, -1]), SgdConfig(alpha=1e-2, epochs=5))
    return ModelArtifact(model=model, vocabulary=vocab, idf=idf)


@pytest.fixture(scope="module")
def v4_doc(tmp_path_factory, trained):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(trained, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 4
    assert len(unpack(doc, "weight_index")) >= 3
    return path, doc


@pytest.fixture(scope="module")
def v3_doc(tmp_path_factory, trained):
    """A v3 model file."""
    path = tmp_path_factory.mktemp("model") / "model_v3.json"
    path.write_text(canonical_text_v3(trained))
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert len(unpack(doc, "weight_index")) >= 3
    return path, doc


@pytest.fixture(scope="module")
def v2_doc(tmp_path_factory, trained):
    """A v2 model file."""
    path = tmp_path_factory.mktemp("model") / "model_v2.json"
    path.write_text(canonical_text_v2(trained))
    doc = json.loads(path.read_text())
    assert len(unpack(doc, "weight_index")) >= 3
    return path, doc


@pytest.fixture(scope="module")
def model_doc(tmp_path_factory, trained):
    """A v1 model file."""
    path = tmp_path_factory.mktemp("model") / "model_v1.json"
    path.write_text(canonical_text_v1(trained))
    doc = json.loads(path.read_text())
    assert len(doc["weights"]) >= 3
    return path, doc


def write_doc(tmp_path, doc):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


# The dtypes of the v2, v3 and v4 arrays; v2's vocabulary is one row of ids
# per n-gram.  Each of v3's and v4's integer fields is as wide as its largest
# possible value needs: ngram_max for the lengths, the alphabet size for the
# ids and the table's last position for an index into a table.  v2's and
# v3's weight_index holds columns as uint32; v4's, positions in weight_table.
DTYPES = {
    "vocabulary": ">u4", "idf": "<f8", "idf_table": "<f8", "weight_bitmap": "<u1",
    "weight_table": "<f8", "weight_value": "<f8",
}


def dtype_of(doc, key):
    if key in DTYPES:
        return DTYPES[key]
    largest = {
        "vocabulary_prefix": lambda: doc["ngram_max"],
        "vocabulary_suffix_len": lambda: doc["ngram_max"],
        "vocabulary_suffix": lambda: len(doc["alphabet"]),
        "idf_index": lambda: len(unpack(doc, "idf_table")) - 1,
        "weight_index": lambda: len(unpack(doc, "weight_table")) - 1 if "weight_table" in (doc or {}) else 2**32 - 1,
    }[key]()
    return "<u1" if largest <= 0xFF else "<u2" if largest <= 0xFFFF else "<u4"


def unpack(doc, key):
    values = np.frombuffer(base64.b64decode(doc[key]), dtype=dtype_of(doc, key)).copy()
    return values.reshape(-1, doc["ngram_max"]) if key == "vocabulary" else values


def pack(values, key, doc=None):
    return base64.b64encode(np.asarray(values, dtype=dtype_of(doc, key)).tobytes()).decode("ascii")


def test_save_load_save_is_byte_identical(v4_doc, tmp_path):
    path, _ = v4_doc
    out = tmp_path / "resaved.json"
    save_model(load_model(path), out)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_file_resaves_as_the_v4_file(model_doc, v2_doc, v3_doc, v4_doc, tmp_path, version):
    path, _ = {1: model_doc, 2: v2_doc, 3: v3_doc}[version]
    out = tmp_path / "resaved.json"
    save_model(load_model(path), out)
    assert out.read_bytes() == v4_doc[0].read_bytes()


def test_unedited_document_loads(model_doc, v2_doc, v3_doc, v4_doc, tmp_path):
    _, doc = model_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(doc["vocabulary"])
    assert np.count_nonzero(artifact.model.weights) == len(doc["weights"])
    _, doc = v2_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(unpack(doc, "vocabulary")) == len(unpack(doc, "idf"))
    assert np.count_nonzero(artifact.model.weights) == len(unpack(doc, "weight_value"))
    _, doc = v3_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(unpack(doc, "vocabulary_prefix")) == len(unpack(doc, "idf_index"))
    assert np.count_nonzero(artifact.model.weights) == len(unpack(doc, "weight_value"))
    _, doc = v4_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(unpack(doc, "vocabulary_prefix")) == len(unpack(doc, "idf_index"))
    assert np.count_nonzero(artifact.model.weights) == len(unpack(doc, "weight_index"))


def test_v1_file_loads_and_scores_as_its_source(trained, model_doc):
    path, _ = model_doc
    loaded = load_model(path)
    assert grams(loaded.vocabulary) == grams(trained.vocabulary)
    assert loaded.vocabulary.alphabet == trained.vocabulary.alphabet
    assert loaded.vocabulary.keys.tobytes() == trained.vocabulary.keys.tobytes()
    assert loaded.idf.idf.tobytes() == trained.idf.idf.tobytes()
    assert loaded.model.weights.tobytes() == trained.model.weights.tobytes()
    assert loaded.model.bias == trained.model.bias
    assert loaded.model.metadata == trained.model.metadata
    corpus = CORPUS + [SyscallTrace("n", ("ntb", "nta", "nte", "ntc", "ntd"), "benign")]
    expected = decision_many(trained.model, transform(corpus, trained.vocabulary, trained.idf))
    scores = decision_many(loaded.model, transform(corpus, loaded.vocabulary, loaded.idf))
    assert scores.tobytes() == expected.tobytes()


def test_committed_v2_file_loads_scores_and_resaves_to_the_same_bits(tmp_path):
    """``data/model_v2.json`` is the v2 writer's file for 8 generated traces of
    10-14 calls (generator seed 21), n-grams of 2-3 calls and SGD with alpha
    1e-3 for 5 epochs."""
    path = Path(__file__).parent / "data" / "model_v2.json"
    assert json.loads(path.read_text())["format_version"] == 2
    loaded = load_model(path)
    assert canonical_text_v2(loaded) == path.read_text()
    out = tmp_path / "model.json"
    save_model(loaded, out)
    assert out.read_text() == canonical_text(loaded)
    resaved = load_model(out)
    assert resaved.vocabulary.alphabet == loaded.vocabulary.alphabet
    assert resaved.vocabulary.n_min == loaded.vocabulary.n_min
    assert resaved.vocabulary.keys.shape == loaded.vocabulary.keys.shape
    assert resaved.vocabulary.keys.tobytes() == loaded.vocabulary.keys.tobytes()
    assert resaved.idf.idf.tobytes() == loaded.idf.idf.tobytes() and resaved.idf.n_docs == loaded.idf.n_docs
    assert resaved.model.weights.tobytes() == loaded.model.weights.tobytes()
    assert resaved.model.bias == loaded.model.bias and resaved.model.metadata == loaded.model.metadata
    for seed in (21, 22):  # the training corpus, then a fresh one
        corpus = generate(GeneratorConfig(n_traces=8, trace_len_range=(10, 14), seed=seed))
        scores = decision_many(loaded.model, transform(corpus, loaded.vocabulary, loaded.idf))
        again = decision_many(resaved.model, transform(corpus, resaved.vocabulary, resaved.idf))
        assert again.tobytes() == scores.tobytes()
        if seed == 21:
            assert [s >= 0 for s in scores] == [t.label == "malicious" for t in corpus]


def test_committed_v3_file_loads_scores_and_resaves_to_the_same_bits(tmp_path):
    """``data/model_v3.json`` is the v3 writer's file for the training run
    of ``data/model_v2.json``."""
    path = Path(__file__).parent / "data" / "model_v3.json"
    assert json.loads(path.read_text())["format_version"] == 3
    loaded = load_model(path)
    assert canonical_text_v3(loaded) == path.read_text()
    out = tmp_path / "model.json"
    save_model(loaded, out)
    assert out.read_text() == canonical_text(loaded)
    resaved = load_model(out)
    assert resaved.vocabulary.alphabet == loaded.vocabulary.alphabet
    assert resaved.vocabulary.n_min == loaded.vocabulary.n_min
    assert resaved.vocabulary.keys.tobytes() == loaded.vocabulary.keys.tobytes()
    assert resaved.idf.idf.tobytes() == loaded.idf.idf.tobytes() and resaved.idf.n_docs == loaded.idf.n_docs
    assert resaved.model.weights.tobytes() == loaded.model.weights.tobytes()
    assert resaved.model.bias == loaded.model.bias and resaved.model.metadata == loaded.model.metadata
    again = tmp_path / "again.json"
    save_model(resaved, again)
    assert again.read_bytes() == out.read_bytes()
    v2 = load_model(path.with_name("model_v2.json"))
    assert v2.model.weights.tobytes() == loaded.model.weights.tobytes()
    for seed in (21, 22):  # the training corpus, then a fresh one
        corpus = generate(GeneratorConfig(n_traces=8, trace_len_range=(10, 14), seed=seed))
        scores = decision_many(loaded.model, transform(corpus, loaded.vocabulary, loaded.idf))
        from_v4 = decision_many(resaved.model, transform(corpus, resaved.vocabulary, resaved.idf))
        assert from_v4.tobytes() == scores.tobytes()


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


# --- v2 load faults, one test each -----------------------------------------

ARRAYS = ("vocabulary", "idf", "weight_index", "weight_value")


def load_edited(tmp_path, doc, **fields):
    return load_model(write_doc(tmp_path, {**doc, **fields}))


@pytest.mark.parametrize("field", ARRAYS)
@pytest.mark.parametrize("value", [[1, 2], 12, None], ids=["list", "number", "null"])
def test_v2_array_that_is_not_a_string_rejected(v2_doc, tmp_path, field, value):
    _, doc = v2_doc
    with pytest.raises(ModelFormatError, match=field):
        load_edited(tmp_path, doc, **{field: value})


@pytest.mark.parametrize("field", ARRAYS)
@pytest.mark.parametrize(
    "mangle",
    [lambda t: t[:-1], lambda t: "!" + t[1:], lambda t: t[:4] + "\n" + t[4:], lambda t: "\u00e9" + t[1:]],
    ids=["bad-padding", "bad-character", "newline", "non-ascii"],
)
def test_v2_array_that_is_not_base64_rejected(v2_doc, tmp_path, field, mangle):
    _, doc = v2_doc
    with pytest.raises(ModelFormatError, match=f"{field} is not valid base64"):
        load_edited(tmp_path, doc, **{field: mangle(doc[field])})


def _with_bytes(doc, field, edit):
    return {field: base64.b64encode(edit(base64.b64decode(doc[field]))).decode("ascii")}


@pytest.mark.parametrize(
    "field, edit",
    [
        ("vocabulary", lambda b: b + b"\0\0\0\0"),
        ("vocabulary", lambda b: b[:-4]),
        ("idf", lambda b: b[:-8]),
        ("idf", lambda b: b + b"\0"),
        ("weight_index", lambda b: b + b"\0\0"),
        ("weight_index", lambda b: b[:-4]),
        ("weight_value", lambda b: b[:-8]),
        ("weight_value", lambda b: b + bytes(8)),
    ],
    ids=[
        "vocabulary-extra-id", "vocabulary-id-short", "idf-item-short", "idf-odd-byte",
        "weight_index-part-item", "weight_index-item-short", "weight_value-item-short",
        "weight_value-item-extra",
    ],
)
def test_v2_byte_length_mismatch_rejected(v2_doc, tmp_path, field, edit):
    _, doc = v2_doc
    # One index fewer is found as a weight_value of the wrong length.
    with pytest.raises(ModelFormatError, match=field.replace("index", "(index|value)")):
        load_edited(tmp_path, doc, **_with_bytes(doc, field, edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda a: a[::-1],
        lambda a: [a[0], *a],
        lambda a: ["", *a],
        lambda a: [*a, "nt z"],
        lambda a: [*a, "ntz\x1f"],
        lambda a: [*a, 7],
    ],
    ids=["unsorted", "duplicate", "empty-name", "space-in-name", "control-character", "not-a-string"],
)
def test_v2_bad_alphabet_rejected(v2_doc, tmp_path, edit):
    _, doc = v2_doc
    with pytest.raises(ModelFormatError, match="alphabet"):
        load_edited(tmp_path, doc, alphabet=edit(list(doc["alphabet"])))


def _edit_ids(doc, edit):
    ids = unpack(doc, "vocabulary")
    edit(ids)
    return {"vocabulary": pack(ids, "vocabulary")}


def test_v2_id_above_the_alphabet_rejected(v2_doc, tmp_path):
    _, doc = v2_doc
    edit = _edit_ids(doc, lambda ids: ids.__setitem__((-1, 0), len(doc["alphabet"]) + 1))
    with pytest.raises(ModelFormatError, match="above the alphabet size"):
        load_edited(tmp_path, doc, **edit)


def test_v2_gram_shorter_than_ngram_min_rejected(v2_doc, tmp_path):
    _, doc = v2_doc
    ids = unpack(doc, "vocabulary")
    assert doc["ngram_min"] == 1 and np.all(ids[:, 0] != 0)
    # Every gram of length 1 is now shorter than ngram_min 2; so is an all-0 key.
    with pytest.raises(ModelFormatError, match="shorter than ngram_min"):
        load_edited(tmp_path, doc, ngram_min=2)
    with pytest.raises(ModelFormatError, match="shorter than ngram_min"):
        load_edited(tmp_path, doc, **_edit_ids(doc, lambda ids: ids.__setitem__(0, 0)))


def test_v2_id_after_padding_rejected(v2_doc, tmp_path):
    _, doc = v2_doc
    ids = unpack(doc, "vocabulary")
    (row,) = np.flatnonzero(ids[:, 1] == 0)[-1:]  # the last unigram
    wide = np.zeros((ids.shape[0], 3), dtype=np.uint32)
    wide[:, :2] = ids
    wide[row, 2] = 1  # a unigram, then 0, then an id
    fields = {"ngram_max": 3, "vocabulary": pack(wide, "vocabulary")}
    with pytest.raises(ModelFormatError, match="after its padding"):
        load_edited(tmp_path, doc, **fields)


@pytest.mark.parametrize(
    "edit",
    [lambda ids: ids.__setitem__(slice(0, 2), ids[1::-1].copy()), lambda ids: ids.__setitem__(1, ids[0])],
    ids=["swapped", "duplicated"],
)
def test_v2_keys_not_strictly_increasing_rejected(v2_doc, tmp_path, edit):
    _, doc = v2_doc
    with pytest.raises(ModelFormatError, match="sorted and unique"):
        load_edited(tmp_path, doc, **_edit_ids(doc, edit))


@pytest.mark.parametrize("field", ["idf", "weight_value"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_v2_non_finite_value_rejected(v2_doc, tmp_path, field, value):
    _, doc = v2_doc
    values = unpack(doc, field)
    values[1] = value
    with pytest.raises(ModelFormatError, match="idf|weight values"):
        load_edited(tmp_path, doc, **{field: pack(values, field)})


@pytest.mark.parametrize(
    "edit",
    [
        lambda i, dim: i.__setitem__(slice(0, 2), i[1::-1].copy()),
        lambda i, dim: i.__setitem__(1, i[0]),
        lambda i, dim: i.__setitem__(-1, dim),
        lambda i, dim: i.__setitem__(-1, 2**32 - 1),
    ],
    ids=["unsorted", "duplicated", "index-equal-to-dim", "index-max-uint32"],
)
def test_v2_bad_weight_index_rejected(v2_doc, tmp_path, edit):
    _, doc = v2_doc
    index = unpack(doc, "weight_index")
    edit(index, len(unpack(doc, "idf")))
    with pytest.raises(ModelFormatError, match="weight indices"):
        load_edited(tmp_path, doc, weight_index=pack(index, "weight_index"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("bias", float("nan")),
        ("bias", True),
        ("n_docs", 0),
        ("n_docs", 2.0),
        ("config", [["alpha", 0.01]]),
        ("ngram_min", 0),
        ("ngram_min", 3),
        ("ngram_max", 1001),
        ("ngram_min", True),
    ],
    ids=[
        "bias-nan", "bias-true", "n_docs-zero", "n_docs-float", "config-pairs",
        "ngram_min-zero", "ngram_min-above-max", "ngram_max-above-limit", "ngram_min-true",
    ],
)
def test_v2_bad_small_field_rejected(v2_doc, tmp_path, field, value):
    _, doc = v2_doc
    with pytest.raises(ModelFormatError):
        load_edited(tmp_path, doc, **{field: value})


@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), [1.0, float("inf")]], ids=["inf", "-inf", "nan", "nested"]
)
def test_non_finite_config_number_rejected(model_doc, v2_doc, v3_doc, v4_doc, tmp_path, version, value):
    _, doc = {1: model_doc, 2: v2_doc, 3: v3_doc, 4: v4_doc}[version]
    with pytest.raises(ModelFormatError, match="config holds a non-finite number"):
        load_edited(tmp_path, doc, config={**doc["config"], "alpha": value})


# load_model puts the top-level trainer into the metadata, so a trainer in
# config would be dropped and the file would load as another trainer.
@pytest.mark.parametrize("version", [1, 2, 3, 4])
@pytest.mark.parametrize("trainer", ["dual-cd", "sgd", None])
def test_config_holding_a_trainer_rejected(model_doc, v2_doc, v3_doc, v4_doc, tmp_path, version, trainer):
    _, doc = {1: model_doc, 2: v2_doc, 3: v3_doc, 4: v4_doc}[version]
    assert doc["trainer"] == "sgd"
    with pytest.raises(ModelFormatError, match="config holds a 'trainer' key"):
        load_edited(tmp_path, doc, config={**doc["config"], "trainer": trainer})


# A v2 document that claims format 3 or 4 lacks their fields: ModelFormatError.
@pytest.mark.parametrize("version", [True, 2.0, 5, 0])
def test_v2_format_version_must_be_the_integer_two(v2_doc, tmp_path, version):
    _, doc = v2_doc
    with pytest.raises(VersionMismatchError):
        load_edited(tmp_path, doc, format_version=version)


def test_v2_arrays_load_native_and_writable(v2_doc, v3_doc, v4_doc):
    path, _ = v2_doc
    artifact = load_model(path)
    v1_path = path.with_name("model_v1.json")
    v1_path.write_text(canonical_text_v1(artifact))
    for loaded in (artifact, load_model(v1_path), load_model(v3_doc[0]), load_model(v4_doc[0])):
        for array in (loaded.idf.idf, loaded.model.weights, loaded.vocabulary.keys):
            assert array.flags.writeable
        assert loaded.idf.idf.dtype == np.float64 and loaded.idf.idf.dtype.isnative
        vocab = loaded.vocabulary
        keys = vocab.keys
        assert keys.dtype == np.uint32 and keys.dtype.isnative and keys.flags.c_contiguous
        assert keys.shape == (len(vocab), vocab.n_max) == (len(vocab), 2)


# --- v3 load faults, one test each -----------------------------------------

ARRAYS_V3 = (
    "idf_index", "idf_table", "vocabulary_prefix", "vocabulary_suffix",
    "vocabulary_suffix_len", "weight_index", "weight_value",
)
# v3's integer fields, each as wide as the value that bounds it.
NARROW_V3 = ("idf_index", "vocabulary_prefix", "vocabulary_suffix", "vocabulary_suffix_len")


@pytest.fixture(scope="module")
def wide_doc(tmp_path_factory):
    """A v3 file whose integer fields are all uint16: 300 names, ngram_max 256
    and 301 distinct idf values."""
    names = _grams(300)
    strings = [names[0], f"{names[0]} {names[1]}", *names[1:]]
    artifact = make_artifact(
        strings, [k % 3 - 1.0 for k in range(301)], [k / 8 for k in range(301)], n_max=256
    )
    path = tmp_path_factory.mktemp("model") / "wide.json"
    path.write_text(canonical_text_v3(artifact))
    doc = json.loads(path.read_text())
    assert {dtype_of(doc, field) for field in NARROW_V3} == {"<u2"}
    return path, doc


@pytest.mark.parametrize("field", ARRAYS_V3)
@pytest.mark.parametrize("value", [[1, 2], 12, None], ids=["list", "number", "null"])
def test_v3_array_that_is_not_a_string_rejected(v3_doc, tmp_path, field, value):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match=rf"{field}\b must be str"):
        load_edited(tmp_path, doc, **{field: value})


@pytest.mark.parametrize("field", ARRAYS_V3)
@pytest.mark.parametrize(
    "mangle",
    [lambda t: t[:-1], lambda t: "!" + t[1:], lambda t: t[:4] + "\n" + t[4:], lambda t: "\u00e9" + t[1:]],
    ids=["bad-padding", "bad-character", "newline", "non-ascii"],
)
def test_v3_array_that_is_not_base64_rejected(v3_doc, tmp_path, field, mangle):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match=f"{field} is not valid base64"):
        load_edited(tmp_path, doc, **{field: mangle(doc[field])})


@pytest.mark.parametrize(
    "field, edit",
    [
        ("idf_index", lambda b: b + b"\0"),
        ("idf_table", lambda b: b[:-1]),
        ("vocabulary_prefix", lambda b: b + b"\0"),
        ("vocabulary_suffix", lambda b: b[:-1]),
        ("vocabulary_suffix_len", lambda b: b + b"\0"),
        ("weight_index", lambda b: b + b"\0\0"),
        ("weight_value", lambda b: b[:-4]),
    ],
    ids=[
        "idf_index-odd-byte", "idf_table-item-short", "prefix-odd-byte", "suffix-odd-byte",
        "suffix_len-odd-byte", "weight_index-part-item", "weight_value-part-item",
    ],
)
def test_v3_byte_length_not_whole_items_rejected(wide_doc, tmp_path, field, edit):
    _, doc = wide_doc
    with pytest.raises(ModelFormatError, match=rf"{field}\b holds \d+ bytes, not"):
        load_edited(tmp_path, doc, **_with_bytes(doc, field, edit))


@pytest.mark.parametrize(
    "field, edit, named",
    [
        ("idf_index", lambda b: b[:-1], "idf_index"),
        ("idf_index", lambda b: b + b"\0", "idf_index"),
        ("vocabulary_suffix_len", lambda b: b[:-1], "vocabulary_suffix_len"),
        # One prefix more is found as suffix lengths of the wrong count.
        ("vocabulary_prefix", lambda b: b + b"\0", "vocabulary_suffix_len"),
        ("weight_value", lambda b: b[:-8], "weight_value"),
    ],
    ids=["idf_index-short", "idf_index-extra", "suffix_len-short", "prefix-extra", "weight_value-short"],
)
def test_v3_item_count_mismatch_rejected(v3_doc, tmp_path, field, edit, named):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match=rf"{named}\b holds \d+ bytes, not \d+ items"):
        load_edited(tmp_path, doc, **_with_bytes(doc, field, edit))


def _front_coding_edit(doc, edit):
    """The v3 vocabulary fields after ``edit(prefix, suffix_len, suffixes)``
    of the per-n-gram lists, ``suffixes`` holding each n-gram's own ids."""
    prefix = unpack(doc, "vocabulary_prefix").tolist()
    added = unpack(doc, "vocabulary_suffix_len").tolist()
    ids = unpack(doc, "vocabulary_suffix").tolist()
    starts = np.cumsum([0, *added]).tolist()
    suffixes = [ids[a:b] for a, b in zip(starts, starts[1:])]
    edit(prefix, added, suffixes)
    return {
        "vocabulary_prefix": pack(prefix, "vocabulary_prefix", doc),
        "vocabulary_suffix_len": pack(added, "vocabulary_suffix_len", doc),
        "vocabulary_suffix": pack([i for s in suffixes for i in s], "vocabulary_suffix", doc),
    }


def _share_one_id_more(prefix, added, suffixes):
    # The first n-gram that extends the one before it takes one id less of
    # its own and claims one more of the previous n-gram's, which has none.
    i = next(i for i in range(1, len(prefix)) if prefix[i] == prefix[i - 1] + added[i - 1])
    prefix[i] += 1
    added[i] -= 1
    suffixes[i] = suffixes[i][1:]


def _one_id_past_ngram_max(prefix, added, suffixes):
    # An n-gram of ngram_max ids, not the last, gets one more; the lengths
    # still add up, and the next n-gram's prefix still fits.
    i = next(i for i in range(len(prefix) - 1) if prefix[i] + added[i] == 2)
    added[i] += 1
    suffixes[i] = [*suffixes[i], 1]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p, n, s: p.__setitem__(0, 1), "vocabulary_prefix: the first n-gram's prefix is not 0"),
        (_share_one_id_more, "vocabulary_prefix: an n-gram shares more ids than the n-gram before it holds"),
        (_one_id_past_ngram_max, "vocabulary_suffix_len: an n-gram is longer than ngram_max 2"),
    ],
    ids=["first-prefix-not-zero", "prefix-longer-than-previous", "longer-than-ngram_max"],
)
def test_v3_bad_front_coding_rejected(v3_doc, tmp_path, edit, message):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match=message):
        load_edited(tmp_path, doc, **_front_coding_edit(doc, edit))


@pytest.fixture(scope="module")
def wide_v4_doc(tmp_path_factory):
    """A v4 file of 1- to 4-grams, whose rows share 0 to 4 leading ids."""
    vocab, idf, matrix = fit_transform(CORPUS, 1, 4)
    model = train_sgd(matrix, np.array([1, -1, -1]), SgdConfig(alpha=1e-2, epochs=5))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(ModelArtifact(model=model, vocabulary=vocab, idf=idf), path)
    return path, json.loads(path.read_text())


def _front_coded(doc, rows, prefix):
    """The vocabulary fields of the id lists ``rows`` stored with ``prefix``."""
    return {
        "vocabulary_prefix": pack(prefix, "vocabulary_prefix", doc),
        "vocabulary_suffix_len": pack([len(r) - p for r, p in zip(rows, prefix)], "vocabulary_suffix_len", doc),
        "vocabulary_suffix": pack([i for r, p in zip(rows, prefix) for i in r[p:]], "vocabulary_suffix", doc),
    }


@pytest.mark.parametrize(
    "shorten", [lambda p: 0, lambda p: p - 1, lambda p: p // 2], ids=["none", "one-less", "half"]
)
def test_v4_stored_prefix_shorter_than_the_shared_one_loads(wide_v4_doc, tmp_path, shorten):
    # save_model never writes such a file, but it is a valid front coding:
    # the loader checks key order from the stored prefix, and where a row
    # ties the one above there, from the prefix the two really share.
    path, doc = wide_v4_doc
    keys = load_model(path).vocabulary.keys
    rows = [_ids(row) for row in keys.tolist()]
    shared, _, _ = front_code(rows)
    assert max(shared) >= 3
    prefix = [max(0, shorten(p)) for p in shared]
    loaded = load_edited(tmp_path, doc, **_front_coded(doc, rows, prefix))
    assert loaded.vocabulary.keys.tobytes() == keys.tobytes()
    assert loaded.idf.idf.tobytes() == load_model(path).idf.idf.tobytes()


@pytest.mark.parametrize("length", [2, 4], ids=["shorter-than-ngram_max", "ngram_max"])
def test_v4_row_repeating_the_one_above_with_no_suffix_rejected(wide_v4_doc, tmp_path, length):
    # The repeat's stored prefix is the whole row above; at ngram_max ids
    # that is every column, and the order check must not read past the row.
    path, doc = wide_v4_doc
    rows = [_ids(row) for row in load_model(path).vocabulary.keys.tolist()]
    i = next(i for i, r in enumerate(rows) if len(r) == length)
    rows.insert(i + 1, rows[i])
    prefix, added, _ = front_code(rows)
    assert (prefix[i + 1], added[i + 1]) == (length, 0)
    with pytest.raises(ModelFormatError, match="sorted and unique"):
        load_edited(tmp_path, doc, **_front_coded(doc, rows, prefix))


@pytest.mark.parametrize(
    "edit", [lambda b: b + b"\x01", lambda b: b[:-1]], ids=["extra-id", "missing-id"]
)
def test_v3_suffix_of_the_wrong_length_rejected(v3_doc, tmp_path, edit):
    _, doc = v3_doc
    message = r"vocabulary_suffix holds \d+ ids, not the \d+ of vocabulary_suffix_len"
    with pytest.raises(ModelFormatError, match=message):
        load_edited(tmp_path, doc, **_with_bytes(doc, "vocabulary_suffix", edit))


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("value", ["table-length", 255])
def test_v3_idf_index_past_the_table_rejected(v3_doc, tmp_path, position, value):
    _, doc = v3_doc
    index = unpack(doc, "idf_index")
    index[position] = len(unpack(doc, "idf_table")) if value == "table-length" else value
    with pytest.raises(ModelFormatError, match="idf_index: an entry is not below the idf_table length"):
        load_edited(tmp_path, doc, idf_index=pack(index, "idf_index", doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["used", "unused"])
def test_v3_non_finite_idf_table_entry_rejected(v3_doc, tmp_path, value, where):
    _, doc = v3_doc
    table = unpack(doc, "idf_table")
    if where == "used":
        table[0] = value
    else:  # an entry no n-gram's index points at
        table = np.append(table, value)
    with pytest.raises(ModelFormatError, match="idf_table holds a non-finite value"):
        load_edited(tmp_path, doc, idf_table=pack(table, "idf_table"))


def _keys_edit(v3_doc, edit, n_max=2):
    """The v3 vocabulary fields of the file's keys, widened to ``n_max``
    columns, after ``edit(keys)``, front-coded by the oracle."""
    path, doc = v3_doc
    loaded = load_model(path).vocabulary.keys
    keys = np.zeros((len(loaded), n_max), dtype=np.uint32)
    keys[:, : loaded.shape[1]] = loaded
    edit(keys)
    prefix, added, suffix = front_code([_ids(row) for row in keys.tolist()])
    widths = {**doc, "ngram_max": n_max}
    return {
        "vocabulary_prefix": pack(prefix, "vocabulary_prefix", widths),
        "vocabulary_suffix_len": pack(added, "vocabulary_suffix_len", widths),
        "vocabulary_suffix": pack(suffix, "vocabulary_suffix", widths),
    }


def _ids(row):
    """A key row's ids up to its last nonzero one."""
    while row and row[-1] == 0:
        row = row[:-1]
    return row


def test_v3_id_above_the_alphabet_rejected(v3_doc, tmp_path):
    _, doc = v3_doc
    edit = _keys_edit(v3_doc, lambda keys: keys.__setitem__((-1, 0), len(doc["alphabet"]) + 1))
    with pytest.raises(ModelFormatError, match="above the alphabet size"):
        load_edited(tmp_path, doc, **edit)


def test_v3_gram_shorter_than_ngram_min_rejected(v3_doc, tmp_path):
    _, doc = v3_doc
    assert doc["ngram_min"] == 1
    # Every gram of length 1 is now shorter than ngram_min 2; so is an all-0 key.
    with pytest.raises(ModelFormatError, match="shorter than ngram_min"):
        load_edited(tmp_path, doc, ngram_min=2)
    with pytest.raises(ModelFormatError, match="shorter than ngram_min"):
        load_edited(tmp_path, doc, **_keys_edit(v3_doc, lambda keys: keys.__setitem__(0, 0)))


def test_v3_id_after_padding_rejected(v3_doc, tmp_path):
    _, doc = v3_doc

    def edit(keys):
        (row,) = np.flatnonzero(keys[:, 1] == 0)[-1:]  # the last unigram
        keys[row, 2] = 1  # a unigram, then 0, then an id

    fields = {"ngram_max": 3, **_keys_edit(v3_doc, edit, n_max=3)}
    with pytest.raises(ModelFormatError, match="after its padding"):
        load_edited(tmp_path, doc, **fields)


@pytest.mark.parametrize(
    "edit",
    [
        lambda keys: keys.__setitem__(slice(0, 2), keys[1::-1].copy()),
        lambda keys: keys.__setitem__(1, keys[0]),
    ],
    ids=["swapped", "duplicated"],
)
def test_v3_keys_not_strictly_increasing_rejected(v3_doc, tmp_path, edit):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match="sorted and unique"):
        load_edited(tmp_path, doc, **_keys_edit(v3_doc, edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda a: a[::-1],
        lambda a: [a[0], *a],
        lambda a: ["", *a],
        lambda a: [*a, "nt z"],
        lambda a: [*a, "ntz\x1f"],
        lambda a: [*a, 7],
    ],
    ids=["unsorted", "duplicate", "empty-name", "space-in-name", "control-character", "not-a-string"],
)
def test_v3_bad_alphabet_rejected(v3_doc, tmp_path, edit):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError, match="alphabet"):
        load_edited(tmp_path, doc, alphabet=edit(list(doc["alphabet"])))


# Call names drawn from any characters, weighted toward the edges of the
# rule: empty names, U+0000-U+0020 and the first characters above them,
# and non-ASCII ones, among them U+0085, U+00A0 and U+2028.
CALL_NAMES = st.text(
    st.characters(max_codepoint=0x2FFF) | st.sampled_from("\x00\t\x1f !\x7f\x85\xa0\xe9\u2028"), max_size=3
)


@settings(max_examples=150, deadline=None)
@given(calls=st.lists(CALL_NAMES, min_size=1, max_size=6))
def test_every_vocabulary_the_fit_accepts_saves_and_loads(calls):
    try:
        vocab = build_vocabulary([SyscallTrace("t", tuple(calls), "benign")], 1, 2)
    except ConfigError:
        assert any(not name or min(name) <= " " for name in calls)
        return
    assert all(name and min(name) > " " for name in calls)
    model = LinearModel(weights=np.zeros(len(vocab)), bias=0.0, metadata={"trainer": "sgd"})
    artifact = ModelArtifact(model=model, vocabulary=vocab, idf=IdfModel(idf=np.ones(len(vocab)), n_docs=1))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(artifact, Path(tmp) / "model.json")
        loaded = load_model(Path(tmp) / "model.json").vocabulary
    assert loaded.alphabet == vocab.alphabet
    assert loaded.keys.dtype == vocab.keys.dtype and np.array_equal(loaded.keys, vocab.keys)


@pytest.mark.parametrize(
    "edit",
    [
        lambda i, dim: i.__setitem__(slice(0, 2), i[1::-1].copy()),
        lambda i, dim: i.__setitem__(1, i[0]),
        lambda i, dim: i.__setitem__(-1, dim),
        lambda i, dim: i.__setitem__(-1, 2**32 - 1),
    ],
    ids=["unsorted", "duplicated", "index-equal-to-dim", "index-max-uint32"],
)
def test_v3_bad_weight_index_rejected(v3_doc, tmp_path, edit):
    _, doc = v3_doc
    index = unpack(doc, "weight_index")
    edit(index, len(unpack(doc, "idf_index")))
    with pytest.raises(ModelFormatError, match="weight indices"):
        load_edited(tmp_path, doc, weight_index=pack(index, "weight_index"))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_v3_non_finite_weight_rejected(v3_doc, tmp_path, value):
    _, doc = v3_doc
    values = unpack(doc, "weight_value")
    values[1] = value
    with pytest.raises(ModelFormatError, match="weight values"):
        load_edited(tmp_path, doc, weight_value=pack(values, "weight_value"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("bias", float("nan")),
        ("bias", True),
        ("n_docs", 0),
        ("n_docs", 2.0),
        ("config", [["alpha", 0.01]]),
        ("ngram_min", 0),
        ("ngram_min", 3),
        ("ngram_max", 1001),
        ("ngram_min", True),
    ],
    ids=[
        "bias-nan", "bias-true", "n_docs-zero", "n_docs-float", "config-pairs",
        "ngram_min-zero", "ngram_min-above-max", "ngram_max-above-limit", "ngram_min-true",
    ],
)
def test_v3_bad_small_field_rejected(v3_doc, tmp_path, field, value):
    _, doc = v3_doc
    with pytest.raises(ModelFormatError):
        load_edited(tmp_path, doc, **{field: value})


# A v3 document that claims format 4 lacks v4's fields: ModelFormatError.
@pytest.mark.parametrize("version", [True, 3.0, 5, 0])
def test_v3_format_version_must_be_the_integer_three(v3_doc, tmp_path, version):
    _, doc = v3_doc
    with pytest.raises(VersionMismatchError):
        load_edited(tmp_path, doc, format_version=version)


# --- v4 load faults, one test each -----------------------------------------

# v4's weight fields; the rest are v3's, which the v3 faults above cover.
ARRAYS_V4 = ("weight_bitmap", "weight_index", "weight_table")


@pytest.mark.parametrize("field", ARRAYS_V4)
@pytest.mark.parametrize("value", [[1, 2], 12, None], ids=["list", "number", "null"])
def test_v4_array_that_is_not_a_string_rejected(v4_doc, tmp_path, field, value):
    _, doc = v4_doc
    with pytest.raises(ModelFormatError, match=rf"{field}\b must be str"):
        load_edited(tmp_path, doc, **{field: value})


@pytest.mark.parametrize("field", ARRAYS_V4)
@pytest.mark.parametrize(
    "mangle",
    [lambda t: t[:-1], lambda t: "!" + t[1:], lambda t: t[:4] + "\n" + t[4:], lambda t: "\u00e9" + t[1:]],
    ids=["bad-padding", "bad-character", "newline", "non-ascii"],
)
def test_v4_array_that_is_not_base64_rejected(v4_doc, tmp_path, field, mangle):
    _, doc = v4_doc
    with pytest.raises(ModelFormatError, match=f"{field} is not valid base64"):
        load_edited(tmp_path, doc, **{field: mangle(doc[field])})


@pytest.mark.parametrize(
    "edit", [lambda b: b + b"\0", lambda b: b[:-1]], ids=["extra-byte", "missing-byte"]
)
def test_v4_bitmap_of_the_wrong_byte_length_rejected(v4_doc, tmp_path, edit):
    _, doc = v4_doc
    with pytest.raises(ModelFormatError, match=r"weight_bitmap holds \d+ bytes, not \d+ items of 1 bytes"):
        load_edited(tmp_path, doc, **_with_bytes(doc, "weight_bitmap", edit))


def test_v4_set_padding_bit_rejected(v4_doc, tmp_path):
    _, doc = v4_doc
    dim = len(unpack(doc, "idf_index"))
    assert dim % 8
    bitmap = unpack(doc, "weight_bitmap")
    bitmap[-1] |= 0x80  # the last byte's top bit lies past the last column
    with pytest.raises(ModelFormatError, match=f"weight_bitmap: a bit at or past the vocabulary size {dim} is set"):
        load_edited(tmp_path, doc, weight_bitmap=pack(bitmap, "weight_bitmap"))


@pytest.mark.parametrize("change", ["set", "clear"])
def test_v4_set_bits_that_do_not_match_the_index_rejected(v4_doc, tmp_path, change):
    _, doc = v4_doc
    bits = np.unpackbits(unpack(doc, "weight_bitmap"), bitorder="little")
    dim = len(unpack(doc, "idf_index"))
    bits[np.flatnonzero(bits[:dim] == (change == "clear"))[0]] ^= 1
    bitmap = np.packbits(bits, bitorder="little")
    with pytest.raises(ModelFormatError, match=r"weight_index holds \d+ bytes, not \d+ items of 1 bytes"):
        load_edited(tmp_path, doc, weight_bitmap=pack(bitmap, "weight_bitmap"))


@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("value", ["table-length", 255])
def test_v4_weight_index_past_the_table_rejected(v4_doc, tmp_path, position, value):
    _, doc = v4_doc
    index = unpack(doc, "weight_index")
    index[position] = len(unpack(doc, "weight_table")) if value == "table-length" else value
    with pytest.raises(ModelFormatError, match="weight_index: an entry is not below the weight_table length"):
        load_edited(tmp_path, doc, weight_index=pack(index, "weight_index", doc))


def _table_edit(doc, value, where):
    table = unpack(doc, "weight_table")
    if where == "used":
        table[0] = value
    else:  # an entry no weight's index points at
        table = np.append(table, value)
    return {"weight_table": pack(table, "weight_table")}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["used", "unused"])
def test_v4_non_finite_weight_table_entry_rejected(v4_doc, tmp_path, value, where):
    _, doc = v4_doc
    with pytest.raises(ModelFormatError, match="weight_table holds a non-finite value"):
        load_edited(tmp_path, doc, **_table_edit(doc, value, where))


@pytest.mark.parametrize("value", [0.0, -0.0])
@pytest.mark.parametrize("where", ["used", "unused"])
def test_v4_zero_weight_table_entry_rejected(v4_doc, tmp_path, value, where):
    _, doc = v4_doc
    with pytest.raises(ModelFormatError, match="weight_table holds a zero"):
        load_edited(tmp_path, doc, **_table_edit(doc, value, where))


@pytest.mark.parametrize("version", [True, 4.0, 5, 0])
def test_v4_format_version_must_be_the_integer_four(v4_doc, tmp_path, version):
    _, doc = v4_doc
    with pytest.raises(VersionMismatchError):
        load_edited(tmp_path, doc, format_version=version)


# --- the writer against canonical_text --------------------------------------

NAMES = st.sampled_from(["nta", 'q"uote', "back\\slash", "del\x7f", "caf\u00e9", "clef\U0001d11e"])
NUMBERS = st.sampled_from([5e-324, 1e16, 1.5e300, -1e-7]) | st.floats(allow_nan=False, allow_infinity=False)
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
# A config holds only what JSON can write: save_model refuses a non-finite number.
CONFIG_SCALARS = st.none() | st.booleans() | st.integers() | NUMBERS | st.text(max_size=6)


def make_artifact(strings, weights, idf, n_min=1, n_max=3, bias=0.25, config=None):
    metadata = {"trainer": "sgd", **(config or {})}
    return ModelArtifact(
        model=LinearModel(
            weights=np.array(weights, dtype=np.float64), bias=bias, metadata=metadata
        ),
        vocabulary=vocabulary_of(strings, n_min, n_max),
        idf=IdfModel(idf=np.array(idf, dtype=np.float64), n_docs=7),
    )


@st.composite
def artifacts(draw):
    n_min = draw(st.integers(1, 3))
    n_max = draw(st.integers(n_min, 3))
    gram = st.lists(NAMES, min_size=n_min, max_size=n_max).map(" ".join)
    strings = sorted(draw(st.lists(gram, unique=True, max_size=9)))
    dim = len(strings)
    return make_artifact(
        strings,
        weights=draw(st.lists(st.just(0.0) | st.just(-0.0) | NUMBERS, min_size=dim, max_size=dim)),
        idf=draw(st.lists(NUMBERS, min_size=dim, max_size=dim)),
        n_min=n_min,
        n_max=n_max,
        bias=draw(NUMBERS),
        config=draw(st.dictionaries(st.text(max_size=6), CONFIG_SCALARS, max_size=3)),
    )


def _grams(n):
    return [f"nt{i:03d}" for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(artifacts())
@example(make_artifact(["nta"], [0.0], [1.5e300]))
@example(make_artifact(["nta"], [5e-324], [-1e-7], n_max=1))
@example(make_artifact(_grams(9), [0.0] * 9, [1e16] * 9))
@example(make_artifact(_grams(3), [1.0] * 3, [2.0] * 3))
@example(make_artifact(_grams(0), [], []))
# The idf table keeps bits: -0.0 beside 0.0, and subnormals.
@example(make_artifact(_grams(2), [1.0, 0.0], [0.0, -0.0]))
@example(make_artifact(_grams(4), [1.0] * 4, [5e-324, -5e-324, 1e-310, 5e-324]))
# 256 distinct idf values index as uint8, 257 as uint16.
@example(make_artifact(_grams(256), [0.5] * 256, [i / 4 for i in range(256)]))
@example(make_artifact(_grams(257), [0.5] * 257, [i / 4 for i in range(257)]))
# The weight table: -0.0 is absent, subnormals are kept, 8 and 9 columns.
@example(make_artifact(_grams(8), [-0.0, 5e-324, 0.0, -5e-324, 1.0, 0.0, 0.0, 1.0], [1.0] * 8))
@example(make_artifact(_grams(9), [-0.0] * 8 + [2.0], [1.0] * 9))
def test_save_writes_the_canonical_text(artifact):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(artifact, path)
        assert path.read_bytes() == canonical_text(artifact).encode("utf-8")
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == canonical_text(artifact).encode("utf-8")
        # The v1, v2 and v3 texts of the same artifact load to the same strings and bits.
        path.write_text(canonical_text_v1(artifact))
        from_v1 = load_model(path)
        path.write_text(canonical_text_v2(artifact))
        from_v2 = load_model(path)
        path.write_text(canonical_text_v3(artifact))
        from_v3 = load_model(path)
    for other in (loaded, from_v1, from_v2, from_v3):
        assert other.vocabulary.alphabet == artifact.vocabulary.alphabet
        assert other.vocabulary.keys.tobytes() == artifact.vocabulary.keys.tobytes()
        assert other.idf.idf.tobytes() == artifact.idf.idf.tobytes()
        assert other.model.weights.tobytes() == (artifact.model.weights + 0.0).tobytes()


@pytest.mark.parametrize("value", [float("inf"), float("nan"), {"nested": float("-inf")}])
def test_save_refuses_a_non_finite_config_number(tmp_path, value):
    artifact = make_artifact(["nta"], [1.0], [2.0], config={"alpha": value})
    with pytest.raises(ValueError):
        save_model(artifact, tmp_path / "model.json")


def test_trained_model_writes_the_canonical_text(v4_doc):
    path, _ = v4_doc
    assert path.read_bytes() == canonical_text(load_model(path)).encode("utf-8")


def _edge_artifact(n_names, n_max, n_idf):
    """Unigrams of every name but the second, the first name 2 to n_max times
    over, the second n_max times, and ``n_idf`` distinct idf values."""
    names = [f"nt{i:05d}" for i in range(n_names)]
    strings = [" ".join(names[:1] * k) for k in range(1, n_max + 1)]
    strings += [" ".join(names[1:2] * n_max), *names[2:]]
    dim = len(strings)
    weights, idf = [k % 3 - 1.0 for k in range(dim)], [k % n_idf / 4 for k in range(dim)]
    return make_artifact(strings, weights, idf, n_max=n_max)


@pytest.mark.parametrize(
    "n_names, n_max, n_idf, widths",
    [
        (255, 2, 5, (1, 1, 1)),
        (256, 2, 5, (1, 2, 1)),
        (65535, 2, 5, (1, 2, 1)),
        (65536, 2, 5, (1, 4, 1)),
        (3, 255, 5, (1, 1, 1)),
        (3, 256, 5, (2, 1, 1)),
        (300, 2, 256, (1, 2, 1)),
        (300, 2, 257, (1, 2, 2)),
    ],
    ids=[
        "255-names", "256-names", "65535-names", "65536-names",
        "ngram_max-255", "ngram_max-256", "256-idf-values", "257-idf-values",
    ],
)
def test_round_trip_at_each_width_edge(tmp_path, n_names, n_max, n_idf, widths):
    """Byte widths of (prefix and suffix lengths, suffix ids, idf index)."""
    artifact = _edge_artifact(n_names, n_max, n_idf)
    path = tmp_path / "model.json"
    save_model(artifact, path)
    text = path.read_bytes()
    assert text == canonical_text(artifact).encode("utf-8")
    doc = json.loads(text)
    dim = len(artifact.vocabulary)
    n_ids = dim + n_max - 1  # one own id a row, and n_max for the second name's row
    lengths, ids, index = widths
    size = {field: len(base64.b64decode(doc[field])) for field in (*NARROW_V3, "idf_table")}
    assert size["vocabulary_prefix"] == size["vocabulary_suffix_len"] == dim * lengths
    assert size["vocabulary_suffix"] == n_ids * ids
    assert size["idf_index"] == dim * index and size["idf_table"] == 8 * n_idf
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == text
    assert loaded.vocabulary.keys.tobytes() == artifact.vocabulary.keys.tobytes()
    assert loaded.idf.idf.tobytes() == artifact.idf.idf.tobytes()
    assert loaded.model.weights.tobytes() == artifact.model.weights.tobytes()


@pytest.mark.parametrize("n_values, width", [(256, 1), (257, 2), (65536, 2), (65537, 4)])
def test_weight_index_width_at_each_edge(tmp_path, n_values, width):
    """``n_values`` distinct weights, one of them twice, and a 0.0 and a -0.0 among them."""
    values = [(k + 1) / 8 * (-1) ** k for k in range(n_values)]
    weights = [values[0], 0.0, *values[1:], -0.0, values[0]]
    dim = len(weights)
    artifact = make_artifact([f"nt{i:06d}" for i in range(dim)], weights, [1.0] * dim)
    path = tmp_path / "model.json"
    save_model(artifact, path)
    text = path.read_bytes()
    assert text == canonical_text(artifact).encode("utf-8")
    doc = json.loads(text)
    size = {field: len(base64.b64decode(doc[field])) for field in ARRAYS_V4}
    assert size == {"weight_bitmap": -(-dim // 8), "weight_table": 8 * n_values, "weight_index": (n_values + 1) * width}
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == text
    assert loaded.model.weights.tobytes() == (artifact.model.weights + 0.0).tobytes()


def test_all_zero_weights_write_an_empty_table(tmp_path):
    artifact = make_artifact(_grams(11), [0.0, -0.0] * 5 + [0.0], [1.0] * 11)
    path = tmp_path / "model.json"
    save_model(artifact, path)
    doc = json.loads(path.read_text())
    assert doc["weight_table"] == doc["weight_index"] == ""
    assert base64.b64decode(doc["weight_bitmap"]) == bytes(2)
    weights = load_model(path).model.weights
    assert weights.tobytes() == np.zeros(11).tobytes()  # +0.0, the -0.0 included


def _large_artifact():
    """100k 10-grams over 500 names: the vocabulary and idf span several base64 chunks."""
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(1, 501, size=(100_000, 10)).astype(np.uint32), axis=0)
    weights = np.where(rng.random(len(keys)) < 0.01, rng.normal(size=len(keys)), 0.0)
    return ModelArtifact(
        model=LinearModel(weights=weights, bias=0.5, metadata={"trainer": "sgd", "alpha": 1e-4}),
        vocabulary=Vocabulary(alphabet=tuple(f"nt{i:03d}" for i in range(500)), keys=keys, n_min=10),
        idf=IdfModel(idf=rng.random(len(keys)), n_docs=9),
    )


def test_large_model_is_written_as_one_json_dumps_with_little_transient_memory(tmp_path):
    artifact = _large_artifact()
    path = tmp_path / "model.json"
    tracemalloc.start()
    try:
        save_model(artifact, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == canonical_text(artifact).encode("utf-8")
    # The base64 fields are streamed: no copy of the file's text is held.
    assert peak < path.stat().st_size / 2
    loaded = load_model(path)
    assert loaded.vocabulary.keys.tobytes() == artifact.vocabulary.keys.tobytes()
    assert loaded.idf.idf.tobytes() == artifact.idf.idf.tobytes()


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
FIELDS_V2 = (
    "alphabet", "bias", "config", "created_by", "format_version", "idf", "n_docs",
    "ngram_max", "ngram_min", "trainer", "vocabulary", "weight_index", "weight_value",
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


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, 10**6), cut=st.integers(0, 40), data=st.binary(max_size=40))
def test_any_bytes_in_a_v2_file_load_or_raise_a_tracesvm_error(v2_doc, start, cut, data):
    path, _ = v2_doc
    text = path.read_bytes()
    start %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "model.json"
        edited.write_bytes(text[:start] + data + text[start + cut :])
        load_or_raise(edited)


V2_VALUES = JSON_VALUES | st.binary(max_size=64).map(lambda b: base64.b64encode(b).decode("ascii"))


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS_V2), value=V2_VALUES)
def test_any_value_of_one_v2_field_loads_or_raises_a_tracesvm_error(v2_doc, field, value):
    _, doc = v2_doc
    assert set(doc) == set(FIELDS_V2)
    with tempfile.TemporaryDirectory() as tmp:
        load_or_raise(write_doc(Path(tmp), {**doc, field: value}))


FIELDS_V3 = (
    "alphabet", "bias", "config", "created_by", "format_version", "idf_index", "idf_table",
    "n_docs", "ngram_max", "ngram_min", "trainer", "vocabulary_prefix", "vocabulary_suffix",
    "vocabulary_suffix_len", "weight_index", "weight_value",
)


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, 10**6), cut=st.integers(0, 40), data=st.binary(max_size=40))
def test_any_bytes_in_a_v3_file_load_or_raise_a_tracesvm_error(v3_doc, start, cut, data):
    path, _ = v3_doc
    text = path.read_bytes()
    start %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "model.json"
        edited.write_bytes(text[:start] + data + text[start + cut :])
        load_or_raise(edited)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS_V3), value=V2_VALUES)
def test_any_value_of_one_v3_field_loads_or_raises_a_tracesvm_error(v3_doc, field, value):
    _, doc = v3_doc
    assert set(doc) == set(FIELDS_V3)
    with tempfile.TemporaryDirectory() as tmp:
        load_or_raise(write_doc(Path(tmp), {**doc, field: value}))


FIELDS_V4 = (
    "alphabet", "bias", "config", "created_by", "format_version", "idf_index", "idf_table",
    "n_docs", "ngram_max", "ngram_min", "trainer", "vocabulary_prefix", "vocabulary_suffix",
    "vocabulary_suffix_len", "weight_bitmap", "weight_index", "weight_table",
)


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, 10**6), cut=st.integers(0, 40), data=st.binary(max_size=40))
def test_any_bytes_in_a_v4_file_load_or_raise_a_tracesvm_error(v4_doc, start, cut, data):
    path, _ = v4_doc
    text = path.read_bytes()
    start %= len(text) + 1
    with tempfile.TemporaryDirectory() as tmp:
        edited = Path(tmp) / "model.json"
        edited.write_bytes(text[:start] + data + text[start + cut :])
        load_or_raise(edited)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS_V4), value=V2_VALUES)
def test_any_value_of_one_v4_field_loads_or_raises_a_tracesvm_error(v4_doc, field, value):
    _, doc = v4_doc
    assert set(doc) == set(FIELDS_V4)
    with tempfile.TemporaryDirectory() as tmp:
        load_or_raise(write_doc(Path(tmp), {**doc, field: value}))
