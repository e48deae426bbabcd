"""The model file: the writer against its oracle, and strict loading, where
every corrupt field raises ModelFormatError.

``train`` writes format v2.  Format v1 is still read; its documents here come
from ``canonical_text_v1``, as the writer that made them is gone.
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

from oracles import canonical_text, canonical_text_v1, grams, vocabulary_of
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
    decision_many,
    fit_transform,
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
def v2_doc(tmp_path_factory, trained):
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(trained, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
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


# The dtypes of the v2 arrays; the vocabulary is one row of ids per n-gram.
DTYPES = {"vocabulary": ">u4", "idf": "<f8", "weight_index": "<u4", "weight_value": "<f8"}


def unpack(doc, key):
    values = np.frombuffer(base64.b64decode(doc[key]), dtype=DTYPES[key]).copy()
    return values.reshape(-1, doc["ngram_max"]) if key == "vocabulary" else values


def pack(values, key):
    return base64.b64encode(np.asarray(values, dtype=DTYPES[key]).tobytes()).decode("ascii")


def test_save_load_save_is_byte_identical(v2_doc, tmp_path):
    path, _ = v2_doc
    out = tmp_path / "resaved.json"
    save_model(load_model(path), out)
    assert out.read_bytes() == path.read_bytes()


def test_unedited_document_loads(model_doc, v2_doc, tmp_path):
    _, doc = model_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(doc["vocabulary"])
    assert np.count_nonzero(artifact.model.weights) == len(doc["weights"])
    _, doc = v2_doc
    artifact = load_model(write_doc(tmp_path, doc))
    assert artifact.model.dim == len(unpack(doc, "vocabulary")) == len(unpack(doc, "idf"))
    assert np.count_nonzero(artifact.model.weights) == len(unpack(doc, "weight_value"))


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


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), [1.0, float("inf")]], ids=["inf", "-inf", "nan", "nested"]
)
def test_non_finite_config_number_rejected(model_doc, v2_doc, tmp_path, version, value):
    _, doc = model_doc if version == 1 else v2_doc
    with pytest.raises(ModelFormatError, match="config holds a non-finite number"):
        load_edited(tmp_path, doc, config={**doc["config"], "alpha": value})


@pytest.mark.parametrize("version", [True, 2.0, 3, 0])
def test_v2_format_version_must_be_the_integer_two(v2_doc, tmp_path, version):
    _, doc = v2_doc
    with pytest.raises(VersionMismatchError):
        load_edited(tmp_path, doc, format_version=version)


def test_v2_arrays_load_native_and_writable(v2_doc):
    path, _ = v2_doc
    artifact = load_model(path)
    for array in (artifact.idf.idf, artifact.model.weights, artifact.vocabulary.keys):
        assert array.flags.writeable
    assert artifact.idf.idf.dtype == np.float64 and artifact.idf.idf.dtype.isnative


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
    return [f"nt{i:02d}" for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(artifacts())
@example(make_artifact(["nta"], [0.0], [1.5e300]))
@example(make_artifact(["nta"], [5e-324], [-1e-7], n_max=1))
@example(make_artifact(_grams(9), [0.0] * 9, [1e16] * 9))
@example(make_artifact(_grams(3), [1.0] * 3, [2.0] * 3))
@example(make_artifact(_grams(0), [], []))
def test_save_writes_the_canonical_text(artifact):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(artifact, path)
        assert path.read_bytes() == canonical_text(artifact).encode("utf-8")
        loaded = load_model(path)
        save_model(loaded, path)
        assert path.read_bytes() == canonical_text(artifact).encode("utf-8")
        # The v1 text of the same artifact loads to the same strings and bits.
        path.write_text(canonical_text_v1(artifact))
        from_v1 = load_model(path)
    for other in (loaded, from_v1):
        assert other.vocabulary.alphabet == artifact.vocabulary.alphabet
        assert other.vocabulary.keys.tobytes() == artifact.vocabulary.keys.tobytes()
        assert other.idf.idf.tobytes() == artifact.idf.idf.tobytes()
        assert other.model.weights.tobytes() == (artifact.model.weights + 0.0).tobytes()


@pytest.mark.parametrize("value", [float("inf"), float("nan"), {"nested": float("-inf")}])
def test_save_refuses_a_non_finite_config_number(tmp_path, value):
    artifact = make_artifact(["nta"], [1.0], [2.0], config={"alpha": value})
    with pytest.raises(ValueError):
        save_model(artifact, tmp_path / "model.json")


def test_trained_model_writes_the_canonical_text(v2_doc):
    path, _ = v2_doc
    assert path.read_bytes() == canonical_text(load_model(path)).encode("utf-8")


def _large_artifact():
    """100k 10-grams over 500 names: the vocabulary and idf span several base64 chunks."""
    rng = np.random.default_rng(7)
    ids = rng.integers(1, 501, size=(100_000, 10)).astype(">u4")
    keys = np.unique(ids.view(np.dtype((np.void, 40))).ravel())
    weights = np.where(rng.random(len(keys)) < 0.01, rng.normal(size=len(keys)), 0.0)
    return ModelArtifact(
        model=LinearModel(weights=weights, bias=0.5, metadata={"trainer": "sgd", "alpha": 1e-4}),
        vocabulary=Vocabulary(alphabet=tuple(f"nt{i:03d}" for i in range(500)), keys=keys, n_min=10, n_max=10),
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
    model, vocab = artifact.model, artifact.vocabulary
    nz = np.flatnonzero(model.weights)
    document = {
        "format_version": 2,
        "created_by": "tracesvm/0.1.0",
        "trainer": "sgd",
        "config": {"alpha": 1e-4},
        "ngram_min": 10,
        "ngram_max": 10,
        "n_docs": 9,
        "bias": 0.5,
        "alphabet": list(vocab.alphabet),
        "vocabulary": base64.b64encode(vocab.keys.tobytes()).decode("ascii"),
        "idf": base64.b64encode(artifact.idf.idf.astype("<f8").tobytes()).decode("ascii"),
        "weight_index": base64.b64encode(nz.astype("<u4").tobytes()).decode("ascii"),
        "weight_value": base64.b64encode(model.weights[nz].astype("<f8").tobytes()).decode("ascii"),
    }
    text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == text.encode("utf-8")
    # The base64 fields are streamed: no copy of the file's text is held.
    assert peak < path.stat().st_size / 2
    loaded = load_model(path)
    assert loaded.vocabulary.keys.tobytes() == vocab.keys.tobytes()
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
