"""Single-file JSON persistence for trained models.

The artifact bundles everything prediction needs: sparse weights, bias,
vocabulary, idf values and the training configuration echo.  ``save_model``
writes format v2, the text of ``json.dumps(document, sort_keys=True,
indent=2, allow_nan=False) + "\\n"``, so that save -> load -> save is
byte-identical.  Next to the small fields (``bias``, ``config``,
``created_by``, ``format_version``, ``n_docs``, ``ngram_min``,
``ngram_max``, ``trainer``) the document holds:

- ``alphabet``: the sorted call names;
- ``vocabulary``: the base64 of the vocabulary's keys, ``ngram_max``
  big-endian uint32 alphabet ids per n-gram (ids start at 1), padded with 0;
- ``idf``: the base64 of one little-endian float64 per n-gram;
- ``weight_index``: the base64 of the strictly increasing little-endian
  uint32 indices of the nonzero weights;
- ``weight_value``: the base64 of those weights as little-endian float64.

Each large field is one string, which json's pure-Python ``indent`` encoder
never sees: ``save_model`` streams the base64 into the file a chunk at a
time, so saving holds no copy of the file's text.  Format v1, which stored the n-gram strings, the idf
values and ``[index, value]`` weight pairs as JSON lists, is still read.
Nothing writes v1.  This module owns both formats: ``_parse_v1_vocabulary``
turns v1's strings into keys, ``_decode_v2_vocabulary`` reads v2's key
bytes as they are, and both end in ``vectorize._check_keys``.

Loading is strict: anything but a v1 or v2 model document raises
``ModelFormatError`` naming the field (``VersionMismatchError`` for a
``format_version`` other than the integer 1 or 2).  That includes text that
is not JSON or nests too deeply to decode, fields of the wrong JSON type
(``true`` and ``false`` are not numbers), a ``config`` holding a non-finite
number, non-finite idf or weight values and, in v2, invalid base64, byte
lengths that do not fit the vocabulary size, and keys that are not a
sorted vocabulary over the alphabet (see ``vectorize._check_keys``).
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, VersionMismatchError
from .linear_model import LinearModel
from .vectorize import IdfModel, Vocabulary, _check_keys, _check_range

FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)
_TOOL = "tracesvm/0.1.0"
# Bytes base64-encoded at a time by save_model: a multiple of 3, so the
# chunks' encodings join with no padding between them.
_B64_CHUNK = 3 << 18


@dataclass
class ModelArtifact:
    model: LinearModel
    vocabulary: Vocabulary
    idf: IdfModel


def save_model(artifact: ModelArtifact, path: Path | str) -> None:
    """Write the v2 document; a non-finite number in ``config`` raises ValueError.

    The text is ``json.dumps`` of the document, but the four base64 fields
    are never held whole: the small fields are dumped with each large one
    empty, and the file is written from that text with each large field's
    base64 streamed into its empty quotes a chunk at a time.  Base64 needs no
    JSON escape, so the bytes are those of one ``json.dumps``, and the
    transient memory stays a chunk, not several copies of the file.
    """
    model = artifact.model
    vocab = artifact.vocabulary
    nz = np.flatnonzero(model.weights)
    packed = {
        "vocabulary": vocab.keys,
        "idf": artifact.idf.idf.astype("<f8"),
        "weight_index": nz.astype("<u4"),
        "weight_value": model.weights[nz].astype("<f8"),
    }
    document = {
        "format_version": FORMAT_VERSION,
        "created_by": _TOOL,
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": vocab.n_min,
        "ngram_max": vocab.n_max,
        "n_docs": artifact.idf.n_docs,
        "bias": model.bias,
        "alphabet": list(vocab.alphabet),
        **dict.fromkeys(packed, ""),
    }
    text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    # Only a top-level field starts a line with two spaces and a quote, so
    # each split point is the one empty field of that name.
    pieces = re.split('\n  "(%s)": ""' % "|".join(packed), text)
    with open(path, "wb") as fh:
        fh.write(pieces[0].encode("ascii"))
        for name, rest in zip(pieces[1::2], pieces[2::2]):
            fh.write(f'\n  "{name}": "'.encode("ascii"))
            raw = np.ascontiguousarray(packed[name]).view(np.uint8)
            for at in range(0, len(raw), _B64_CHUNK):
                fh.write(base64.b64encode(raw[at : at + _B64_CHUNK]))
            fh.write(b'"' + rest.encode("ascii"))


def load_model(path: Path | str) -> ModelArtifact:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and an over-long integer;
        # RecursionError, nesting deeper than the decoder's recursion limit.
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise VersionMismatchError(
            f"{path}: format_version {version!r} is not supported (expected 1 or 2)"
        )
    try:
        n_min = _typed(doc["ngram_min"], "ngram_min", int)
        n_max = _typed(doc["ngram_max"], "ngram_max", int)
        if version == 1:
            vocab = _parse_v1_vocabulary(_list_of(doc["vocabulary"], "vocabulary", str), n_min, n_max)
            idf_values = np.asarray(_list_of(doc["idf"], "idf", int, float), dtype=np.float64)
            weights = _parse_weights(_list_of(doc["weights"], "weights", list), len(vocab))
        else:
            alphabet = _list_of(doc["alphabet"], "alphabet", str)
            vocab = _decode_v2_vocabulary(alphabet, _unb64(doc, "vocabulary"), n_min, n_max)
            idf_values = _array(doc, "idf", "<f8", len(vocab))
            index = _array(doc, "weight_index", "<u4")
            weights = _dense_weights(index, _array(doc, "weight_value", "<f8", len(index)), len(vocab))
        dim = len(vocab)
        n_docs = _typed(doc["n_docs"], "n_docs", int)
        if n_docs < 1:
            raise ValueError(f"n_docs must be at least 1, got {n_docs}")
        idf = IdfModel(idf=idf_values, n_docs=n_docs)
        bias = float(_typed(doc["bias"], "bias", int, float))
        metadata = dict(_typed(doc.get("config", {}), "config", dict))
        try:
            json.dumps(metadata, allow_nan=False)
        except ValueError:
            raise ValueError("config holds a non-finite number") from None
        metadata["trainer"] = doc.get("trainer")
        model = LinearModel(weights=weights, bias=bias, metadata=metadata)
    except (KeyError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from exc
    if idf_values.shape != (dim,):
        raise ModelFormatError(
            f"{path}: idf shape {idf_values.shape} does not match vocabulary size {dim}"
        )
    if not np.all(np.isfinite(idf_values)):
        raise ModelFormatError(f"{path}: idf holds a non-finite value")
    if not math.isfinite(bias):
        raise ModelFormatError(f"{path}: bias {bias!r} is not finite")
    return ModelArtifact(model=model, vocabulary=vocab, idf=idf)


# JSON types by exact Python type: json.loads gives bool, a subclass of int,
# for true and false, which no numeric field may hold.
def _typed(value, key: str, *types: type):
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{key} must be {names}, not {type(value).__name__}")
    return value


def _list_of(items, key: str, *types: type) -> list:
    if not set(map(type, _typed(items, key, list))) <= set(types):
        raise ValueError(f"{key} entries must be {' or '.join(t.__name__ for t in types)}")
    return items


def _unb64(doc: dict, key: str) -> bytes:
    text = _typed(doc[key], key, str)
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{key} is not valid base64: {exc}") from None


def _parse_v1_vocabulary(grams: list[str], n_min: int, n_max: int) -> Vocabulary:
    """v1's sorted, unique space-joined n-gram strings as a checked vocabulary."""
    _check_range(n_min, n_max)
    lengths = np.fromiter(map(str.count, grams, itertools.repeat(" ")), np.int64, len(grams)) + 1
    if lengths.size and not n_min <= lengths.min() <= lengths.max() <= n_max:
        raise ValueError(f"vocabulary: every n-gram must have {n_min} to {n_max} tokens")
    names = " ".join(grams).split(" ") if grams else []
    alphabet = tuple(sorted(set(names)))
    index = {name: i for i, name in enumerate(alphabet, start=1)}
    ids = np.zeros((len(grams), n_max), dtype=">u4")
    row = np.repeat(np.arange(len(grams)), lengths)
    col = np.arange(len(names)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    ids[row, col] = np.fromiter(map(index.__getitem__, names), dtype=np.uint32, count=len(names))
    keys = ids.view(np.dtype((np.void, 4 * n_max))).ravel()
    _check_keys(alphabet, keys, n_min, n_max)
    return Vocabulary(alphabet=alphabet, keys=keys, n_min=n_min, n_max=n_max)


def _decode_v2_vocabulary(alphabet: list[str], raw: bytes, n_min: int, n_max: int) -> Vocabulary:
    """v2's key bytes, as ``keys.tobytes()`` gave them, as a checked vocabulary."""
    _check_range(n_min, n_max)
    width = 4 * n_max
    if len(raw) % width:
        raise ValueError(f"vocabulary: {len(raw)} bytes is not a whole number of {width}-byte n-grams")
    keys = np.frombuffer(bytearray(raw), dtype=np.dtype((np.void, width)))
    _check_keys(alphabet, keys, n_min, n_max)
    return Vocabulary(alphabet=tuple(alphabet), keys=keys, n_min=n_min, n_max=n_max)


def _array(doc: dict, key: str, dtype: str, count: int | None = None) -> np.ndarray:
    """The base64 field as a native-endian, writable array of ``count`` items, if given."""
    raw = _unb64(doc, key)
    width = np.dtype(dtype).itemsize
    if len(raw) % width or (count is not None and len(raw) != count * width):
        expected = f"{count} items of" if count is not None else "a whole number of"
        raise ValueError(f"{key} holds {len(raw)} bytes, not {expected} {width} bytes")
    return np.frombuffer(raw, dtype=dtype).astype(np.dtype(dtype).newbyteorder("="))


def _dense_weights(index: np.ndarray, value: np.ndarray, dim: int) -> np.ndarray:
    """Dense weights from strictly increasing indices < dim and finite values."""
    if np.any(index >= dim) or np.any(np.diff(index.astype(np.int64)) <= 0):
        raise ValueError(f"weight indices must be strictly increasing and below {dim}")
    if not np.all(np.isfinite(value)):
        raise ValueError("weight values must be finite")
    weights = np.zeros(dim)
    weights[index] = value
    return weights


def _parse_weights(pairs: list, dim: int) -> np.ndarray:
    """Dense weights from v1's [index, value] lists."""
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("weights must be [index, value] pairs")
    flat = _list_of(list(itertools.chain.from_iterable(pairs)), "weight pair", int, float)
    index, value = np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(-1, 2).T
    if not np.all((index >= 0) & (index < dim) & (index == np.floor(index))):
        raise ValueError(f"weight indices must be integers in [0, {dim})")
    return _dense_weights(index.astype(np.int64), value, dim)
