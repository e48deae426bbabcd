"""Single-file JSON persistence for trained models.

The artifact bundles everything prediction needs: sparse weights, bias,
vocabulary, idf values and the training configuration echo.  ``save_model``
writes format v4, the text of ``json.dumps(document, sort_keys=True,
indent=2, allow_nan=False) + "\\n"``, so that save -> load -> save is
byte-identical.  Next to the small fields (``bias``, ``config``,
``created_by``, ``format_version``, ``n_docs``, ``ngram_min``,
``ngram_max``, ``trainer``) the document holds ``alphabet``, the sorted
call names, and eight base64 fields of little-endian arrays:

- ``vocabulary_prefix``: for each n-gram of the sorted vocabulary, how many
  leading alphabet ids (ids start at 1) it shares with the n-gram before it,
  0 for the first;
- ``vocabulary_suffix_len``: for each n-gram, how many ids it adds after
  that prefix, always at least 1;
- ``vocabulary_suffix``: those added ids, concatenated in n-gram order;
- ``idf_table``: the distinct idf values as float64, in the order of their
  bit patterns as uint64, so every value keeps its exact bits (``-0.0`` and
  ``0.0`` are two entries);
- ``idf_index``: each n-gram's position in ``idf_table``;
- ``weight_bitmap``: one bit per n-gram, set where its weight is nonzero,
  ``ceil(dim / 8)`` bytes with bit k of byte j for n-gram 8j + k (numpy's
  ``packbits`` with ``bitorder="little"``), the bits past the last n-gram 0;
  a ``-0.0`` weight counts as zero and loads as ``0.0``;
- ``weight_table``: the distinct nonzero weights as float64, in the order of
  their bit patterns as uint64, as ``idf_table`` (``_value_table`` writes
  both and ``_table_values`` reads both);
- ``weight_index``: each nonzero weight's position in ``weight_table``, in
  n-gram order.

Each integer field takes the narrowest of uint8, uint16 and uint32 that
holds its largest possible value, which the loader knows before it reads
the field: ``ngram_max`` for the prefix and suffix lengths,
``len(alphabet)`` for the suffix ids, and its table's length less one for
``idf_index`` and ``weight_index``.  No width is stored.  A trained model's
weights take few distinct values, as n-grams of one trace that share a
tf-idf value end with the same weight: on the benchmark's pipeline-long
corpus (202k n-grams, 142k nonzero weights, about 1.5k distinct) the file
is 1.7 MB, where v3's column indices and float64 values made it 3.6 MB.

Each large field is one string, which json's pure-Python ``indent`` encoder
never sees: ``save_model`` computes each array a chunk of rows at a time and
streams its base64 into the file, so saving holds no copy of the file's text
or of a whole array.  Format v3, which is v4 with the nonzero weights as
their uint32 columns in ``weight_index`` and their float64 values in
``weight_value``, is still read; nothing writes it.  Formats v1 and v2 are
no longer read: such a file must be retrained.  This module owns both
formats and is the only one that knows their byte order: ``_v3_keys``
checks the front-coded fields and turns them into the native uint32 key
matrix, and ``_read_vocabulary`` checks the n-gram range and the call
names before it and key order after, with ``_check_keys``, the one check
that reads the keys.

Loading is strict: anything but a v3 or v4 model document raises
``ModelFormatError`` naming the field (``VersionMismatchError`` for a
``format_version`` other than the integer 3 or 4, one that says to
retrain for 1 or 2).  That includes text that is not JSON or nests too
deeply to decode, fields of the wrong JSON type (``true`` and ``false``
are not numbers), a ``trainer`` other than ``null``, ``"sgd"`` or
``"dual-cd"``, a ``config`` holding a non-finite number or a ``trainer``
key (the top-level ``trainer`` would replace it, so the file would load as
another trainer), a non-finite bias, call names that break ``vectorize``'s
rule, n-grams out of order (see ``_check_keys``), invalid base64, and byte
lengths that do not fit the vocabulary size or the item width.  The
front-coded fields are checked before any key is built: the first prefix
must be 0, no prefix may be longer than the n-gram before it, no n-gram
longer than ``ngram_max`` or shorter than ``ngram_min``, the suffix
lengths must add up to the suffix's length, and every suffix id must be
in 1..len(alphabet), as a 0 would cut its n-gram short or put an id after
its padding; every ``idf_index`` entry must be below the table's length,
and every table entry finite, used or not.  In v3 the weight columns must be
strictly increasing and below the vocabulary size, and their values
finite.  In v4 ``weight_bitmap`` must be ``ceil(dim / 8)`` bytes with no
bit set past the last n-gram, ``weight_index`` must hold one entry per set
bit, each below the table's length, and every ``weight_table`` entry must
be finite and nonzero, used or not.
"""

from __future__ import annotations

import base64
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dual_cd import TRAINER_DUAL_CD
from .errors import ModelFormatError, VersionMismatchError
from .linear_model import LinearModel
from .sgd import TRAINER_SGD
from .util import open_new
from .vectorize import IdfModel, Vocabulary, _check_alphabet, _check_range, _run_starts

FORMAT_VERSION = 4
_READABLE_VERSIONS = (3, 4)
_TOOL = "tracesvm/0.1.0"
# Bytes handled at a time by save_model: each field's array is built and
# base64-encoded at most this many bytes at a time.  A multiple of 8 and of
# 3, so a chunk of any fixed-width field holds whole items and its encoding
# needs no padding; _write_b64 carries the odd bytes of other chunks over.
_B64_CHUNK = 3 << 16


@dataclass
class ModelArtifact:
    model: LinearModel
    vocabulary: Vocabulary
    idf: IdfModel


def save_model(artifact: ModelArtifact, path: Path | str) -> None:
    """Write the v4 document; a non-finite number in ``config`` raises ValueError.

    The text is ``json.dumps`` of the document, but the base64 fields are
    never held whole: the small fields are dumped with each large one empty,
    and the file is written from that text with each large field's array
    built in its file dtype and base64-encoded into its empty quotes a chunk
    at a time.  Base64 needs no JSON escape, so the bytes are those of one
    ``json.dumps``, and the transient memory stays a few chunks, not a copy
    of the file or of an array.
    """
    model = artifact.model
    vocab = artifact.vocabulary
    nonzero = model.weights != 0
    idf_table, idf_index = _value_table(artifact.idf.idf)
    weight_table, weight_index = _value_table(model.weights[nonzero])
    prefix = _shared_prefix(vocab.keys)
    packed = {  # each field's values in their file dtype, a chunk at a time
        "idf_index": idf_index,
        "idf_table": idf_table,
        "vocabulary_prefix": _in_chunks(prefix),
        "vocabulary_suffix": _suffixes(vocab.keys, prefix, _uint(len(vocab.alphabet))),
        "vocabulary_suffix_len": _suffix_lengths(vocab.keys, prefix),
        "weight_bitmap": _in_chunks(np.packbits(nonzero, bitorder="little")),
        "weight_index": weight_index,
        "weight_table": weight_table,
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
    with open_new(path) as fh:
        fh.write(pieces[0].encode("ascii"))
        for name, rest in zip(pieces[1::2], pieces[2::2]):
            fh.write(f'\n  "{name}": "'.encode("ascii"))
            _write_b64(fh, packed[name])
            fh.write(b'"' + rest.encode("ascii"))


def _value_table(values: np.ndarray):
    """The table and index fields of ``values``, each a chunk at a time.

    The table holds the distinct values as ``<f8`` in the order of their bit
    patterns as ``<u8``, so ``-0.0`` and ``0.0`` are two entries; the index,
    each value's position in it, in the narrowest dtype that holds the
    table's last one.  The table is the first of each run of the sorted bit
    patterns, not ``np.unique``, which hashes on numpy >= 2.3: on the 196270
    idf values of the pipeline-long corpus it took 4.0 ms against the
    sort's 0.5 ms (numpy 2.4, 2-core VM).
    """
    bits = np.asarray(values, dtype="<f8").view("<u8")
    table = np.sort(bits)
    table = table[_run_starts(table)]
    dtype = _uint(len(table) - 1)
    return _in_chunks(table.view("<f8")), (np.searchsorted(table, b).astype(dtype) for b in _in_chunks(bits))


def _uint(largest: int) -> str:
    """The narrowest little-endian unsigned dtype that holds ``largest``."""
    return "<u1" if largest < 1 << 8 else "<u2" if largest < 1 << 16 else "<u4"


def _in_chunks(values: np.ndarray):
    """Slices of ``values`` of at most ``_B64_CHUNK`` bytes each."""
    step = _B64_CHUNK // values.itemsize
    return (values[at : at + step] for at in range(0, len(values), step))


def _row_chunks(keys: np.ndarray):
    """(first row, rows) for slices of the key rows of at most ``_B64_CHUNK`` bytes."""
    step = max(1, _B64_CHUNK // (keys.itemsize * keys.shape[1]))
    return ((at, keys[at : at + step]) for at in range(0, len(keys), step))


def _shared_prefix(keys: np.ndarray) -> np.ndarray:
    """How many leading ids each key row shares with the row before it, in v3's dtype.

    0 for the first row and for a row equal to the one before.  Built a chunk
    of rows at a time, a chunk's first row compared with the previous chunk's last.
    """
    prefix = np.empty(len(keys), dtype=_uint(keys.shape[1]))
    for at, rows in _row_chunks(keys):
        # Above the first row, an all-0 row.
        above = keys[at - 1 : at - 1 + len(rows)] if at else np.concatenate((0 * rows[:1], rows[:-1]))
        prefix[at : at + len(rows)] = np.argmin(rows == above, axis=1)
    return prefix


def _suffix_lengths(keys: np.ndarray, prefix: np.ndarray):
    """Each key row's count of nonzero ids after its shared prefix, a chunk of rows at a time."""
    for at, rows in _row_chunks(keys):
        yield (np.count_nonzero(rows, axis=1) - prefix[at : at + len(rows)]).astype(prefix.dtype)


def _suffixes(keys: np.ndarray, prefix: np.ndarray, dtype: str):
    """Each key row's nonzero ids after its shared prefix, as ``dtype``, a chunk of rows at a time."""
    cols = np.arange(keys.shape[1])
    for at, rows in _row_chunks(keys):
        yield rows[(cols >= prefix[at : at + len(rows), None]) & (rows != 0)].astype(dtype)


def _write_b64(fh, chunks) -> None:
    """Write the base64 of the chunks' bytes joined, encoding a chunk at a time."""
    rest = b""
    for chunk in chunks:
        data = rest + chunk.tobytes()
        cut = len(data) - len(data) % 3
        fh.write(base64.b64encode(memoryview(data)[:cut]))
        rest = data[cut:]
    fh.write(base64.b64encode(rest))


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
        retired = type(version) is int and version in (1, 2)
        reason = "is no longer read; retrain the model" if retired else "is not supported"
        raise VersionMismatchError(f"{path}: format_version {version!r} {reason} (expected 3 or 4)")
    try:
        vocab = _read_vocabulary(doc)
        dim = len(vocab)
        idf_values = _table_values(doc, "idf", dim)
        if version == 4:
            weights = _v4_weights(doc, dim)
        else:
            index = _array(doc, "weight_index", "<u4")
            weights = _dense_weights(index, _array(doc, "weight_value", "<f8", len(index)), dim)
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
        if "trainer" in metadata:
            raise ValueError("config holds a 'trainer' key; only the top-level trainer field may")
        trainer = metadata["trainer"] = doc.get("trainer")
        if trainer not in (None, TRAINER_SGD, TRAINER_DUAL_CD):
            raise ValueError(f"trainer must be null, {TRAINER_SGD!r} or {TRAINER_DUAL_CD!r}, got {trainer!r}")
        model = LinearModel(weights=weights, bias=bias, metadata=metadata)
    except (KeyError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"{path}: malformed model document: {exc}") from exc
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


def _read_vocabulary(doc: dict) -> Vocabulary:
    """The document's vocabulary: range, names and front-coded fields checked, then key order."""
    n_min = _typed(doc["ngram_min"], "ngram_min", int)
    n_max = _typed(doc["ngram_max"], "ngram_max", int)
    _check_range(n_min, n_max)
    alphabet = tuple(_list_of(doc["alphabet"], "alphabet", str))
    _check_alphabet(alphabet)
    keys, prefix = _v3_keys(doc, len(alphabet), n_min, n_max)
    _check_keys(keys, prefix)
    return Vocabulary(alphabet=alphabet, keys=keys, n_min=n_min)


def _check_keys(keys: np.ndarray, prefix: np.ndarray) -> None:
    """Raise ValueError unless the rows of ``keys`` strictly increase.

    ``prefix[i]`` is the file's stored count of leading ids that row i
    shares with row i - 1, and order is checked at that column.  A row that
    ties the one above there, because the stored prefix is shorter than
    what the two share or the row repeats the one above (its prefix then
    may be n_max), is checked again at the end of the prefix they really
    share.  So a short stored prefix makes the check accept and refuse what
    the full shared prefix, as ``_shared_prefix`` finds it, would.
    """
    n_max = keys.shape[1]
    # Row i's cell at its prefix, and the same cell of row i - 1.
    flat = keys.ravel()
    at = np.arange(0, flat.size - n_max, n_max)
    at += np.minimum(prefix[1:], n_max - 1)
    above, below = flat[at], flat[n_max:][at]
    tie = np.flatnonzero(below == above)
    exact = tie * n_max + np.argmin(keys[tie + 1] == keys[tie], axis=1)
    above[tie], below[tie] = flat[exact], flat[n_max:][exact]
    if np.any(below <= above):
        raise ValueError("vocabulary: n-grams must be sorted and unique")


def _v3_keys(doc: dict, n_names: int, n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """v3's front-coded n-grams as keys, with the prefix lengths as intp.

    N-gram i repeats the first ``prefix[i]`` ids of n-gram i - 1 and then
    takes its next ``suffix_len[i]`` ids from the suffix.  The fields are
    checked before the key matrix is built, so that every n-gram's ids fall
    in its own row and each key is n_min to n_max ids in 1..n_names, then 0s.
    """
    # Narrow lengths are cast first: uint8 sums would wrap.
    prefix = _array(doc, "vocabulary_prefix", _uint(n_max)).astype(np.intp)
    added = _array(doc, "vocabulary_suffix_len", _uint(n_max), len(prefix)).astype(np.intp)
    suffix = _array(doc, "vocabulary_suffix", _uint(n_names))
    end = prefix + added
    if prefix[:1].any():
        raise ValueError("vocabulary_prefix: the first n-gram's prefix is not 0")
    if np.any(prefix[1:] > end[:-1]):
        raise ValueError("vocabulary_prefix: an n-gram shares more ids than the n-gram before it holds")
    if np.any(end > n_max):
        raise ValueError(f"vocabulary_suffix_len: an n-gram is longer than ngram_max {n_max}")
    if np.any(end < n_min):
        raise ValueError(f"vocabulary_suffix_len: an n-gram is shorter than ngram_min {n_min}")
    if added.sum() != len(suffix):
        raise ValueError(
            f"vocabulary_suffix holds {len(suffix)} ids, not the {added.sum()} of vocabulary_suffix_len"
        )
    if not suffix.all():
        raise ValueError("vocabulary_suffix: a 0 id cuts an n-gram short or puts an id after its padding")
    if np.any(suffix > n_names):
        raise ValueError(f"vocabulary_suffix: an id is above the alphabet size {n_names}")
    dim = len(prefix)
    keys = np.zeros((dim, n_max), dtype=np.uint32)
    # Row i's suffix ids, which start at offset (cumsum(added) - added)[i] of
    # the suffix, go to the flat cells from i * n_max + prefix[i] on.
    first = np.arange(0, dim * n_max, n_max) + prefix - (np.cumsum(added) - added)
    keys.ravel()[np.repeat(first, added) + np.arange(len(suffix))] = suffix
    # A shared cell holds the value of the last row above whose prefix does
    # not cover its column: fill each column down from the rows that set it.
    for col in range(prefix.max(initial=0)):
        own = np.flatnonzero(prefix <= col)
        keys[:, col] = np.repeat(keys[own, col], np.diff(own, append=dim))
    return keys, prefix


def _table_values(doc: dict, name: str, count: int, nonzero: bool = False) -> np.ndarray:
    """The ``count`` values that ``{name}_index`` looks up in ``{name}_table``.

    Every index entry must be below the table's length, and every table
    entry, used or not, finite, and also nonzero if ``nonzero``.
    """
    table = _array(doc, f"{name}_table", "<f8")
    index = _array(doc, f"{name}_index", _uint(len(table) - 1), count)
    if np.any(index >= len(table)):
        raise ValueError(f"{name}_index: an entry is not below the {name}_table length {len(table)}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name}_table holds a non-finite value")
    if nonzero and not np.all(table):
        raise ValueError(f"{name}_table holds a zero")
    return table[index]


def _v4_weights(doc: dict, dim: int) -> np.ndarray:
    """v4's dense weights: the table's values at the bitmap's set bits, in
    column order, and +0.0 at the others."""
    bits = np.unpackbits(_array(doc, "weight_bitmap", "<u1", -(-dim // 8)), bitorder="little")
    if bits[dim:].any():
        raise ValueError(f"weight_bitmap: a bit at or past the vocabulary size {dim} is set")
    nonzero = bits[:dim].astype(bool)
    weights = np.zeros(dim)
    weights[nonzero] = _table_values(doc, "weight", np.count_nonzero(nonzero), nonzero=True)
    return weights


def _array(doc: dict, key: str, dtype: str, count: int | None = None) -> np.ndarray:
    """The base64 field as a native-endian, writable array of ``count`` items, if given."""
    text = _typed(doc[key], key, str)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"{key} is not valid base64: {exc}") from None
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

