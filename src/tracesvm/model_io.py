"""Single-file JSON persistence for trained models.

The artifact bundles everything prediction needs: sparse weights, bias,
vocabulary, idf values and the training configuration echo.  Writing is
canonical (sorted keys, two-space indent, LF, trailing newline) so that
save -> load -> save is byte-identical.  The file is the text of
``json.dumps(document, sort_keys=True, indent=2) + "\n"``, but only the
small fields pass through json's pure-Python encoder, which ``indent``
forces.  The large arrays (vocabulary, idf, weights) are encoded in blocks
by json's C encoder and re-laid-out as ``indent=2`` would, one block
written at a time.

Loading is strict: anything but a v1 model document raises
``ModelFormatError`` (``VersionMismatchError`` for a ``format_version``
other than the integer 1).  That includes text that is not JSON or nests
too deeply to decode, and fields of the wrong JSON type: ``vocabulary``
must be a list of strings, ``ngram_min``, ``ngram_max`` and ``n_docs``
integers (``n_docs`` at least 1), ``bias`` and every idf and weight entry
numbers, ``config`` an object; ``true`` and ``false`` are not numbers.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import ModelFormatError, VersionMismatchError
from .linear_model import LinearModel
from .vectorize import IdfModel, Vocabulary

FORMAT_VERSION = 1
_TOOL = "tracesvm/0.1.0"
_BLOCK_ITEMS = 1 << 14


@dataclass
class ModelArtifact:
    model: LinearModel
    vocabulary: Vocabulary
    idf: IdfModel


def save_model(artifact: ModelArtifact, path: Path | str) -> None:
    """Write the canonical text: json.dumps(document, sort_keys=True, indent=2) + "\n".

    Only the small fields go through json's pure-Python encoder, which
    ``indent`` forces; the three large arrays are written by ``_write_list``.
    """
    model = artifact.model
    nz = np.flatnonzero(model.weights)
    fields = {
        "format_version": FORMAT_VERSION,
        "created_by": _TOOL,
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": artifact.vocabulary.n_min,
        "ngram_max": artifact.vocabulary.n_max,
        "n_docs": artifact.idf.n_docs,
        "bias": model.bias,
    }
    arrays = {
        "vocabulary": (artifact.vocabulary.by_index,),
        "idf": (artifact.idf.idf,),
        "weights": (nz, model.weights[nz]),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, key in enumerate(sorted([*fields, *arrays])):
            fh.write(("," if i else "{") + f"\n  {json.dumps(key)}: ")
            if key in arrays:
                _write_list(fh, *arrays[key])
            else:
                fh.write(json.dumps(fields[key], sort_keys=True, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n")


def _write_list(fh: TextIO, *columns: Sequence) -> None:
    """Write a top-level list as ``indent=2`` lays it out, one block at a time.

    Each block is encoded by json's C encoder, which runs only without
    ``indent``.  One column gives a list of its items, and the encoder writes
    the comma, newline and indent of ``indent=2`` between them itself.  Two
    columns give a list of [a, b] pairs, which need two separators, one
    inside a pair and one between pairs.  Those are encoded with a raw NUL as
    the item separator and each NUL is then replaced by the right one; the
    encoder escapes a NUL inside a string, so every raw NUL is a separator.
    """
    if not len(columns[0]):
        fh.write("[]")
        return
    item, entry = "\n    ", "\n      "
    pairs = len(columns) == 2
    if pairs:
        head, between, tail = "[" + item + "[" + entry, item + "]," + item + "[" + entry, item + "]\n  ]"
    else:
        head, between, tail = "[" + item, "," + item, "\n  ]"
    fh.write(head)
    for start in range(0, len(columns[0]), _BLOCK_ITEMS):
        block = [column[start : start + _BLOCK_ITEMS] for column in columns]
        block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
        if pairs:
            # Pairs hold only numbers, so "]\0[" is exactly the NUL between two pairs.
            text = json.dumps(list(zip(*block)), separators=("\0", ":"))[2:-2]
            text = text.replace("]\0[", between).replace("\0", "," + entry)
        else:
            text = json.dumps(block[0], separators=(between, ":"))[1:-1]
        if start:
            fh.write(between)
        fh.write(text)
    fh.write(tail)


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
    if type(version) is not int or version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format_version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        vocab = Vocabulary(
            by_index=_list_of(doc["vocabulary"], "vocabulary", str),
            n_min=_typed(doc["ngram_min"], "ngram_min", int),
            n_max=_typed(doc["ngram_max"], "ngram_max", int),
        )
        dim = len(vocab)
        idf_values = np.asarray(_list_of(doc["idf"], "idf", int, float), dtype=np.float64)
        n_docs = _typed(doc["n_docs"], "n_docs", int)
        if n_docs < 1:
            raise ValueError(f"n_docs must be at least 1, got {n_docs}")
        idf = IdfModel(idf=idf_values, n_docs=n_docs)
        weights = _parse_weights(_list_of(doc["weights"], "weights", list), dim)
        bias = float(_typed(doc["bias"], "bias", int, float))
        metadata = dict(_typed(doc.get("config", {}), "config", dict))
        metadata["trainer"] = doc.get("trainer")
        model = LinearModel(weights=weights, bias=bias, dim=dim, metadata=metadata)
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


def _parse_weights(pairs: list, dim: int) -> np.ndarray:
    """Dense weights from [index, value] lists with strictly increasing indices < dim."""
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("weights must be [index, value] pairs")
    flat = _list_of(list(itertools.chain.from_iterable(pairs)), "weight pair", int, float)
    index, value = np.fromiter(flat, dtype=np.float64, count=len(flat)).reshape(-1, 2).T
    if not np.all((index >= 0) & (index < dim) & (index == np.floor(index))):
        raise ValueError(f"weight indices must be integers in [0, {dim})")
    if np.any(np.diff(index) <= 0):
        raise ValueError("weight indices must be strictly increasing")
    if not np.all(np.isfinite(value)):
        raise ValueError("weights hold a non-finite value")
    weights = np.zeros(dim)
    weights[index.astype(np.int64)] = value
    return weights
