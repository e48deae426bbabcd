"""Single-file JSON persistence for trained models.

The artifact bundles everything prediction needs: sparse weights, bias,
vocabulary, idf values and the training configuration echo.  Writing is
canonical (sorted keys, two-space indent, LF, trailing newline) so that
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ModelFormatError, VersionMismatchError
from .linear_model import LinearModel
from .vectorize import IdfModel, Vocabulary

FORMAT_VERSION = 1
_TOOL = "tracesvm/0.1.0"
_CHUNKS_PER_WRITE = 1 << 16


@dataclass
class ModelArtifact:
    model: LinearModel
    vocabulary: Vocabulary
    idf: IdfModel


def _to_document(artifact: ModelArtifact) -> dict[str, Any]:
    model = artifact.model
    nz = np.nonzero(model.weights)[0]
    return {
        "format_version": FORMAT_VERSION,
        "created_by": _TOOL,
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": artifact.vocabulary.n_min,
        "ngram_max": artifact.vocabulary.n_max,
        "vocabulary": list(artifact.vocabulary.by_index),
        "idf": [float(v) for v in artifact.idf.idf],
        "n_docs": artifact.idf.n_docs,
        "weights": [[int(j), float(model.weights[j])] for j in nz],
        "bias": model.bias,
    }


def save_model(artifact: ModelArtifact, path: Path | str) -> None:
    # The same text json.dumps would give, written in blocks of chunks: the
    # whole text and its list of chunks would cost several times the file size.
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(_to_document(artifact))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        while block := list(itertools.islice(chunks, _CHUNKS_PER_WRITE)):
            fh.write("".join(block))
        fh.write("\n")


def load_model(path: Path | str) -> ModelArtifact:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format_version {version!r} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        vocab = Vocabulary(
            by_index=tuple(doc["vocabulary"]),
            n_min=int(doc["ngram_min"]),
            n_max=int(doc["ngram_max"]),
        )
        dim = len(vocab)
        idf_values = np.asarray(doc["idf"], dtype=np.float64)
        idf = IdfModel(idf=idf_values, n_docs=int(doc["n_docs"]))
        weights = _parse_weights(doc["weights"], dim)
        bias = float(doc["bias"])
        metadata = dict(doc.get("config", {}))
        metadata["trainer"] = doc.get("trainer")
        model = LinearModel(weights=weights, bias=bias, dim=dim, metadata=metadata)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
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


def _parse_weights(pairs, dim: int) -> np.ndarray:
    """Dense weights from [index, value] pairs with strictly increasing indices < dim."""
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        raise ValueError("weights must be [index, value] pairs")
    flat = itertools.chain.from_iterable(pairs)
    index, value = np.fromiter(flat, dtype=np.float64, count=2 * len(pairs)).reshape(-1, 2).T
    if not np.all((index >= 0) & (index < dim) & (index == np.floor(index))):
        raise ValueError(f"weight indices must be integers in [0, {dim})")
    if np.any(np.diff(index) <= 0):
        raise ValueError("weight indices must be strictly increasing")
    if not np.all(np.isfinite(value)):
        raise ValueError("weights hold a non-finite value")
    weights = np.zeros(dim)
    weights[index.astype(np.int64)] = value
    return weights
