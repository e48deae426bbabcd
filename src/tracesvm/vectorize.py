"""N-gram extraction and tf-idf feature vectors over call sequences.

An n-gram is a space-joined window of n consecutive call names.  The
vocabulary is the union of all n-grams for n in [n_min, n_max] across the
corpus, with indices assigned in lexicographic order of those strings.

A vocabulary is its keys.  Call names get ids 1, 2, ... in sorted order,
each window becomes a key of n_max big-endian uint32 ids padded with 0, and
one ``np.unique`` over the keys gives the vocabulary.  No call name may hold
a character <= U+0020, so memcmp order on keys equals string order on the
joined grams, a gram before its extensions.  Counting finds each window's
column with ``np.searchsorted`` and each row's counts with one more
``np.unique``, and builds no n-gram string.  N-gram strings are rendered
only where they are printed, by ``_render_keys``.  This module knows no
file format: ``model_io`` turns a model file's vocabulary into keys and
checks them with ``_check_keys``.

Inverse document frequency uses the natural log of
(1 + n_docs) / (1 + doc_frequency), so a feature present in every document
gets idf 0 and drops out of the tf-idf vectors entirely.  Rows are
L2-normalized before training.

A ``FeatureMatrix`` is CSR: ``indptr``, ``indices`` and ``data`` arrays,
checked once when built, plus the rows' labels when every trace has one.
Counting emits the arrays directly, and tf-idf, normalization, both
trainers and scoring work on them.  ``rows`` is a read-only view of them
as one ``SparseVector`` per row, for inspection.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptyVocabularyError
from .ingest import SyscallTrace

_SEPARATOR = re.compile(r"[\x00-\x20]")
# The longest n-gram a vocabulary may hold.  A key takes 4 bytes per call
# slot, so this bounds the key width a model file can ask for and the
# windows built to count against any vocabulary; the paper uses 8-10.
MAX_NGRAM = 1000


class SparseVector:
    """One row of a ``FeatureMatrix``: parallel (indices, values) arrays and dim.

    A view for inspection.  The matrix it comes from has checked that the
    indices rise strictly below dim and the values are finite and nonzero.
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim: int):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.dim = dim

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


@dataclass(eq=False)
class Vocabulary:
    """The sorted unique n-grams of a corpus; column j is the n-gram ``keys[j]``.

    ``alphabet`` is the sorted call names, and ``keys`` the n-grams as void
    scalars of n_max big-endian uint32 alphabet ids, 0 as padding (see
    ``_window_keys``), strictly increasing.  Nothing is checked here:
    ``build_vocabulary`` makes valid keys, and ``model_io`` checks a model
    file's with ``_check_keys``.
    """

    alphabet: tuple[str, ...]
    keys: np.ndarray
    n_min: int
    n_max: int

    def __len__(self) -> int:
        return len(self.keys)


def _check_range(n_min: int, n_max: int) -> None:
    if not 1 <= n_min <= n_max <= MAX_NGRAM:
        raise ValueError(f"need 1 <= n_min <= n_max <= {MAX_NGRAM}, got ({n_min}, {n_max})")


def _check_keys(alphabet: Sequence[str], keys: np.ndarray, n_min: int, n_max: int) -> None:
    """Raise ValueError unless ``keys`` are a vocabulary over ``alphabet``.

    The names must be sorted, unique, non-empty and free of characters
    <= U+0020, so that key order is string order; each key n_min to n_max
    ids in 1..len(alphabet) and then only 0 padding; the keys strictly
    increasing, compared row-wise on their ids because numpy cannot order
    void scalars.
    """
    if not all(map(operator.lt, alphabet, alphabet[1:])):
        raise ValueError("alphabet: call names must be sorted and unique")
    if not all(name and not _SEPARATOR.search(name) for name in alphabet):
        raise ValueError("alphabet: a call name is empty or holds a character <= U+0020")
    ids = keys.view(">u4").reshape(-1, n_max).astype(np.uint32)
    if ids.size and ids.max() > len(alphabet):
        raise ValueError(f"vocabulary: an id is above the alphabet size {len(alphabet)}")
    if np.any(ids[:, :n_min] == 0):
        raise ValueError(f"vocabulary: an n-gram is shorter than ngram_min {n_min}")
    if np.any((ids[:, :-1] == 0) & (ids[:, 1:] != 0)):
        raise ValueError("vocabulary: an n-gram has an id after its padding")
    before, after = ids[:-1], ids[1:]
    differ = before != after
    rows, first = np.arange(len(differ)), differ.argmax(axis=1)
    if not np.all(differ[rows, first] & (before[rows, first] < after[rows, first])):
        raise ValueError("vocabulary: n-grams must be sorted and unique")


@dataclass(frozen=True, eq=False)
class IdfModel:
    """Per-feature idf weights fitted on a corpus of n_docs documents."""

    idf: np.ndarray
    n_docs: int


@dataclass(eq=False)
class FeatureMatrix:
    """A corpus as CSR arrays, with optional per-row labels.

    Row i has columns ``indices[indptr[i]:indptr[i + 1]]``, strictly
    increasing and < dim, holding the finite nonzero values at the same
    positions of ``data``.  The arrays are checked once, on construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    labels: list[str] | None
    dim: int

    def __post_init__(self):
        self.indptr = indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = indices = np.asarray(self.indices, dtype=np.int64)
        self.data = data = np.asarray(self.data, dtype=np.float64)
        if indices.ndim != 1 or data.ndim != 1 or indices.shape != data.shape:
            raise ValueError("indices and data must be parallel 1-d arrays")
        if indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must run from 0 to nnz")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.dim < 0:
            raise ValueError("dim must be non-negative")
        if self.labels is not None and len(self.labels) != len(self):
            raise ValueError("labels must parallel rows")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.dim:
                raise ValueError("indices out of range")
            row_of = np.repeat(np.arange(len(self)), np.diff(indptr))
            if not np.all((np.diff(indices) > 0) | (np.diff(row_of) > 0)):
                raise ValueError("indices must be strictly increasing within a row")
            if not np.all(np.isfinite(data)) or np.any(data == 0.0):
                raise ValueError("data must be finite and nonzero")

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_slices(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each row's (indices, data), as views of the CSR arrays."""
        bounds = self.indptr.tolist()
        return [(self.indices[a:b], self.data[a:b]) for a, b in zip(bounds, bounds[1:])]

    def dot(self, w: np.ndarray) -> np.ndarray:
        """Each row's dot product with the dense vector w."""
        if w.shape[0] != self.dim:
            raise DimensionMismatchError(f"matrix dim {self.dim} vs dense dim {w.shape[0]}")
        return np.array([d @ w[i] for i, d in self.row_slices()], dtype=np.float64)

    @cached_property
    def rows(self) -> tuple[SparseVector, ...]:
        """Read-only per-row ``SparseVector`` views, for inspection only."""
        return tuple(SparseVector(i, d, self.dim) for i, d in self.row_slices())


def _window_keys(
    corpus: Sequence[SyscallTrace], index: dict[str, int], n_min: int, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every window of n_min..n_max calls, as parallel (trace row, key) arrays.

    A key is n_max big-endian uint32 call ids, index[name] per call and 0 as
    padding, viewed as one void scalar; ids start at 1, so memcmp order on
    keys is id-tuple order with a shorter gram before its extensions.  Calls
    missing from ``index`` get an id above every indexed one, so a window
    holding one matches no key built from ``index``.
    """
    key_dtype = np.dtype((np.void, 4 * n_max))
    lengths = np.fromiter((len(t.calls) for t in corpus), dtype=np.int64, count=len(corpus))
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=key_dtype)
    unseen = len(index) + 1
    ids = np.fromiter(
        (index.get(c, unseen) for t in corpus for c in t.calls), dtype=np.uint32, count=total
    )
    row_of = np.repeat(np.arange(len(corpus), dtype=np.int64), lengths)
    # Each trace is followed by n_max zeros, so no window runs into the next.
    at = np.arange(total) + n_max * row_of
    seq = np.zeros(total + n_max * len(corpus), dtype=">u4")
    seq[at] = ids
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(total)  # calls to trace end
    view = np.lib.stride_tricks.sliding_window_view(seq, n_max)
    rows, keys = [], []
    for n in range(n_min, n_max + 1):
        fits = left >= n
        windows = view[at[fits]]
        windows[:, n:] = 0
        rows.append(row_of[fits])
        keys.append(windows.view(key_dtype).ravel())
    return np.concatenate(rows), np.concatenate(keys)


def _render_keys(alphabet: Sequence[str], keys: np.ndarray, n_max: int) -> tuple[str, ...]:
    """The space-joined n-gram string of every key, in key order."""
    ids = keys.view(">u4").reshape(-1, n_max)
    names = np.array(("",) + tuple(alphabet), dtype=object)
    lengths = np.count_nonzero(ids, axis=1)
    grams = np.empty(len(keys), dtype=object)
    for n in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == n)
        grams[at] = [" ".join(w) for w in names[ids[at, :n]].tolist()]
    return tuple(grams.tolist())


def build_vocabulary(corpus: Sequence[SyscallTrace], n_min: int, n_max: int) -> Vocabulary:
    """Union of all n-grams for n in [n_min, n_max], indexed lexicographically."""
    try:
        _check_range(n_min, n_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not corpus:
        raise ValueError("corpus is empty")
    alphabet = sorted({c for t in corpus for c in t.calls})
    for name in alphabet:
        # Such a name would make a joined gram ambiguous and break the
        # equality of id order and string order that the keys rely on.
        if _SEPARATOR.search(name):
            raise ConfigError(f"call name {name!r} contains a space or control character")
    index = {name: i for i, name in enumerate(alphabet, start=1)}
    _, keys = _window_keys(corpus, index, n_min, n_max)
    if keys.size == 0:
        raise EmptyVocabularyError(
            f"no trace yields an n-gram for n in [{n_min}, {n_max}]"
        )
    return Vocabulary(alphabet=tuple(alphabet), keys=np.unique(keys), n_min=n_min, n_max=n_max)


def _key_columns(
    corpus: Sequence[SyscallTrace], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    rows, keys = _window_keys(corpus, index, vocab.n_min, vocab.n_max)
    cols = np.searchsorted(vocab.keys, keys)
    hit = cols < len(vocab.keys)
    hit[hit] = vocab.keys[cols[hit]] == keys[hit]
    return rows[hit], cols[hit]


def count_matrix(corpus: Sequence[SyscallTrace], vocab: Vocabulary) -> FeatureMatrix:
    """Raw n-gram occurrence counts per trace, carrying labels through.

    N-grams absent from the vocabulary are ignored.
    """
    rows, cols = _key_columns(corpus, vocab)
    dim = len(vocab)
    cells, counts = np.unique(rows * dim + cols, return_counts=True)
    labels = [t.label for t in corpus]
    have_labels = all(l is not None for l in labels)
    return FeatureMatrix(
        indptr=np.searchsorted(cells, np.arange(len(corpus) + 1) * dim),
        indices=cells % dim,
        data=counts.astype(np.float64),
        labels=labels if have_labels else None,  # type: ignore[arg-type]
        dim=dim,
    )


def fit_idf(counts: FeatureMatrix) -> IdfModel:
    """idf[j] = ln((1 + n_docs) / (1 + df_j)).

    A feature present in every document gets idf exactly 0.
    """
    if len(counts) == 0:
        raise ValueError("cannot fit idf on an empty corpus")
    df = np.bincount(counts.indices, minlength=counts.dim)
    idf = np.log((1.0 + len(counts)) / (1.0 + df))
    return IdfModel(idf=idf, n_docs=len(counts))


def tfidf_transform(counts: FeatureMatrix, idf_model: IdfModel) -> FeatureMatrix:
    """Per-coordinate tf * idf; coordinates whose product is 0 are dropped."""
    if counts.dim != idf_model.idf.shape[0]:
        raise DimensionMismatchError(
            f"counts dim {counts.dim} vs idf dim {idf_model.idf.shape[0]}"
        )
    values = counts.data * idf_model.idf[counts.indices]
    keep = values != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return FeatureMatrix(
        indptr=kept_before[counts.indptr],
        indices=counts.indices[keep],
        data=values[keep],
        labels=counts.labels,
        dim=counts.dim,
    )


def normalize_matrix(m: FeatureMatrix) -> FeatureMatrix:
    """Scale each row to unit Euclidean length; empty rows stay empty."""
    norms = np.sqrt([d @ d for _, d in m.row_slices()])
    return FeatureMatrix(
        indptr=m.indptr,
        indices=m.indices,
        data=m.data / np.repeat(norms, np.diff(m.indptr)),
        labels=m.labels,
        dim=m.dim,
    )


def fit_transform(
    corpus: Sequence[SyscallTrace], n_min: int, n_max: int
) -> tuple[Vocabulary, IdfModel, FeatureMatrix]:
    """Vocabulary + idf fitted on the corpus, and its normalized tf-idf rows."""
    vocab = build_vocabulary(corpus, n_min, n_max)
    counts = count_matrix(corpus, vocab)
    idf_model = fit_idf(counts)
    return vocab, idf_model, normalize_matrix(tfidf_transform(counts, idf_model))


def transform(
    corpus: Sequence[SyscallTrace], vocab: Vocabulary, idf_model: IdfModel
) -> FeatureMatrix:
    """Vectorize new traces with an already-fitted vocabulary and idf.

    N-grams unseen at fit time are silently ignored.
    """
    counts = count_matrix(corpus, vocab)
    return normalize_matrix(tfidf_transform(counts, idf_model))

