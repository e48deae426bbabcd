"""N-gram extraction and tf-idf feature vectors over call sequences.

An n-gram is a space-joined window of n consecutive call names.  The
vocabulary is the union of all n-grams for n in [n_min, n_max] across the
corpus, with indices assigned in lexicographic order of those strings.

Every vocabulary is integer-keyed.  Call names get ids 1, 2, ... in sorted
order, each window becomes a key of n_max big-endian uint32 ids padded with
0, and one ``np.unique`` over the keys gives the vocabulary.  No call name
may hold a character <= U+0020, so memcmp order on keys equals string order
on the joined grams, a gram before its extensions.  Counting has one path:
it finds each window's column with ``np.searchsorted`` and each row's
counts with one more ``np.unique``, and builds no n-gram string.  A v2
model file stores the alphabet and the keys as they are; a vocabulary of
n-gram strings, as a v1 model file holds, is turned into keys once, when it
is built.  The strings are rendered on first access to
``Vocabulary.by_index``.

Inverse document frequency uses the natural log of
(1 + n_docs) / (1 + doc_frequency), so a feature present in every document
gets idf 0 and drops out of the tf-idf vectors entirely; an optional flag
adds 1 after the log to keep such features alive.  Rows are L2-normalized
before training.

A ``FeatureMatrix`` is CSR: ``indptr``, ``indices`` and ``data`` arrays,
checked once when built.  Counting emits them directly, and tf-idf,
normalization, both trainers and scoring work on them.  ``rows`` is a
read-only view of them as one ``SparseVector`` per row, for inspection.
"""

from __future__ import annotations

import itertools
import math
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
# slot, so this bounds the keys derived from a v1 model file's strings and
# the windows built to count against any vocabulary; the paper uses 8-10.
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

    def pairs(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.indices, self.values)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def norm(self) -> float:
        return float(math.sqrt(float(self.values @ self.values)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"SparseVector(nnz={self.nnz}, dim={self.dim})"


class Vocabulary:
    """Bijection between n-grams and column indices, in lexicographic order.

    ``alphabet`` is the sorted call names, and ``keys`` the sorted unique
    n-grams as void scalars of n_max big-endian uint32 alphabet ids, 0 as
    padding (see ``_window_keys``).  The n-gram strings are rendered on
    first access to ``by_index``.
    """

    def __init__(self, by_index: Sequence[str], n_min: int, n_max: int):
        """The vocabulary of sorted, unique space-joined n-gram strings."""
        _check_range(n_min, n_max)
        by_index = tuple(by_index)
        lengths = np.fromiter(map(str.count, by_index, itertools.repeat(" ")), np.int64, len(by_index)) + 1
        if lengths.size and not n_min <= lengths.min() <= lengths.max() <= n_max:
            raise ValueError(f"vocabulary: every n-gram must have {n_min} to {n_max} tokens")
        names = " ".join(by_index).split(" ") if by_index else []
        alphabet = sorted(set(names))
        index = {name: i for i, name in enumerate(alphabet, start=1)}
        ids = np.zeros((len(by_index), n_max), dtype=">u4")
        row = np.repeat(np.arange(len(by_index)), lengths)
        col = np.arange(len(names)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        ids[row, col] = np.fromiter(map(index.__getitem__, names), dtype=np.uint32, count=len(names))
        keys = ids.view(np.dtype((np.void, 4 * n_max))).ravel()
        _check_keys(alphabet, keys, n_min, n_max)
        self.n_min, self.n_max = n_min, n_max
        self.alphabet: tuple[str, ...] = tuple(alphabet)
        self.keys: np.ndarray = keys
        self._by_index: tuple[str, ...] | None = by_index

    @classmethod
    def from_keys(
        cls, alphabet: Sequence[str], keys: np.ndarray, n_min: int, n_max: int
    ) -> Vocabulary:
        """The vocabulary of keys that are already known to be valid."""
        vocab = cls.__new__(cls)
        vocab.n_min, vocab.n_max = n_min, n_max
        vocab.alphabet = tuple(alphabet)
        vocab.keys = keys
        vocab._by_index = None
        return vocab

    @classmethod
    def from_bytes(cls, alphabet: Sequence[str], raw: bytes, n_min: int, n_max: int) -> Vocabulary:
        """The vocabulary whose keys are the bytes ``keys.tobytes()`` gave, checked."""
        _check_range(n_min, n_max)
        width = 4 * n_max
        if len(raw) % width:
            raise ValueError(f"vocabulary: {len(raw)} bytes is not a whole number of {width}-byte n-grams")
        keys = np.frombuffer(bytearray(raw), dtype=np.dtype((np.void, width)))
        _check_keys(alphabet, keys, n_min, n_max)
        return cls.from_keys(alphabet, keys, n_min, n_max)

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def by_index(self) -> tuple[str, ...]:
        if self._by_index is None:
            self._by_index = _render_keys(self.alphabet, self.keys, self.n_max)
        return self._by_index


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


@dataclass(frozen=True)
class IdfModel:
    """Per-feature idf weights fitted on a corpus of n_docs documents."""

    idf: np.ndarray
    n_docs: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IdfModel)
            and self.n_docs == other.n_docs
            and np.array_equal(self.idf, other.idf)
        )


@dataclass(eq=False)
class FeatureMatrix:
    """A corpus as CSR arrays, with row ids and optional labels.

    Row i has columns ``indices[indptr[i]:indptr[i + 1]]``, strictly
    increasing and < dim, holding the finite nonzero values at the same
    positions of ``data``.  The arrays are checked once, on construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_ids: list[str]
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
        if len(self.row_ids) != len(self):
            raise ValueError("row_ids must parallel rows")
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
    return Vocabulary.from_keys(alphabet, np.unique(keys), n_min, n_max)


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
    """Raw n-gram occurrence counts per trace, carrying ids and labels through.

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
        row_ids=[t.source_id for t in corpus],
        labels=list(labels) if have_labels else None,  # type: ignore[arg-type]
        dim=dim,
    )


def fit_idf(counts: FeatureMatrix, add_one: bool = False) -> IdfModel:
    """idf[j] = ln((1 + n_docs) / (1 + df_j)), optionally + 1 after the log.

    Without the +1, a feature present in every document gets idf exactly 0.
    """
    if len(counts) == 0:
        raise ValueError("cannot fit idf on an empty corpus")
    df = np.bincount(counts.indices, minlength=counts.dim)
    idf = np.log((1.0 + len(counts)) / (1.0 + df))
    if add_one:
        idf += 1.0
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
        row_ids=list(counts.row_ids),
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
        row_ids=list(m.row_ids),
        labels=m.labels,
        dim=m.dim,
    )


def fit_transform(
    corpus: Sequence[SyscallTrace], n_min: int, n_max: int, add_one_idf: bool = False
) -> tuple[Vocabulary, IdfModel, FeatureMatrix]:
    """Vocabulary + idf fitted on the corpus, and its normalized tf-idf rows."""
    vocab = build_vocabulary(corpus, n_min, n_max)
    counts = count_matrix(corpus, vocab)
    idf_model = fit_idf(counts, add_one=add_one_idf)
    return vocab, idf_model, normalize_matrix(tfidf_transform(counts, idf_model))


def transform(
    corpus: Sequence[SyscallTrace], vocab: Vocabulary, idf_model: IdfModel
) -> FeatureMatrix:
    """Vectorize new traces with an already-fitted vocabulary and idf.

    N-grams unseen at fit time are silently ignored.
    """
    counts = count_matrix(corpus, vocab)
    return normalize_matrix(tfidf_transform(counts, idf_model))

