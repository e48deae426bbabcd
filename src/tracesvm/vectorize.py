"""N-gram extraction and tf-idf feature vectors over call sequences.

An n-gram is a space-joined window of n consecutive call names.  The
vocabulary is the union of all n-grams for n in [n_min, n_max] across the
corpus, with indices assigned in lexicographic order of those strings.

A fitted vocabulary is integer-keyed.  Call names get ids 1, 2, ... in
sorted order, each window becomes a key of n_max big-endian uint32 ids
padded with 0, and one ``np.unique`` over the keys gives the vocabulary.
No call name may hold a character <= U+0020, so memcmp order on keys equals
string order on the joined grams, a gram before its extensions.  Counting
finds each window's column with ``np.searchsorted`` and each row's counts
with one more ``np.unique``; it builds no n-gram string.  The strings are
rendered once, on first access to ``Vocabulary.by_index``, for model files,
top features and vocabulary exports.  A vocabulary read from a model file
holds only strings; it is counted by joining each window and looking the
string up in a dict.

Inverse document
frequency uses the natural log of (1 + n_docs) / (1 + doc_frequency), so a
feature present in every document gets idf 0 and drops out of the tf-idf
vectors entirely; an optional flag adds 1 after the log to keep such
features alive.  Rows are L2-normalized before training.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptyVocabularyError
from .ingest import SyscallTrace

_SEPARATOR = re.compile(r"[\x00-\x20]")


class SparseVector:
    """Immutable-by-convention sparse vector: parallel (indices, values) arrays.

    Indices are strictly increasing and < dim; values are finite and nonzero.
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim: int):
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.ndim != 1 or values.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indices and values must be parallel 1-d arrays")
        if dim < 0:
            raise ValueError("dim must be non-negative")
        if indices.size:
            if indices[0] < 0 or indices[-1] >= dim:
                raise ValueError("indices out of range")
            if indices.size > 1 and not np.all(np.diff(indices) > 0):
                raise ValueError("indices must be strictly increasing")
            if not np.all(np.isfinite(values)) or np.any(values == 0.0):
                raise ValueError("values must be finite and nonzero")
        self.indices = indices
        self.values = values
        self.dim = dim

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]], dim: int) -> SparseVector:
        pairs = sorted(pairs)
        idx = [i for i, _ in pairs]
        val = [v for _, v in pairs]
        return cls(idx, val, dim)

    @classmethod
    def from_dense(cls, dense) -> SparseVector:
        dense = np.asarray(dense, dtype=np.float64)
        idx = np.nonzero(dense)[0]
        return cls(idx, dense[idx], dense.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def pairs(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.indices, self.values)]

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def dot_dense(self, w: np.ndarray) -> float:
        """Dot product against a dense vector of matching dimension."""
        if w.shape[0] != self.dim:
            raise DimensionMismatchError(f"vector dim {self.dim} vs dense dim {w.shape[0]}")
        return float(self.values @ w[self.indices])

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

    A vocabulary fitted on a corpus (``from_keys``) is held in integer form:
    ``alphabet`` is the sorted call names, and ``keys`` the sorted unique
    windows as void scalars (see ``_window_keys``).  Its n-gram strings are
    rendered on first access to ``by_index``.  A vocabulary built from
    strings, as a loaded model's is, has ``alphabet`` and ``keys`` None.
    """

    def __init__(self, by_index: Sequence[str], n_min: int, n_max: int):
        if not 1 <= n_min <= n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
        by_index = tuple(by_index)
        spaces = list(map(str.count, by_index, itertools.repeat(" ")))
        if spaces and not n_min <= min(spaces) + 1 <= max(spaces) + 1 <= n_max:
            raise ValueError(f"every n-gram must have {n_min} to {n_max} tokens")
        if not all(map(operator.lt, by_index, by_index[1:])):
            raise ValueError("n-grams must be sorted and unique")
        self.n_min = n_min
        self.n_max = n_max
        self.alphabet: tuple[str, ...] | None = None
        self.keys: np.ndarray | None = None
        self._by_index: tuple[str, ...] | None = by_index

    @classmethod
    def from_keys(
        cls, alphabet: Sequence[str], keys: np.ndarray, n_min: int, n_max: int
    ) -> Vocabulary:
        vocab = cls((), n_min, n_max)
        vocab.alphabet = tuple(alphabet)
        vocab.keys = keys
        vocab._by_index = None
        return vocab

    def __len__(self) -> int:
        return len(self.keys) if self.keys is not None else len(self.by_index)

    @property
    def by_index(self) -> tuple[str, ...]:
        if self._by_index is None:
            self._by_index = _render_keys(self.alphabet, self.keys, self.n_max)
        return self._by_index

    @property
    def ngram_to_index(self) -> dict[str, int]:
        # Rebuilt on demand; callers that loop should hold onto the result.
        return dict(zip(self.by_index, range(len(self.by_index))))


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


@dataclass
class FeatureMatrix:
    """A corpus as parallel sparse rows, row ids and optional labels."""

    rows: list[SparseVector]
    row_ids: list[str]
    labels: list[str] | None
    dim: int

    def __post_init__(self):
        if len(self.rows) != len(self.row_ids):
            raise ValueError("rows and row_ids must be parallel")
        if self.labels is not None and len(self.labels) != len(self.rows):
            raise ValueError("labels must parallel rows")
        for r in self.rows:
            if r.dim != self.dim:
                raise DimensionMismatchError(f"row dim {r.dim} != matrix dim {self.dim}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def nnz(self) -> int:
        return sum(r.nnz for r in self.rows)


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
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got ({n_min}, {n_max})")
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


def _string_columns(
    corpus: Sequence[SyscallTrace], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    # A vocabulary read from a model file holds only strings, and deriving
    # keys from them costs more than this join-and-lookup per window.  Model
    # format v2, which stores each n-gram as alphabet ids, removes this path.
    lookup = vocab.ngram_to_index
    cols: list[int] = []
    per_row: list[int] = []
    for trace in corpus:
        calls = trace.calls
        before = len(cols)
        for n in range(vocab.n_min, vocab.n_max + 1):
            grams = [" ".join(calls[i : i + n]) for i in range(len(calls) - n + 1)]
            cols.extend(j for j in map(lookup.get, grams) if j is not None)
        per_row.append(len(cols) - before)
    rows = np.repeat(np.arange(len(corpus), dtype=np.int64), per_row)
    return rows, np.array(cols, dtype=np.int64)


def count_matrix(corpus: Sequence[SyscallTrace], vocab: Vocabulary) -> FeatureMatrix:
    """Raw n-gram occurrence counts per trace, carrying ids and labels through.

    N-grams absent from the vocabulary are ignored.
    """
    if vocab.keys is not None:
        rows, cols = _key_columns(corpus, vocab)
    else:
        rows, cols = _string_columns(corpus, vocab)
    dim = len(vocab)
    cells, counts = np.unique(rows * dim + cols, return_counts=True)
    bounds = np.searchsorted(cells, np.arange(len(corpus) + 1) * dim).tolist()
    cols = cells % dim
    values = counts.astype(np.float64)
    labels = [t.label for t in corpus]
    have_labels = all(l is not None for l in labels)
    return FeatureMatrix(
        rows=[SparseVector(cols[a:b], values[a:b], dim) for a, b in zip(bounds, bounds[1:])],
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
    df = np.zeros(counts.dim)
    for row in counts.rows:
        df[row.indices] += 1.0
    idf = np.log((1.0 + len(counts)) / (1.0 + df))
    if add_one:
        idf += 1.0
    return IdfModel(idf=idf, n_docs=len(counts))


def tfidf_vector(counts: SparseVector, idf_model: IdfModel) -> SparseVector:
    """Per-coordinate tf * idf; coordinates whose product is 0 are dropped."""
    if counts.dim != idf_model.idf.shape[0]:
        raise DimensionMismatchError(
            f"counts dim {counts.dim} vs idf dim {idf_model.idf.shape[0]}"
        )
    vals = counts.values * idf_model.idf[counts.indices]
    keep = vals != 0.0
    return SparseVector(counts.indices[keep], vals[keep], counts.dim)


def tfidf_transform(counts: FeatureMatrix, idf_model: IdfModel) -> FeatureMatrix:
    rows = [tfidf_vector(r, idf_model) for r in counts.rows]
    return FeatureMatrix(rows=rows, row_ids=list(counts.row_ids), labels=counts.labels, dim=counts.dim)


def l2_normalize(v: SparseVector) -> SparseVector:
    """Scale to unit Euclidean length; the empty vector is returned unchanged."""
    if v.nnz == 0:
        return v
    return SparseVector(v.indices, v.values / v.norm(), v.dim)


def normalize_matrix(m: FeatureMatrix) -> FeatureMatrix:
    return FeatureMatrix(
        rows=[l2_normalize(r) for r in m.rows],
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


def write_matrix(matrix: FeatureMatrix, path: Path | str) -> None:
    """Triplet text export: a "rows cols nnz" header, then row<TAB>col<TAB>value."""
    lines = [f"{len(matrix)} {matrix.dim} {matrix.nnz}"]
    for r, row in enumerate(matrix.rows):
        for j, v in row.pairs():
            lines.append(f"{r}\t{j}\t{v!r}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def write_vocabulary(vocab: Vocabulary, path: Path | str) -> None:
    """index<TAB>ngram, one line per feature, in index order."""
    lines = [f"{i}\t{g}" for i, g in enumerate(vocab.by_index)]
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
