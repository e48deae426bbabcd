"""N-gram extraction and tf-idf feature vectors over call sequences.

An n-gram is a space-joined window of n consecutive call names.  The
vocabulary is the union of all n-grams for n in [n_min, n_max] across the
corpus, with indices assigned in lexicographic order of those strings.

A vocabulary is its keys.  Call names get ids 1, 2, ... in sorted order,
and a key is a gram's n_max big-endian uint32 ids padded with 0.  No call
name may hold a character <= U+0020, so id-tuple order on keys equals
string order on the joined grams, a gram before its extensions.  Windows
are never compared as keys: ``_code_rounds`` ranks them on exact uint64
codes, each round packing the last round's rank beside as many next ids
as fit, so no code overflows and none collides.  The last round's ranks
give the vocabulary.  Counting runs the same rounds over the vocabulary's
keys, finds each window's column with one ``np.searchsorted`` per round
and each row's counts with one more ``np.unique``, and builds no n-gram
string.  N-gram strings are rendered only where they are printed, by
``_render_keys``.  This module knows no file format: ``model_io`` turns a
model file's vocabulary into keys and checks them with ``_check_keys``.

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
    ``_windows``), strictly increasing.  Nothing is checked here:
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


@dataclass(frozen=True, eq=False)
class _IdRows:
    """Rows of ``width`` ids cut from one flat uint32 sequence, 0 as padding.

    Row i is the ``lens[i]`` ids from ``seq[step * starts[i]]`` on, then
    zeros up to ``width``.  ``seq`` holds ``width`` ids from every
    ``step``-th position, which ``_pack`` reads in one pass per id.
    """

    seq: np.ndarray
    step: int
    starts: np.ndarray
    lens: np.ndarray
    width: int

    def __len__(self) -> int:
        return len(self.starts)

    def take(self, which: np.ndarray) -> "_IdRows":
        """The rows an index or mask array selects, in its order."""
        return _IdRows(self.seq, self.step, self.starts[which], self.lens[which], self.width)


def _windows(
    corpus: Sequence[SyscallTrace], index: dict[str, int], n_min: int, n_max: int
) -> tuple[np.ndarray, _IdRows]:
    """Every window of n_min..n_max calls, as parallel (trace row, ids) rows.

    A window's ids are index[name] per call, then 0 up to n_max; ids start
    at 1, so id-tuple order puts a shorter gram before its extensions.
    Calls missing from ``index`` get the id len(index) + 1, above every
    indexed one, so a window holding one matches no key built from ``index``.
    """
    lengths = np.fromiter((len(t.calls) for t in corpus), dtype=np.int64, count=len(corpus))
    total = int(lengths.sum())
    unseen = len(index) + 1
    ids = np.fromiter(
        (index.get(c, unseen) for t in corpus for c in t.calls), dtype=np.uint32, count=total
    )
    row_of = np.repeat(np.arange(len(corpus), dtype=np.int64), lengths)
    # Each trace is followed by n_max zeros, so no window runs into the next.
    at = np.arange(total) + n_max * row_of
    seq = np.zeros(total + n_max * len(corpus), dtype=np.uint32)
    seq[at] = ids
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(total)  # calls to trace end
    fits = [left >= n for n in range(n_min, n_max + 1)]
    lens = np.repeat(np.arange(n_min, n_max + 1), [np.count_nonzero(f) for f in fits])
    starts = np.concatenate([at[f] for f in fits])
    return np.concatenate([row_of[f] for f in fits]), _IdRows(seq, 1, starts, lens, n_max)


def _pack(rank: np.ndarray | None, rows: _IdRows, start: int, stop: int, bits: int) -> np.ndarray:
    """One uint64 code per row: ``rank``, then the row's ids start..stop-1, bits apiece.

    The caller keeps rank < 2**(64 - bits * (stop - start)) and every id
    < 2**bits, so no code overflows and code order is (rank, ids) order.
    The ids are packed once per position of ``rows.seq`` and each row then
    keeps as many as its length allows.  Every operand is unsigned: a signed
    one would promote the codes to float64 on numpy 1.x.
    """
    seq, step, m = rows.seq, rows.step, stop - start
    n_pos = max(0, (len(seq) - rows.width) // step + 1)  # 0 for an empty corpus or vocabulary
    shift = np.uint64(bits)
    code = np.zeros(n_pos, dtype=np.uint64)
    for k in range(start, stop):
        code <<= shift
        code |= seq[k : k + step * (n_pos - 1) + 1 : step]
    keep = np.clip(np.arange(rows.width + 1) - start, 0, m).tolist()  # ids kept per row length
    masks = np.array([((1 << bits * j) - 1) << bits * (m - j) for j in keep], dtype=np.uint64)
    code = code[rows.starts] & masks[rows.lens]
    if rank is not None:
        code |= rank.astype(np.uint64) << np.uint64(bits * m)
    return code


def _code_rounds(rows: _IdRows, bits: int):
    """Rank ``rows`` in id-tuple order, a few ids per round.

    Each round packs the previous round's rank and as many next ids as fit
    beside it into one uint64 code (``_pack``), and yields ``(start, stop,
    table, rank)``: ``table`` the sorted distinct codes and ``rank`` each
    row's index in it.  So after the round ending at id ``stop``, ``rank``
    orders the rows by their first ``stop`` ids, equal prefixes equal
    ranks.  The rounds end once every id is read, or early, once the table
    has one entry per row: the ranks then already order the rows, and ids
    ``stop`` on are unread.
    """
    rank, rank_bits, stop = None, 0, 0
    while stop < rows.width:
        m = min((64 - rank_bits) // bits, rows.width - stop)
        if m == 0:
            raise ValueError(f"{rank_bits}-bit ranks leave no room for a {bits}-bit id")
        start, stop = stop, stop + m
        table, rank = np.unique(_pack(rank, rows, start, stop, bits), return_inverse=True)
        yield start, stop, table, rank
        if len(table) == len(rows):
            return
        rank_bits = (len(table) - 1).bit_length()


def _id_bits(alphabet: Sequence[str]) -> int:
    """Bits per id: room for every alphabet id and the unseen-call id above them."""
    return (len(alphabet) + 1).bit_length()


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
    _, windows = _windows(corpus, index, n_min, n_max)
    if len(windows) == 0:
        raise EmptyVocabularyError(
            f"no trace yields an n-gram for n in [{n_min}, {n_max}]"
        )
    for _, _, table, rank in _code_rounds(windows, _id_bits(alphabet)):
        pass
    first = np.empty(len(table), dtype=np.int64)
    first[rank] = np.arange(len(windows))
    span = np.arange(n_max)
    ids = windows.seq[windows.starts[first, None] + span] * (span < windows.lens[first, None])
    keys = ids.astype(">u4").view(np.dtype((np.void, 4 * n_max))).ravel()
    return Vocabulary(alphabet=tuple(alphabet), keys=keys, n_min=n_min, n_max=n_max)


def _key_columns(
    corpus: Sequence[SyscallTrace], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """(trace row, column) of every window that is a vocabulary key.

    The vocabulary's keys go through ``_code_rounds``; each window is packed
    the same way and looked up in each round's table, and a window that
    misses one is dropped.  A hit's last rank is its column.  If the rounds
    stopped early, a hit's unread ids are compared with its column's.
    """
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    rows, windows = _windows(corpus, index, vocab.n_min, vocab.n_max)
    n_keys, n_max = len(vocab.keys), vocab.n_max
    ids = vocab.keys.view(">u4").astype(np.uint32)
    keys = _IdRows(ids, n_max, np.arange(n_keys), np.full(n_keys, n_max), n_max)
    bits = _id_bits(vocab.alphabet)
    col, stop = None, 0
    for start, stop, table, _ in _code_rounds(keys, bits):
        code = _pack(col, windows, start, stop, bits)
        if col is None:
            # Searched in code order, each search starts where the last one
            # ended, which is several times faster than in window order.  The
            # later rounds' codes then rise with their first round's.
            order = np.argsort(code)
            code, rows, windows = code[order], rows[order], windows.take(order)
        col = np.searchsorted(table, code)
        hit = col < len(table)
        hit[hit] = table[col[hit]] == code[hit]
        rows, windows, col = rows[hit], windows.take(hit), col[hit]
    hit = np.ones(len(col), dtype=bool)
    matched = keys.take(col)
    for start in range(stop, n_max, 64 // bits):
        end = min(start + 64 // bits, n_max)
        hit &= _pack(None, windows, start, end, bits) == _pack(None, matched, start, end, bits)
    return rows[hit], col[hit]


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

