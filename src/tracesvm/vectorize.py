"""N-gram extraction and tf-idf feature vectors over call sequences.

An n-gram is a space-joined window of n consecutive call names.  The
vocabulary is the union of all n-grams for n in [n_min, n_max] across the
corpus, with indices assigned in lexicographic order of those strings.

A vocabulary is its keys.  Call names get ids 1, 2, ... in sorted order
(``_id_map``), and a key is a row of a native (dim, n_max) uint32 matrix: a
gram's ids padded with 0.  A call name must be non-empty and hold no
character <= U+0020 (``_check_alphabet``), so id-tuple order on keys equals
string order on the joined grams, a gram before its extensions.  Windows
are never compared as keys: ``_code_rounds`` ranks them on exact uint64
codes, each round packing the last round's rank beside as many next ids as
fit, so no code overflows and none collides.  Each round ranks the
windows' codes by one argsort and the first of each run of equal sorted
codes (``_ranks``).  The last round's ranks pick one window per key, and
the keys are gathered from those windows in one row gather of a
sliding-window view, then cleared past each gram's length.  Counting runs
the same rounds over the vocabulary's keys, which are sorted, so their
codes are ranked without a sort, and packed straight from the key matrix,
with no row gathered and no id masked; it keeps only each round's table.
It finds each window's column with one ``np.searchsorted`` per round,
holding of each window only its start and its uint16 length, and drops
each array once its sorted or filtered copy replaces it; a hit's trace
row is read at the end from a table of each position's trace, and each
row's counts come from one more ``np.unique``.  It builds no n-gram
string.
N-gram strings are rendered only where they are printed, by
``_render_keys``.  This module owns the call-name rule, the id map and the
n-gram range (``_check_range``) and knows no file format or byte order:
``model_io`` reads a model file's keys and checks them with its own
``_check_keys``.

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

import itertools
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

    ``alphabet`` is the sorted call names, and ``keys`` a C-contiguous,
    native (dim, n_max) uint32 matrix: row j is n-gram j's alphabet ids, 0
    as padding (see ``_windows``), and the rows strictly increase.  The
    key width is ``n_max``.  Nothing is checked here: ``build_vocabulary``
    makes valid keys, and ``model_io._check_keys`` checks a model file's.
    """

    alphabet: tuple[str, ...]
    keys: np.ndarray
    n_min: int

    @property
    def n_max(self) -> int:
        return self.keys.shape[1]

    def __len__(self) -> int:
        return len(self.keys)


def _check_range(n_min: int, n_max: int) -> None:
    if not 1 <= n_min <= n_max <= MAX_NGRAM:
        raise ValueError(f"need 1 <= n_min <= n_max <= {MAX_NGRAM}, got ({n_min}, {n_max})")


def _check_alphabet(alphabet: Sequence[str]) -> None:
    """Raise ValueError unless the call names are sorted, unique, non-empty and free of characters <= U+0020.

    Such a name would make a joined gram ambiguous and break the equality
    of id order and string order that the keys rely on.
    """
    if not all(map(operator.lt, alphabet, alphabet[1:])):
        raise ValueError("alphabet: call names must be sorted and unique")
    for name in alphabet:
        if not name or _SEPARATOR.search(name):
            raise ValueError(f"alphabet: call name {name!r} is empty or holds a character <= U+0020")


def _id_map(alphabet: Sequence[str]) -> dict[str, int]:
    """Each call name's id: 1, 2, ... in alphabet order, 0 being padding."""
    return {name: i for i, name in enumerate(alphabet, start=1)}


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
            # rising[k]: indices[k] > indices[k - 1], or k starts a row (or is nnz).
            rising = np.ones(indices.size + 1, dtype=bool)
            np.greater(indices[1:], indices[:-1], out=rising[1:-1])
            rising[indptr] = True
            if not np.all(rising):
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
    ``step``-th position, which ``_pack`` reads in one pass per id.  With
    ``starts`` and ``lens`` None, as for a key matrix, every position is a
    row and holds ``width`` ids, so ``_pack`` gathers no row and masks no id.
    """

    seq: np.ndarray
    step: int
    starts: np.ndarray | None
    lens: np.ndarray | None
    width: int

    @property
    def positions(self) -> int:
        """How many positions of ``seq`` hold ``width`` ids."""
        return max(0, (len(self.seq) - self.width) // self.step + 1)

    def __len__(self) -> int:
        return self.positions if self.starts is None else len(self.starts)

    def take(self, which: np.ndarray) -> "_IdRows":
        """The rows an index or mask array selects, in its order."""
        return _IdRows(self.seq, self.step, self.starts[which], self.lens[which], self.width)


def _windows(
    corpus: Sequence[SyscallTrace], index: dict[str, int], n_min: int, n_max: int
) -> tuple[np.ndarray, _IdRows]:
    """Where each trace begins in ``seq``, and every window of n_min..n_max calls as rows of it.

    ``seq`` holds each trace's ids, index[name] per call, then n_max zeros,
    so no window runs into the next trace.  ``begins[r]`` is where trace r's
    ids start and ``begins[-1]`` the length of ``seq``, so positions
    ``begins[r]`` to ``begins[r + 1] - 1`` are trace r's.  Ids
    start at 1, so id-tuple order puts a shorter gram before its extensions.
    Calls missing from ``index`` get the id len(index) + 1, above every
    indexed one, so a window holding one matches no key built from ``index``.
    """
    lengths = np.fromiter((len(t.calls) for t in corpus), dtype=np.intp, count=len(corpus))
    total = int(lengths.sum())
    calls = itertools.chain.from_iterable(t.calls for t in corpus)
    ids = np.fromiter(map(index.get, calls, itertools.repeat(len(index) + 1)), np.uint32, total)
    begins = np.zeros(len(corpus) + 1, dtype=np.intp)
    np.cumsum(lengths + n_max, out=begins[1:])
    seq = np.zeros(begins[-1], dtype=np.uint32)
    seq[np.arange(total) + np.repeat(n_max * np.arange(len(corpus)), lengths)] = ids
    # An n-call window starts at p when seq[p] and seq[p + n - 1] are both
    # ids: ids are nonzero, and n <= n_max calls cannot span n_max zeros.
    called = seq != 0
    starts = [np.flatnonzero(called[: len(seq) - n + 1] & called[n - 1 :]) for n in range(n_min, n_max + 1)]
    # uint16 holds every length up to MAX_NGRAM.
    lens = np.repeat(np.arange(n_min, n_max + 1, dtype=np.uint16), [len(s) for s in starts])
    return begins, _IdRows(seq, 1, np.concatenate(starts), lens, n_max)


def _pack(rank: np.ndarray | None, rows: _IdRows, start: int, stop: int, bits: int) -> np.ndarray:
    """One uint64 code per row: ``rank``, then the row's ids start..stop-1, bits apiece.

    The caller keeps rank < 2**(64 - bits * (stop - start)) and every id
    < 2**bits, so no code overflows and code order is (rank, ids) order.
    The ids are packed once per position of ``rows.seq`` and each row then
    keeps as many as its length allows.  Every operand is unsigned: a signed
    one would promote the codes to float64 on numpy 1.x.
    """
    seq, step, m, n_pos = rows.seq, rows.step, stop - start, rows.positions
    shift = np.uint64(bits)
    code = np.zeros(n_pos, dtype=np.uint64)
    for k in range(start, stop):
        code <<= shift
        code |= seq[k : k + step * (n_pos - 1) + 1 : step]
    if rows.starts is not None:
        keep = np.clip(np.arange(rows.width + 1) - start, 0, m).tolist()  # ids kept per row length
        masks = np.array([((1 << bits * j) - 1) << bits * (m - j) for j in keep], dtype=np.uint64)
        code = code[rows.starts]
        code &= masks[rows.lens]
    if rank is not None:
        code |= rank.astype(np.uint64) << np.uint64(bits * m)
    return code


def _code_rounds(rows: _IdRows, bits: int, ordered: bool = False):
    """Rank ``rows`` in id-tuple order, a few ids per round.

    Each round packs the previous round's rank and as many next ids as fit
    beside it into one uint64 code (``_pack``), and yields ``(start, stop,
    table, rank)``: ``table`` the sorted distinct codes and ``rank`` each
    row's index in it.  So after the round ending at id ``stop``, ``rank``
    orders the rows by their first ``stop`` ids, equal prefixes equal
    ranks.  The rounds end once every id is read, or early, once the table
    has one entry per row: the ranks then already order the rows, and ids
    ``stop`` on are unread.  ``ordered`` rows are already in increasing
    id-tuple order, as a vocabulary's keys are, so every round's codes
    rise with the rows and ``_ranks`` needs no sort.  Other rows' codes go
    through ``_ranks`` in argsort order, and the ranks back to row order:
    ``np.unique(code, return_inverse=True)`` without its copy of the codes.
    """
    rank, rank_bits, stop = None, 0, 0
    while stop < rows.width:
        m = min((64 - rank_bits) // bits, rows.width - stop)
        if m == 0:
            raise ValueError(f"{rank_bits}-bit ranks leave no room for a {bits}-bit id")
        start, stop = stop, stop + m
        code = _pack(rank, rows, start, stop, bits)
        if ordered:
            table, rank = _ranks(code)
        else:
            order = np.argsort(code)
            table, sorted_rank = _ranks(code[order])
            del code
            rank = np.empty_like(sorted_rank)
            rank[order] = sorted_rank
            del order, sorted_rank
        yield start, stop, table, rank
        if len(table) == len(rows):
            return
        rank_bits = (len(table) - 1).bit_length()


def _run_starts(code: np.ndarray) -> np.ndarray:
    """True at the first entry of every run of equal entries of ``code``."""
    new = np.ones(len(code), dtype=bool)
    np.not_equal(code[1:], code[:-1], out=new[1:])
    return new


def _ranks(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(code, return_inverse=True)`` of non-decreasing codes, from their first differences."""
    new = _run_starts(code)
    rank = np.cumsum(new, dtype=np.intp)
    rank -= 1
    return code[new], rank


def _id_bits(alphabet: Sequence[str]) -> int:
    """Bits per id: room for every alphabet id and the unseen-call id above them."""
    return (len(alphabet) + 1).bit_length()


def _render_keys(alphabet: Sequence[str], keys: np.ndarray) -> tuple[str, ...]:
    """The space-joined n-gram string of every key, in key order."""
    names = np.array(("",) + tuple(alphabet), dtype=object)
    lengths = np.count_nonzero(keys, axis=1)
    grams = np.empty(len(keys), dtype=object)
    for n in np.unique(lengths).tolist():
        at = np.flatnonzero(lengths == n)
        grams[at] = [" ".join(w) for w in names[keys[at, :n]].tolist()]
    return tuple(grams.tolist())


def build_vocabulary(corpus: Sequence[SyscallTrace], n_min: int, n_max: int) -> Vocabulary:
    """Union of all n-grams for n in [n_min, n_max], indexed lexicographically."""
    alphabet = tuple(sorted({c for t in corpus for c in t.calls}))
    try:
        _check_range(n_min, n_max)
        _check_alphabet(alphabet)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not corpus:
        raise ValueError("corpus is empty")
    _, windows = _windows(corpus, _id_map(alphabet), n_min, n_max)
    if len(windows) == 0:
        raise EmptyVocabularyError(
            f"no trace yields an n-gram for n in [{n_min}, {n_max}]"
        )
    for _, _, table, rank in _code_rounds(windows, _id_bits(alphabet)):
        pass
    # Any window of a key's rank holds its ids: gather n_max ids from one of
    # each, then clear the ids past its length.
    window_of = np.empty(len(table), dtype=np.intp)
    window_of[rank] = np.arange(len(windows))
    del table, rank
    lens = windows.lens[window_of]
    keys = np.lib.stride_tricks.sliding_window_view(windows.seq, n_max)[windows.starts[window_of]]
    for j in range(n_min, n_max):
        keys[lens <= j, j] = 0
    return Vocabulary(alphabet=alphabet, keys=keys, n_min=n_min)


def _key_cells(corpus: Sequence[SyscallTrace], vocab: Vocabulary) -> np.ndarray:
    """``row * len(vocab) + column`` for every window of trace ``row`` that is key ``column``.

    The vocabulary's keys go through ``_code_rounds`` as rows at every
    position of the key matrix, packed with no gather and no mask, and only
    the rounds' tables are kept; each window is packed the same way and
    looked up in each round's table, and a window that misses one is
    dropped.  A hit's last rank is its column.  If the rounds stopped
    early, a hit's unread ids are compared with its column's.  Each window
    array is dropped once its sorted or filtered copy replaces it.  A hit's
    trace row is read from a table of each position's trace.
    """
    dim, n_max, bits = len(vocab), vocab.n_max, _id_bits(vocab.alphabet)
    key_ids = vocab.keys.ravel()
    keys = _IdRows(key_ids, n_max, None, None, n_max)
    rounds = [(start, stop, table) for start, stop, table, _ in _code_rounds(keys, bits, ordered=True)]
    begins, windows = _windows(corpus, _id_map(vocab.alphabet), vocab.n_min, n_max)
    col = None
    for start, stop, table in rounds:
        code = _pack(col, windows, start, stop, bits)
        if col is None:
            # Searched in code order, each search starts where the last one
            # ended, which is several times faster than in window order.  The
            # later rounds' codes then rise with their first round's.
            order = np.argsort(code)
            code = code[order]
            windows = windows.take(order)
            del order
        col = np.searchsorted(table, code)
        hit = col < len(table)
        hit[hit] = table[col[hit]] == code[hit]
        del code
        windows, col = windows.take(hit), col[hit]
    if stop < n_max:
        matched = _IdRows(key_ids, n_max, col, np.full(len(col), n_max, dtype=np.uint16), n_max)
        hit = np.ones(len(col), dtype=bool)
        for start in range(stop, n_max, 64 // bits):
            end = min(start + 64 // bits, n_max)
            hit &= _pack(None, windows, start, end, bits) == _pack(None, matched, start, end, bits)
        windows, col = windows.take(hit), col[hit]
    # Each position's trace row, as intp: an int32 row * dim can overflow.
    row_at = np.repeat(np.arange(len(begins) - 1, dtype=np.intp), np.diff(begins))
    return row_at[windows.starts] * dim + col


def count_matrix(corpus: Sequence[SyscallTrace], vocab: Vocabulary) -> FeatureMatrix:
    """Raw n-gram occurrence counts per trace, carrying labels through.

    N-grams absent from the vocabulary are ignored.
    """
    dim = len(vocab)
    cells, counts = np.unique(_key_cells(corpus, vocab), return_counts=True)
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

