"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately naive and dense: straight loops, explicit
formulas, no sharing of code paths with the package under test.  The
single-step references at the end (string n-grams and per-trace counts, the
SGD objective and its mean hinge loss one row at a time, one SGD
subgradient step, one dual coordinate update) take the package's own types
or plain ``(indices, values)`` rows as arguments, and ``count_vector``
returns such a row; no trainer or vectorizer calls them.
``sgd_cumulative_l1`` is the eager form of ``train_sgd``'s pure-l1 and
elastic-net paths.  ``DualState`` and ``dual_objective`` are the dual
solver's state and objective, kept here because the package exposes
neither, and ``cd_sweeps`` runs ``cd_update`` over the same seeded
permutations that the dual solver draws, one per sweep.
``csr_matrix`` and ``matrix_from_dense`` build small test matrices from
per-row lists, and ``pairs``, ``to_dense``, ``norm`` and ``same_rows``
read rows as plain ``(indices, values)`` pairs, such as ``FeatureMatrix.rows``
holds.  ``grams`` renders a vocabulary's n-gram strings
from its key rows one id at a time, and ``vocabulary_of`` builds those rows
from strings the same way; ``canonical_text`` and ``canonical_text_v3``
are the v4 and v3 model files as one ``json.dumps`` call writes them, the
arrays packed with ``struct``, and ``front_code`` is the front coding of id
lists that v3 and v4 share, one list at a time, and ``front_decode`` its
reverse.
``void_vocabulary_keys`` and
``void_count_csr`` are the vectorizer's former lookup: one ``np.unique``
and one ``np.searchsorted`` over void keys of big-endian ids packed with
``struct``.
``per_line_calls`` is the line-by-line trace reader, with its own copy of
the call-name pattern, that ``read_trace_file``'s one pass must agree with
on every log whose lines are UTF-8 and break nowhere else.
"""

from __future__ import annotations

import base64
import json
import math
import re
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tracesvm.ingest import SyscallTrace
from tracesvm.model_io import ModelArtifact
from tracesvm.vectorize import FeatureMatrix, Vocabulary

_CALL_LINE = re.compile(r"[ \t]*((?:Nt|nt)[A-Za-z0-9_]*)(?:\(|[ \t\r]*$)")


def per_line_calls(raw: bytes) -> tuple[str, ...]:
    r"""Lowercased call names of a log, read one line at a time.

    The bytes are split with ``bytes.splitlines``; each line is decoded as
    UTF-8 and dropped when that fails; the decoded lines are joined with
    LF and split again with ``str.splitlines``, which also breaks at
    ``\x0b``, ``\x0c``, ``\x1c``-``\x1e``, U+0085, U+2028 and U+2029; and each
    line is matched alone.  Empty when no line holds a call.
    """
    lines = []
    for chunk in raw.splitlines():
        try:
            lines.append(chunk.decode("utf-8"))
        except UnicodeDecodeError:
            continue
    calls = []
    for line in "\n".join(lines).splitlines():
        m = _CALL_LINE.match(line)
        if m:
            calls.append(m.group(1).lower())
    return tuple(calls)


def dense_tfidf_pipeline(corpus_calls, n_min, n_max):
    """Dense reimplementation: vocab keys, idf list, normalized row lists."""
    grams = set()
    for calls in corpus_calls:
        for n in range(n_min, n_max + 1):
            for i in range(len(calls) - n + 1):
                grams.add(" ".join(calls[i : i + n]))
    keys = sorted(grams)
    col = {g: j for j, g in enumerate(keys)}
    counts = []
    for calls in corpus_calls:
        row = [0.0] * len(keys)
        for n in range(n_min, n_max + 1):
            for i in range(len(calls) - n + 1):
                row[col[" ".join(calls[i : i + n])]] += 1.0
        counts.append(row)
    n_docs = len(corpus_calls)
    idf = []
    for j in range(len(keys)):
        df = sum(1 for row in counts if row[j] > 0)
        idf.append(math.log((1 + n_docs) / (1 + df)))
    normalized = []
    for row in counts:
        tfidf = [row[j] * idf[j] for j in range(len(keys))]
        norm = math.sqrt(sum(v * v for v in tfidf))
        normalized.append([v / norm for v in tfidf] if norm > 0 else tfidf)
    return keys, idf, normalized


def pairwise_auc(scores, truths):
    """Fraction of correctly ordered positive/negative pairs, ties count half.

    Computed as an integer numerator over 2 * n_pos * n_neg so the division
    is a single exact operation.
    """
    pos = [s for s, y in zip(scores, truths) if y == 1]
    neg = [s for s, y in zip(scores, truths) if y == -1]
    if not pos or not neg:
        raise ValueError("need both classes")
    num = 0
    for p in pos:
        for q in neg:
            if p > q:
                num += 2
            elif p == q:
                num += 1
    return num / (2 * len(pos) * len(neg))


def box_constrained_min(Q, C, resolution=21, rounds=8):
    """Brute-force nested-scan minimizer of 1/2 a'Qa - sum(a) over [0, C]^n.

    Refines a uniform grid around the running argmin; returns (value, point).
    Intended for n <= 3.
    """
    Q = np.asarray(Q, dtype=np.float64)
    n = Q.shape[0]
    centers = np.full(n, C / 2.0)
    half = C / 2.0
    best_val, best_pt = None, None
    for _ in range(rounds):
        axes = [
            np.clip(np.linspace(centers[k] - half, centers[k] + half, resolution), 0.0, C)
            for k in range(n)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        vals = 0.5 * np.einsum("ij,jk,ik->i", pts, Q, pts) - pts.sum(axis=1)
        k = int(np.argmin(vals))
        best_val, best_pt = float(vals[k]), pts[k].copy()
        centers = best_pt
        # Keep a window a few grid spacings wide so the continuum argmin
        # cannot fall outside the refined box.
        half = 2.5 * (2.0 * half / (resolution - 1))
    return best_val, best_pt


def augmented_q_matrix(rows_dense, labels):
    """Q_ij = y_i y_j (x_i . x_j + 1) from dense rows, bias fold-in explicit."""
    rows = [np.asarray(r, dtype=np.float64) for r in rows_dense]
    n = len(rows)
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            Q[i, j] = labels[i] * labels[j] * (float(rows[i] @ rows[j]) + 1.0)
    return Q


def central_difference_gradient(f, x, h=1e-6):
    """Coordinate-wise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        g[j] = (f(x + step) - f(x - step)) / (2.0 * h)
    return g


def csr_matrix(rows, dim, labels=None) -> FeatureMatrix:
    """A FeatureMatrix from per-row (indices, values) lists."""
    lengths = [len(indices) for indices, _ in rows]
    return FeatureMatrix(
        indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        indices=np.array([j for indices, _ in rows for j in indices], dtype=np.int64),
        data=np.array([v for _, values in rows for v in values], dtype=np.float64),
        labels=labels,
        dim=dim,
    )


def matrix_from_dense(rows, labels=None) -> FeatureMatrix:
    """A FeatureMatrix holding the nonzeros of equal-length dense rows."""
    dense = [np.asarray(r, dtype=np.float64) for r in rows]
    nonzero = [np.flatnonzero(r) for r in dense]
    return csr_matrix([(j, r[j]) for j, r in zip(nonzero, dense)], dense[0].shape[0], labels)


def pairs(row) -> list[tuple[int, float]]:
    """An (indices, values) row's (index, value) pairs in index order."""
    indices, values = row
    return [(int(j), float(x)) for j, x in zip(indices, values)]


def to_dense(row, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    for j, x in pairs(row):
        out[j] = x
    return out


def norm(row) -> float:
    return math.sqrt(sum(x * x for _, x in pairs(row)))


def same_rows(a: Sequence, b: Sequence) -> bool:
    """As many (indices, values) rows, each with the same (index, value) pairs."""
    return len(a) == len(b) and all(pairs(x) == pairs(y) for x, y in zip(a, b))


def grams(vocab: Vocabulary) -> list[str]:
    """Each column's space-joined n-gram, from its key row's nonzero ids."""
    return [" ".join(vocab.alphabet[i - 1] for i in ids if i != 0) for ids in vocab.keys.tolist()]


def vocabulary_of(strings: Sequence[str], n_min: int, n_max: int) -> Vocabulary:
    """The vocabulary of sorted, unique n-gram strings, each key row padded with 0."""
    alphabet = tuple(sorted({name for gram in strings for name in gram.split(" ")}))
    index = {name: i for i, name in enumerate(alphabet, start=1)}
    rows = []
    for gram in strings:
        ids = [index[name] for name in gram.split(" ")]
        rows.append(ids + [0] * (n_max - len(ids)))
    keys = np.array(rows, dtype=np.uint32).reshape(len(rows), n_max)
    return Vocabulary(alphabet=alphabet, keys=keys, n_min=n_min)


def void_window_keys(
    corpus_calls: Sequence[Sequence[str]], alphabet: Sequence[str], n_min: int, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every window of n_min..n_max calls as parallel (trace row, void key) arrays.

    A key is n_max big-endian uint32 ids packed with struct: 1, 2, ... in
    ``alphabet`` order, len(alphabet) + 1 for a name outside it, 0 as padding.
    """
    index = {name: i for i, name in enumerate(alphabet, start=1)}
    rows, raw = [], bytearray()
    for row, calls in enumerate(corpus_calls):
        ids = [index.get(name, len(alphabet) + 1) for name in calls]
        for n in range(n_min, n_max + 1):
            for i in range(len(ids) - n + 1):
                rows.append(row)
                raw += struct.pack(f">{n_max}I", *ids[i : i + n], *[0] * (n_max - n))
    keys = np.frombuffer(bytes(raw), dtype=np.dtype((np.void, 4 * n_max)))
    return np.array(rows, dtype=np.int64), keys


def void_vocabulary_keys(
    corpus_calls: Sequence[Sequence[str]], n_min: int, n_max: int
) -> np.ndarray:
    """The vocabulary's keys as one ``np.unique`` over the windows' void keys."""
    alphabet = sorted({name for calls in corpus_calls for name in calls})
    return np.unique(void_window_keys(corpus_calls, alphabet, n_min, n_max)[1])


def void_count_csr(
    corpus_calls: Sequence[Sequence[str]], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of the raw counts per trace.

    Each window's column is found by ``np.searchsorted`` over the void keys,
    the vocabulary's rows packed big-endian the same way, and an equality
    check.
    """
    rows, keys = void_window_keys(corpus_calls, vocab.alphabet, vocab.n_min, vocab.n_max)
    table = np.frombuffer(vocab.keys.astype(">u4").tobytes(), dtype=np.dtype((np.void, 4 * vocab.n_max)))
    cols = np.searchsorted(table, keys)
    hit = cols < len(table)
    hit[hit] = table[cols[hit]] == keys[hit]
    per_row = [dict() for _ in corpus_calls]
    for row, col in zip(rows[hit].tolist(), cols[hit].tolist()):
        per_row[row][col] = per_row[row].get(col, 0) + 1
    indices = [col for counts in per_row for col in sorted(counts)]
    data = [float(counts[col]) for counts in per_row for col in sorted(counts)]
    indptr = np.cumsum([0] + [len(counts) for counts in per_row])
    return (
        indptr.astype(np.int64),
        np.array(indices, dtype=np.int64),
        np.array(data, dtype=np.float64),
    )


def canonical_text(artifact: ModelArtifact) -> str:
    """The v4 model file: one indented json.dumps, its arrays packed by struct.

    The vocabulary and idf fields are v3's (``canonical_text_v3``).  Bit k
    of ``weight_bitmap``'s byte j is set when weight 8j + k is nonzero;
    ``-0.0`` counts as zero.  The weight table is the sorted set of the
    nonzero weights' bit patterns as uint64, and ``weight_index`` each
    nonzero weight's position in it, in column order, in the narrowest of
    ``B``, ``H`` and ``I`` that holds the table's last position.
    """
    model, vocab = artifact.model, artifact.vocabulary
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    ids = [[index[name] for name in gram.split(" ")] for gram in grams(vocab)]
    prefix, suffix_len, suffix = front_code(ids)
    idf_bits = [struct.unpack("<Q", struct.pack("<d", float(v)))[0] for v in artifact.idf.idf]
    idf_table = sorted(set(idf_bits))
    idf_position = {b: i for i, b in enumerate(idf_table)}
    weights = [float(w) for w in model.weights]
    bitmap = bytearray((len(weights) + 7) // 8)
    for j, w in enumerate(weights):
        if w != 0:
            bitmap[j // 8] |= 1 << (j % 8)
    bits = [struct.unpack("<Q", struct.pack("<d", w))[0] for w in weights if w != 0]
    table = sorted(set(bits))
    position = {b: i for i, b in enumerate(table)}
    document = {
        "format_version": 4,
        "created_by": "tracesvm/0.1.0",
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": vocab.n_min,
        "ngram_max": vocab.n_max,
        "n_docs": artifact.idf.n_docs,
        "bias": model.bias,
        "alphabet": list(vocab.alphabet),
        "vocabulary_prefix": _b64(_pack_uints(prefix, vocab.n_max)),
        "vocabulary_suffix_len": _b64(_pack_uints(suffix_len, vocab.n_max)),
        "vocabulary_suffix": _b64(_pack_uints(suffix, len(vocab.alphabet))),
        "idf_table": _b64(struct.pack(f"<{len(idf_table)}Q", *idf_table)),
        "idf_index": _b64(_pack_uints([idf_position[b] for b in idf_bits], len(idf_table) - 1)),
        "weight_bitmap": _b64(bytes(bitmap)),
        "weight_table": _b64(struct.pack(f"<{len(table)}Q", *table)),
        "weight_index": _b64(_pack_uints([position[b] for b in bits], len(table) - 1)),
    }
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def canonical_text_v3(artifact: ModelArtifact) -> str:
    """The v3 model file: one indented json.dumps, its arrays packed by struct.

    Each n-gram's ids are looked up in the alphabet from its string, as
    ``grams`` renders it, and front-coded against the n-gram before it.  The
    idf table is the sorted set of the values' bit patterns as uint64.  Each
    integer array takes the narrowest of ``B``, ``H`` and ``I`` that holds
    its largest possible value: ``ngram_max`` for the lengths, the alphabet
    size for the ids and the table's last position for the idf index.
    """
    model, vocab = artifact.model, artifact.vocabulary
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    ids = [[index[name] for name in gram.split(" ")] for gram in grams(vocab)]
    prefix, suffix_len, suffix = front_code(ids)
    bits = [struct.unpack("<Q", struct.pack("<d", float(v)))[0] for v in artifact.idf.idf]
    table = sorted(set(bits))
    position = {b: i for i, b in enumerate(table)}
    nz = [j for j, w in enumerate(model.weights) if w != 0]
    document = {
        "format_version": 3,
        "created_by": "tracesvm/0.1.0",
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": vocab.n_min,
        "ngram_max": vocab.n_max,
        "n_docs": artifact.idf.n_docs,
        "bias": model.bias,
        "alphabet": list(vocab.alphabet),
        "vocabulary_prefix": _b64(_pack_uints(prefix, vocab.n_max)),
        "vocabulary_suffix_len": _b64(_pack_uints(suffix_len, vocab.n_max)),
        "vocabulary_suffix": _b64(_pack_uints(suffix, len(vocab.alphabet))),
        "idf_table": _b64(struct.pack(f"<{len(table)}Q", *table)),
        "idf_index": _b64(_pack_uints([position[b] for b in bits], len(table) - 1)),
        "weight_index": _b64(struct.pack(f"<{len(nz)}I", *nz)),
        "weight_value": _b64(struct.pack(f"<{len(nz)}d", *[float(model.weights[j]) for j in nz])),
    }
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def front_code(grams_ids: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """(prefix, suffix_len, suffix) of id lists, in order.

    ``prefix`` counts each list's leading ids equal to those of the list
    before it, 0 for the first; ``suffix_len`` its ids after them; and
    ``suffix`` those ids, concatenated.
    """
    prefix, suffix_len, suffix = [], [], []
    previous: Sequence[int] = ()
    for ids in grams_ids:
        shared = 0
        while shared < min(len(ids), len(previous)) and ids[shared] == previous[shared]:
            shared += 1
        prefix.append(shared)
        suffix_len.append(len(ids) - shared)
        suffix.extend(ids[shared:])
        previous = ids
    return prefix, suffix_len, suffix


def front_decode(prefix: Sequence[int], suffix_len: Sequence[int], suffix: Sequence[int]) -> list[list[int]]:
    """The id lists that front-coded fields spell, the reverse of ``front_code``.

    List i is the first ``prefix[i]`` ids of list i - 1 (as many as it has),
    then the next ``suffix_len[i]`` ids of ``suffix``.
    """
    lists, previous, at = [], [], 0
    for shared, added in zip(prefix, suffix_len):
        previous = previous[:shared] + list(suffix[at : at + added])
        lists.append(previous)
        at += added
    return lists


def _pack_uints(values: Sequence[int], largest: int) -> bytes:
    """Little-endian, as uint8, uint16 or uint32: the first that holds ``largest``."""
    code = "B" if largest <= 0xFF else "H" if largest <= 0xFFFF else "I"
    return struct.pack(f"<{len(values)}{code}", *values)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def ngram_to_index(vocab: Vocabulary) -> dict[str, int]:
    """Each n-gram string's column."""
    return dict(zip(grams(vocab), range(len(vocab))))


def extract_ngrams(calls: Sequence[str], n: int) -> list[str]:
    """All contiguous space-joined windows of length n, in order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [" ".join(calls[i : i + n]) for i in range(len(calls) - n + 1)]


def count_vector(
    trace: SyscallTrace, vocab: Vocabulary, _lookup: dict[str, int] | None = None
) -> tuple[list[int], list[float]]:
    """Raw occurrence counts of vocabulary n-grams in one trace, as an (indices, values) row.

    N-grams absent from the vocabulary are ignored.
    """
    lookup = _lookup if _lookup is not None else ngram_to_index(vocab)
    counts: dict[int, int] = {}
    for n in range(vocab.n_min, vocab.n_max + 1):
        for gram in extract_ngrams(trace.calls, n):
            j = lookup.get(gram)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
    columns = sorted(counts)
    return columns, [float(counts[j]) for j in columns]


def regularizer_subgradient(w: np.ndarray, penalty: str, phi: float = 0.5) -> np.ndarray:
    """dR/dw for ``sgd.regularizer_value``'s R, taking sign(0) as 0."""
    out = []
    for x in w:
        sign = 1.0 if x > 0 else -1.0 if x < 0 else 0.0
        if penalty == "l2":
            out.append(float(x))
        elif penalty == "l1":
            out.append(0.5 * sign)
        else:
            out.append(phi * x + (1.0 - phi) * sign)
    return np.array(out, dtype=np.float64)


def sgd_mean_hinge(w, b, matrix: FeatureMatrix, labels) -> float:
    """The mean hinge loss one row at a time.

    Each row's score, its values dotted with w at its columns plus b, gives
    max(0, 1 - y * score), added to a running total; the mean follows.
    """
    total = 0.0
    for i, y in enumerate(labels):
        lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
        score = matrix.data[lo:hi] @ w[matrix.indices[lo:hi]] + b
        total += max(0.0, 1.0 - y * score)
    return total / len(matrix)


def sgd_objective(w, b, matrix: FeatureMatrix, labels, alpha, penalty, phi=0.5) -> float:
    """``sgd.objective`` one row at a time: ``sgd_mean_hinge`` plus alpha
    times R with both its sums, the one its coefficient zeroes too."""
    l2, l1 = {"l2": (1.0, 0.0), "l1": (0.0, 0.5)}.get(penalty, (phi, 1.0 - phi))
    penalty_value = float(0.5 * l2 * np.sum(w * w) + l1 * np.sum(np.abs(w)))
    return sgd_mean_hinge(w, b, matrix, labels) + alpha * penalty_value


def sgd_step(
    w: np.ndarray,
    b: float,
    x,
    label: int,
    alpha: float,
    eta: float,
    penalty: str,
    phi: float = 0.5,
) -> tuple[np.ndarray, float]:
    """One plain subgradient step of the objective on one (indices, values) example x.

    Returns fresh (w, b), inputs untouched.  Both subgradients are evaluated
    at the incoming (w, b): the penalty's is alpha * dR/dw with sign(w) for
    the l1 part, and the bias takes the loss step undamped.  ``train_sgd``
    takes neither literally: its l1 part is the cumulative penalty
    (``sgd_cumulative_l1``) and its bias step is damped by 0.01.
    """
    indices, values = np.asarray(x[0], dtype=np.int64), np.asarray(x[1], dtype=np.float64)
    score = float(values @ w[indices]) + b
    grad = alpha * regularizer_subgradient(w, penalty, phi)
    w_new = w - eta * grad
    b_new = b
    if label * score < 1.0:
        w_new[indices] += eta * label * values
        b_new = b + eta * label
    return w_new, b_new


def sgd_cumulative_l1(rows_dense, labels, alpha, t0, epochs, seed, phi=None):
    """SGD that applies the l2 shrink and the cumulative l1 penalty to every weight at every step.

    ``phi`` None is pure l1, whose R carries 1/2: no l2 shrink, and l1
    coefficient 1/2.  A number is elastic net: l2 coefficient phi and l1
    coefficient 1 - phi.  Step t: eta = 1 / (alpha * (t0 + t)); every
    weight is multiplied by 1 - eta * alpha * l2; u, the l1 shrink any
    weight could have had, grows by eta * alpha * l1; then every weight gets
    the shrink it is still owed, w_j > 0 becoming max(0, w_j - (u + q_j))
    and w_j < 0 becoming min(0, w_j + (u - q_j)), where q_j is the signed
    sum of the shrinks w_j has had; then the hinge step on the example, the
    bias moving 0.01 * eta * y.  After each epoch every weight gets its due
    once more.  The permutations are ``train_sgd``'s for the same seed;
    exactly ``epochs`` epochs run.  Returns (w, b).
    """
    l2, l1 = (0.0, 0.5) if phi is None else (phi, 1.0 - phi)
    rows = [[float(x) for x in row] for row in rows_dense]
    dim = len(rows[0])
    w = [0.0] * dim
    q = [0.0] * dim
    u, b, t = 0.0, 0.0, 0
    rng = np.random.default_rng(seed)

    def settle():
        for j in range(dim):
            z = w[j]
            if z > 0:
                w[j] = max(0.0, z - (u + q[j]))
            elif z < 0:
                w[j] = min(0.0, z + (u - q[j]))
            q[j] += w[j] - z

    for _ in range(epochs):
        for i in rng.permutation(len(rows)):
            t += 1
            eta = 1.0 / (alpha * (t0 + t))
            if l2:
                w = [(1.0 - eta * alpha * l2) * z for z in w]
            u += eta * alpha * l1
            settle()
            score = b
            for x, wj in zip(rows[i], w):
                score += x * wj
            if labels[i] * score < 1.0:
                for j in range(dim):
                    w[j] += eta * labels[i] * rows[i][j]
                b += 0.01 * eta * labels[i]
        settle()
    return np.array(w), b


@dataclass
class DualState:
    """Dual variables plus the augmented primal vector they imply."""

    alpha_dual: np.ndarray  # one per row, in [0, C]
    w: np.ndarray  # dim + 1; w[-1] is the bias coordinate


def dual_objective(state: DualState) -> float:
    """1/2 ||w||^2 - sum(a), using the state's augmented w."""
    return 0.5 * float(state.w @ state.w) - float(np.sum(state.alpha_dual))


def init_state(matrix: FeatureMatrix) -> DualState:
    return DualState(alpha_dual=np.zeros(len(matrix)), w=np.zeros(matrix.dim + 1))


def q_entry(i: int, j: int, matrix: FeatureMatrix, labels: Sequence[int]) -> float:
    """Q_ij = y_i y_j (x_i . x_j) over bias-augmented rows."""
    a, b = matrix.rows[i], matrix.rows[j]
    common, ia, ib = np.intersect1d(a.indices, b.indices, return_indices=True)
    dot = float(a.values[ia] @ b.values[ib]) + 1.0  # + bias coord product
    return labels[i] * labels[j] * dot


def gradient(i: int, state: DualState, matrix: FeatureMatrix, labels: Sequence[int]) -> float:
    """G_i = y_i (w . x_i) - 1 with x_i augmented."""
    row = matrix.rows[i]
    wx = float(row.values @ state.w[row.indices]) + state.w[-1]
    return labels[i] * wx - 1.0


def projected_gradient(
    i: int, state: DualState, matrix: FeatureMatrix, labels: Sequence[int], C: float
) -> float:
    """G_i projected onto the box: 0 at an active bound that G_i pushes against."""
    g = gradient(i, state, matrix, labels)
    a = state.alpha_dual[i]
    if a <= 0.0:
        return min(g, 0.0)
    if a >= C:
        return max(g, 0.0)
    return g


def cd_update(
    i: int, state: DualState, matrix: FeatureMatrix, labels: Sequence[int], C: float
) -> DualState:
    """Move coordinate i to its clipped univariate minimum; returns a new state."""
    row = matrix.rows[i]
    qii = float(row.values @ row.values) + 1.0
    g = gradient(i, state, matrix, labels)
    new_alpha = min(max(state.alpha_dual[i] - g / qii, 0.0), C)
    alpha_dual = state.alpha_dual.copy()
    w = state.w.copy()
    delta = new_alpha - alpha_dual[i]
    if delta != 0.0:
        alpha_dual[i] = new_alpha
        w[row.indices] += (delta * labels[i]) * row.values
        w[-1] += delta * labels[i]
    return DualState(alpha_dual=alpha_dual, w=w)


def cd_sweeps(matrix: FeatureMatrix, labels: Sequence[int], C: float, seed: int):
    """Endless sweeps of ``cd_update`` from the zero state.

    Each sweep visits the rows that hold a feature in one
    ``np.random.default_rng(seed).permutation`` of them, drawn from one
    generator, and yields the list of states after each of its updates.
    """
    active = [i for i in range(len(matrix)) if matrix.rows[i].nnz > 0]
    rng = np.random.default_rng(seed)
    state = init_state(matrix)
    while True:
        path = []
        for i in rng.permutation(active):
            state = cd_update(int(i), state, matrix, labels, C)
            path.append(state)
        yield path
