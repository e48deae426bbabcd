"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately naive and dense: straight loops, explicit
formulas, no sharing of code paths with the package under test.  The
single-step references at the end (string n-grams and per-trace counts, one
SGD subgradient step, one dual coordinate update) take the package's own
types as arguments; no trainer or vectorizer calls them.
``sgd_cumulative_l1`` is the eager form of ``train_sgd``'s pure-l1 path.
``csr_matrix`` and ``matrix_from_dense`` build small test matrices from
per-row lists, and ``canonical_text`` and ``canonical_text_v1`` are the v2
and v1 model files as one ``json.dumps`` call writes them.
"""

from __future__ import annotations

import base64
import json
import math
import struct
from typing import Sequence

import numpy as np

from tracesvm.dual_cd import DualState
from tracesvm.ingest import SyscallTrace
from tracesvm.model_io import ModelArtifact
from tracesvm.sgd import regularizer_subgradient
from tracesvm.vectorize import FeatureMatrix, SparseVector, Vocabulary


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
    """A FeatureMatrix from per-row (indices, values) lists, row ids r0, r1, ..."""
    lengths = [len(indices) for indices, _ in rows]
    return FeatureMatrix(
        indptr=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
        indices=np.array([j for indices, _ in rows for j in indices], dtype=np.int64),
        data=np.array([v for _, values in rows for v in values], dtype=np.float64),
        row_ids=[f"r{i}" for i in range(len(rows))],
        labels=labels,
        dim=dim,
    )


def matrix_from_dense(rows, labels=None) -> FeatureMatrix:
    """A FeatureMatrix holding the nonzeros of equal-length dense rows."""
    dense = [np.asarray(r, dtype=np.float64) for r in rows]
    nonzero = [np.flatnonzero(r) for r in dense]
    return csr_matrix([(j, r[j]) for j, r in zip(nonzero, dense)], dense[0].shape[0], labels)


def canonical_text(artifact: ModelArtifact) -> str:
    """The v2 model file: one indented json.dumps, its arrays packed by struct.

    Each n-gram's ids are looked up from its string in the alphabet, not
    taken from the vocabulary's keys.
    """
    model, vocab = artifact.model, artifact.vocabulary
    index = {name: i for i, name in enumerate(vocab.alphabet, start=1)}
    vocabulary = b""
    for gram in vocab.by_index:
        ids = [index[name] for name in gram.split(" ")]
        vocabulary += struct.pack(f">{vocab.n_max}I", *ids, *[0] * (vocab.n_max - len(ids)))
    idf = [float(v) for v in artifact.idf.idf]
    nz = [j for j, w in enumerate(model.weights) if w != 0]
    document = {
        "format_version": 2,
        "created_by": "tracesvm/0.1.0",
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": vocab.n_min,
        "ngram_max": vocab.n_max,
        "n_docs": artifact.idf.n_docs,
        "bias": model.bias,
        "alphabet": list(vocab.alphabet),
        "vocabulary": _b64(vocabulary),
        "idf": _b64(struct.pack(f"<{len(idf)}d", *idf)),
        "weight_index": _b64(struct.pack(f"<{len(nz)}I", *nz)),
        "weight_value": _b64(struct.pack(f"<{len(nz)}d", *[float(model.weights[j]) for j in nz])),
    }
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def canonical_text_v1(artifact: ModelArtifact) -> str:
    """The v1 model file, which nothing writes any more: one indented json.dumps."""
    model = artifact.model
    document = {
        "format_version": 1,
        "created_by": "tracesvm/0.1.0",
        "trainer": model.metadata.get("trainer"),
        "config": {k: v for k, v in model.metadata.items() if k != "trainer"},
        "ngram_min": artifact.vocabulary.n_min,
        "ngram_max": artifact.vocabulary.n_max,
        "vocabulary": list(artifact.vocabulary.by_index),
        "idf": [float(v) for v in artifact.idf.idf],
        "n_docs": artifact.idf.n_docs,
        "weights": [[j, float(w)] for j, w in enumerate(model.weights) if w != 0],
        "bias": model.bias,
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def ngram_to_index(vocab: Vocabulary) -> dict[str, int]:
    """Each n-gram string's column."""
    return dict(zip(vocab.by_index, range(len(vocab))))


def extract_ngrams(calls: Sequence[str], n: int) -> list[str]:
    """All contiguous space-joined windows of length n, in order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [" ".join(calls[i : i + n]) for i in range(len(calls) - n + 1)]


def count_vector(trace: SyscallTrace, vocab: Vocabulary, _lookup: dict[str, int] | None = None) -> SparseVector:
    """Raw occurrence counts of vocabulary n-grams in one trace.

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
    return SparseVector(columns, [float(counts[j]) for j in columns], len(vocab))


def sgd_step(
    w: np.ndarray,
    b: float,
    x: SparseVector,
    label: int,
    alpha: float,
    eta: float,
    penalty: str,
    phi: float = 0.5,
) -> tuple[np.ndarray, float]:
    """One plain subgradient step of the objective on one example.

    Returns fresh (w, b), inputs untouched.  Both subgradients are evaluated
    at the incoming (w, b): the penalty's is alpha * dR/dw with sign(w) for
    the l1 part, and the bias takes the loss step undamped.  ``train_sgd``
    takes neither literally: its l1 part is the cumulative penalty
    (``sgd_cumulative_l1``) and its bias step is damped by 0.01.
    """
    score = float(x.values @ w[x.indices]) + b
    grad = alpha * regularizer_subgradient(w, penalty, phi)
    w_new = w - eta * grad
    b_new = b
    if label * score < 1.0:
        w_new[x.indices] += eta * label * x.values
        b_new = b + eta * label
    return w_new, b_new


def sgd_cumulative_l1(rows_dense, labels, alpha, t0, epochs, seed):
    """Pure-l1 SGD that applies the cumulative penalty to every weight at every step.

    Step t: eta = 1 / (alpha * (t0 + t)); u, the l1 shrink any weight could
    have had, grows by eta * alpha / 2 (l1's R carries 1/2); then every
    weight gets the shrink it is still owed, w_j > 0 becoming
    max(0, w_j - (u + q_j)) and w_j < 0 becoming min(0, w_j + (u - q_j)),
    where q_j is the signed sum of the shrinks w_j has had; then the hinge
    step on the example, the bias moving 0.01 * eta * y.  After each epoch
    every weight gets its due once more.  The permutations are
    ``train_sgd``'s for the same seed; exactly ``epochs`` epochs run.
    Returns (w, b).
    """
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
            u += eta * alpha * 0.5
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


def init_state(matrix: FeatureMatrix) -> DualState:
    return DualState(
        alpha_dual=np.zeros(len(matrix)), w=np.zeros(matrix.dim + 1), outer_iter=0
    )


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
    return DualState(alpha_dual=alpha_dual, w=w, outer_iter=state.outer_iter)
