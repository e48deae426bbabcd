"""Classification metrics, per-class reports, ROC curves and model inspection.

Malware is the positive class (+1) everywhere.  Precision, recall and F1
return 0.0 when their denominator is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, LengthMismatchError, SingleClassError
from .linear_model import LinearModel
from .util import open_new
from .vectorize import Vocabulary, _render_keys, _run_starts


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predictions: Sequence[int], truths: Sequence[int]) -> ConfusionCounts:
    """Count the four outcomes; predictions and truths are +1/-1 sequences."""
    preds = np.asarray(predictions, dtype=np.int64)
    ys = np.asarray(truths, dtype=np.int64)
    if preds.shape != ys.shape:
        raise LengthMismatchError(f"{preds.shape} predictions vs {ys.shape} truths")
    if preds.size == 0:
        raise LengthMismatchError("cannot build a confusion matrix from zero samples")
    return ConfusionCounts(
        tp=int(np.sum((preds == 1) & (ys == 1))),
        fp=int(np.sum((preds == 1) & (ys == -1))),
        tn=int(np.sum((preds == -1) & (ys == -1))),
        fn=int(np.sum((preds == -1) & (ys == 1))),
    )


def precision_score(c: ConfusionCounts) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall_score(c: ConfusionCounts) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f1_score(precision: float, recall: float) -> float:
    denom = precision + recall
    return 2.0 * precision * recall / denom if denom else 0.0


def accuracy_score(c: ConfusionCounts) -> float:
    return (c.tp + c.tn) / c.total


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvaluationReport:
    """Per-class scores plus their average."""

    benign: ClassScores
    malware: ClassScores
    average: ClassScores


def _class_scores(c: ConfusionCounts) -> ClassScores:
    """Scores of the class that ``c`` counts as positive."""
    precision, recall = precision_score(c), recall_score(c)
    return ClassScores(precision, recall, f1_score(precision, recall), support=c.tp + c.fn)


def classification_report(
    predictions: Sequence[int],
    truths: Sequence[int],
    macro: bool = False,
) -> EvaluationReport:
    """Benign and malware scores with a support-weighted (or macro) average."""
    c = confusion(predictions, truths)
    mal = _class_scores(c)
    # Benign scores are the same computation with the roles flipped.
    ben = _class_scores(ConfusionCounts(tp=c.tn, fp=c.fn, tn=c.tp, fn=c.fp))
    total = ben.support + mal.support
    if macro:
        wb = wm = 0.5
    else:
        wb, wm = ben.support / total, mal.support / total
    avg = ClassScores(
        precision=wb * ben.precision + wm * mal.precision,
        recall=wb * ben.recall + wm * mal.recall,
        f1=wb * ben.f1 + wm * mal.f1,
        support=total,
    )
    return EvaluationReport(benign=ben, malware=mal, average=avg)


@dataclass(frozen=True)
class RocCurve:
    """(fpr, tpr, threshold) points in descending-threshold order, plus AUC."""

    points: tuple[tuple[float, float, float], ...]
    auc: float


def roc_curve(scores: Sequence[float], truths: Sequence[int]) -> RocCurve:
    """ROC over the distinct score thresholds, highest first.

    The curve starts at (0, 0) under a +infinity sentinel threshold and ends
    at (1, 1); at threshold t an example is called malware when its score is
    >= t, so tied scores collapse into a single point, whose threshold is
    the first of them in input order (0.0 and -0.0 tie).  AUC is
    trapezoidal.  A NaN score raises ValueError.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(truths, dtype=np.int64)
    if s.shape != y.shape:
        raise LengthMismatchError(f"{s.shape} scores vs {y.shape} truths")
    if np.isnan(s).any():
        raise ValueError("ROC scores must not be NaN")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == -1))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("ROC needs both classes in the ground truth")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # One block per run of tied scores; tp and fp count through its end.
    starts = np.flatnonzero(_run_starts(s_sorted))
    ends = np.append(starts[1:], s_sorted.size)
    tp = np.cumsum(y[order] == 1)[ends - 1]
    fp = ends - tp
    block_pos = np.diff(tp, prepend=0)
    block_neg = np.diff(fp, prepend=0)
    # Sum the trapezoid area as an integer before the final division so it
    # agrees bit-for-bit with pairwise-ordering computations.
    area_twice = int(np.sum(block_neg * (2 * tp - block_pos)))
    points = [(0.0, 0.0, math.inf)]
    points += zip((fp / n_neg).tolist(), (tp / n_pos).tolist(), s_sorted[starts].tolist())
    return RocCurve(points=tuple(points), auc=area_twice / (2 * n_pos * n_neg))


def top_features(model: LinearModel, vocab: Vocabulary, k: int) -> list[tuple[float, str]]:
    """The k largest-coefficient features in the malware direction, descending.

    k of 0 gives an empty list; k beyond the vocabulary size gives everything.
    """
    if model.dim != len(vocab):
        raise DimensionMismatchError(
            f"model dim {model.dim} vs vocabulary size {len(vocab)}"
        )
    if k <= 0:
        return []
    order = np.argsort(-model.weights, kind="stable")[: min(k, model.dim)]
    grams = _render_keys(vocab.alphabet, vocab.keys[order])
    return list(zip(model.weights[order].tolist(), grams))


def format_report_text(report: EvaluationReport) -> str:
    """Fixed-width per-class table, scores to two decimals."""
    rows = [
        ("Benign", report.benign),
        ("Malware", report.malware),
        ("Average/Total", report.average),
    ]
    lines = [f"{'':<14}{'Precision':>10}{'Recall':>10}{'F1-Score':>10}{'Support':>10}"]
    for name, sc in rows:
        lines.append(
            f"{name:<14}{sc.precision:>10.2f}{sc.recall:>10.2f}{sc.f1:>10.2f}{sc.support:>10d}"
        )
    return "\n".join(lines) + "\n"


def report_to_csv(report: EvaluationReport) -> str:
    """class,precision,recall,f1,support rows with full-precision floats."""
    lines = ["class,precision,recall,f1,support"]
    for name, sc in (
        ("benign", report.benign),
        ("malware", report.malware),
        ("average", report.average),
    ):
        lines.append(f"{name},{sc.precision!r},{sc.recall!r},{sc.f1!r},{sc.support}")
    return "\n".join(lines) + "\n"


def write_report_csv(report: EvaluationReport, path: Path | str) -> None:
    with open_new(path) as fh:
        fh.write(report_to_csv(report).encode("utf-8"))


def roc_to_csv(curve: RocCurve) -> str:
    """threshold,fpr,tpr rows followed by an auc footer line."""
    lines = ["threshold,fpr,tpr"]
    for fpr, tpr, threshold in curve.points:
        lines.append(f"{threshold!r},{fpr!r},{tpr!r}")
    lines.append(f"auc,{curve.auc!r}")
    return "\n".join(lines) + "\n"


def write_roc_csv(curve: RocCurve, path: Path | str) -> None:
    with open_new(path) as fh:
        fh.write(roc_to_csv(curve).encode("utf-8"))
