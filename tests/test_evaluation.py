"""Metrics, report rendering, ROC/AUC and feature inspection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tracesvm import (
    ConfusionCounts,
    DimensionMismatchError,
    LengthMismatchError,
    LinearModel,
    SingleClassError,
    SyscallTrace,
    accuracy_score,
    build_vocabulary,
    classification_report,
    confusion,
    f1_score,
    format_report_text,
    precision_score,
    recall_score,
    report_to_csv,
    roc_curve,
    roc_to_csv,
    top_features,
    write_report_csv,
    write_roc_csv,
)
from oracles import pairwise_auc


class TestConfusion:
    def test_all_correct_positive(self):
        c = confusion([1] * 5, [1] * 5)
        assert (c.tp, c.fp, c.tn, c.fn) == (5, 0, 0, 0)

    def test_all_false_positive(self):
        c = confusion([1] * 4, [-1] * 4)
        assert c.fp == 4 and c.tp == 0

    def test_hand_count(self):
        c = confusion([1, 1, -1, -1], [1, -1, 1, -1])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            confusion([1, 1], [1])
        with pytest.raises(LengthMismatchError):
            confusion([], [])


class TestScores:
    def test_precision_examples(self):
        assert precision_score(ConfusionCounts(tp=3, fp=1, tn=0, fn=0)) == 0.75
        assert precision_score(ConfusionCounts(tp=0, fp=0, tn=2, fn=2)) == 0.0
        assert precision_score(ConfusionCounts(tp=2, fp=0, tn=0, fn=5)) == 1.0

    def test_recall_examples(self):
        assert recall_score(ConfusionCounts(tp=9, fn=1, fp=0, tn=0)) == 0.9
        assert recall_score(ConfusionCounts(tp=0, fn=0, fp=3, tn=3)) == 0.0
        assert recall_score(ConfusionCounts(tp=4, fn=0, fp=2, tn=0)) == 1.0

    def test_f1_examples(self):
        assert f1_score(0.6, 0.6) == pytest.approx(0.6)
        assert f1_score(1.0, 0.0) == 0.0
        assert f1_score(0.94, 1.00) == pytest.approx(0.969, abs=5e-4)

    def test_accuracy(self):
        assert accuracy_score(ConfusionCounts(tp=1, fp=1, tn=1, fn=1)) == 0.5

    @given(
        st.floats(0.001, 1.0, allow_nan=False),
        st.floats(0.001, 1.0, allow_nan=False),
    )
    def test_f1_between_precision_and_recall(self, ps, rs):
        f1 = f1_score(ps, rs)
        assert min(ps, rs) - 1e-12 <= f1 <= max(ps, rs) + 1e-12


class TestClassificationReport:
    def test_perfect(self):
        report = classification_report([1, -1, 1], [1, -1, 1])
        for sc in (report.benign, report.malware, report.average):
            assert sc.precision == 1.0 and sc.recall == 1.0 and sc.f1 == 1.0
        assert report.benign.support == 1
        assert report.malware.support == 2
        assert report.average.support == 3

    def test_hand_example_all_halves(self):
        report = classification_report([1, 1, -1, -1], [1, -1, 1, -1])
        assert report.malware.precision == 0.5
        assert report.benign.precision == 0.5
        assert report.average.precision == 0.5
        assert report.average.recall == 0.5
        assert report.average.f1 == 0.5

    def test_single_class_truths_support_zero(self):
        report = classification_report([1, -1], [1, 1])
        assert report.benign.support == 0
        assert report.benign.precision == 0.0
        assert report.malware.support == 2
        # all the weight sits on the class that is present
        assert report.average.recall == report.malware.recall

    def test_weighted_vs_macro(self):
        # 3 malware all found, 1 benign missed: per-class recalls 1.0 and 0.0
        preds = [1, 1, 1, 1]
        truths = [1, 1, 1, -1]
        weighted = classification_report(preds, truths)
        macro = classification_report(preds, truths, macro=True)
        assert weighted.average.recall == 0.75
        assert macro.average.recall == 0.5

    def test_agrees_with_direct_confusion(self):
        preds = [1, -1, 1, -1, 1]
        truths = [1, 1, -1, -1, 1]
        c = confusion(preds, truths)
        report = classification_report(preds, truths)
        assert report.malware.precision == precision_score(c)
        assert report.malware.recall == recall_score(c)
        assert report.malware.support == c.tp + c.fn


FOUR_SCORES = [0.9, 0.4, 0.6, 0.2]


class TestRocCurve:
    def test_separated_scores(self):
        curve = roc_curve(FOUR_SCORES, [1, -1, 1, -1])
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0, math.inf)
        assert curve.points[-1][:2] == (1.0, 1.0)

    def test_interleaved_scores(self):
        # ordered pairs: (.9,.6) (.9,.2) (.4,.2) correct, (.4,.6) not -> 3/4
        curve = roc_curve(FOUR_SCORES, [1, 1, -1, -1])
        assert curve.auc == 0.75
        assert curve.auc == pairwise_auc(FOUR_SCORES, [1, 1, -1, -1])

    def test_half_auc_pattern(self):
        curve = roc_curve(FOUR_SCORES, [1, -1, -1, 1])
        assert curve.auc == 0.5

    def test_all_tied_scores(self):
        curve = roc_curve([0.3, 0.3, 0.3, 0.3], [1, 1, -1, -1])
        assert curve.auc == 0.5
        assert curve.points == ((0.0, 0.0, math.inf), (1.0, 1.0, 0.3))

    def test_threshold_semantics(self):
        curve = roc_curve([2.0, 1.0, 0.0], [1, 1, -1])
        # thresholds are the distinct scores, descending, after the sentinel
        assert [p[2] for p in curve.points] == [math.inf, 2.0, 1.0, 0.0]
        assert [p[:2] for p in curve.points] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0), (1.0, 1.0)
        ]

    def test_monotone_axes(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            scores = rng.choice([-0.5, 0.0, 0.25, 0.7], size=n).astype(float)
            y = rng.choice([-1, 1], size=n)
            if len(set(y.tolist())) < 2:
                continue
            curve = roc_curve(scores, y)
            fprs = [p[0] for p in curve.points]
            tprs = [p[1] for p in curve.points]
            assert fprs == sorted(fprs)
            assert tprs == sorted(tprs)
            threshs = [p[2] for p in curve.points]
            assert threshs == sorted(threshs, reverse=True)
            assert len(set(threshs)) == len(threshs)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            scores = rng.choice([-1.0, -0.25, 0.0, 0.5, 0.5, 2.0], size=n).astype(float)
            y = rng.choice([-1, 1], size=n)
            if len(set(y.tolist())) < 2:
                continue
            assert roc_curve(scores, y).auc == pairwise_auc(scores, y)

    def test_flip_symmetry(self):
        scores = [0.1, 0.7, -0.3, 0.4, 0.9]
        y = [1, -1, 1, 1, -1]
        a = roc_curve(scores, y).auc
        b = roc_curve([-s for s in scores], y).auc
        assert a + b == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc_curve([0.1, 0.2], [1, 1])
        with pytest.raises(SingleClassError):
            roc_curve([0.1, 0.2], [-1, -1])

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            roc_curve([math.nan, 0.1], [1, -1])

    def test_tie_threshold_is_first_score_of_the_block(self):
        for first in (0.0, -0.0):
            curve = roc_curve([first, -first, 1.0], [1, -1, 1])
            assert [p[:2] for p in curve.points] == [(0.0, 0.0), (0.0, 0.5), (1.0, 1.0)]
            assert math.copysign(1.0, curve.points[-1][2]) == math.copysign(1.0, first)


def tiny_model(weights):
    w = np.asarray(weights, dtype=np.float64)
    return LinearModel(weights=w, bias=0.0, metadata={})


TINY_VOCAB = build_vocabulary([SyscallTrace("t", ("nta", "ntb", "ntc"))], 1, 1)


class TestLinearModel:
    def test_dim_is_the_weight_count(self):
        assert tiny_model([0.1, 7.2, -3.0]).dim == 3

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), ()], ids=["matrix", "1x1", "scalar"])
    def test_weights_that_are_not_1d_are_refused(self, shape):
        with pytest.raises(DimensionMismatchError, match="1-d"):
            LinearModel(weights=np.zeros(shape), bias=0.0)


class TestTopFeatures:
    def test_argmax(self):
        assert top_features(tiny_model([0.1, 7.2, -3.0]), TINY_VOCAB, k=1) == [(7.2, "ntb")]

    def test_k_zero(self):
        assert top_features(tiny_model([0.1, 7.2, -3.0]), TINY_VOCAB, k=0) == []

    def test_k_beyond_size(self):
        out = top_features(tiny_model([0.1, 7.2, -3.0]), TINY_VOCAB, k=99)
        assert out == [(7.2, "ntb"), (0.1, "nta"), (-3.0, "ntc")]

    def test_signed_not_absolute_ranking(self):
        out = top_features(tiny_model([0.5, -9.0, 1.0]), TINY_VOCAB, k=2)
        assert out == [(1.0, "ntc"), (0.5, "nta")]

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            top_features(tiny_model([1.0, 2.0]), TINY_VOCAB, k=1)


class TestRendering:
    def test_text_table(self):
        report = classification_report([1, 1, -1, -1], [1, -1, 1, -1])
        text = format_report_text(report)
        lines = text.splitlines()
        assert lines[0].split() == ["Precision", "Recall", "F1-Score", "Support"]
        assert lines[1].split() == ["Benign", "0.50", "0.50", "0.50", "2"]
        assert lines[2].split() == ["Malware", "0.50", "0.50", "0.50", "2"]
        assert lines[3].split() == ["Average/Total", "0.50", "0.50", "0.50", "4"]
        assert "time" not in text

    def test_report_csv(self, tmp_path):
        report = classification_report([1, 1, -1, -1], [1, -1, 1, -1])
        csv_text = report_to_csv(report)
        lines = csv_text.splitlines()
        assert lines[0] == "class,precision,recall,f1,support"
        assert lines[1] == "benign,0.5,0.5,0.5,2"
        assert lines[2] == "malware,0.5,0.5,0.5,2"
        assert lines[3] == "average,0.5,0.5,0.5,4"
        out = tmp_path / "report.csv"
        write_report_csv(report, out)
        assert out.read_text() == csv_text

    def test_roc_csv(self, tmp_path):
        curve = roc_curve(FOUR_SCORES, [1, -1, 1, -1])
        csv_text = roc_to_csv(curve)
        lines = csv_text.splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1] == "inf,0.0,0.0"
        assert lines[-1] == "auc,1.0"
        out = tmp_path / "roc.csv"
        write_roc_csv(curve, out)
        assert out.read_text() == csv_text
