"""Refusals that no pipeline run reaches: each one's error type and message."""

from __future__ import annotations

import re

import numpy as np
import pytest

from tracesvm import (
    ConfigError,
    FeatureMatrix,
    LengthMismatchError,
    ManifestError,
    SplitSpec,
    build_vocabulary,
    fit_idf,
    read_manifest,
    roc_curve,
    write_manifest,
)


def empty_matrix(dim):
    return FeatureMatrix(indptr=[0], indices=[], data=[], labels=None, dim=dim)


def test_an_empty_manifest_file(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"")
    with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: empty manifest$"):
        read_manifest(path)


def test_writing_an_unknown_label(tmp_path):
    path = tmp_path / "manifest.csv"
    with pytest.raises(ManifestError, match=f"^{re.escape(str(path))}: unknown label 'spam'$"):
        write_manifest([("a.txt", "benign"), ("b.txt", "spam")], path)
    assert not path.exists()


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: roc_curve([0.5, -0.5, 1.0], [1, -1]), LengthMismatchError, "(3,) scores vs (2,) truths"),
        (lambda: SplitSpec(seed=-1), ConfigError, "seed must be >= 0, got -1"),
        (lambda: empty_matrix(-1), ValueError, "dim must be non-negative"),
        (lambda: build_vocabulary([], 1, 2), ValueError, "corpus is empty"),
        (lambda: fit_idf(empty_matrix(3)), ValueError, "cannot fit idf on an empty corpus"),
    ],
    ids=["roc-lengths", "split-seed", "matrix-dim", "vocabulary-corpus", "idf-rows"],
)
def test_refusal(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error
