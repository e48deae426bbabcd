"""Refusals that no pipeline run reaches: each one's error type and message."""

from __future__ import annotations

import re

import numpy as np
import pytest

from tracesvm import (
    ConfigError,
    DualConfig,
    FeatureMatrix,
    GeneratorConfig,
    LengthMismatchError,
    ManifestError,
    SgdConfig,
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
        # A count or seed must be a Python int: a fractional cap is never
        # reached, a fractional seed fails inside numpy, and a numpy int makes
        # metadata that json cannot write.  A bool is refused too.
        (lambda: SgdConfig(epochs=2.5), ConfigError, "epochs must be an int, not float"),
        (lambda: SgdConfig(epochs=True), ConfigError, "epochs must be an int, not bool"),
        (lambda: SgdConfig(seed=1.5), ConfigError, "seed must be an int, not float"),
        (lambda: SgdConfig(seed=np.int64(1)), ConfigError, "seed must be an int, not int64"),
        (lambda: DualConfig(max_outer=2.5), ConfigError, "max_outer must be an int, not float"),
        (lambda: DualConfig(max_outer=np.int64(3)), ConfigError, "max_outer must be an int, not int64"),
        (lambda: DualConfig(seed=1.5), ConfigError, "seed must be an int, not float"),
        (lambda: SplitSpec(seed=1.5), ConfigError, "seed must be an int, not float"),
        (lambda: SplitSpec(seed=False), ConfigError, "seed must be an int, not bool"),
        (lambda: GeneratorConfig(n_traces=10.0), ConfigError, "n_traces must be an int, not float"),
        (lambda: GeneratorConfig(seed=np.int64(0)), ConfigError, "seed must be an int, not int64"),
        (
            lambda: GeneratorConfig(trace_len_range=(2.5, 5)),
            ConfigError,
            "trace_len_range's low end must be an int, not float",
        ),
        (
            lambda: GeneratorConfig(trace_len_range=(2, 5.0)),
            ConfigError,
            "trace_len_range's high end must be an int, not float",
        ),
    ],
    ids=[
        "roc-lengths", "split-seed", "matrix-dim", "vocabulary-corpus", "idf-rows",
        "sgd-epochs-float", "sgd-epochs-bool", "sgd-seed-float", "sgd-seed-int64",
        "dual-max-outer-float", "dual-max-outer-int64", "dual-seed-float",
        "split-seed-float", "split-seed-bool",
        "generator-n-traces-float", "generator-seed-int64", "generator-len-low-float", "generator-len-high-float",
    ],
)
def test_refusal(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        make()
    assert type(info.value) is error

