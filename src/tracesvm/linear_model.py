"""Linear decision function shared by both trainers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DimensionMismatchError
from .vectorize import FeatureMatrix


@dataclass
class LinearModel:
    """Dense 1-d weight vector (``dim`` is its length), scalar bias, and provenance metadata."""

    weights: np.ndarray
    bias: float
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 1:
            raise DimensionMismatchError(f"weights must be 1-d, got shape {self.weights.shape}")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def decision_many(model: LinearModel, matrix: FeatureMatrix) -> np.ndarray:
    """Signed score w . x + b of every row."""
    return matrix.dot(model.weights) + model.bias


def predict_many(model: LinearModel, matrix: FeatureMatrix) -> np.ndarray:
    """+1 (malicious) where the score is >= 0, else -1 (benign)."""
    return _predictions(decision_many(model, matrix))


def _predictions(scores: np.ndarray) -> np.ndarray:
    """``predict_many``'s labels from scores already computed: the one copy of its rule."""
    return np.where(scores >= 0.0, 1, -1)
