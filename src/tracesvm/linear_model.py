"""Linear decision function shared by both trainers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import DimensionMismatchError
from .vectorize import FeatureMatrix


@dataclass
class LinearModel:
    """Dense weight vector, scalar bias, and provenance metadata."""

    weights: np.ndarray
    bias: float
    dim: int
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.dim,):
            raise DimensionMismatchError(
                f"weights shape {self.weights.shape} vs dim {self.dim}"
            )


def decision_many(model: LinearModel, matrix: FeatureMatrix) -> np.ndarray:
    """Signed score w . x + b of every row."""
    return matrix.dot(model.weights) + model.bias


def predict_many(model: LinearModel, matrix: FeatureMatrix) -> np.ndarray:
    """+1 (malicious) where the score is >= 0, else -1 (benign)."""
    scores = decision_many(model, matrix)
    return np.where(scores >= 0.0, 1, -1)
