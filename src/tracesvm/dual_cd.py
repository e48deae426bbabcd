"""Coordinate descent on the dual of the soft-margin linear SVM.

Rows are bias-augmented with a constant 1 feature, so the bias is just the
last coordinate of the augmented weight vector.  With Q_ij = y_i y_j
(x_i . x_j) over augmented rows, the problem is

    min_a  1/2 a'Qa - sum(a)    subject to  0 <= a_i <= C.

One coordinate at a time is moved to its box-constrained univariate
minimum, a_i <- clip(a_i - G_i / Q_ii, 0, C) with G_i = y_i (w . x_i) - 1,
while w = sum_i a_i y_i x_i is maintained incrementally.  A sweep visits
the rows in a seeded random permutation; the optimizer stops when every
projected gradient magnitude falls below tol, or warns after max_outer
sweeps.  Rows that are empty before augmentation are skipped and keep
a_i = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NonConvergenceWarning
from .linear_model import LinearModel
from .sgd import validate_labels
from .vectorize import FeatureMatrix

TRAINER_DUAL_CD = "dual-cd"

# Projected gradients this small are numerical noise; skip the update.
_PG_EPS = 1e-14


@dataclass(frozen=True)
class DualConfig:
    C: float = 1.0
    tol: float = 1e-3
    max_outer: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.C < math.inf:
            raise ConfigError(f"C must be finite and > 0, got {self.C}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_outer < 1:
            raise ConfigError(f"max_outer must be >= 1, got {self.max_outer}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class DualState:
    """Dual variables plus the maintained augmented primal vector."""

    alpha_dual: np.ndarray  # one per row, in [0, C]
    w: np.ndarray  # dim + 1; w[-1] is the bias coordinate
    outer_iter: int = 0


def dual_objective(state: DualState) -> float:
    """1/2 ||w||^2 - sum(a), using the maintained augmented w."""
    return 0.5 * float(state.w @ state.w) - float(np.sum(state.alpha_dual))


def train_dual_cd(
    matrix: FeatureMatrix,
    labels: Sequence[int],
    config: DualConfig,
    callback: Callable[[DualState], None] | None = None,
) -> LinearModel:
    """Run sweeps until max |projected gradient| < tol or max_outer is hit.

    The optional callback sees the live state after every coordinate update;
    it must not mutate it.
    """
    y = validate_labels(labels, len(matrix))
    dim = matrix.dim
    C = float(config.C)
    # The bias-augmented CSR: each row gains column dim, holding 1.
    bounds = (matrix.indptr + np.arange(len(matrix) + 1)).tolist()
    indices = np.insert(matrix.indices, matrix.indptr[1:], dim)
    data = np.insert(matrix.data, matrix.indptr[1:], 1.0)
    rows = [(indices[a:b], data[a:b]) for a, b in zip(bounds, bounds[1:])]
    qii = np.array([float(v @ v) for _, v in rows])
    active = np.flatnonzero(np.diff(matrix.indptr))
    rng = np.random.default_rng(config.seed)

    alpha = np.zeros(len(matrix))
    w = np.zeros(dim + 1)
    state = DualState(alpha_dual=alpha, w=w, outer_iter=0)
    yf = y.astype(np.float64)

    converged = False
    outer = 0
    while outer < config.max_outer:
        outer += 1
        state.outer_iter = outer
        max_pg = 0.0
        for i in rng.permutation(active):
            xi, xv = rows[i]
            g = yf[i] * float(xv @ w[xi]) - 1.0
            a = alpha[i]
            apg = _abs_projected_gradient(g, a, C)
            if apg > max_pg:
                max_pg = apg
            if apg > _PG_EPS:
                new_alpha = a - g / qii[i]
                if new_alpha < 0.0:
                    new_alpha = 0.0
                elif new_alpha > C:
                    new_alpha = C
                delta = new_alpha - a
                if delta != 0.0:
                    alpha[i] = new_alpha
                    w[xi] += (delta * yf[i]) * xv
                if callback is not None:
                    callback(state)
        if max_pg < config.tol:
            # Sweep-time gradients are stale once later coordinates move;
            # confirm on a frozen pass before declaring convergence.
            if _max_abs_pg(active, rows, yf, alpha, w, C) < config.tol:
                converged = True
                break

    if not converged:
        warnings.warn(
            f"dual coordinate descent stopped after {outer} sweeps with "
            f"max projected gradient still >= tol={config.tol}",
            NonConvergenceWarning,
            stacklevel=2,
        )

    return LinearModel(
        weights=w[:dim].copy(),
        bias=float(w[dim]),
        metadata={
            "trainer": TRAINER_DUAL_CD,
            "C": config.C,
            "tol": config.tol,
            "max_outer": config.max_outer,
            "seed": config.seed,
            "outer_iters": outer,
            "converged": converged,
            "dual_objective": dual_objective(state),
        },
    )


def _abs_projected_gradient(g: float, a: float, C: float) -> float:
    """|PG| for dual variable a in [0, C] with gradient g.

    At a bound, the part of g that points out of the box is cut to 0.
    """
    if a <= 0.0:
        return -g if g < 0.0 else 0.0
    if a >= C:
        return g if g > 0.0 else 0.0
    return -g if g < 0.0 else g


def _max_abs_pg(active, rows, yf, alpha, w, C) -> float:
    worst = 0.0
    for i in active:
        xi, xv = rows[i]
        worst = max(worst, _abs_projected_gradient(yf[i] * float(xv @ w[xi]) - 1.0, alpha[i], C))
    return worst
