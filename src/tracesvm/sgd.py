"""Stochastic subgradient descent for the regularized hinge objective.

The training objective is

    E(w, b) = (1/n) * sum_i hinge(w . x_i + b, y_i) + alpha * R(w)

with hinge(s, y) = max(0, 1 - y*s) and R one of

    l2:          R(w) = 1/2 * sum w_j^2
    l1:          R(w) = 1/2 * sum |w_j|
    elasticnet:  R(w) = phi/2 * sum w_j^2 + (1 - phi) * sum |w_j|

Note the elasticnet l1 term carries no 1/2, unlike standalone l1; phi = 1
makes elasticnet coincide with l2 exactly.  With dR/dw = l2c * w + l1c *
sign(w) and eta(t) = 1 / (alpha * (t0 + t)), step t on example (x, y) does:

1. l2 shrink: w <- (1 - eta * alpha * l2c) * w.  The weights are stored as
   scale * v, so this multiplies one scalar.  As eta * alpha = 1 / (t0 + t)
   and l2c <= 1, the factor is 0 only at the first step, when t0 + t rounds
   to 1 and v is still all zero, so that step skips it.  Every later step
   multiplies scale by at least 1 - 1 / (t0 + t), so |scale| >= 2**-53 / t
   after step t: no run brings it near underflow, and it is never rescaled.
2. Cumulative l1 penalty (Tsuruoka, Tsujii & Ananiadou, ACL 2009):
   u <- u + eta * alpha * l1c is the total l1 shrink any weight could have
   received so far, and q_j the signed shrink that w_j has received.  Each
   weight active in x is moved toward 0 by what it is still owed, u + q_j
   if w_j > 0 and u - q_j if w_j < 0, and stops at 0.  Every nonzero weight
   is settled the same way after each epoch.  The penalty never flips a
   sign, l1 weights reach exactly 0, and a step costs O(nnz(x)).  For pure
   l1 this equals applying the penalty to every weight at every step; for
   elasticnet, only where every row holds every feature, as an absent
   weight's l1 shrink comes after the l2 shrinks of the steps between.  On
   8 x 4 problems with a third of the entries 0 (5 epochs, 12 seeds, phi 0
   to 0.99), the largest gap to that eager rule was 1.1e-3 at alpha 0.01
   and 1.8e-5 at alpha 0.001 (tests hold it to 3e-3 and 5e-5), and 0.22 at
   alpha 0.1, where the pending shrink changes which margins are violated.
3. Hinge step, if y * (w . x + b) < 1: w <- w + eta * y * x and
   b <- b + 0.01 * eta * y.

The bias is never regularized.  Its step is damped by 0.01, scikit-learn's
rule for sparse input (SPARSE_INTERCEPT_DECAY), so that a run of margin
violations cannot swing it by whole units.  sign(0) is taken as 0
throughout.

``objective`` adds the hinge terms left to right (``np.cumsum``: ``np.sum``
pairs them, and the bits decide where ``train_sgd`` stops; ``np.fmax``
keeps max(0, NaN) = 0), and skips the w_j^2 sum without an l2 part and the
|w_j| sum without an l1 part.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateLabelsError, LengthMismatchError
from .linear_model import LinearModel
from .util import check_int
from .vectorize import FeatureMatrix

TRAINER_SGD = "sgd"

PENALTY_L1 = "l1"
PENALTY_L2 = "l2"
PENALTY_ELASTICNET = "elasticnet"
PENALTIES = (PENALTY_L1, PENALTY_L2, PENALTY_ELASTICNET)

# The bias moves at this fraction of the weights' step (scikit-learn's
# SPARSE_INTERCEPT_DECAY).
_INTERCEPT_DECAY = 0.01


@dataclass(frozen=True)
class SgdConfig:
    penalty: str = PENALTY_L2
    alpha: float = 1e-4
    phi: float = 0.5
    epochs: int = 20
    t0: float | None = None  # None -> max(0, 1/alpha - 1)
    tol: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.penalty not in PENALTIES:
            raise ConfigError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0.0 <= self.phi <= 1.0:
            raise ConfigError(f"phi must be in [0, 1], got {self.phi}")
        check_int(self.epochs, "epochs", 1)
        if self.t0 is not None and not 0 <= self.t0 < math.inf:
            raise ConfigError(f"t0 must be finite and >= 0, got {self.t0}")
        if self.t0 is None and not self.resolved_t0() < math.inf:
            raise ConfigError(f"alpha {self.alpha} is too small: its t0 = 1/alpha - 1 overflows")
        if not 0 <= self.tol < math.inf:
            raise ConfigError(f"tol must be finite and >= 0, got {self.tol}")
        check_int(self.seed, "seed", 0)

    def resolved_t0(self) -> float:
        return self.t0 if self.t0 is not None else max(0.0, 1.0 / self.alpha - 1.0)


def _penalty_coefficients(penalty: str, phi: float) -> tuple[float, float]:
    # (l2_coeff, l1_coeff) such that dR/dw = l2_coeff*w + l1_coeff*sign(w).
    if penalty == PENALTY_L2:
        return 1.0, 0.0
    if penalty == PENALTY_L1:
        return 0.0, 0.5
    return phi, 1.0 - phi


def regularizer_value(w: np.ndarray, penalty: str, phi: float = 0.5) -> float:
    # A sum whose coefficient is 0 is skipped: 0 times an overflowed sum is NaN.
    l2c, l1c = _penalty_coefficients(penalty, phi)
    l2 = 0.5 * l2c * np.sum(w * w) if l2c else 0.0
    l1 = l1c * np.sum(np.abs(w)) if l1c else 0.0
    return float(l2 + l1)


def objective(
    w: np.ndarray,
    b: float,
    matrix: FeatureMatrix,
    labels: Sequence[int],
    alpha: float,
    penalty: str,
    phi: float = 0.5,
) -> float:
    """Mean hinge loss plus alpha times the penalty; 1.0 at the zero model."""
    losses = np.fmax(0.0, 1.0 - np.asarray(labels) * (matrix.dot(w) + b))
    return float(np.cumsum(losses)[-1]) / len(matrix) + alpha * regularizer_value(w, penalty, phi)


def validate_labels(labels: Sequence[int], n_rows: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n_rows,):
        raise LengthMismatchError(f"{y.shape[0] if y.ndim == 1 else y.shape} labels for {n_rows} rows")
    if not np.all(np.isin(y, (-1, 1))):
        raise DegenerateLabelsError("labels must be -1 or +1")
    if not (np.any(y == 1) and np.any(y == -1)):
        raise DegenerateLabelsError("training needs both classes present")
    return y


def _settle_l1(v: np.ndarray, q: np.ndarray, idx: np.ndarray, scale: float, u: float) -> np.ndarray:
    """Give the weights scale * v[idx] the l1 shrink they are still owed.

    Updates v[idx] and q[idx] in place and returns the new v[idx].  idx must
    not repeat.  For q_j in [-u, u] no weight changes sign or grows.
    """
    w = scale * v[idx]
    qi = q[idx]
    s = np.sign(w)
    shrunk = s * np.maximum(0.0, np.abs(w) - (u + s * qi))
    q[idx] = qi + (shrunk - w)
    vi = shrunk / scale
    v[idx] = vi
    return vi


def _epochs(matrix: FeatureMatrix, y: np.ndarray, config: SgdConfig):
    """train_sgd's epochs without end; yields a new w, b and the objective after each."""
    dim = matrix.dim
    alpha = config.alpha
    l2c, l1c = _penalty_coefficients(config.penalty, config.phi)
    t0 = config.resolved_t0()
    rng = np.random.default_rng(config.seed)

    rows = matrix.rows

    v = np.zeros(dim)  # w = scale * v
    scale = 1.0
    q = np.zeros(dim)  # l1 shrink each weight has received, in w units
    u = 0.0  # l1 shrink any weight could have received
    b = 0.0
    t = 0

    while True:
        for i in rng.permutation(len(y)):
            t += 1
            eta = 1.0 / (alpha * (t0 + t))
            xi, xv = rows[i]
            yi = y[i]
            factor = 1.0 - eta * alpha * l2c
            if factor:  # 0 only at step 1, with v still all zero (point 1)
                scale *= factor
            if l1c:
                u += eta * alpha * l1c
                vi = _settle_l1(v, q, xi, scale, u)
            else:
                vi = v[xi]
            if yi * (scale * float(xv @ vi) + b) < 1.0:
                v[xi] = vi + (eta * yi / scale) * xv
                b += _INTERCEPT_DECAY * eta * yi
        if l1c:
            # Every weight now has all its owed shrink, so the yielded w is settled too.
            _settle_l1(v, q, np.flatnonzero(v), scale, u)
        w = v * scale
        yield w, b, objective(w, b, matrix, y, alpha, config.penalty, config.phi)


def train_sgd(matrix: FeatureMatrix, labels: Sequence[int], config: SgdConfig) -> LinearModel:
    """Epoch-wise SGD; stops after the first epoch whose relative objective
    improvement falls below config.tol, or after config.epochs epochs.
    """
    y = validate_labels(labels, len(matrix))
    prev_obj = 1.0  # objective of the zero model
    for epochs_run, (w, b, final_obj) in enumerate(_epochs(matrix, y, config), 1):
        improvement = (prev_obj - final_obj) / max(abs(prev_obj), 1e-12)
        prev_obj = final_obj
        if improvement < config.tol or epochs_run == config.epochs:
            break
    t0 = config.resolved_t0()
    if not (math.isfinite(final_obj) and math.isfinite(b) and np.all(np.isfinite(w))):
        # A tiny alpha with a small explicit t0 makes steps of up to 1/alpha.
        raise ConfigError(f"training diverged: alpha {config.alpha} with t0 {t0} gives a non-finite model")
    return LinearModel(
        weights=w,
        bias=float(b),
        metadata={
            "trainer": TRAINER_SGD,
            **asdict(config),
            "t0": t0,  # resolved: the config holds None for 1/alpha - 1
            "epochs_run": epochs_run,
            "final_objective": final_obj,
        },
    )
