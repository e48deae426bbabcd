"""Deterministic train/test splitting and (alpha, tol) grid search."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dual_cd import TRAINER_DUAL_CD, DualConfig, train_dual_cd
from .errors import ConfigError, GridCellError, InsufficientDataError
from .evaluation import confusion, f1_score, precision_score, recall_score
from .ingest import SyscallTrace
from .linear_model import predict_many
from .sgd import TRAINER_SGD, SgdConfig, train_sgd
from .util import round_half_up
from .vectorize import FeatureMatrix

TRAINERS = (TRAINER_SGD, TRAINER_DUAL_CD)

# Decade ladders: alpha from 1e2 down to 1e-7, tol from 1e2 down to 1e-4
# with a final 5e-5.  10 x 8 = 80 cells.
DEFAULT_ALPHA_GRID = (1e2, 1e1, 1e0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
DEFAULT_TOL_GRID = (1e2, 1e1, 1e0, 1e-1, 1e-2, 1e-3, 1e-4, 5e-5)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def train_test_split(
    corpus: Sequence[SyscallTrace], spec: SplitSpec
) -> tuple[list[SyscallTrace], list[SyscallTrace]]:
    """Disjoint (train, test) covering the corpus, in original corpus order.

    The split is stratified: it targets round(train_fraction * n) total
    while keeping each class's share within one trace of proportional; both
    splits must see every class, else InsufficientDataError.
    """
    n = len(corpus)
    if n < 2:
        raise InsufficientDataError(f"cannot split a corpus of {n} trace(s)")
    rng = np.random.default_rng(spec.seed)
    target_total = round_half_up(spec.train_fraction * n)

    by_label: dict[str, list[int]] = {}
    for i, trace in enumerate(corpus):
        by_label.setdefault(str(trace.label), []).append(i)
    for label, members in by_label.items():
        if len(members) < 2:
            raise InsufficientDataError(
                f"class {label!r} has {len(members)} trace(s); stratified "
                "splitting needs at least 2 per class"
            )

    labels = sorted(by_label)
    exact = {l: spec.train_fraction * len(by_label[l]) for l in labels}
    take = {l: int(exact[l]) for l in labels}
    leftover = target_total - sum(take.values())
    # Largest-remainder rounding keeps each class within one trace of
    # proportional while hitting the overall target.
    for l in sorted(labels, key=lambda l: (-(exact[l] - take[l]), l)):
        if leftover <= 0:
            break
        take[l] += 1
        leftover -= 1
    train_idx: set[int] = set()
    for l in labels:
        members = by_label[l]
        k = min(max(take[l], 1), len(members) - 1)
        order = rng.permutation(len(members))
        train_idx.update(members[j] for j in order[:k])

    train = [t for i, t in enumerate(corpus) if i in train_idx]
    test = [t for i, t in enumerate(corpus) if i not in train_idx]
    return train, test


@dataclass(frozen=True)
class GridSearchResult:
    """Full (alpha, tol, f1) table in grid order, plus the winning cell."""

    table: tuple[tuple[float, float, float], ...]
    best_alpha: float
    best_tol: float
    best_f1: float


def _check_base_config(base_config) -> None:
    if not isinstance(base_config, (SgdConfig, DualConfig)):
        raise ConfigError(f"base_config must be SgdConfig or DualConfig, not {type(base_config).__name__}")


def _cell_config(base, alpha: float, tol: float):
    if isinstance(base, SgdConfig):
        return replace(base, alpha=alpha, tol=tol)
    # The dual problem is parameterized by the box bound C; alpha maps to
    # its reciprocal so both trainers share one grid axis.
    return replace(base, C=1.0 / alpha, tol=tol)


def train_cell(
    train_matrix: FeatureMatrix,
    train_labels: Sequence[int],
    base_config: SgdConfig | DualConfig,
    alpha: float,
    tol: float,
):
    """Train ``base_config`` with its alpha (dual CD: C = 1/alpha) and tol replaced by the cell's."""
    _check_base_config(base_config)
    cfg = _cell_config(base_config, alpha, tol)
    if isinstance(cfg, SgdConfig):
        return train_sgd(train_matrix, train_labels, cfg)
    return train_dual_cd(train_matrix, train_labels, cfg)


def grid_search(
    train_matrix: FeatureMatrix,
    train_labels: Sequence[int],
    val_matrix: FeatureMatrix,
    val_labels: Sequence[int],
    base_config: SgdConfig | DualConfig,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    tol_grid: Sequence[float] = DEFAULT_TOL_GRID,
) -> GridSearchResult:
    """Train every (alpha, tol) cell and score malware-positive F1 on validation.

    The type of ``base_config``, ``SgdConfig`` or ``DualConfig``, picks the trainer; each
    cell is ``train_cell``.  Ties on F1 go to the smallest alpha, then the smallest tol.
    """
    _check_base_config(base_config)
    if not alpha_grid or not tol_grid:
        raise ConfigError("alpha_grid and tol_grid must be non-empty")

    val_y = np.asarray(val_labels, dtype=np.int64)
    table: list[tuple[float, float, float]] = []
    for alpha in alpha_grid:
        for tol in tol_grid:
            try:
                model = train_cell(train_matrix, train_labels, base_config, alpha, tol)
            except Exception as exc:
                raise GridCellError(
                    f"training failed at grid cell alpha={alpha!r}, tol={tol!r}: {exc}"
                ) from exc
            preds = predict_many(model, val_matrix)
            c = confusion(preds, val_y)
            cell_f1 = f1_score(precision_score(c), recall_score(c))
            table.append((float(alpha), float(tol), cell_f1))

    best_alpha, best_tol, best_f1 = min(table, key=lambda row: (-row[2], row[0], row[1]))
    return GridSearchResult(
        table=tuple(table),
        best_alpha=best_alpha,
        best_tol=best_tol,
        best_f1=best_f1,
    )


def write_grid_csv(result: GridSearchResult, path: Path | str) -> None:
    """alpha,tol,f1 rows in grid order (UTF-8, LF)."""
    lines = ["alpha,tol,f1"]
    for alpha, tol, cell_f1 in result.table:
        lines.append(f"{alpha!r},{tol!r},{cell_f1!r}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
