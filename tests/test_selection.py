"""Train/test splitting and the (alpha, tol) grid search."""

from __future__ import annotations

import numpy as np
import pytest

from tracesvm import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_TOL_GRID,
    ConfigError,
    DualConfig,
    GridCellError,
    InsufficientDataError,
    SgdConfig,
    SplitSpec,
    SyscallTrace,
    grid_search,
    train_cell,
    train_test_split,
    write_grid_csv,
)
from tracesvm.selection import TRAINER_DUAL_CD, TRAINER_SGD
from oracles import matrix_from_dense

TOY_ROWS = [[1.0, 0.0], [0.8, 0.0], [0.0, 1.0], [0.0, 0.7]]
TOY_Y = np.array([1, 1, -1, -1])


def corpus(n_mal, n_ben):
    traces = []
    for i in range(n_mal):
        traces.append(SyscallTrace(f"m{i}", ("ntclose",), label="malicious"))
    for i in range(n_ben):
        traces.append(SyscallTrace(f"b{i}", ("ntclose",), label="benign"))
    return traces


def ids(traces):
    return [t.source_id for t in traces]


class TestTrainTestSplit:
    def test_stratified_counts(self):
        # 10 traces at 0.8: overall target 8; 6*0.8=4.8 and 4*0.2=3.2 floor
        # to 4+3, the leftover seat goes to the larger remainder (malicious)
        train, test = train_test_split(corpus(6, 4), SplitSpec(train_fraction=0.8, seed=0))
        assert len(train) == 8 and len(test) == 2
        assert sum(t.label == "malicious" for t in train) == 5
        assert sum(t.label == "benign" for t in train) == 3
        assert sum(t.label == "malicious" for t in test) == 1
        assert sum(t.label == "benign" for t in test) == 1

    def test_disjoint_cover_in_corpus_order(self):
        traces = corpus(6, 4)
        train, test = train_test_split(traces, SplitSpec(seed=3))
        assert sorted(ids(train) + ids(test)) == sorted(ids(traces))
        assert set(ids(train)).isdisjoint(ids(test))
        pos = {t.source_id: i for i, t in enumerate(traces)}
        assert [pos[i] for i in ids(train)] == sorted(pos[i] for i in ids(train))
        assert [pos[i] for i in ids(test)] == sorted(pos[i] for i in ids(test))

    def test_deterministic_per_seed(self):
        traces = corpus(6, 4)
        a = train_test_split(traces, SplitSpec(seed=7))
        b = train_test_split(traces, SplitSpec(seed=7))
        assert ids(a[0]) == ids(b[0]) and ids(a[1]) == ids(b[1])

    def test_seed_changes_selection(self):
        traces = corpus(20, 20)
        picks = {tuple(ids(train_test_split(traces, SplitSpec(seed=s))[0])) for s in range(4)}
        assert len(picks) > 1

    def test_both_sides_see_both_classes(self):
        # 0.9 of 2 benign would round to 2; the clamp keeps one for testing
        train, test = train_test_split(corpus(8, 2), SplitSpec(train_fraction=0.9, seed=0))
        for side in (train, test):
            assert {t.label for t in side} == {"benign", "malicious"}

    def test_single_member_class_rejected(self):
        with pytest.raises(InsufficientDataError):
            train_test_split(corpus(9, 1), SplitSpec())

    def test_tiny_corpus_rejected(self):
        with pytest.raises(InsufficientDataError):
            train_test_split(corpus(1, 0), SplitSpec())

    def test_fraction_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                SplitSpec(train_fraction=bad)


class TestGridSearch:
    def test_default_grid_dimensions(self):
        assert len(DEFAULT_ALPHA_GRID) == 10
        assert len(DEFAULT_TOL_GRID) == 8
        assert DEFAULT_ALPHA_GRID[0] == 100.0 and DEFAULT_ALPHA_GRID[-1] == 1e-7
        assert DEFAULT_TOL_GRID[0] == 100.0 and DEFAULT_TOL_GRID[-1] == 5e-5

    def test_full_default_grid_runs(self):
        m = matrix_from_dense(TOY_ROWS)
        result = grid_search(m, TOY_Y, m, TOY_Y, SgdConfig())
        assert len(result.table) == 80

    def test_best_cell_is_table_max_with_tie_rule(self):
        m = matrix_from_dense(TOY_ROWS)
        result = grid_search(
            m, TOY_Y, m, TOY_Y, SgdConfig(),
            alpha_grid=(1e-2, 1e-4), tol_grid=(1e-1, 1e-3),
        )
        best_f1 = max(row[2] for row in result.table)
        assert result.best_f1 == best_f1
        tied = [(a, t) for a, t, f in result.table if f == best_f1]
        assert (result.best_alpha, result.best_tol) == min(tied)

    def test_table_in_grid_order(self):
        m = matrix_from_dense(TOY_ROWS)
        result = grid_search(
            m, TOY_Y, m, TOY_Y, DualConfig(),
            alpha_grid=(1.0, 0.1), tol_grid=(1e-2, 1e-3),
        )
        assert [(a, t) for a, t, _ in result.table] == [
            (1.0, 1e-2), (1.0, 1e-3), (0.1, 1e-2), (0.1, 1e-3)
        ]

    def test_config_type_picks_the_trainer(self):
        m = matrix_from_dense(TOY_ROWS)
        dual = train_cell(m, TOY_Y, DualConfig(C=5.0, tol=1.0), alpha=0.01, tol=1e-4)
        assert dual.metadata["trainer"] == TRAINER_DUAL_CD
        assert (dual.metadata["C"], dual.metadata["tol"]) == (100.0, 1e-4)
        sgd = train_cell(m, TOY_Y, SgdConfig(alpha=5.0, tol=1.0), alpha=0.01, tol=1e-4)
        assert sgd.metadata["trainer"] == TRAINER_SGD
        assert (sgd.metadata["alpha"], sgd.metadata["tol"]) == (0.01, 1e-4)

    @pytest.mark.parametrize("base", ["sgd", None, SplitSpec()], ids=["str", "none", "split-spec"])
    def test_base_config_of_another_type_is_refused(self, base):
        m = matrix_from_dense(TOY_ROWS)
        name = type(base).__name__
        # ConfigError, not the GridCellError of a cell that ran.
        with pytest.raises(ConfigError, match=name):
            grid_search(m, TOY_Y, m, TOY_Y, base_config=base, alpha_grid=(0.1,), tol_grid=(1e-3,))
        with pytest.raises(ConfigError, match=name):
            train_cell(m, TOY_Y, base_config=base, alpha=0.1, tol=1e-3)

    def test_cells_reproduce_bitwise(self):
        m = matrix_from_dense(TOY_ROWS)
        for base in (SgdConfig(), DualConfig()):
            a = train_cell(m, TOY_Y, base, alpha=0.1, tol=1e-4)
            b = train_cell(m, TOY_Y, base, alpha=0.1, tol=1e-4)
            assert np.array_equal(a.weights, b.weights)
            assert a.bias == b.bias

    def test_cell_failure_is_tagged(self):
        m = matrix_from_dense(TOY_ROWS)
        with pytest.raises(GridCellError, match="alpha=-1.0") as info:
            grid_search(
                m, TOY_Y, m, TOY_Y, SgdConfig(),
                alpha_grid=(-1.0,), tol_grid=(1e-3,),
            )
        assert isinstance(info.value.__cause__, ConfigError)

    def test_trainer_and_grid_validation(self):
        m = matrix_from_dense(TOY_ROWS)
        with pytest.raises(ConfigError):
            grid_search(m, TOY_Y, m, TOY_Y, "newton")
        with pytest.raises(ConfigError):
            grid_search(m, TOY_Y, m, TOY_Y, SgdConfig(), alpha_grid=())

    def test_grid_csv(self, tmp_path):
        m = matrix_from_dense(TOY_ROWS)
        result = grid_search(
            m, TOY_Y, m, TOY_Y, SgdConfig(), alpha_grid=(0.5,), tol_grid=(0.25,)
        )
        out = tmp_path / "grid.csv"
        write_grid_csv(result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,tol,f1"
        assert lines[1].startswith("0.5,0.25,")
        f1 = float(lines[1].split(",")[2])
        assert f1 == result.table[0][2]
