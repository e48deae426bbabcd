"""Dual coordinate descent: univariate updates, convergence, duality checks."""

from __future__ import annotations

import itertools
from dataclasses import asdict

import numpy as np
import pytest

from tracesvm import (
    ConfigError,
    DegenerateLabelsError,
    DualConfig,
    NonConvergenceWarning,
    SgdConfig,
    train_dual_cd,
    train_sgd,
)
from tracesvm.dual_cd import _sweeps
from tracesvm.linear_model import predict_many
from oracles import (
    DualState,
    augmented_q_matrix,
    box_constrained_min,
    cd_sweeps,
    cd_update,
    dual_objective,
    init_state,
    matrix_from_dense,
    projected_gradient,
    q_entry,
)

TWO_POINT_ROWS = [[1.0], [-1.0]]
TWO_POINT_Y = np.array([1, -1])


def random_problem(rng, n=3, dim=3):
    rows = rng.normal(size=(n, dim))
    rows[np.abs(rows) < 0.05] = 0.2
    y = rng.choice([-1, 1], size=n)
    while len(set(y.tolist())) < 2:
        y = rng.choice([-1, 1], size=n)
    return rows, y


def sparse_problem(rng):
    """3-8 rows over 2-5 features, about a third of the entries 0, so a row may be empty."""
    n, dim = int(rng.integers(3, 9)), int(rng.integers(2, 6))
    rows = rng.normal(size=(n, dim)) * (rng.random((n, dim)) > 0.35)
    y = np.resize([1, -1], n)
    rng.shuffle(y)
    return rows, y


def solver_sweeps(m, y, config):
    """Copies of the solver's (alpha, w) after each sweep of one run, up to where it stops."""
    for k, (alpha, w, converged) in enumerate(_sweeps(m, y, config), 1):
        yield alpha.copy(), w.copy()
        if converged or k == config.max_outer:
            return


def run_to_stop(m, y, config):
    """The solver's final (alpha, w, sweeps run, converged), where train_dual_cd stops it."""
    for k, (alpha, w, converged) in enumerate(_sweeps(m, y, config), 1):
        if converged or k == config.max_outer:
            return alpha, w, k, converged


class TestQEntry:
    def test_augmented_self_product(self):
        m = matrix_from_dense([[1.0]])
        assert q_entry(0, 0, m, [1]) == 2.0  # x.x + bias coord

    def test_label_sign_flip(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        assert q_entry(0, 1, m, TWO_POINT_Y) == 0.0  # (-1)*( -1 + 1 )
        assert q_entry(0, 0, m, TWO_POINT_Y) == 2.0

    def test_diagonal_nonnegative(self):
        rng = np.random.default_rng(0)
        rows, y = random_problem(rng)
        m = matrix_from_dense(rows)
        for i in range(len(rows)):
            assert q_entry(i, i, m, y) >= 0.0


class TestStateOps:
    def test_initial_objective_zero(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        assert dual_objective(init_state(m)) == 0.0

    def test_projected_gradient_at_bounds(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        state = init_state(m)
        # at alpha=0 the initial gradient is -1; pushing inward keeps it
        assert projected_gradient(0, state, m, TWO_POINT_Y, C=1.0) == -1.0
        # a positive gradient at the lower bound is projected away
        state.w[:] = [10.0, 0.0]
        assert projected_gradient(0, state, m, TWO_POINT_Y, C=1.0) == 0.0

    def test_cd_update_no_op_when_gradient_zero(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        state = init_state(m)
        state.alpha_dual[0] = 0.5
        state.w[:] = [0.5, 0.5]  # makes G_0 = (0.5 + 0.5) - 1 = 0
        out = cd_update(0, state, m, TWO_POINT_Y, C=1.0)
        assert np.array_equal(out.alpha_dual, state.alpha_dual)
        assert np.array_equal(out.w, state.w)

    def test_cd_update_matches_univariate_line_scan(self):
        rng = np.random.default_rng(3)
        rows, y = random_problem(rng)
        m = matrix_from_dense(rows)
        C = 2.0
        state = init_state(m)
        for i in (0, 1, 2, 0):
            out = cd_update(i, state, m, y, C)
            # scan the i-th coordinate of the dual objective directly
            Q = augmented_q_matrix(rows, y)
            grid = np.linspace(0.0, C, 4001)
            best = None
            for a in grid:
                trial = state.alpha_dual.copy()
                trial[i] = a
                val = 0.5 * trial @ Q @ trial - trial.sum()
                if best is None or val < best[0]:
                    best = (val, a)
            assert out.alpha_dual[i] == pytest.approx(best[1], abs=C / 4000 + 1e-9)
            state = out

    def test_cd_update_is_pure(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        state = init_state(m)
        cd_update(0, state, m, TWO_POINT_Y, C=1.0)
        assert np.array_equal(state.alpha_dual, [0.0, 0.0])
        assert np.array_equal(state.w, [0.0, 0.0])


class TestTrainDualCd:
    def test_analytic_two_point_problem(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        model = train_dual_cd(m, TWO_POINT_Y, DualConfig(C=10.0, tol=1e-8, seed=0))
        assert model.weights[0] == pytest.approx(1.0, abs=1e-3)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        assert model.metadata["converged"] is True
        # optimum alpha = (1/2, 1/2) gives dual objective -1/2
        assert model.metadata["dual_objective"] == pytest.approx(-0.5, abs=1e-6)

    def test_two_point_objective_matches_brute_force(self):
        Q = augmented_q_matrix(TWO_POINT_ROWS, TWO_POINT_Y)
        ref, ref_pt = box_constrained_min(Q, C=10.0, resolution=21)
        assert ref == pytest.approx(-0.5, abs=1e-6)
        assert ref_pt == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_matches_brute_force_on_random_problems(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            rows, y = random_problem(rng)
            m = matrix_from_dense(rows)
            for C in (0.1, 1.0, 10.0):
                model = train_dual_cd(m, y, DualConfig(C=C, tol=1e-9, max_outer=5000, seed=0))
                ref, _ = box_constrained_min(augmented_q_matrix(rows, y), C=C)
                assert model.metadata["dual_objective"] == pytest.approx(ref, abs=1e-4)

    def test_monotone_descent_and_feasibility(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rows, y = random_problem(rng)
            m = matrix_from_dense(rows)
            for C in (0.1, 1.0, 10.0):
                config = DualConfig(C=C, tol=1e-9, max_outer=30, seed=0)
                # Every coordinate update on the oracle's path, which
                # test_each_sweep_matches_the_oracle ties to the solver.
                path = [init_state(m)]
                for sweep in itertools.islice(cd_sweeps(m, y, C, seed=0), 30):
                    path.extend(sweep)
                objs = [dual_objective(s) for s in path]
                assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))
                assert all(s.alpha_dual.min() >= 0.0 and s.alpha_dual.max() <= C for s in path)
                # The solver's own state after each sweep.
                states = list(solver_sweeps(m, y, config))
                objs = [dual_objective(DualState(alpha, w)) for alpha, w in states]
                assert objs[0] <= 0.0
                assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))
                assert all(alpha.min() >= 0.0 and alpha.max() <= C for alpha, _ in states)

    def test_weight_identity(self):
        rng = np.random.default_rng(9)
        rows, y = random_problem(rng, n=6, dim=4)
        m = matrix_from_dense(rows)
        config = DualConfig(C=1.0, tol=1e-8, seed=1)
        alpha, w, _, _ = run_to_stop(m, y, config)
        model = train_dual_cd(m, y, config)
        rebuilt = np.zeros(m.dim + 1)
        for i, row in enumerate(m.rows):
            rebuilt[row.indices] += alpha[i] * y[i] * row.values
            rebuilt[-1] += alpha[i] * y[i]
        assert np.allclose(w, rebuilt, atol=1e-8, rtol=0)
        assert np.allclose(model.weights, rebuilt[:-1], atol=1e-12, rtol=0)

    def test_model_is_the_solved_state(self):
        rng = np.random.default_rng(10)
        rows, y = random_problem(rng, n=6, dim=4)
        m = matrix_from_dense(rows)
        config = DualConfig(C=1.0, tol=1e-6, seed=4)
        alpha, w, sweeps, converged = run_to_stop(m, y, config)
        model = train_dual_cd(m, y, config)
        assert np.array_equal(model.weights, w[:-1])
        assert model.bias == w[-1]
        assert model.metadata["outer_iters"] == sweeps
        assert model.metadata["converged"] is converged is True
        assert model.metadata["dual_objective"] == dual_objective(DualState(alpha, w))

    def test_metadata_echoes_the_config(self):
        rng = np.random.default_rng(10)
        rows, y = random_problem(rng, n=6, dim=4)
        config = DualConfig(C=2.0, tol=1e-6, max_outer=500, seed=4)
        meta = dict(train_dual_cd(matrix_from_dense(rows), y, config).metadata)
        run = {key: meta.pop(key) for key in ("outer_iters", "converged", "dual_objective")}
        assert meta == {"trainer": "dual-cd", **asdict(config)}
        assert run["converged"] is True and 1 <= run["outer_iters"] <= config.max_outer

    def test_kkt_spot_checks(self):
        rng = np.random.default_rng(15)
        rows, y = random_problem(rng, n=5, dim=3)
        m = matrix_from_dense(rows)
        C, tol = 1.0, 1e-8
        alpha, w, _, converged = run_to_stop(m, y, DualConfig(C=C, tol=tol, seed=2))
        assert converged
        band = 10 * tol
        for i, row in enumerate(m.rows):
            g = y[i] * (float(row.values @ w[row.indices]) + w[-1]) - 1.0
            a = alpha[i]
            if a < band:
                assert g >= -band
            elif a > C - band:
                assert g <= band
            else:
                assert abs(g) <= band

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(21)
        rows, y = random_problem(rng, n=8, dim=5)
        m = matrix_from_dense(rows)
        cfg = DualConfig(C=1.0, tol=1e-6, seed=3)
        a = train_dual_cd(m, y, cfg)
        b = train_dual_cd(m, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_agrees_with_sgd_on_separable_toy(self):
        rows = [[1.0, 0.0], [0.8, 0.0], [0.0, 1.0], [0.0, 0.7]]
        y = np.array([1, 1, -1, -1])
        m = matrix_from_dense(rows)
        dual = train_dual_cd(m, y, DualConfig(C=10.0, tol=1e-8, seed=0))
        sgd = train_sgd(m, y, SgdConfig(alpha=1e-4, epochs=100, tol=0.0, seed=0))
        assert np.array_equal(predict_many(dual, m), y)
        assert np.array_equal(predict_many(sgd, m), predict_many(dual, m))

    def test_non_convergence_warns_but_returns(self):
        rng = np.random.default_rng(30)
        rows, y = random_problem(rng, n=6, dim=4)
        m = matrix_from_dense(rows)
        with pytest.warns(NonConvergenceWarning):
            model = train_dual_cd(m, y, DualConfig(C=10.0, tol=1e-12, max_outer=1, seed=0))
        assert model.metadata["converged"] is False
        assert model.metadata["outer_iters"] == 1

    def test_zero_norm_rows_keep_alpha_zero(self):
        rows = [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        y = np.array([1, 1, -1])
        m = matrix_from_dense(rows)
        alpha, _, _, _ = run_to_stop(m, y, DualConfig(C=1.0, tol=1e-8, seed=0))
        assert alpha[1] == 0.0

    def test_degenerate_labels(self):
        m = matrix_from_dense(TWO_POINT_ROWS)
        with pytest.raises(DegenerateLabelsError):
            train_dual_cd(m, np.array([1, 1]), DualConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DualConfig(C=0.0)
        with pytest.raises(ConfigError):
            DualConfig(tol=0.0)
        with pytest.raises(ConfigError):
            DualConfig(max_outer=0)
        # A non-finite C or tol would be written into the model's config as
        # Infinity or NaN, which is not JSON.
        for bad in ({"C": np.inf}, {"C": np.nan}, {"tol": np.inf}, {"tol": np.nan}, {"seed": -1}):
            with pytest.raises(ConfigError):
                DualConfig(**bad)


class TestSolveAgainstOracle:
    def test_each_sweep_matches_the_oracle(self):
        # The solver after k sweeps against cd_update over the same seeded
        # permutations of the nonempty rows, in alpha and the augmented w.
        rng = np.random.default_rng(40)
        compared = 0
        for problem in range(40):
            rows, y = sparse_problem(rng)
            m = matrix_from_dense(rows)
            for C in (0.1, 1.0, 10.0):
                config = DualConfig(C=C, tol=1e-9, max_outer=30, seed=problem)
                oracle = cd_sweeps(m, y, C, seed=problem)
                for (alpha, w), sweep in zip(solver_sweeps(m, y, config), oracle):
                    assert np.max(np.abs(alpha - sweep[-1].alpha_dual)) <= 1e-12
                    assert np.max(np.abs(w - sweep[-1].w)) <= 1e-12
                    compared += 1
        assert compared >= 1000

    def test_reported_convergence_holds_at_the_returned_state(self):
        # A sweep's own gradients go stale as later coordinates move; only
        # the confirming pass may declare convergence.  On these problems
        # some sweeps come in under tol while the returned state is not.
        rng = np.random.default_rng(1)
        for _ in range(40):
            rows, y = random_problem(rng, n=6, dim=4)
            m = matrix_from_dense(rows)
            for C in (0.1, 1.0, 10.0):
                for tol in (1e-1, 1e-2, 1e-3):
                    alpha, w, _, converged = run_to_stop(m, y, DualConfig(C=C, tol=tol, seed=0))
                    if converged:
                        state = DualState(alpha, w)
                        worst = max(abs(projected_gradient(i, state, m, y, C)) for i in range(len(y)))
                        assert worst < tol
