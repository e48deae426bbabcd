"""Hinge/penalty math and the stochastic subgradient trainer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tracesvm import (
    ConfigError,
    DegenerateLabelsError,
    LengthMismatchError,
    SgdConfig,
    SparseVector,
    hinge_loss,
    learning_rate,
    objective,
    regularizer_value,
    train_sgd,
)
from tracesvm.linear_model import predict_many
from tracesvm.sgd import _settle_l1
from oracles import (
    central_difference_gradient,
    matrix_from_dense,
    regularizer_subgradient,
    sgd_cumulative_l1,
    sgd_step,
)


class TestHinge:
    def test_satisfied_margin(self):
        assert hinge_loss(2.0, 1) == 0.0
        assert hinge_loss(-2.0, -1) == 0.0

    def test_violated_margin(self):
        assert hinge_loss(0.0, 1) == 1.0
        assert hinge_loss(-1.0, 1) == 2.0
        assert hinge_loss(0.5, -1) == 1.5

    def test_boundary(self):
        assert hinge_loss(1.0, 1) == 0.0


class TestRegularizers:
    W = np.array([3.0, -4.0])

    def test_values(self):
        assert regularizer_value(self.W, "l2") == 12.5
        assert regularizer_value(self.W, "l1") == 3.5
        # elasticnet's l1 share carries no 1/2
        assert regularizer_value(self.W, "elasticnet", phi=0.5) == 0.5 / 2 * 25 + 0.5 * 7

    def test_elasticnet_phi_one_equals_l2(self):
        w = np.array([1.2, -0.3, 0.0, 5.0])
        assert regularizer_value(w, "elasticnet", phi=1.0) == regularizer_value(w, "l2")
        assert np.array_equal(
            regularizer_subgradient(w, "elasticnet", phi=1.0),
            regularizer_subgradient(w, "l2"),
        )

    def test_subgradients(self):
        w = np.array([3.0, 0.0, -4.0])
        assert np.array_equal(regularizer_subgradient(w, "l2"), w)
        assert np.array_equal(regularizer_subgradient(w, "l1"), [0.5, 0.0, -0.5])
        assert np.array_equal(
            regularizer_subgradient(np.array([2.0]), "elasticnet", phi=0.0), [1.0]
        )

    def test_sign_zero_is_zero(self):
        assert regularizer_subgradient(np.zeros(3), "l1").tolist() == [0.0, 0.0, 0.0]


class TestLearningRate:
    def test_examples(self):
        assert learning_rate(1, 1.0, 0.0) == 1.0
        assert learning_rate(1, 2.0, 0.0) == 0.5
        assert learning_rate(3, 2.0, 1.0) == 1.0 / 8.0

    def test_decreasing_in_t(self):
        rates = [learning_rate(t, 0.5, 2.0) for t in range(1, 50)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_default_t0_caps_first_step(self):
        for alpha in (1e-4, 0.5, 1.0, 3.0, 100.0):
            t0 = SgdConfig(alpha=alpha).resolved_t0()
            assert learning_rate(1, alpha, t0) == pytest.approx(min(1.0, 1.0 / alpha))

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            learning_rate(1, 0.0, 0.0)
        with pytest.raises(ConfigError):
            learning_rate(0, 1.0, 0.0)


class TestSgdStep:
    def test_satisfied_margin_only_shrinks(self):
        # w=[1,0], b=0, x has a far-margin positive point
        w = np.array([1.0, 0.0])
        x = SparseVector([0], [5.0], 2)
        w2, b2 = sgd_step(w, 0.0, x, 1, alpha=1.0, eta=0.1, penalty="l2")
        assert np.array_equal(w2, [0.9, 0.0])
        assert b2 == 0.0

    def test_violated_margin_unregularized(self):
        w = np.zeros(2)
        x = SparseVector([0], [1.0], 2)
        w2, b2 = sgd_step(w, 0.0, x, 1, alpha=0.0, eta=1.0, penalty="l2")
        assert np.array_equal(w2, [1.0, 0.0])
        assert b2 == 1.0

    def test_inputs_untouched(self):
        w = np.array([1.0, -1.0])
        x = SparseVector([1], [2.0], 2)
        sgd_step(w, 0.5, x, -1, alpha=0.1, eta=0.2, penalty="l1")
        assert np.array_equal(w, [1.0, -1.0])

    def test_zero_eta_is_identity(self):
        w = np.array([0.7, -0.4])
        x = SparseVector([0, 1], [1.0, 1.0], 2)
        w2, b2 = sgd_step(w, -0.2, x, 1, alpha=2.0, eta=0.0, penalty="elasticnet", phi=0.3)
        assert np.array_equal(w2, w)
        assert b2 == -0.2


class TestObjectiveGradient:
    """Finite differences against the analytic subgradient of the full objective."""

    def _check(self, penalty, phi, seed):
        rng = np.random.default_rng(seed)
        n, dim, alpha = 5, 6, 0.37
        rows = rng.normal(size=(n, dim))
        rows[np.abs(rows) < 0.1] = 0.3  # keep entries nonzero
        y = np.array([1, -1, 1, -1, 1])
        m = matrix_from_dense(rows)
        for _ in range(20):
            w = rng.normal(size=dim)
            b = float(rng.normal())
            margins = y * (rows @ w + b)
            if np.any(np.abs(margins - 1.0) < 1e-3) or np.any(np.abs(w) < 1e-3):
                continue  # not differentiable nearby; resample
            analytic = alpha * regularizer_subgradient(w, penalty, phi)
            for i in range(n):
                if margins[i] < 1.0:
                    analytic = analytic - y[i] * rows[i] / n
            fd = central_difference_gradient(
                lambda ww: objective(ww, b, m, y, alpha, penalty, phi), w
            )
            err = np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic))
            assert err <= 1e-4

    def test_l2(self):
        self._check("l2", 0.5, seed=0)

    def test_l1(self):
        self._check("l1", 0.5, seed=1)

    def test_elasticnet(self):
        self._check("elasticnet", 0.3, seed=2)


class TestTrainSgd:
    def _toy(self):
        # two points per class on disjoint single features
        rows = [[1.0, 0.0], [0.8, 0.0], [0.0, 1.0], [0.0, 0.7]]
        y = np.array([1, 1, -1, -1])
        return matrix_from_dense(rows), y

    def test_separates_toy_data(self):
        m, y = self._toy()
        model = train_sgd(m, y, SgdConfig(alpha=1e-4, epochs=100, tol=0.0, seed=0))
        assert np.array_equal(predict_many(model, m), y)

    def test_deterministic_bitwise(self):
        m, y = self._toy()
        cfg = SgdConfig(alpha=1e-3, epochs=30, seed=5)
        a = train_sgd(m, y, cfg)
        b = train_sgd(m, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias

    def test_seed_changes_trajectory(self):
        m, y = self._toy()
        a = train_sgd(m, y, SgdConfig(alpha=1e-3, epochs=5, tol=0.0, seed=1))
        b = train_sgd(m, y, SgdConfig(alpha=1e-3, epochs=5, tol=0.0, seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_elasticnet_phi_one_matches_l2_bitwise(self):
        m, y = self._toy()
        l2 = train_sgd(m, y, SgdConfig(penalty="l2", alpha=1e-2, epochs=25, seed=3))
        en = train_sgd(
            m, y, SgdConfig(penalty="elasticnet", phi=1.0, alpha=1e-2, epochs=25, seed=3)
        )
        assert np.array_equal(l2.weights, en.weights)
        assert l2.bias == en.bias

    def test_objective_descends_below_zero_model(self):
        m, y = self._toy()
        for penalty in ("l2", "l1", "elasticnet"):
            model = train_sgd(
                m, y, SgdConfig(penalty=penalty, alpha=1e-3, epochs=50, tol=0.0, seed=0)
            )
            final = objective(model.weights, model.bias, m, y, 1e-3, penalty, 0.5)
            assert final < 1.0  # zero model scores exactly 1.0

    def test_zero_model_objective_is_one(self):
        m, y = self._toy()
        assert objective(np.zeros(2), 0.0, m, y, 0.123, "l2") == 1.0

    def test_early_stop_records_fewer_epochs(self):
        m, y = self._toy()
        model = train_sgd(m, y, SgdConfig(alpha=1e-3, epochs=200, tol=0.5, seed=0))
        assert model.metadata["epochs_run"] < 200

    def test_degenerate_labels(self):
        m, _ = self._toy()
        with pytest.raises(DegenerateLabelsError):
            train_sgd(m, np.array([1, 1, 1, 1]), SgdConfig())
        with pytest.raises(DegenerateLabelsError):
            train_sgd(m, np.array([1, 0, -1, 1]), SgdConfig())

    def test_label_length_mismatch(self):
        m, _ = self._toy()
        with pytest.raises(LengthMismatchError):
            train_sgd(m, np.array([1, -1]), SgdConfig())

    def test_bias_not_regularized(self):
        # A satisfied-margin step shrinks the weights but must leave b alone.
        w = np.array([1.0])
        x = SparseVector([0], [5.0], 1)
        w2, b2 = sgd_step(w, 3.0, x, 1, alpha=1.0, eta=0.1, penalty="l2")
        assert np.array_equal(w2, [0.9])
        assert b2 == 3.0
        # And with a huge alpha crushing the weights, training still moves b.
        rows = [[1.0], [1.0], [1.0], [1.0], [-0.5], [1.0]]
        y = np.array([1, 1, 1, 1, -1, 1])
        m = matrix_from_dense(rows)
        model = train_sgd(m, y, SgdConfig(alpha=100.0, epochs=10, tol=0.0, seed=0))
        assert model.bias != 0.0
        assert np.abs(model.weights).max() < 1e-2

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SgdConfig(penalty="ridge")
        with pytest.raises(ConfigError):
            SgdConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            SgdConfig(phi=1.5)
        with pytest.raises(ConfigError):
            SgdConfig(epochs=0)
        with pytest.raises(ConfigError):
            SgdConfig(t0=-1.0)
        for alpha in (np.inf, np.nan):
            with pytest.raises(ConfigError):
                SgdConfig(alpha=alpha)
        for t0 in (np.inf, np.nan):
            with pytest.raises(ConfigError):
                SgdConfig(t0=t0)
        # alpha 1e-320 is finite, but its default t0 = 1/alpha - 1 is not.
        for bad in ({"alpha": 1e-320}, {"tol": np.inf}, {"tol": np.nan}, {"seed": -1}):
            with pytest.raises(ConfigError):
                SgdConfig(**bad)
        assert SgdConfig(alpha=1e-300).resolved_t0() < np.inf


class TestCumulativeL1:
    """train_sgd's lazy l1 path against the eager reference and its own rules."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 10),
        dim=st.integers(1, 4),
        alpha=st.floats(0.05, 0.5),
        epochs=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lazy_matches_eager_reference(self, n, dim, alpha, epochs, seed):
        # Few features and a strong penalty, so that the shrink still pending
        # on a row's features often decides whether its margin is violated.
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.05, 1.0, (n, dim)) * rng.choice([-1.0, 0.0, 1.0], (n, dim))
        y = np.concatenate(([1, -1], rng.choice([1, -1], n - 2)))
        cfg = SgdConfig(penalty="l1", alpha=alpha, epochs=epochs, tol=0.0, seed=seed)
        model = train_sgd(matrix_from_dense(rows), y, cfg)
        w, b = sgd_cumulative_l1(
            rows, y, alpha, cfg.resolved_t0(), model.metadata["epochs_run"], cfg.seed
        )
        assert np.abs(model.weights - w).max() <= 1e-9
        assert abs(model.bias - b) <= 1e-9

    def test_feature_seen_once_ends_at_exactly_zero(self):
        # Feature 2 is in row 0 only, which one epoch visits once.  Its one
        # hinge step (at most 0.1) is below one epoch's penalty, about 0.58,
        # so it must end at exactly 0, not overshoot around it.
        rows = [[0.0, 0.0, 0.1]] + [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]] * 10
        y = np.array([1] + [1, -1] * 10)
        for seed in range(5):
            model = train_sgd(
                matrix_from_dense(rows), y,
                SgdConfig(penalty="l1", alpha=0.1, epochs=1, tol=0.0, seed=seed),
            )
            assert model.weights[2] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
        share=st.floats(-1.0, 1.0),
        u=st.floats(0.0, 10.0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_penalty_never_flips_a_sign(self, w, share, u, scale):
        v = np.array(w) / scale
        before = v.copy()
        q = np.full(v.size, share * u)  # what a weight has had lies in [-u, u]
        _settle_l1(v, q, np.arange(v.size), scale, u)
        assert np.all(np.sign(v) * np.sign(before) >= 0.0)
        assert np.all(np.abs(v) <= np.abs(before) * (1 + 1e-12))
