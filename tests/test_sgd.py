"""Hinge/penalty math and the stochastic subgradient trainer."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tracesvm import (
    ConfigError,
    DegenerateLabelsError,
    LengthMismatchError,
    SgdConfig,
    objective,
    regularizer_value,
    train_sgd,
)
from tracesvm.linear_model import predict_many
from tracesvm.sgd import PENALTIES, _settle_l1
from oracles import (
    central_difference_gradient,
    csr_matrix,
    matrix_from_dense,
    regularizer_subgradient,
    sgd_cumulative_l1,
    sgd_mean_hinge,
    sgd_objective,
    sgd_step,
)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestHinge:
    """At zero weights the penalty is 0, so ``objective`` is the one row's hinge loss at score b."""

    @staticmethod
    def hinge(score, label):
        return objective(np.zeros(1), score, matrix_from_dense([[1.0]]), [label], 0.37, "l2")

    def test_satisfied_margin(self):
        assert self.hinge(2.0, 1) == 0.0
        assert self.hinge(-2.0, -1) == 0.0

    def test_violated_margin(self):
        assert self.hinge(0.0, 1) == 1.0
        assert self.hinge(-1.0, 1) == 2.0
        assert self.hinge(0.5, -1) == 1.5

    def test_boundary(self):
        assert self.hinge(1.0, 1) == 0.0


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MODERATE = st.floats(-1e3, 1e3)
# Products of two of these can overflow, so rows can score inf, -inf and NaN.
LARGE = MODERATE | st.sampled_from([1e200, -1e200, 1e308, -1e308])


@st.composite
def objective_problems(draw):
    """A CSR matrix with empty rows among its rows, labels, weights and a bias.

    Half the problems draw moderate numbers, where a sum's bits depend on the
    order of its terms; the other half mix in numbers whose products
    overflow.  A weight may also be inf or NaN, as a diverged run's are.
    """
    numbers = draw(st.sampled_from([MODERATE, LARGE]))
    dim = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 24))):
        columns = sorted(draw(st.sets(st.integers(0, dim - 1))))
        values = draw(st.lists(numbers.filter(bool), min_size=len(columns), max_size=len(columns)))
        rows.append((columns, values))
    labels = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(rows), max_size=len(rows)))
    weights = numbers | st.sampled_from([np.inf, -np.inf, np.nan])
    w = np.array(draw(st.lists(weights, min_size=dim, max_size=dim)))
    return csr_matrix(rows, dim), labels, w, draw(numbers)


class TestObjective:
    # Row 0 scores inf - inf = NaN.
    NAN_ROW = (csr_matrix([([0, 1], [1.0, 1.0]), ([], [])], 2), [1, -1], np.array([np.inf, -np.inf]), 0.5)
    # Finite weights whose |w_j| sum overflows.
    HUGE_W = (csr_matrix([([0], [1.0]), ([1], [-1.0])], 2), [1, -1], np.array([1e308, 1e308]), 0.0)
    # Finite weights whose w_j^2 sum overflows and whose |w_j| sum does not.
    HUGE_SQUARES = (csr_matrix([([0], [1.0]), ([1], [-1.0])], 2), [1, -1], np.array([1e200, -1e200]), 0.0)

    @settings(max_examples=400, deadline=None)
    @example(problem=NAN_ROW, alpha=1.0, penalty="l2", phi=0.5)
    @example(problem=HUGE_W, alpha=1.0, penalty="l2", phi=0.5)
    @example(problem=HUGE_W, alpha=1.0, penalty="l1", phi=0.5)
    @example(problem=HUGE_W, alpha=1.0, penalty="elasticnet", phi=1.0)
    @example(problem=HUGE_SQUARES, alpha=1.0, penalty="l1", phi=0.5)
    @example(problem=HUGE_SQUARES, alpha=1.0, penalty="elasticnet", phi=0.0)
    @given(
        problem=objective_problems(),
        alpha=st.floats(1e-12, 1e12),
        penalty=st.sampled_from(PENALTIES),
        phi=st.floats(0.0, 1.0),
    )
    def test_bit_equal_to_the_per_row_loop(self, problem, alpha, penalty, phi):
        """Bit-equal wherever each of the w_j^2 and |w_j| sums is finite or a
        nonzero coefficient multiplies it.

        Scores and penalties overflow here, and NaN scores cost 0, as in the loop.
        """
        matrix, labels, w, b = problem
        with np.errstate(all="ignore"):
            got = objective(w, b, matrix, labels, alpha, penalty, phi)
            expected = sgd_objective(w, b, matrix, labels, alpha, penalty, phi)
            abs_sum = np.sum(np.abs(w))
            square_sum = np.sum(w * w)
        no_l1 = penalty == "l2" or (penalty == "elasticnet" and phi == 1.0)
        no_l2 = penalty == "l1" or (penalty == "elasticnet" and phi == 0.0)
        if no_l1 and not np.isfinite(abs_sum):
            # The loop's 0 * inf makes its objective NaN.  objective skips that
            # term, and the sum of w_j^2 makes it inf, or NaN for a NaN weight.
            assert np.isnan(expected)
            assert np.isnan(got) if np.isnan(w).any() else got == np.inf
        elif no_l2 and not np.isfinite(square_sum):
            # The mirror: the loop's 0 * inf makes its objective NaN.  objective
            # skips the w_j^2 sum, so it is the loop's hinge mean plus alpha
            # times the l1 term alone.
            assert np.isnan(expected)
            l1c = 0.5 if penalty == "l1" else 1.0
            with np.errstate(all="ignore"):
                l1_only = sgd_mean_hinge(w, b, matrix, labels) + alpha * float(l1c * abs_sum)
            assert bits(got) == bits(l1_only)
        else:
            assert bits(got) == bits(expected)


class TestRegularizers:
    W = np.array([3.0, -4.0])

    def test_values(self):
        assert regularizer_value(self.W, "l2") == 12.5
        assert regularizer_value(self.W, "l1") == 3.5
        # elasticnet's l1 share carries no 1/2
        assert regularizer_value(self.W, "elasticnet", phi=0.5) == 0.5 / 2 * 25 + 0.5 * 7

    def test_l1_skips_the_sum_of_squares(self):
        # The w_j^2 sum overflows, and 0 times it would be NaN.
        w = np.array([1e200, -1e200])
        assert regularizer_value(w, "l1") == 1e200
        assert regularizer_value(w, "elasticnet", phi=0.0) == 2e200

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FINITE, max_size=8))
    def test_l2_is_half_the_sum_of_squares(self, w):
        # No |w| sum: at |w| near the largest float it would overflow, and 0 * inf is NaN.
        w = np.array(w)
        with np.errstate(over="ignore"):
            assert bits(regularizer_value(w, "l2")) == bits(0.5 * np.sum(w * w))

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
    """Step t of ``train_sgd`` has eta(t) = 1 / (alpha * (t0 + t))."""

    def test_examples(self):
        # Rows without features violate every margin, so each step moves the
        # bias by 0.01 * eta(t) * y, in the order of the seeded permutations.
        matrix = matrix_from_dense([[0.0], [0.0], [0.0]])
        y = np.array([1, -1, 1])
        for alpha, t0 in ((1.0, 0.0), (2.0, 0.0), (2.0, 1.0)):
            config = SgdConfig(alpha=alpha, t0=t0, epochs=3, tol=0.0, seed=4)
            model = train_sgd(matrix, y, config)
            rng = np.random.default_rng(config.seed)
            epochs = model.metadata["epochs_run"]
            order = np.concatenate([rng.permutation(len(y)) for _ in range(epochs)])
            etas = [1.0 / (alpha * (t0 + t)) for t in range(1, len(order) + 1)]
            expected = sum(0.01 * eta * y[i] for eta, i in zip(etas, order))
            assert model.bias == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_default_t0_caps_first_step(self):
        for alpha in (1e-4, 0.5, 1.0, 3.0, 100.0):
            t0 = SgdConfig(alpha=alpha).resolved_t0()
            assert 1.0 / (alpha * (t0 + 1)) == pytest.approx(min(1.0, 1.0 / alpha))


class TestSgdStep:
    def test_satisfied_margin_only_shrinks(self):
        # w=[1,0], b=0, x has a far-margin positive point
        w = np.array([1.0, 0.0])
        x = ([0], [5.0])
        w2, b2 = sgd_step(w, 0.0, x, 1, alpha=1.0, eta=0.1, penalty="l2")
        assert np.array_equal(w2, [0.9, 0.0])
        assert b2 == 0.0

    def test_violated_margin_unregularized(self):
        w = np.zeros(2)
        x = ([0], [1.0])
        w2, b2 = sgd_step(w, 0.0, x, 1, alpha=0.0, eta=1.0, penalty="l2")
        assert np.array_equal(w2, [1.0, 0.0])
        assert b2 == 1.0

    def test_inputs_untouched(self):
        w = np.array([1.0, -1.0])
        x = ([1], [2.0])
        sgd_step(w, 0.5, x, -1, alpha=0.1, eta=0.2, penalty="l1")
        assert np.array_equal(w, [1.0, -1.0])

    def test_zero_eta_is_identity(self):
        w = np.array([0.7, -0.4])
        x = ([0, 1], [1.0, 1.0])
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

    @pytest.mark.parametrize("penalty, phi", [("l1", 0.5), ("elasticnet", 0.0)])
    def test_finite_model_whose_squares_overflow_is_not_diverged(self, penalty, phi):
        # Steps of up to 1/alpha on entries of order 1e3 give weights of order
        # 1e303, whose w_j^2 sum overflows; with no l2 part it is not summed.
        rng = np.random.default_rng(0)
        rows = rng.uniform(500, 1500, size=(20, 5)) * rng.choice([-1, 1], size=(20, 5))
        y = np.where(np.arange(20) % 2 == 0, 1, -1)
        config = SgdConfig(penalty=penalty, phi=phi, alpha=1e-300, t0=0.0, epochs=50)
        model = train_sgd(matrix_from_dense(rows), y, config)
        assert model.metadata["epochs_run"] == 1
        assert np.isfinite(model.metadata["final_objective"])
        assert np.all(np.isfinite(model.weights)) and np.max(np.abs(model.weights)) > 1e302

    @pytest.mark.parametrize(
        "config",
        [
            SgdConfig(),
            SgdConfig(penalty="elasticnet", alpha=1e-2, phi=0.3, epochs=3, t0=7.0, tol=0.0, seed=4),
        ],
        ids=["defaults", "every-field-set"],
    )
    def test_metadata_echoes_the_config(self, config):
        m, y = self._toy()
        model = train_sgd(m, y, config)
        meta = dict(model.metadata)
        run = {key: meta.pop(key) for key in ("epochs_run", "final_objective")}
        assert meta == {"trainer": "sgd", **asdict(config), "t0": config.resolved_t0()}
        assert 1 <= run["epochs_run"] <= config.epochs
        assert run["final_objective"] == objective(
            model.weights, model.bias, m, y, config.alpha, config.penalty, config.phi
        )

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
        x = ([0], [5.0])
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
    """train_sgd's lazy l1 and elastic-net paths against the eager reference, and the l1 rules."""

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

    # (rows with zeros, alpha, bound).  Where every row holds every feature,
    # each step settles every weight, so lazy and eager are one rule: the
    # largest deviation measured was 3.1e-15, pinned at 1e-12.  On rows with
    # zeros an absent weight's l1 debt is paid after the l2 steps in between
    # have scaled the weight, not before, so it shrinks more: the largest
    # deviations measured were 1.1e-3 at alpha 0.01 and 1.8e-5 at alpha
    # 0.001, pinned at about 2.7 times that.
    @pytest.mark.parametrize(
        "zeros, alpha, bound",
        [(False, 0.5, 1e-12), (False, 0.01, 1e-12), (True, 0.01, 3e-3), (True, 0.001, 5e-5)],
    )
    def test_elasticnet_keeps_to_eager_reference(self, zeros, alpha, bound):
        worst = 0.0
        for seed in range(12):
            for phi in (0.0, 0.15, 0.5, 0.85, 0.99):
                rng = np.random.default_rng(seed)
                signs = rng.choice([-1.0, 0.0, 1.0] if zeros else [-1.0, 1.0], (8, 4))
                rows = rng.uniform(0.05, 1.0, (8, 4)) * signs
                y = np.concatenate(([1, -1], rng.choice([1, -1], 6)))
                cfg = SgdConfig(penalty="elasticnet", phi=phi, alpha=alpha, epochs=5, tol=0.0, seed=seed)
                model = train_sgd(matrix_from_dense(rows), y, cfg)
                w, b = sgd_cumulative_l1(
                    rows, y, alpha, cfg.resolved_t0(), model.metadata["epochs_run"], seed, phi=phi
                )
                worst = max(worst, np.abs(model.weights - w).max(), abs(model.bias - b))
        assert worst <= bound

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
