"""A trainer's trajectory does not depend on tol: tol only decides where it stops.

One walk over a trainer's private epochs or sweeps is recorded, and a
standalone run at each of a descending list of tols must end bit-equal to
the recorded state where its stop rule falls.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from tracesvm import DualConfig, NonConvergenceWarning, SgdConfig, train_dual_cd, train_sgd
from tracesvm.dual_cd import _sweeps
from tracesvm.sgd import _epochs
from oracles import DualState, matrix_from_dense, projected_gradient

SGD_TOLS = (1.0, 0.3, 0.1, 1e-2, 1e-3, 1e-4, 0.0)
DUAL_TOLS = (1e-1, 1e-2, 1e-3, 1e-5, 1e-8, 1e-12)


def random_problem(rng):
    """5-12 rows over 3-8 features, about a third of the entries 0, both classes present."""
    n, dim = int(rng.integers(5, 13)), int(rng.integers(3, 9))
    rows = rng.normal(size=(n, dim)) * (rng.random((n, dim)) > 0.35)
    y = np.resize([1, -1], n)
    rng.shuffle(y)
    return rows, y


def test_sgd_stops_on_one_trajectory_at_every_tol():
    rng = np.random.default_rng(7)
    stops = set()
    for problem in range(12):
        rows, y = random_problem(rng)
        m = matrix_from_dense(rows)
        for penalty in ("l2", "l1", "elasticnet"):
            alpha = float(rng.choice([1e-3, 1e-2, 1e-1]))
            base = SgdConfig(penalty=penalty, alpha=alpha, epochs=8, seed=problem)
            walk = []  # (w, b, objective, relative improvement) after each epoch
            prev = 1.0
            for w, b, obj in _epochs(m, y, base):
                walk.append((w, b, obj, (prev - obj) / max(abs(prev), 1e-12)))
                prev = obj
                if len(walk) == base.epochs:
                    break
            for tol in SGD_TOLS:
                k = next((k for k, step in enumerate(walk, 1) if step[3] < tol), base.epochs)
                w, b, obj, _ = walk[k - 1]
                model = train_sgd(m, y, replace(base, tol=tol))
                assert model.metadata["epochs_run"] == k
                assert model.metadata["final_objective"] == obj
                assert np.array_equal(model.weights, w)
                assert model.bias == b
                stops.add(k)
    # Both early stops and the epoch cap were reached.
    assert 1 in stops and 8 in stops and len(stops) >= 4


def test_dual_cd_stops_on_one_trajectory_at_every_tol():
    rng = np.random.default_rng(8)
    max_outer = 25
    outcomes = set()
    for problem in range(12):
        rows, y = random_problem(rng)
        m = matrix_from_dense(rows)
        active = np.flatnonzero(np.diff(m.indptr))
        for C in (0.1, 1.0, 10.0):
            smallest = DualConfig(C=C, tol=DUAL_TOLS[-1], max_outer=max_outer, seed=problem)
            walk = []  # copies of (alpha, augmented w) after each sweep
            for k, (alpha, w, converged) in enumerate(_sweeps(m, y, smallest), 1):
                walk.append((alpha.copy(), w.copy()))
                if converged or k == max_outer:
                    break
            for tol in DUAL_TOLS:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    model = train_dual_cd(m, y, replace(smallest, tol=tol))
                k = model.metadata["outer_iters"]
                assert 1 <= k <= len(walk)
                alpha, w = walk[k - 1]
                assert np.array_equal(model.weights, w[:-1])
                assert model.bias == w[-1]
                assert model.metadata["dual_objective"] == 0.5 * float(w @ w) - float(np.sum(alpha))
                run_converged = model.metadata["converged"]
                warned = [c for c in caught if issubclass(c.category, NonConvergenceWarning)]
                assert len(warned) == (0 if run_converged else 1)
                if tol == DUAL_TOLS[-1]:
                    assert run_converged is converged
                if run_converged is True:
                    # The confirming pass held at the returned state.
                    state = DualState(alpha, w)
                    assert max(abs(projected_gradient(i, state, m, y, C)) for i in active) < tol
                else:
                    assert run_converged is False and k == max_outer
                outcomes.add(run_converged)
    assert outcomes == {True, False}
