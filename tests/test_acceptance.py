"""Acceptance suite: one test per promised behavior, each printing a PASS line.

These tests exercise the library end to end at its stated tolerances and
runtime budgets.  They are intentionally self-contained: every numeric
target is either a hand-checked worked example or an independent oracle
computed here in the test process.
"""

from __future__ import annotations

import itertools
import json
import time
import warnings

import numpy as np
import pytest

from tracesvm import (
    DualConfig,
    GeneratorConfig,
    SgdConfig,
    SingleClassError,
    SplitSpec,
    SyscallTrace,
    accuracy_score,
    confusion,
    fit_transform,
    grid_search,
    load_model,
    normalize_matrix,
    objective,
    parse_trace,
    recall_score,
    roc_curve,
    save_model,
    top_features,
    train_cell,
    train_dual_cd,
    train_sgd,
    train_test_split,
    transform,
)
from tracesvm.cli import main as cli_main
from tracesvm.dual_cd import dual_objective
from tracesvm.linear_model import predict_many
from tracesvm.selection import TRAINER_DUAL_CD, TRAINER_SGD
from oracles import (
    augmented_q_matrix,
    box_constrained_min,
    central_difference_gradient,
    csr_matrix,
    dense_tfidf_pipeline,
    extract_ngrams,
    grams,
    matrix_from_dense,
    pairwise_auc,
    regularizer_subgradient,
    to_dense,
)
from test_vectorize import SEVEN_CALLS

RAW_LOG = (
    "Unload of DLL at 04ED0000\n"
    "Unload of DLL at 04FC0000\n"
    "NtQueryPerformanceCounter( Counter=0x4e9f9c8 [3.01683e+009], Freq=null ) => 0\n"
    "NtProtectVirtualMemory( ProcessHandle=-1, BaseAddress=0x4e9f9f4 [0x77eae000], Size=0x4e9f9f8\n"
)


def _labels_to_y(labels):
    return np.array([1 if l == "malicious" else -1 for l in labels], dtype=np.int64)


@pytest.fixture(scope="module")
def pipeline500():
    """A 500-trace planted-motif corpus, split 80/20 and vectorized once."""
    started = time.perf_counter()
    config = GeneratorConfig(
        n_traces=500,
        malicious_fraction=0.637,
        trace_len_range=(20, 30),
        motif_rate=2.0,
        seed=11,
    )
    from tracesvm import generate

    corpus = generate(config)
    train, val = train_test_split(corpus, SplitSpec(train_fraction=0.8, seed=5))
    vocab, idf, train_matrix = fit_transform(train, 8, 10)
    val_matrix = transform(val, vocab, idf)
    build_seconds = time.perf_counter() - started
    return {
        "config": config,
        "vocab": vocab,
        "train_matrix": train_matrix,
        "train_y": _labels_to_y(train_matrix.labels),
        "val_matrix": val_matrix,
        "val_y": _labels_to_y(val_matrix.labels),
        "build_seconds": build_seconds,
    }


def test_unit_norm_worked_example():
    normalized = normalize_matrix(csr_matrix([([0, 1, 2], [10.0, 3.0, 1.0])], 3))
    target = np.array([0.953, 0.286, 0.095])
    assert np.max(np.abs(to_dense(normalized.rows[0]) - target)) <= 5e-4
    print("PASS unit-norm worked example: [10,3,1] -> [0.953,0.286,0.095] within 5e-4")


def test_log_parsing_and_bigram_fidelity():
    trace = parse_trace(RAW_LOG, "raw")
    assert trace.calls == ("ntqueryperformancecounter", "ntprotectvirtualmemory")
    assert extract_ngrams(SEVEN_CALLS, 2) == [
        "ntclose ntopenkeyex",
        "ntopenkeyex ntcreatefile",
        "ntcreatefile ntcreatesection",
        "ntcreatesection ntmapviewofsection",
        "ntmapviewofsection ntclose",
        "ntclose ntqueryvirtualmemory",
    ]
    print("PASS log parsing and bigram fidelity: 2-call log and all 6 bigrams exact")


def test_sparse_pipeline_matches_dense_oracle():
    started = time.perf_counter()
    names = ["ntclose", "ntopenkeyex", "ntcreatefile", "ntmapviewofsection", "ntwritefile"]
    rng = np.random.default_rng(42)
    for _ in range(100):
        n_traces = int(rng.integers(1, 6))
        corpus = []
        for i in range(n_traces):
            length = int(rng.integers(1, 13))
            calls = tuple(names[j] for j in rng.integers(0, len(names), size=length))
            corpus.append(SyscallTrace(source_id=f"t{i}", calls=calls))
        vocab, idf, matrix = fit_transform(corpus, 1, 3)
        keys, idf_ref, rows_ref = dense_tfidf_pipeline([t.calls for t in corpus], 1, 3)
        assert grams(vocab) == keys
        assert np.allclose(idf.idf, idf_ref, atol=1e-12, rtol=0)
        for row, ref in zip(matrix.rows, rows_ref):
            assert np.allclose(to_dense(row), ref, atol=1e-12, rtol=0)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        "PASS sparse pipeline vs dense oracle: 100 random corpora within 1e-12 "
        f"({elapsed:.2f} s)"
    )


def test_objective_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    n, dim, alpha = 5, 6, 0.37
    rows = rng.normal(size=(n, dim))
    rows[np.abs(rows) < 0.1] = 0.3
    y = np.array([1, -1, 1, -1, 1])
    m = matrix_from_dense(rows)
    penalties = itertools.cycle([("l2", 0.5), ("l1", 0.5), ("elasticnet", 0.3)])
    checked = 0
    while checked < 50:
        penalty, phi = next(penalties)
        w = rng.normal(size=dim)
        b = float(rng.normal())
        margins = y * (rows @ w + b)
        if np.any(np.abs(margins - 1.0) < 1e-3) or np.any(np.abs(w) < 1e-3):
            continue  # too close to a kink for finite differences
        analytic = alpha * regularizer_subgradient(w, penalty, phi)
        for i in range(n):
            if margins[i] < 1.0:
                analytic = analytic - y[i] * rows[i] / n
        fd = central_difference_gradient(
            lambda ww: objective(ww, b, m, y, alpha, penalty, phi), w, h=1e-6
        )
        err = np.linalg.norm(fd - analytic) / max(1.0, np.linalg.norm(analytic))
        assert err <= 1e-4
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        "PASS objective gradient check: 50 random differentiable points, "
        f"relative error <= 1e-4 ({elapsed:.2f} s)"
    )


def test_dual_solver_against_brute_force():
    started = time.perf_counter()
    # hand-solvable 2-point problem
    m2 = matrix_from_dense([[1.0], [-1.0]])
    y2 = np.array([1, -1])
    model = train_dual_cd(m2, y2, DualConfig(C=10.0, tol=1e-8, seed=0))
    assert abs(model.weights[0] - 1.0) <= 1e-3
    assert abs(model.bias) <= 1e-3

    rng = np.random.default_rng(123)
    for _ in range(20):
        rows = rng.normal(size=(3, 3))
        rows[np.abs(rows) < 0.05] = 0.2
        y = rng.choice([-1, 1], size=3)
        while len(set(y.tolist())) < 2:
            y = rng.choice([-1, 1], size=3)
        m = matrix_from_dense(rows)
        for C in (0.1, 1.0, 10.0):
            seen = []
            final = {}

            def watch(state, C=C, seen=seen, final=final):
                assert state.alpha_dual.min() >= 0.0  # feasibility is exact
                assert state.alpha_dual.max() <= C
                seen.append(dual_objective(state))
                final["state"] = state

            trained = train_dual_cd(
                m, y, DualConfig(C=C, tol=1e-9, max_outer=5000, seed=0), callback=watch
            )
            assert all(b2 <= a2 + 1e-10 for a2, b2 in zip(seen, seen[1:]))
            state = final["state"]
            rebuilt = np.zeros(4)
            for i in range(3):
                rebuilt[:3] += state.alpha_dual[i] * y[i] * rows[i]
                rebuilt[3] += state.alpha_dual[i] * y[i]
            assert np.max(np.abs(state.w - rebuilt)) <= 1e-8
            ref, _ = box_constrained_min(augmented_q_matrix(rows, y), C=C)
            assert abs(trained.metadata["dual_objective"] - ref) <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        "PASS dual solver vs brute force: analytic 2-point within 1e-3, 20x3 "
        f"random problems within 1e-4, descent/feasibility/w-identity hold ({elapsed:.2f} s)"
    )


def test_end_to_end_classification_quality(pipeline500):
    started = time.perf_counter()
    p = pipeline500
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind, base in (
            (TRAINER_SGD, SgdConfig(seed=1)),
            (TRAINER_DUAL_CD, DualConfig(seed=1)),
        ):
            grid = grid_search(
                p["train_matrix"], p["train_y"], p["val_matrix"], p["val_y"], base
            )
            best = train_cell(
                p["train_matrix"], p["train_y"], base, grid.best_alpha, grid.best_tol
            )
            c = confusion(predict_many(best, p["val_matrix"]), p["val_y"])
            results[kind] = (accuracy_score(c), recall_score(c))
    for kind, (acc, rec) in results.items():
        assert acc >= 0.95, f"{kind} held-out accuracy {acc}"
        assert rec >= 0.95, f"{kind} held-out malware recall {rec}"
    elapsed = time.perf_counter() - started
    total = elapsed + p["build_seconds"]
    assert total < 60.0
    summary = ", ".join(
        f"{kind} acc={acc:.3f} recall={rec:.3f}" for kind, (acc, rec) in results.items()
    )
    print(f"PASS end-to-end classification: {summary} on held-out 20% ({total:.1f} s)")


def test_auc_equals_pairwise_oracle_exhaustively():
    started = time.perf_counter()
    scores = [1.2, 0.9, 0.7, 0.55, 0.4, 0.3, 0.2, 0.1, -0.1, -0.35, -0.6, -1.0]
    assert len(set(scores)) == 12
    checked = 0
    for bits in range(2**12):
        y = [1 if bits & (1 << i) else -1 for i in range(12)]
        if bits == 0 or bits == 2**12 - 1:
            with pytest.raises(SingleClassError):
                roc_curve(scores, y)
            continue
        assert roc_curve(scores, y).auc == pairwise_auc(scores, y)
        checked += 1
    assert checked == 2**12 - 2
    assert roc_curve([0.3] * 6, [1, 1, 1, -1, -1, -1]).auc == 0.5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        "PASS AUC vs pairwise oracle: exact equality on all 4094 two-class "
        f"label patterns plus the all-tied case ({elapsed:.2f} s)"
    )


def test_grid_is_exhaustive_and_reproducible(pipeline500):
    started = time.perf_counter()
    p = pipeline500
    base = SgdConfig(seed=1)
    result = grid_search(p["train_matrix"], p["train_y"], p["val_matrix"], p["val_y"], base)
    assert len(result.table) == 80
    assert result.best_f1 == max(row[2] for row in result.table)
    # re-running sampled cells standalone reproduces the recorded scores
    from tracesvm import f1_score, precision_score

    for alpha, tol, recorded_f1 in result.table[::13]:
        model = train_cell(p["train_matrix"], p["train_y"], base, alpha, tol)
        c = confusion(predict_many(model, p["val_matrix"]), p["val_y"])
        again = f1_score(precision_score(c), recall_score(c))
        assert again == recorded_f1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        "PASS grid search: 80 cells, best equals table max, sampled cells "
        f"reproduce bit-for-bit ({elapsed:.1f} s)"
    )


def test_planted_motifs_surface_in_top_features(pipeline500):
    p = pipeline500
    model = train_sgd(
        p["train_matrix"], p["train_y"], SgdConfig(penalty="l1", alpha=1e-4, seed=1)
    )
    ranked = top_features(model, p["vocab"], k=5)
    motif_grams = set()
    for motif in p["config"].motifs:
        for n in range(8, 11):
            motif_grams.update(extract_ngrams(motif, n))
    hits = [gram for _, gram in ranked if gram in motif_grams]
    assert hits, f"no planted motif n-gram among the top 5: {ranked}"
    print(
        f"PASS planted motifs in top features: {len(hits)}/5 of the strongest "
        "l1-model coefficients are motif n-grams"
    )


def test_cli_byte_reproducibility_and_model_round_trip(tmp_path):
    corpus_flags = ["--n-traces", "30", "--len-min", "12", "--len-max", "16", "--seed", "9"]
    grid_flags = ["--alpha-grid", "0.001,0.0001", "--tol-grid", "0.01"]
    artifacts = {}
    for run in ("a", "b"):
        root = tmp_path / run
        assert cli_main(["gen-corpus", *corpus_flags, "--output-dir", str(root / "corpus")]) == 0
        manifest = root / "corpus" / "manifest.csv"
        model = root / "model.json"
        assert cli_main(["train", "--manifest", str(manifest), "--output", str(model)]) == 0
        assert (
            cli_main(
                ["evaluate", "--model", str(model), "--manifest", str(manifest),
                 "--output-dir", str(root / "eval")]
            )
            == 0
        )
        assert (
            cli_main(
                ["grid-search", "--manifest", str(manifest), *grid_flags,
                 "--output", str(root / "grid.csv")]
            )
            == 0
        )
        files = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                files[str(path.relative_to(root))] = path.read_bytes()
        artifacts[run] = files
    assert artifacts["a"].keys() == artifacts["b"].keys()
    for name in artifacts["a"]:
        assert artifacts["a"][name] == artifacts["b"][name], f"{name} differs between runs"

    model_path = tmp_path / "a" / "model.json"
    resaved = tmp_path / "resaved.json"
    save_model(load_model(model_path), resaved)
    assert resaved.read_bytes() == model_path.read_bytes()
    doc = json.loads(model_path.read_text())
    assert doc["format_version"] == 2
    n_files = len(artifacts["a"])
    print(
        f"PASS determinism and persistence: {n_files} artifact files byte-identical "
        "across reruns; model save/load/save byte-identical"
    )
