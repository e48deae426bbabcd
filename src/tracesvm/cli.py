"""Command-line interface.

Subcommands: preprocess, gen-corpus, train, evaluate, grid-search,
top-features.  Every command is deterministic given its flags and seeds;
artifacts (models, CSVs, processed traces) are written with canonical
formatting so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dual_cd import DualConfig, train_dual_cd
from .errors import ConfigError, EmptyTraceError, SingleClassError, TraceSvmError
from .evaluation import (
    accuracy_score,
    classification_report,
    confusion,
    format_report_text,
    roc_curve,
    top_features,
    write_report_csv,
    write_roc_csv,
)
from .ingest import (
    LABEL_MALICIOUS,
    load_corpus,
    read_manifest,
    read_trace_file,
    write_processed,
)
from .linear_model import decision_many, predict_many
from .model_io import ModelArtifact, load_model, save_model
from .selection import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_TOL_GRID,
    TRAINER_SGD,
    TRAINERS,
    SplitSpec,
    grid_search,
    train_test_split,
    write_grid_csv,
)
from .sgd import PENALTIES, PENALTY_L2, SgdConfig, train_sgd
from .synthetic import MANIFEST_NAME, GeneratorConfig, generate_corpus
from .vectorize import fit_transform, transform


def _labels_to_y(labels) -> np.ndarray:
    return np.array([1 if l == LABEL_MALICIOUS else -1 for l in labels], dtype=np.int64)


def _add_ngram_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ngram-min", type=int, default=8, help="smallest n-gram length (default 8)")
    p.add_argument("--ngram-max", type=int, default=10, help="largest n-gram length (default 10)")


def _add_trainer_flags(p: argparse.ArgumentParser) -> None:
    """The trainer and every setting of its config but alpha, C and tol."""
    p.add_argument("--trainer", choices=TRAINERS, default=TRAINER_SGD, help="optimizer (default sgd)")
    p.add_argument("--penalty", choices=PENALTIES, default=PENALTY_L2, help="regularizer (sgd, default l2)")
    p.add_argument("--phi", type=float, default=0.5, help="elasticnet mix, 1.0 = pure l2 (sgd)")
    p.add_argument("--epochs", type=int, default=20, help="epoch cap (sgd, default 20)")
    p.add_argument("--t0", type=float, default=None, help="learning-rate offset (sgd, default 1/alpha-1)")
    p.add_argument("--max-outer", type=int, default=1000, help="sweep cap (dual-cd, default 1000)")
    p.add_argument("--seed", type=int, default=0, help="seed of the shuffles and of grid-search's split")


def _config(args: argparse.Namespace, **cell) -> SgdConfig | DualConfig:
    """The --trainer's config from the shared trainer flags, plus ``cell``'s settings."""
    if args.trainer == TRAINER_SGD:
        return SgdConfig(
            penalty=args.penalty, phi=args.phi, epochs=args.epochs, t0=args.t0, seed=args.seed, **cell
        )
    return DualConfig(max_outer=args.max_outer, seed=args.seed, **cell)


def cmd_preprocess(args: argparse.Namespace) -> int:
    src = Path(args.input)
    out_dir = Path(args.output_dir)
    if src.is_dir():
        inputs = sorted(p for p in src.iterdir() if p.is_file() and p.name != MANIFEST_NAME)
    elif src.exists():
        inputs = [src]
    else:
        print(f"error: {src} does not exist", file=sys.stderr)
        return 2
    if not inputs:
        print(f"error: no inputs found in {src}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}  # output name -> the input written to it
    failures = []
    for path in inputs:
        name = f"{path.stem}.txt"
        if name in written:
            failures.append((path, f"its output {name} is already written from {written[name]}"))
            continue
        try:
            trace = read_trace_file(path)
        except EmptyTraceError:
            failures.append((path, "no system calls"))
            continue
        except OSError as exc:
            failures.append((path, str(exc)))
            continue
        write_processed(trace, out_dir / name)
        written[name] = path
    print(f"processed {len(written)}/{len(inputs)} file(s) into {out_dir}")
    for path, reason in failures:
        print(f"skipped {path}: {reason}")
    return 0 if written else 2


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    config = GeneratorConfig(
        n_traces=args.n_traces,
        malicious_fraction=args.malicious_fraction,
        trace_len_range=(args.len_min, args.len_max),
        motif_rate=args.motif_rate,
        seed=args.seed,
    )
    traces, manifest = generate_corpus(config, args.output_dir, raw=args.raw)
    n_mal = sum(1 for t in traces if t.label == LABEL_MALICIOUS)
    print(f"wrote {len(traces)} traces ({n_mal} malicious) under {args.output_dir}")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    corpus = load_corpus(read_manifest(args.manifest))
    vocab, idf, matrix = fit_transform(corpus, args.ngram_min, args.ngram_max)
    y = _labels_to_y(matrix.labels)
    started = time.perf_counter()
    if args.trainer == TRAINER_SGD:
        model = train_sgd(matrix, y, _config(args, alpha=args.alpha, tol=args.tol))
    else:
        model = train_dual_cd(matrix, y, _config(args, C=args.c, tol=args.tol))
    train_seconds = time.perf_counter() - started
    save_model(ModelArtifact(model=model, vocabulary=vocab, idf=idf), args.output)
    train_acc = accuracy_score(confusion(predict_many(model, matrix), y))
    print(f"trained {args.trainer} model on {len(matrix)} traces, {matrix.dim} features")
    print(f"training accuracy: {train_acc:.4f}")
    print(f"training time: {train_seconds:.3f} s")
    print(f"model written to {args.output}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    artifact = load_model(args.model)
    corpus = load_corpus(read_manifest(args.manifest))
    started = time.perf_counter()
    matrix = transform(corpus, artifact.vocabulary, artifact.idf)
    scores = decision_many(artifact.model, matrix)
    elapsed = time.perf_counter() - started
    preds = np.where(scores >= 0.0, 1, -1)
    y = _labels_to_y(matrix.labels)
    report = classification_report(preds, y, macro=args.macro)
    report_text = format_report_text(report)
    print(report_text, end="")
    print(f"testing time: {elapsed:.3f} s")
    curve = None
    try:
        curve = roc_curve(scores, y)
        print(f"auc: {curve.auc:.4f}")
    except SingleClassError:
        print("roc skipped: ground truth has a single class")
    if args.output_dir is not None:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_bytes(report_text.encode("utf-8"))
        write_report_csv(report, out_dir / "report.csv")
        if curve is not None:
            write_roc_csv(curve, out_dir / "roc.csv")
        print(f"reports written under {out_dir}")
    return 0


def _parse_grid(text: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if text is None:
        return default
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"grid entry {entry.strip()!r} is not a number") from None
    return tuple(values)


def cmd_grid_search(args: argparse.Namespace) -> int:
    corpus = load_corpus(read_manifest(args.manifest))
    split = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    train, val = train_test_split(corpus, split)
    vocab, idf, train_matrix = fit_transform(train, args.ngram_min, args.ngram_max)
    val_matrix = transform(val, vocab, idf)
    result = grid_search(
        train_matrix,
        _labels_to_y(train_matrix.labels),
        val_matrix,
        _labels_to_y(val_matrix.labels),
        _config(args),
        alpha_grid=_parse_grid(args.alpha_grid, DEFAULT_ALPHA_GRID),
        tol_grid=_parse_grid(args.tol_grid, DEFAULT_TOL_GRID),
    )
    write_grid_csv(result, args.output)
    print(f"searched {len(result.table)} cells with trainer {args.trainer}")
    print(f"best: alpha={result.best_alpha!r} tol={result.best_tol!r} f1={result.best_f1:.4f}")
    print(f"grid written to {args.output}")
    return 0


def cmd_top_features(args: argparse.Namespace) -> int:
    artifact = load_model(args.model)
    ranked = top_features(artifact.model, artifact.vocabulary, args.k)
    for weight, gram in ranked:
        print(f"{weight!r}\t{gram}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracesvm",
        description="Classify system-call traces as malicious or benign "
        "with n-gram tf-idf features and linear SVMs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="turn raw logs into one-call-per-line files")
    p.add_argument("input", help=f"a raw log file or a directory of them (its {MANIFEST_NAME} is skipped)")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("gen-corpus", help="write a seeded synthetic corpus")
    p.add_argument("--n-traces", type=int, default=100)
    p.add_argument("--malicious-fraction", type=float, default=0.637)
    p.add_argument("--len-min", type=int, default=20)
    p.add_argument("--len-max", type=int, default=40)
    p.add_argument("--motif-rate", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw", action="store_true", help="write raw log lines instead of processed")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="fit a model from a manifest")
    p.add_argument("--manifest", required=True)
    _add_ngram_flags(p)
    _add_trainer_flags(p)
    p.add_argument("--alpha", type=float, default=1e-4, help="regularization strength (sgd, default 1e-4)")
    p.add_argument("--c", type=float, default=1.0, help="box bound C (dual-cd, default 1.0)")
    p.add_argument("--tol", type=float, default=1e-3, help="stopping tolerance (default 1e-3)")
    p.add_argument("--output", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a manifest against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--macro", action="store_true", help="macro-average instead of weighted")
    p.add_argument("--output-dir", default=None, help="where to write report.txt/report.csv/roc.csv")
    p.set_defaults(func=cmd_evaluate)

    # No abbreviations, or train's --alpha and --tol would be read as the grid flags.
    p = sub.add_parser(
        "grid-search",
        help="search (alpha, tol) on a validation split",
        description="Each cell sets alpha (dual-cd: C = 1/alpha) and tol; the other flags hold for all.",
        allow_abbrev=False,
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    _add_ngram_flags(p)
    _add_trainer_flags(p)
    p.add_argument("--alpha-grid", default=None, help="comma-separated alphas (default decade ladder)")
    p.add_argument("--tol-grid", default=None, help="comma-separated tols (default decade ladder)")
    p.add_argument("--output", required=True, help="grid CSV to write")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("top-features", help="print the strongest malware-direction n-grams")
    p.add_argument("--model", required=True)
    p.add_argument("-k", type=int, default=10)
    p.set_defaults(func=cmd_top_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceSvmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
