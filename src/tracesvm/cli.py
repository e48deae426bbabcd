"""Command-line interface.

Subcommands: preprocess, gen-corpus, train, evaluate, grid-search,
top-features.  Every command is deterministic given its flags and seeds;
artifacts (models, CSVs, processed traces) are written with canonical
formatting so reruns are byte-identical.

A flag that sets a config field is named after it and, left out, sets
nothing: ``_from_flags`` builds the config from the flags given, so its
class holds the one copy of each default, which ``--help`` prints.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import fields
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
from .linear_model import _predictions, decision_many, predict_many
from .model_io import ModelArtifact, load_model, save_model
from .selection import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_TOL_GRID,
    TRAINER_SGD,
    TRAINERS,
    SplitSpec,
    check_cells,
    grid_search,
    train_test_split,
    write_grid_csv,
)
from .sgd import PENALTIES, SgdConfig, train_sgd
from .synthetic import MANIFEST_NAME, GeneratorConfig, generate_corpus
from .util import open_new
from .vectorize import _check_range, fit_transform, transform


def _labels_to_y(labels) -> np.ndarray:
    return np.array([1 if l == LABEL_MALICIOUS else -1 for l in labels], dtype=np.int64)


def _add_ngram_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ngram-min", type=int, default=8, help="smallest n-gram length (default %(default)s)")
    p.add_argument("--ngram-max", type=int, default=10, help="largest n-gram length (default %(default)s)")


def _ngram_range(args: argparse.Namespace) -> tuple[int, int]:
    """(--ngram-min, --ngram-max), refused as ``build_vocabulary`` would refuse it, before any read."""
    try:
        _check_range(args.ngram_min, args.ngram_max)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return args.ngram_min, args.ngram_max


def _flag(p: argparse.ArgumentParser, flag: str, cls: type, help: str, **kw) -> None:
    """Add ``flag``, which sets the ``cls`` field of its name, or nothing when left out.

    ``{}`` in ``help`` becomes the field's default: ``%(default)s`` would print ==SUPPRESS==.
    """
    dest = kw.setdefault("dest", flag[2:].replace("-", "_"))
    p.add_argument(flag, default=argparse.SUPPRESS, help=help.format(getattr(cls, dest)), **kw)


def _add_trainer_flags(p: argparse.ArgumentParser) -> None:
    """The trainer and every setting of its config but alpha, C and tol."""
    p.add_argument("--trainer", choices=TRAINERS, default=TRAINER_SGD, help="optimizer (default sgd)")
    _flag(p, "--penalty", SgdConfig, "regularizer (sgd, default {})", choices=PENALTIES)
    _flag(p, "--phi", SgdConfig, "elasticnet mix, 1.0 = pure l2 (sgd, default {})", type=float)
    _flag(p, "--epochs", SgdConfig, "epoch cap (sgd, default {})", type=int)
    _flag(p, "--t0", SgdConfig, "learning-rate offset (sgd, default 1/alpha-1)", type=float)
    _flag(p, "--max-outer", DualConfig, "sweep cap (dual-cd, default {})", type=int)
    _flag(p, "--seed", SgdConfig, "seed of the shuffles and of grid-search's split (default {})", type=int)


def _from_flags(cls, args: argparse.Namespace, **extra):
    """A ``cls`` config from the flags given: a flag left out takes the class's default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}, **extra)


def _config(args: argparse.Namespace) -> SgdConfig | DualConfig:
    """The --trainer's config from the flags given; a flag only the other trainer reads is refused."""
    cls, other = (SgdConfig, DualConfig) if args.trainer == TRAINER_SGD else (DualConfig, SgdConfig)
    own = {f.name for f in fields(cls)}
    stray = [f.name for f in fields(other) if f.name not in own and hasattr(args, f.name)]
    if stray:
        flags = ", ".join(f"--{name.lower().replace('_', '-')}" for name in stray)
        raise ConfigError(f"{flags}: not read by --trainer {args.trainer}")
    return _from_flags(cls, args)


def _file_id(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_dev, st.st_ino


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
    # An output that is an input (the same path, or a link to it) would replace its bytes.
    by_file = {_file_id(path): path for path in inputs}
    for path in inputs:
        out = out_dir / f"{path.stem}.txt"
        clash = by_file.get(_file_id(out)) if out.exists() else None
        if clash is not None:
            print(f"error: the output {out} of {path} is the input {clash}; nothing written", file=sys.stderr)
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
    config = _from_flags(GeneratorConfig, args, trace_len_range=(args.len_min, args.len_max))
    traces, manifest = generate_corpus(config, args.output_dir, raw=args.raw)
    n_mal = sum(1 for t in traces if t.label == LABEL_MALICIOUS)
    print(f"wrote {len(traces)} traces ({n_mal} malicious) under {args.output_dir}")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, ngrams = _config(args), _ngram_range(args)
    corpus = load_corpus(read_manifest(args.manifest))
    vocab, idf, matrix = fit_transform(corpus, *ngrams)
    y = _labels_to_y(matrix.labels)
    started = time.perf_counter()
    if isinstance(config, SgdConfig):
        model = train_sgd(matrix, y, config)
    else:
        model = train_dual_cd(matrix, y, config)
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
    preds = _predictions(scores)
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
        with open_new(out_dir / "report.txt") as fh:
            fh.write(report_text.encode("utf-8"))
        write_report_csv(report, out_dir / "report.csv")
        if curve is not None:
            write_roc_csv(curve, out_dir / "roc.csv")
        else:
            # An earlier run's curve would read as this report's.
            (out_dir / "roc.csv").unlink(missing_ok=True)
        print(f"reports written under {out_dir}")
    return 0


def _parse_grid(text: str | None, default: tuple[float, ...], flag: str) -> tuple[float, ...]:
    if text is None:
        return default
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(float(entry))
        except ValueError:
            raise ConfigError(f"grid entry {entry.strip()!r} is not a number") from None
    if not values:
        raise ConfigError(f"{flag} {text!r} holds no grid entry")
    return tuple(values)


def cmd_grid_search(args: argparse.Namespace) -> int:
    config, split, ngrams = _config(args), _from_flags(SplitSpec, args), _ngram_range(args)
    alpha_grid = _parse_grid(args.alpha_grid, DEFAULT_ALPHA_GRID, "--alpha-grid")
    tol_grid = _parse_grid(args.tol_grid, DEFAULT_TOL_GRID, "--tol-grid")
    check_cells(config, alpha_grid, tol_grid)
    corpus = load_corpus(read_manifest(args.manifest))
    train, val = train_test_split(corpus, split)
    vocab, idf, train_matrix = fit_transform(train, *ngrams)
    val_matrix = transform(val, vocab, idf)
    result = grid_search(
        train_matrix,
        _labels_to_y(train_matrix.labels),
        val_matrix,
        _labels_to_y(val_matrix.labels),
        config,
        alpha_grid=alpha_grid,
        tol_grid=tol_grid,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state in it."""
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
    _flag(p, "--n-traces", GeneratorConfig, "(default {})", type=int)
    _flag(p, "--malicious-fraction", GeneratorConfig, "(default {})", type=float)
    len_min, len_max = GeneratorConfig.trace_len_range
    p.add_argument("--len-min", type=int, default=len_min, help=f"(default {len_min})")
    p.add_argument("--len-max", type=int, default=len_max, help=f"(default {len_max})")
    _flag(p, "--motif-rate", GeneratorConfig, "(default {})", type=float)
    _flag(p, "--seed", GeneratorConfig, "(default {})", type=int)
    p.add_argument("--raw", action="store_true", help="write raw log lines instead of processed")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="fit a model from a manifest")
    p.add_argument("--manifest", required=True)
    _add_ngram_flags(p)
    _add_trainer_flags(p)
    _flag(p, "--alpha", SgdConfig, "regularization strength (sgd, default {})", type=float)
    _flag(p, "--c", DualConfig, "box bound C (dual-cd, default {})", type=float, dest="C")
    _flag(p, "--tol", SgdConfig, "stopping tolerance (default {})", type=float)
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
    _flag(p, "--train-fraction", SplitSpec, "(default {})", type=float)
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
