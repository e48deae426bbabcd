"""One benchmark workload, run in its own process by ``run.py``.

The process sets up the workload's corpora, then repeats a cycle of the four
things a user does with tracesvm -- ``train``, ``evaluate``, ``grid-search
--trainer sgd`` and ``grid-search --trainer dual-cd`` -- each as one in-process
``tracesvm.cli.main`` call, until the time budget is spent.  Every output is
checked.  Each operation's time is the median over its repetitions in the
run.

The seed gives ``CORPORA`` independent corpora of the workload's shape, and
successive cycles take them in turn, so a run's times do not hang on the
quirks of one corpus.

With ``--trace 0`` nothing is instrumented and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced cycles alternate: the
traced ones record spans at the module boundaries (see ``tracing.py``) and
give the per-layer metrics, and the difference between the two kinds of
cycle is the tracing overhead.

The last line of standard output is the result object; the line before it
holds the sample counts, output digests and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tracesvm import cli  # noqa: E402
from tracesvm.errors import NonConvergenceWarning  # noqa: E402
from tracesvm.synthetic import GeneratorConfig, generate_corpus  # noqa: E402
from run import THREAD_CAPS  # noqa: E402
from tracing import Tracer, coverage, self_seconds  # noqa: E402

# Grid searches cover one cell at the CLI's training defaults: the
# grid-search path (split, fit, transform, train, score, CSV) without the
# 80-cell sweep, whose trainer loops time too unsteadily here (NOTES.md).
SINGLE_CELL = ("--alpha-grid", "1e-4", "--tol-grid", "1e-3")


@dataclass(frozen=True)
class Workload:
    n_train: int
    n_eval: int
    calls: tuple[int, int]
    motif_rate: float
    train_flags: tuple[str, ...] = ()


# The motif rate keeps roughly one planted motif per 15 calls, the density of
# the CLI's default corpus (2 per 20-40 calls); at rate 2 on long traces the
# motifs are too rare for a small training set to reach the F1 check.
WORKLOADS = {
    # Long traces: n-grams are nearly unique, dim ~ nnz, so vectorize and
    # model_io do most of the work and the trainers little.
    # 200 traces leave 40 for the grid searches' validation split, so that
    # two misclassified traces still give F1 above the 0.95 check.
    "pipeline-long": Workload(
        n_train=200, n_eval=50, calls=(200, 400), motif_rate=20.0
    ),
    # The l1 SGD step costs O(dim), so sgd work grows with traces x dim.
    # A fixed budget of 4 epochs (tol 0 stops only on a rising objective)
    # keeps the l1 work the same for every corpus of this shape.
    "l1-long": Workload(
        n_train=600,
        n_eval=100,
        calls=(50, 100),
        motif_rate=5.0,
        train_flags=("--penalty", "l1", "--epochs", "4", "--tol", "0"),
    ),
}

OPS = ("train", "evaluate", "grid_sgd", "grid_dual")
OP_METRIC = {"train": "train_s", "evaluate": "score_s", "grid_sgd": "grid_sgd_s", "grid_dual": "grid_dual_s"}
CORPORA = 3
EVAL_SEED_OFFSET = 1_000_003
MIN_AUC = 0.95
MIN_GRID_F1 = 0.95
MIN_COVERAGE = 0.90
HARD_LIMIT_S = 140.0
LAYERS = ("cli", "ingest", "vectorize", "sgd", "dual_cd", "selection", "linear_model", "evaluation", "model_io")
# Per-layer counts fixed by the corpus: they must repeat on every traced
# cycle of a corpus, and are reported from the first corpus so that two runs
# of one seed report the same values whatever their number of cycles.
COUNTS = (
    "ingest.traces", "ingest.calls", "ingest.bytes", "vectorize.dim", "vectorize.nnz", "vectorize.windows",
    "vectorize.transform_hit_ratio", "model_io.bytes", "sgd.epochs", "sgd.steps", "sgd.nonzero_weights",
    "dual_cd.sweeps", "selection.cells", "linear_model.rows",
)


def reference_seconds() -> float:
    """Time a fixed task of Python loop steps and small numpy calls.

    The task never changes, so its time tracks only the machine's speed; the
    records keep it next to the operation times to tell the machine's drift
    from a change in the program.
    """
    x = np.arange(64, dtype=np.float64)
    started = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += float(x @ x) + i % 7
    return time.perf_counter() - started


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def setup(w: Workload, seed: int, dest: Path) -> None:
    """Write CORPORA training corpora, each with a fresh evaluation corpus."""
    for c in range(CORPORA):
        train_seed = seed * CORPORA + c
        for name, n, s in (("train", w.n_train, train_seed), ("eval", w.n_eval, train_seed + EVAL_SEED_OFFSET)):
            config = GeneratorConfig(n_traces=n, trace_len_range=w.calls, motif_rate=w.motif_rate, seed=s)
            generate_corpus(config, dest / f"c{c}" / name)


def argv_for(op: str, w: Workload, data: Path, out: Path) -> list[str]:
    train_manifest = str(data / "train" / "manifest.csv")
    if op == "train":
        return ["train", "--manifest", train_manifest, "--output", str(out / "model.json"), *w.train_flags]
    if op == "evaluate":
        return ["evaluate", "--model", str(out / "model.json"), "--manifest",
                str(data / "eval" / "manifest.csv"), "--output-dir", str(out / "reports")]
    trainer = "sgd" if op == "grid_sgd" else "dual-cd"
    return ["grid-search", "--trainer", trainer, "--manifest", train_manifest,
            "--output", str(out / f"{op}.csv"), *SINGLE_CELL]


def outputs_of(op: str, out: Path) -> list[Path]:
    if op == "train":
        return [out / "model.json"]
    if op == "evaluate":
        return [out / "reports" / "report.csv", out / "reports" / "roc.csv"]
    return [out / f"{op}.csv"]


def check_values(op: str, out: Path) -> list[str]:
    """Quality checks on an operation's outputs; returns the failures."""
    if op == "evaluate":
        last = (out / "reports" / "roc.csv").read_text().splitlines()[-1]
        auc = float(last.split(",")[1])
        return [] if auc >= MIN_AUC else [f"evaluate: auc {auc!r} < {MIN_AUC}"]
    if op.startswith("grid"):
        rows = (out / f"{op}.csv").read_text().splitlines()[1:]
        best = max(float(r.split(",")[2]) for r in rows)
        return [] if best >= MIN_GRID_F1 else [f"{op}: best f1 {best!r} < {MIN_GRID_F1}"]
    return []


class Runner:
    """Runs operations, checks their outputs and keeps timings and failures."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.seed = w, seed
        self.work, self.data, self.out = work, work / "data", work / "out"
        self.setup_times: list[float] = []
        self.digests: dict[str, str] = {}
        self.times: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.cycle_times: dict[bool, list[float]] = defaultdict(list)
        self.model_bytes: list[int] = []
        self.reference_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[str] = set()

    def time_setup(self, dest: Path) -> None:
        started = time.perf_counter()
        setup(self.w, self.seed, dest)
        self.setup_times.append(time.perf_counter() - started)

    def fail(self, op_id: str, message: str) -> None:
        self.failures.append(f"{op_id}: {message}")
        self.failed_ops.add(op_id)

    def run_op(self, op: str, corpus: int, op_id: str, tracer: Tracer | None) -> None:
        self.attempted += 1
        for path in outputs_of(op, self.out):
            path.unlink(missing_ok=True)
        argv = argv_for(op, self.w, self.data / f"c{corpus}", self.out)
        gc.collect()
        root = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    tracer.op_id = op_id
                    root = tracer.open(f"cli.{argv[0]}")
                started = time.perf_counter()
                try:
                    rc = cli.main(argv)
                finally:
                    elapsed = time.perf_counter() - started
                    if root is not None:
                        tracer.close(root)
        except Exception:  # a crash of the program under test is a failed operation
            self.fail(op_id, traceback.format_exc())
            return
        if rc != 0:
            self.fail(op_id, f"exit code {rc}")
            return
        self.times[(op, tracer is not None)].append(elapsed)
        missing = [path.name for path in outputs_of(op, self.out) if not path.exists()]
        if missing:
            self.fail(op_id, f"{', '.join(missing)} not written")
            return
        for path in outputs_of(op, self.out):
            digest = sha256(path)
            if op == "train":
                self.model_bytes.append(path.stat().st_size)
            key = f"c{corpus}/{op}/{path.name}"
            first = self.digests.setdefault(key, digest)
            if digest != first:
                self.fail(op_id, f"{path.name} differs from the first run on corpus {corpus}")
        try:
            messages = check_values(op, self.out)
        except (ValueError, IndexError) as exc:
            messages = [f"unreadable output: {exc!r}"]
        for message in messages:
            self.fail(op_id, message)
        if root is not None:
            share = coverage(tracer.spans, root)
            if share < MIN_COVERAGE:
                self.fail(op_id, f"spans cover {share:.3f} of the operation")

    def run_cycle(self, index: int, corpus: int, tracer: Tracer | None) -> None:
        """Run the four operations on one corpus.

        A traced cycle's time leaves out the time its count functions took,
        which is benchmark work the program never does.
        """
        self.reference_times.append(reference_seconds())
        counting = tracer.count_seconds if tracer is not None else 0.0
        started = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            for op in OPS:
                self.run_op(op, corpus, f"{index}:{corpus}:{op}", tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - started
        if tracer is not None:
            elapsed -= tracer.count_seconds - counting
        self.cycle_times[tracer is not None].append(elapsed)


def measure(runner: Runner, seconds: float, tracer: Tracer | None) -> None:
    """Repeat cycles until the next one would overrun ``seconds``.

    Untraced runs take the corpora in turn, at least CORPORA cycles, and set
    up another copy of the corpora after each cycle, so that ``setup_s`` is a
    median over set-ups spread over the run like the operations.  Each copy
    goes to a new directory and is removed once timed: removed files are
    never written back, and copies left in place made each set-up slower
    than the one before, by up to 3x over seven.  Traced runs make an
    untraced and then a traced cycle on each corpus in turn, so that both
    kinds see the same corpora, and make at least two of each.
    """
    min_cycles = 4 if tracer is not None else CORPORA
    started = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        corpus = (index // 2 if tracer is not None else index) % CORPORA
        runner.run_cycle(index, corpus, tracer if traced else None)
        if tracer is None:
            copy = runner.work / f"copy{len(runner.setup_times)}"
            runner.time_setup(copy)
            shutil.rmtree(copy)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / index > HARD_LIMIT_S:
            break
        if index >= min_cycles and elapsed + elapsed / index > seconds:
            break


def layer_values(spans) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    by_id = {s.span_id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def count(name, key):
        return sum(s.counts[key] for s in by_name[name])

    def in_train(name):
        (span,) = [s for s in by_name[name] if by_id[s.parent_id].name == "cli.train"]
        return span.counts

    def under(name, parent):
        return [s for s in by_name[name] if by_id[s.parent_id].name == parent]

    fit = in_train("vectorize.fit_transform")
    lookups = under("vectorize.count_matrix", "vectorize.transform")
    v = {
        "ingest.load_corpus_s": total("ingest.load_corpus"),
        "ingest.traces": count("ingest.load_corpus", "traces"),
        "ingest.calls": count("ingest.load_corpus", "calls"),
        "ingest.bytes": count("ingest.load_corpus", "bytes"),
        "vectorize.fit_transform_s": total("vectorize.fit_transform"),
        "vectorize.build_vocabulary_s": total("vectorize.build_vocabulary"),
        "vectorize.count_matrix_s": sum(s.seconds for s in under("vectorize.count_matrix", "vectorize.fit_transform")),
        "vectorize.dim": fit["dim"],
        "vectorize.nnz": fit["nnz"],
        "vectorize.windows": fit["windows"],
        "vectorize.transform_s": total("vectorize.transform"),
        "vectorize.transform_hit_ratio": sum(s.counts["hits"] for s in lookups) / sum(s.counts["windows"] for s in lookups),
        "model_io.save_s": total("model_io.save_model"),
        "model_io.load_s": total("model_io.load_model"),
        "model_io.bytes": count("model_io.save_model", "bytes"),
        "sgd.train_s": total("sgd.train_sgd"),
        "sgd.epochs": count("sgd.train_sgd", "epochs"),
        "sgd.steps": count("sgd.train_sgd", "steps"),
        "sgd.nonzero_weights": in_train("sgd.train_sgd")["nonzero_weights"],
        "dual_cd.train_s": total("dual_cd.train_dual_cd"),
        "dual_cd.sweeps": count("dual_cd.train_dual_cd", "sweeps"),
        "dual_cd.nonconverged_cells": count("dual_cd.train_dual_cd", "nonconverged"),
        "selection.grid_search_s": total("selection.grid_search"),
        "selection.cells": count("selection.grid_search", "cells"),
        "linear_model.decision_many_s": total("linear_model.decision_many"),
        "linear_model.rows": count("linear_model.decision_many", "rows"),
        "evaluation.report_s": sum(s.seconds for s in spans if s.layer == "evaluation"),
    }
    v["sgd.us_per_step"] = v["sgd.train_s"] / v["sgd.steps"] * 1e6
    v["dual_cd.us_per_update"] = v["dual_cd.train_s"] / count("dual_cd.train_dual_cd", "updates") * 1e6
    v["selection.cell_s"] = v["selection.grid_search_s"] / v["selection.cells"]
    own = self_seconds(spans)
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(own[s.span_id] for s in spans if s.layer == layer)
    roots = [s for s in spans if s.parent_id is None]
    v["trace.coverage_min"] = min(coverage(spans, r) for r in roots)
    return v


def with_units(values: dict[str, float], kind: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(values) != set(declared):
        raise KeyError(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json {kind}")
    return {name: {"value": float(values[name]), "unit": declared[name]} for name in declared}


def per_layer_metrics(runner: Runner, tracer: Tracer) -> tuple[dict, dict]:
    """The per-layer metrics, and the figures recorded only as information.

    The count of dual-CD fits that hit their iteration cap and the tracing
    overhead in seconds are information, not metrics: the first is 0
    whenever dual CD converges, the second a difference of two noisy
    medians that can come out 0 or negative.
    """
    cycles = defaultdict(list)
    for s in tracer.spans:
        cycles[tuple(s.op_id.split(":")[:2])].append(s)
    per_cycle = {key: layer_values(spans) for key, spans in cycles.items()}
    first_on_corpus = {}
    for (index, corpus), cycle in per_cycle.items():
        first = first_on_corpus.setdefault(corpus, cycle)
        for name in COUNTS:
            if cycle[name] != first[name]:
                runner.fail(f"{index}:{corpus}", f"{name} {cycle[name]} != {first[name]} in the first traced cycle")
    rows = list(per_cycle.values())
    values = {name: statistics.median(c[name] for c in rows) for name in rows[0]}
    values.update({name: first_on_corpus["0"][name] for name in COUNTS})
    untraced = statistics.median(runner.cycle_times[False])
    traced = statistics.median(runner.cycle_times[True])
    values["trace.cycle_ratio"] = traced / untraced
    info = {
        "dual_cd.nonconverged_cells": values.pop("dual_cd.nonconverged_cells"),
        "trace.overhead_s": traced - untraced,
    }
    return with_units(values, "per_layer"), info


def end_to_end_metrics(runner: Runner) -> dict:
    """The end-to-end metrics of an untraced run: medians over repetitions."""
    values = {OP_METRIC[op]: statistics.median(runner.times[(op, False)]) for op in OPS}
    values["setup_s"] = statistics.median(runner.setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values["model_mb"] = statistics.median(runner.model_bytes) / 1e6
    return with_units(values, "end_to_end")


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "commit": commit,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    w = WORKLOADS[args.workload]
    warnings.simplefilter("ignore", NonConvergenceWarning)

    results = BENCH_DIR / "out"
    results.mkdir(exist_ok=True)
    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(w, args.seed, work)
        runner.time_setup(runner.data)
        runner.out.mkdir()
        tracer = Tracer() if args.trace else None
        measure(runner, args.seconds, tracer)
        extra = {}
        try:
            if tracer is not None:
                metrics, extra = per_layer_metrics(runner, tracer)
            else:
                metrics = end_to_end_metrics(runner)
        except (statistics.StatisticsError, KeyError, ValueError, ZeroDivisionError) as exc:
            # Only reachable when operations failed and left a metric without samples.
            runner.fail("metrics", repr(exc))
            metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"setup_s": len(runner.setup_times), **{f"{op}{'_traced' if t else ''}": len(v) for (op, t), v in runner.times.items()}},
        "op_seconds": {f"{op}{'_traced' if t else ''}": v for (op, t), v in runner.times.items()},
        "setup_seconds": runner.setup_times,
        "reference_seconds": runner.reference_times,
        "digests": runner.digests,
        "failures": runner.failures,
        "environment": environment(),
        **extra,
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failed_ops),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    if tracer is not None:
        spans = [{**vars(s), "layer": s.layer} for s in tracer.spans]
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for failure in runner.failures:
        print(failure, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
