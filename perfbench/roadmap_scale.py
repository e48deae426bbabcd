"""One traced run of the pipeline stages at the ROADMAP baseline scale.

Not a benchmark workload: it takes minutes and about 2.5 GB of memory.  It
generates 2000 traces of 200-400 calls (seed 0, default motif rate), runs
the stages of the ROADMAP baseline table once each with spans recorded at
the module boundaries, and prints the table next to the baseline figures.

    python3 perfbench/roadmap_scale.py

Spans and figures are written to ``perfbench/out/roadmap-scale.json``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from run import THREAD_CAPS

os.environ.update(THREAD_CAPS)
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tracesvm import cli  # noqa: E402
from tracesvm.dual_cd import DualConfig  # noqa: E402
from tracesvm.model_io import ModelArtifact  # noqa: E402
from tracesvm.sgd import SgdConfig  # noqa: E402
from tracesvm.synthetic import GeneratorConfig, generate  # noqa: E402
from tracing import Tracer  # noqa: E402

# ROADMAP.md, aim 1: 2-core box, single run, dim 1.76M, nnz 1.81M.
BASELINE = {
    "vectorize.build_vocabulary": 5.8,
    "vectorize.count_matrix": 4.3,
    "sgd.train_sgd l2": 0.32,
    "sgd.train_sgd l1": 39.5,
    "dual_cd.train_dual_cd": 0.66,
    "model_io.save_model": 16.0,
    "model_io.load_model": 4.7,
}
N_TRACES = 2000
SEED = 0


def main() -> int:
    work = BENCH_DIR / "work" / f"roadmap-{os.getpid()}"
    work.mkdir(parents=True)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    corpus = generate(GeneratorConfig(n_traces=N_TRACES, trace_len_range=(200, 400), seed=SEED))

    tracer = Tracer()
    tracer.install()
    counts: dict[str, object] = {}
    try:
        tracer.op_id = "roadmap"
        vocab, idf, matrix = cli.fit_transform(corpus, 8, 10)
        counts["fit_transform_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        y = [1 if label == "malicious" else -1 for label in matrix.labels]
        l2 = cli.train_sgd(matrix, y, SgdConfig())
        l1 = cli.train_sgd(matrix, y, SgdConfig(penalty="l1"))
        dual = cli.train_dual_cd(matrix, y, DualConfig())
        path = work / "model.json"
        cli.save_model(ModelArtifact(model=l2, vocabulary=vocab, idf=idf), path)
        cli.load_model(path)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    stages = {s.name: s.seconds for s in tracer.spans if s.name in BASELINE}
    stages["sgd.train_sgd l2"], stages["sgd.train_sgd l1"] = (s.seconds for s in tracer.spans if s.name == "sgd.train_sgd")
    counts.update(
        dim=matrix.dim,
        nnz=matrix.nnz,
        l2_epochs=l2.metadata["epochs_run"],
        l1_epochs=l1.metadata["epochs_run"],
        dual_sweeps=dual.metadata["outer_iters"],
        model_bytes=next(s.counts["bytes"] for s in tracer.spans if s.name == "model_io.save_model"),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )

    print("| stage | ROADMAP baseline | this run | ratio |")
    print("|---|---|---|---|")
    for name, base in BASELINE.items():
        print(f"| `{name}` | {base:.2f} s | {stages[name]:.2f} s | {stages[name] / base:.2f} |")
    print(json.dumps(counts))
    spans = [{**vars(s), "layer": s.layer} for s in tracer.spans]
    record = {"traces": N_TRACES, "seed": SEED, "stages_s": stages, "counts": counts, "spans": spans}
    (BENCH_DIR / "out" / "roadmap-scale.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"total {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
