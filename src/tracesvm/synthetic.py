"""Seeded synthetic trace corpora with planted malicious motifs.

Benign traces are i.i.d. draws from a small background call vocabulary.
Malicious traces start from the same background and get one or more motif
sequences spliced in at random positions, so contiguous n-grams of length
>= 8 separate the classes by construction.  A benign draw that happens to
contain a full motif is rejected and redrawn; a malicious trace always
keeps at least one motif intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .ingest import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    SyscallTrace,
    write_manifest,
)
from .util import round_half_up

DEFAULT_BACKGROUND_VOCAB = (
    "ntclose",
    "ntcreatefile",
    "ntcreatesection",
    "ntmapviewofsection",
    "ntopenkeyex",
    "ntprotectvirtualmemory",
    "ntqueryperformancecounter",
    "ntquerysysteminformation",
    "ntqueryvirtualmemory",
)

DEFAULT_MOTIFS = (
    ("ntdelayexecution",) * 10,
    ("ntunmapviewofsection", "ntmapviewofsection") * 5,
    ("ntdeviceiocontrolfile", "ntclose", "ntcreateevent") * 3 + ("ntdeviceiocontrolfile",),
)

# The manifest ``write_corpus`` puts beside the traces; ``preprocess`` skips it.
MANIFEST_NAME = "manifest.csv"
_MAX_REDRAWS = 1000
# numpy's Generator.poisson refuses a rate above about 9.22e18.
_MAX_MOTIF_RATE = 9.2e18


@dataclass(frozen=True)
class GeneratorConfig:
    n_traces: int = 100
    malicious_fraction: float = 0.637
    trace_len_range: tuple[int, int] = (20, 40)
    background_vocab: tuple[str, ...] = DEFAULT_BACKGROUND_VOCAB
    motifs: tuple[tuple[str, ...], ...] = DEFAULT_MOTIFS
    motif_rate: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_traces < 2:
            raise ConfigError(f"n_traces must be >= 2, got {self.n_traces}")
        if not 0.0 < self.malicious_fraction < 1.0:
            raise ConfigError(
                f"malicious_fraction must be in (0, 1), got {self.malicious_fraction}"
            )
        lo, hi = self.trace_len_range
        if not 1 <= lo <= hi:
            raise ConfigError(f"trace_len_range must satisfy 1 <= lo <= hi, got {self.trace_len_range}")
        if not self.background_vocab:
            raise ConfigError("background_vocab must be non-empty")
        if not self.motifs or any(not m for m in self.motifs):
            raise ConfigError("motifs must be non-empty sequences")
        if not 0 < self.motif_rate <= _MAX_MOTIF_RATE:
            raise ConfigError(f"motif_rate must be in (0, {_MAX_MOTIF_RATE:g}], got {self.motif_rate}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _contains_motif(calls: Sequence[str], motif: Sequence[str]) -> bool:
    m = len(motif)
    motif = tuple(motif)
    return any(tuple(calls[i : i + m]) == motif for i in range(len(calls) - m + 1))


def _contains_any_motif(calls: Sequence[str], motifs: Sequence[Sequence[str]]) -> bool:
    return any(_contains_motif(calls, m) for m in motifs)


def _background(rng: np.random.Generator, config: GeneratorConfig) -> list[str]:
    lo, hi = config.trace_len_range
    length = int(rng.integers(lo, hi + 1))
    picks = rng.integers(0, len(config.background_vocab), size=length)
    return [config.background_vocab[j] for j in picks]


def _malicious_calls(rng: np.random.Generator, config: GeneratorConfig) -> list[str]:
    for _ in range(_MAX_REDRAWS):
        calls = _background(rng, config)
        n_inserts = max(1, int(rng.poisson(config.motif_rate)))
        for _ in range(n_inserts):
            motif = config.motifs[int(rng.integers(0, len(config.motifs)))]
            pos = int(rng.integers(0, len(calls) + 1))
            calls[pos:pos] = motif
        # A later splice can land inside an earlier motif; keep drawing until
        # at least one full motif survives contiguously.
        if _contains_any_motif(calls, config.motifs):
            return calls
    raise ConfigError("could not build a malicious trace containing a full motif")


def _benign_calls(rng: np.random.Generator, config: GeneratorConfig) -> list[str]:
    for _ in range(_MAX_REDRAWS):
        calls = _background(rng, config)
        if not _contains_any_motif(calls, config.motifs):
            return calls
    raise ConfigError(
        "could not draw a benign trace free of motifs; background_vocab and "
        "motifs overlap too much"
    )


def generate(config: GeneratorConfig) -> list[SyscallTrace]:
    """Build the corpus in memory: malicious traces first, then benign."""
    n_mal = round_half_up(config.n_traces * config.malicious_fraction)
    traces = []
    for i in range(config.n_traces):
        rng = np.random.default_rng([config.seed, i])
        malicious = i < n_mal
        calls = _malicious_calls(rng, config) if malicious else _benign_calls(rng, config)
        traces.append(
            SyscallTrace(
                source_id=f"trace_{i:04d}",
                calls=tuple(calls),
                label=LABEL_MALICIOUS if malicious else LABEL_BENIGN,
            )
        )
    return traces


def _raw_line(name: str) -> str:
    # Restore the Nt prefix casing so the line parses like a raw log.
    return f"Nt{name[2:]}( Handle=-1 ) => 0"


def write_corpus(
    traces: Sequence[SyscallTrace], out_dir: Path | str, raw: bool = False
) -> Path:
    """Write one file per trace plus manifest.csv; returns the manifest path.

    Processed form is one lowercase call per line; raw form wraps each call
    in a synthetic log line to exercise the parser.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for trace in traces:
        fname = f"{trace.source_id}.txt"
        if raw:
            body = "\n".join(_raw_line(c) for c in trace.calls) + "\n"
        else:
            body = "\n".join(trace.calls) + "\n"
        (out_dir / fname).write_bytes(body.encode("utf-8"))
        entries.append((fname, trace.label))
    manifest_path = out_dir / MANIFEST_NAME
    write_manifest(entries, manifest_path)
    return manifest_path


def generate_corpus(
    config: GeneratorConfig, out_dir: Path | str, raw: bool = False
) -> tuple[list[SyscallTrace], Path]:
    """Generate and write a corpus; byte-identical for identical configs."""
    traces = generate(config)
    return traces, write_corpus(traces, out_dir, raw=raw)
