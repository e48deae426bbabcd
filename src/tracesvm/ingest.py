"""Parsing of raw Windows Native API call logs into call-name sequences.

A raw log is line-oriented text in which every system call occupies one
line, e.g. ``NtCreateFile( FileHandle=0x12f0c4, ... ) => 0``.  Only the
leading call name matters here: parameters, return values, continuation
lines and informational lines such as ``Unload of DLL at ...`` are
dropped.  Parsed traces keep call names lowercased, in log order.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import EmptyTraceError, ManifestError

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"
VALID_LABELS = (LABEL_BENIGN, LABEL_MALICIOUS)

# A call line starts, after optional indentation, with an Nt-prefixed
# identifier either glued to its opening paren (raw NtTrace lines) or
# standing alone on the line (processed one-name-per-line files).  Lowercase
# "nt" is accepted next to "Nt" so that processed files re-parse to the same
# sequence; any other casing ("NT", "nT") is not a call line.
_CALL_RE = re.compile(r"[ \t]*((?:Nt|nt)[A-Za-z0-9_]*)(?:\(|[ \t\r]*$)")


@dataclass(frozen=True)
class SyscallTrace:
    """One program run: an ordered sequence of lowercase call names."""

    source_id: str
    calls: tuple[str, ...]
    label: str | None = None

    def __len__(self) -> int:
        return len(self.calls)

    def with_label(self, label: str) -> SyscallTrace:
        if label not in VALID_LABELS:
            raise ManifestError(f"unknown label {label!r} (expected one of {VALID_LABELS})")
        return replace(self, label=label)


@dataclass(frozen=True)
class CorpusManifest:
    """Ordered (trace path, label) pairs, paths resolved against the manifest dir."""

    entries: tuple[tuple[Path, str], ...]


def extract_call_name(line: str) -> str | None:
    """Return the lowercased call name from one log line, or None.

    Truncated parameter lists (the tail of the line is irrelevant) still
    yield the name.  A line holding nothing but the identifier is a call
    line too, so processed files round-trip; anything else yields None.
    """
    m = _CALL_RE.match(line)
    return m.group(1).lower() if m else None


def parse_trace(text: str, source_id: str) -> SyscallTrace:
    """Parse a whole log into a SyscallTrace.

    Raises EmptyTraceError when no line contains a call.
    """
    calls = []
    for line in text.splitlines():
        name = extract_call_name(line)
        if name is not None:
            calls.append(name)
    if not calls:
        raise EmptyTraceError(f"no system calls found in {source_id}")
    return SyscallTrace(source_id=source_id, calls=tuple(calls))


def read_trace_file(path: Path | str, label: str | None = None) -> SyscallTrace:
    """Read and parse one log file.

    The file is treated as ASCII-compatible text; a line that cannot be
    decoded is skipped, the rest of the file is still used.
    """
    path = Path(path)
    raw = path.read_bytes()
    lines = []
    for chunk in raw.splitlines():
        try:
            lines.append(chunk.decode("utf-8"))
        except UnicodeDecodeError:
            continue
    trace = parse_trace("\n".join(lines), source_id=str(path))
    return trace.with_label(label) if label is not None else trace


def read_manifest(path: Path | str) -> CorpusManifest:
    """Load a ``path,label`` CSV manifest.

    Relative trace paths are resolved against the manifest's directory.
    Text that is not UTF-8 or not readable as CSV, and a path holding a NUL,
    raise ManifestError naming the file and line.
    """
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ManifestError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # an over-long field; on Python 3.10, also a NUL
        raise ManifestError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ManifestError(f"{path}: empty manifest")
    header = rows[0]
    if [h.strip() for h in header] != ["path", "label"]:
        raise ManifestError(f"{path}: expected header 'path,label', got {header!r}")
    entries: list[tuple[Path, str]] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ManifestError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
        raw_path, label = row[0].strip(), row[1].strip()
        if label not in VALID_LABELS:
            raise ManifestError(f"{path}:{lineno}: unknown label {label!r}")
        if "\0" in raw_path:
            raise ManifestError(f"{path}:{lineno}: path {raw_path!r} holds a NUL")
        if raw_path in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate path {raw_path!r}")
        seen.add(raw_path)
        p = Path(raw_path)
        entries.append((p if p.is_absolute() else path.parent / p, label))
    return CorpusManifest(entries=tuple(entries))


def write_manifest(entries: list[tuple[str, str]], path: Path | str) -> None:
    """Write a ``path,label`` manifest (UTF-8, LF line endings)."""
    path = Path(path)
    out = ["path,label"]
    for raw_path, label in entries:
        if label not in VALID_LABELS:
            raise ManifestError(f"unknown label {label!r}")
        out.append(f"{raw_path},{label}")
    path.write_bytes(("\n".join(out) + "\n").encode("utf-8"))


def load_corpus(manifest: CorpusManifest) -> list[SyscallTrace]:
    """Read every manifest entry into a labeled trace, preserving order."""
    return [read_trace_file(p, label=label) for p, label in manifest.entries]


def write_processed(trace: SyscallTrace, path: Path | str) -> None:
    """Write the processed one-call-per-line form (lowercase names, LF)."""
    Path(path).write_bytes(("\n".join(trace.calls) + "\n").encode("utf-8"))
