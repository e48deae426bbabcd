"""Parsing of raw Windows Native API call logs into call-name sequences.

A raw log holds one system call per line, e.g. ``NtClose( Handle=0x1 ) => 0``,
and its lines end at LF, CRLF or CR only.  A file is decoded once, as Latin-1,
and each line's leading call name is kept, lowercased, in log order; the rest
of the line, whose bytes outside ASCII never cost a call, is dropped.  Each
distinct name of a trace is lowercased and interned (``sys.intern``) once,
and the calls are mapped through that table, so the traces of a loaded
corpus share one ``str`` per distinct call name instead of holding one per
call.  The CR line ends are rewritten only when the text holds a CR.
"""

from __future__ import annotations

import csv
import io
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyTraceError, ManifestError

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"
VALID_LABELS = (LABEL_BENIGN, LABEL_MALICIOUS)

# A call line starts, after optional indentation, with an Nt-prefixed
# identifier glued to its opening paren (raw NtTrace lines) or alone on the
# line (processed files).  Lowercase "nt" is accepted so that processed files
# re-parse the same; "NT" or "nT" is not a call line.  MULTILINE: findall over
# LF-separated lines matches each line as match() matches it alone.
_CALL_RE = re.compile(r"^[ \t]*((?:Nt|nt)[A-Za-z0-9_]*)(?:\(|[ \t\r]*$)", re.MULTILINE)


@dataclass(frozen=True)
class SyscallTrace:
    """One program run: an ordered sequence of lowercase call names."""

    source_id: str
    calls: tuple[str, ...]
    label: str | None = None

    def __len__(self) -> int:
        return len(self.calls)


@dataclass(frozen=True)
class CorpusManifest:
    """Ordered (trace path, label) pairs, paths resolved against the manifest dir."""

    entries: tuple[tuple[Path, str], ...]


def _call_names(text: str, source_id: str) -> tuple[str, ...]:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    calls = _CALL_RE.findall(text)
    if not calls:
        raise EmptyTraceError(f"no system calls found in {source_id}")
    lower = {name: sys.intern(name.lower()) for name in set(calls)}
    return tuple(map(lower.__getitem__, calls))


def parse_trace(text: str, source_id: str) -> SyscallTrace:
    """Parse a whole log, whose lines end at LF, CRLF or CR only, into a SyscallTrace.

    Raises EmptyTraceError when no line holds a call.
    """
    return SyscallTrace(source_id=source_id, calls=_call_names(text, source_id))


def read_trace_file(path: Path | str, label: str | None = None) -> SyscallTrace:
    """Read and parse one log file, with ``label`` (checked) if one is given.

    The bytes are decoded once as Latin-1, which cannot fail; call names are
    ASCII.  Lines are split as ``parse_trace`` splits them.
    """
    path = Path(path)
    calls = _call_names(path.read_bytes().decode("latin-1"), str(path))
    if label is not None and label not in VALID_LABELS:
        raise ManifestError(f"unknown label {label!r} (expected one of {VALID_LABELS})")
    return SyscallTrace(source_id=str(path), calls=calls, label=label)


def read_manifest(path: Path | str) -> CorpusManifest:
    """Load a ``path,label`` CSV manifest.

    Relative trace paths are resolved against the manifest's directory.
    Text that is not UTF-8 or not readable as CSV, a path holding a NUL, and
    no entries raise ManifestError naming the file (and the line, if one).
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
    if not entries:
        raise ManifestError(f"{path}: no entries")
    return CorpusManifest(entries=tuple(entries))


def write_manifest(entries: list[tuple[str, str]], path: Path | str) -> None:
    """Write a ``path,label`` CSV manifest (UTF-8, LF) that reads back as ``entries``.

    No entries, an unknown label, a duplicate path, and a path holding a NUL,
    CR or LF, with whitespace at either end or not encodable as UTF-8 (a lone
    surrogate, as ``os.fsdecode`` gives for a non-UTF-8 file name) raise
    ManifestError.
    """
    path = Path(path)
    if not entries or len({p for p, _ in entries}) < len(entries):
        raise ManifestError(f"{path}: no entries, or a duplicate path")
    for raw_path, label in entries:
        if label not in VALID_LABELS:
            raise ManifestError(f"{path}: unknown label {label!r}")
        if raw_path != raw_path.strip() or any(c in raw_path for c in "\0\r\n"):
            raise ManifestError(f"{path}: path {raw_path!r} would not read back unchanged")
        try:
            raw_path.encode("utf-8")
        except UnicodeEncodeError:
            raise ManifestError(f"{path}: path {raw_path!r} is not encodable as UTF-8") from None
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([("path", "label"), *entries])
    path.write_bytes(out.getvalue().encode("utf-8"))


def load_corpus(manifest: CorpusManifest) -> list[SyscallTrace]:
    """Read every manifest entry into a labeled trace, preserving order."""
    return [read_trace_file(p, label=label) for p, label in manifest.entries]


def write_processed(trace: SyscallTrace, path: Path | str) -> None:
    """Write the processed one-call-per-line form (lowercase names, LF)."""
    Path(path).write_bytes(("\n".join(trace.calls) + "\n").encode("utf-8"))
