"""Small shared helpers."""

from __future__ import annotations

import math
from pathlib import Path
from typing import BinaryIO


def round_half_up(x: float) -> int:
    """Round to the nearest integer with .5 going up (47.5 -> 48)."""
    return int(math.floor(x + 0.5))


def open_new(path: Path | str) -> BinaryIO:
    """Open ``path`` for writing as a new file: whatever it names is unlinked first.

    The CLI writes its result files (model, reports, ROC and grid CSVs) this
    way.  On ext4, under other write traffic, rewriting a small file in
    place (truncate, then write) took up to 12 ms, against under 0.5 ms for
    a new file; the likely cause is the flush ext4 makes of a truncated
    file's data at close.  So a symlink or hard link at ``path`` is
    replaced, not written through.
    """
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "wb")
