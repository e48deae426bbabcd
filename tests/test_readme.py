"""The README's library example and command-line blocks run as documented."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from tracesvm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    exec(compile(example, f"{README}:Library", "exec"), {"__name__": "readme_example"})
    # The example ends by printing the malware-class scores.
    assert "ClassScores(" in capsys.readouterr().out


def test_command_line_blocks_run(tmp_path, monkeypatch, capsys):
    """Every ``tracesvm`` line of the README's plain code blocks exits 0, in order."""
    text = README.read_text(encoding="utf-8")
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"^```\n(.*?)^```$", text, flags=re.S | re.M)
        for line in block.splitlines()
        if line.startswith("tracesvm ")
    ]
    assert [c[0] for c in commands] == [
        "gen-corpus", "train", "evaluate", "top-features", "grid-search", "preprocess"
    ]
    monkeypatch.chdir(tmp_path)
    # The raw logs that the preprocess block reads.
    assert main(["gen-corpus", "--raw", "--n-traces", "20", "--output-dir", "raw_logs"]) == 0
    for argv in commands:
        assert main(argv) == 0, argv
    out = capsys.readouterr().out
    assert "auc: " in out and "searched 80 cells" in out and "processed 20/20 file(s)" in out and "skipped" not in out
