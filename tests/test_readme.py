"""The README's library example runs as documented."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    exec(compile(example, f"{README}:Library", "exec"), {"__name__": "readme_example"})
    # The example ends by printing the malware-class scores.
    assert "ClassScores(" in capsys.readouterr().out
