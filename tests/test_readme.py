"""The README's Library example runs as documented."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    section = section[:section.index("\n## ", 1)]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    assert len(blocks) == 1, "the Library section holds one python block"
    return blocks[0]


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    records = namespace["records"]
    assert len(records) > 2 and records[0].t == 0.0 and math.isclose(records[-1].t, 5.0)
    assert all(math.isfinite(r.dEdt) for r in records)
    assert records[-1].E > records[0].E == 0.0  # the forcing spins the fluid up from rest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv"]
