"""The README's python examples run as documented."""

import math
import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(heading: str) -> list[str]:
    """The python blocks of the README section ``## heading``, dedented."""
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n"):]
    section = section[:section.index("\n## ", 1)]
    return [textwrap.dedent(body) for _, body in re.findall(r"^( *)```python\n(.*?)^\1```", section, re.M | re.S)]


def run_block(heading: str) -> dict:
    blocks = python_blocks(heading)
    assert len(blocks) == 1, f"the {heading} section holds one python block"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    return namespace


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = run_block("Library")["records"]
    assert len(records) > 2 and records[0].t == 0.0 and math.isclose(records[-1].t, 5.0)
    assert all(math.isfinite(r.dEdt) for r in records)
    assert records[-1].E > records[0].E == 0.0  # the forcing spins the fluid up from rest
    assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv"]


def test_experiments_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = run_block("What is inside")
    assert len(namespace["sweep"].cells) == 6
    assert math.isfinite(namespace["distance"]) and math.isfinite(namespace["sep"].ratio_spread)
    assert list(tmp_path.iterdir()) == []  # the example writes no file
