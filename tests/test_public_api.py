"""The package's public surface: what `citesim.__all__` lists, and the
README's library quick start."""

import re
from pathlib import Path

import citesim
from cliruns import run_process

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in citesim.__all__:
        assert hasattr(citesim, name), name


def test_removed_names_are_not_exported():
    assert "StudyTable" not in citesim.__all__
    assert "erfc" not in citesim.__all__


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    run_process("-c", blocks[0])
