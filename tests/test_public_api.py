"""The package's public surface: what `citesim.__all__` lists, the
README's library quick start, and no module-level name left without a
use."""

import ast
import re
from pathlib import Path

import citesim
from cliruns import run_process

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


def defined_names(tree):
    """The module-level functions, classes and constants a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def used_names(tree):
    """Every name a module reads, or spells as a string: `__all__` lists
    the public names, and the benchmark patches attributes by name. An
    import alone is not a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_module_level_name_is_used():
    # a helper whose last caller goes should go with it
    sources = sorted((ROOT / "src" / "citesim").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = {name for tree in trees.values() for name in used_names(tree)}
    unused = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        if path.parent.name == "citesim"
        for name in defined_names(tree)
        if name != "__all__" and name not in used
    ]
    assert unused == []
