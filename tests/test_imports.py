"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pfol"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that the module never reads.

    A name counts as read when it occurs as an identifier anywhere in the
    module (an attribute chain counts by its first name) or is listed in
    ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from re import compile, escape\n"
        "__all__ = ['escape']\n"
        "os.getcwd()\n"
    )
    assert unused_imports(source) == ["osp (line 2)", "compile (line 3)"]
