"""Package hygiene: no unused imports in the sources, no stale exports."""

import ast
from pathlib import Path

import pytest

import radialgeo

SOURCES = sorted(Path(radialgeo.__file__).parent.glob("*.py"))


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_detected():
    tree = ast.parse("import json\nimport math\nfrom os import path as p\nmath.pi\n")
    assert _unused_imports(tree) == [(1, "json"), (3, "p")]


def test_every_export_resolves():
    missing = [name for name in radialgeo.__all__ if not hasattr(radialgeo, name)]
    assert missing == []
