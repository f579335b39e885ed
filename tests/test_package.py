"""Package hygiene: no unused imports or private names in the sources, no
stale exports, a README example that runs and prints what it says."""

import ast
from pathlib import Path

import pytest

import radialgeo

SOURCES = sorted(Path(radialgeo.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def _unused_private_names(trees):
    """(module, line, name) of every private module-level function, class or
    constant of the given {module: tree} that no module reads."""
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_no_unused_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _unused_private_names(trees) == []


def test_unused_private_name_is_detected():
    trees = {"a": ast.parse("_A = 1\n_B, _C = 2, 3\ndef _f():\n    return _A\n"
                            "class _K:\n    pass\n_g = lambda: 0\n"),
             "b": ast.parse("from a import _C, _K\n_K(_C)\n")}
    assert _unused_private_names(trees) == [("a", 2, "_B"), ("a", 3, "_f"), ("a", 7, "_g")]


def test_every_export_resolves():
    missing = [name for name in radialgeo.__all__ if not hasattr(radialgeo, name)]
    assert missing == []


def test_readme_quick_example_prints_what_its_comments_say(capsys):
    block = README.read_text().split("Quick example:", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [line.split("#", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    printed = [float(word) for word in capsys.readouterr().out.split()]
    # (value as its comment shows it, that value, half a unit of its last digit)
    shown = [("1.17230", 1.17230, 5e-6), ("-1/6", -1.0 / 6.0, 1e-15),
             ("1.32965", 1.32965, 5e-6)]
    assert len(comments) == len(printed) == len(shown)
    for comment, got, (text, value, tol) in zip(comments, printed, shown):
        assert text in comment
        assert abs(got - value) <= tol
