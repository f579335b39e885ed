"""Package hygiene: no unused imports or private names in the sources, no
stale exports or backticked names in the prose, no export that only tests
read, a README example that runs and prints what it says, README flags that
are the parser's."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import radialgeo
from radialgeo import cli

SOURCES = sorted(Path(radialgeo.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"
BENCH = Path(__file__).resolve().parents[1] / "radialbench"


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


def _unread_exports(exports, trees):
    """The names of exports that no module of the given {module: tree}
    reads, as a name or an attribute."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return sorted(set(exports) - read)


def test_every_export_is_read_by_the_package_or_the_benchmark():
    # code that only tests read lives in the tests
    paths = [p for p in SOURCES if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    trees = {str(path): ast.parse(path.read_text()) for path in paths}
    assert _unread_exports(radialgeo.__all__, trees) == []


def test_unread_export_is_detected():
    trees = {"a": ast.parse("def f():\n    return g\ndef g():\n    pass\ndef h():\n    pass\n"),
             "b": ast.parse("import a\na.f()\nx = 1\n")}
    assert _unread_exports(["f", "g", "h", "x"], trees) == ["h", "x"]


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


def test_readme_command_line_flags_are_the_parsers(capsys):
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(--[a-z][\w-]*)", section))
    assert cli.main(["--help"]) == 0
    options = set(re.findall(r"(?<![\w-])(--[a-z][\w-]*)", capsys.readouterr().out))
    assert documented <= options  # no flag the parser does not know
    assert options - {"--help"} <= documented  # no option left undocumented


def _package_names(trees):
    """Every name the given {module: tree} binds: defs, classes and their
    parameters, assignment targets (attributes too) and imports."""
    names = {"radialgeo"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _stale_backticked_names(sources):
    """(module, name) of every double-backticked name in a docstring or
    comment of the given {module: text} that the modules do not define. A
    dotted name resolves part by part, unless its head comes from another
    package."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = _package_names(trees)
    imported = {alias.asname or alias.name for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                and not node.level for alias in node.names}
    stale = []
    for module, text in sources.items():
        prose = [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                 if tok.type == tokenize.COMMENT]
        prose += [ast.get_docstring(node) or "" for node in ast.walk(trees[module])
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        for dotted in re.findall(r"``([A-Za-z_][\w.]*)", "\n".join(prose)):
            parts = dotted.split(".")
            parts = parts[:1] if parts[0] in imported else parts
            stale += [(module, dotted)] if not set(parts) <= defined else []
    return sorted(set(stale))


def test_backticked_names_resolve():
    assert _stale_backticked_names({path.name: path.read_text() for path in SOURCES}) == []


def test_stale_backticked_name_is_detected():
    source = ('"""Tails: ``_Tail.c``, ``_Tail.reanchored``, ``value_at_anchor``,\n'
              '``np.unique(x)``."""\n'
              "import numpy as np\nfrom .b import _Tail\n\n"
              "class _Tail:\n    c = 0.0\n\n"
              "def value(t, t_tail):\n    # ``t_tail`` and ``p``\n    return t\n")
    assert _stale_backticked_names({"a": source}) == [
        ("a", "_Tail.reanchored"), ("a", "p"), ("a", "value_at_anchor")]
