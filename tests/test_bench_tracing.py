"""Every name the benchmark uses still exists in the package.

``radialbench/tracing.py`` wraps package functions by owner and attribute
name, and ``radialbench/workloads.py`` and ``probe.py`` call package names,
so a refactor that drops or renames one of them would otherwise show only
when a benchmark run fails. The files are loaded by path and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "radialbench" / "tracing.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("radialbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(span, owner, attr) for span, targets in module.TRACED.items()
            for owner, attr, _extract in targets]


def test_every_traced_owner_and_attribute_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for span, owner, attr in targets:
        module_path, _, cls_name = owner.partition(":")
        module = importlib.import_module(module_path)
        if cls_name:
            # the tracer reads methods from the class's own namespace
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{span}: {owner}.{attr}")
    assert not missing



def package_names_used_by(path):
    """Every ``rg.<name>`` and ``rg.<Class>.<attr>`` in a benchmark file, and
    every name it imports from a radialgeo module, as (owner, attribute)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radialgeo"):
            used.update((node.module, alias.name) for alias in node.names)
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "rg":
            used.add(("radialgeo", node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "rg" and owner.attr[:1].isupper()):
            used.add((f"radialgeo:{owner.attr}", node.attr))
    return used


def resolves(owner, attr):
    module_path, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_path)
    if cls_name:
        return hasattr(getattr(module, cls_name, None), attr)
    # a submodule (``from radialgeo import cli``) need not be imported yet
    return hasattr(module, attr) or importlib.util.find_spec(f"{module_path}.{attr}") is not None


def test_every_package_name_the_workloads_use_resolves():
    bench = TRACING.parent
    used = set().union(*(package_names_used_by(bench / name)
                         for name in ("workloads.py", "probe.py")))
    assert {("radialgeo", "slope_limit"), ("radialgeo:RadialCurvature", "from_spline"),
            ("radialgeo", "cli")} <= used
    assert not [f"{owner}.{attr}" for owner, attr in sorted(used) if not resolves(owner, attr)]
