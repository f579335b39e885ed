"""Every name the benchmark's tracer wraps still exists in the package.

``radialbench/tracing.py`` wraps package functions by owner and attribute
name, so a refactor that drops or renames one of them would otherwise show
only when a traced benchmark run fails. The file is loaded by path and only
read.
"""

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
