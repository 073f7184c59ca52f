import ast
import importlib
import pkgutil
from pathlib import Path

import powersde
from powersde import cli, quadrature


def test_every_exported_name_resolves():
    """Stale entries in a module's __all__ break star imports; fail fast."""
    modules = [powersde] + [
        importlib.import_module(f"powersde.{info.name}")
        for info in pkgutil.iter_modules(powersde.__path__)
        if not info.name.startswith("_")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_name_the_span_tracer_patches_exists():
    """perfbench/spans.py wraps package names from outside src/, and a
    renamed target shows there only as a missing span, so every target is
    checked here.  The file is parsed, not imported."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("_SPANS", "_MODEL_BUILDERS")
    }
    assert set(tables) == {"_SPANS", "_MODEL_BUILDERS"}
    targets = [(module, attr) for table in tables.values() for module, attr, _ in table]
    missing = [f"{module}.{attr}" for module, attr in targets if not hasattr(importlib.import_module(module), attr)]
    assert missing == []

    assert cli._COMMANDS and all(isinstance(name, str) and callable(fn) for name, fn in cli._COMMANDS.items())
    assert callable(quadrature.CumulativeTable.inverse)
