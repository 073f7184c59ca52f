import importlib
import pkgutil

import powersde


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
