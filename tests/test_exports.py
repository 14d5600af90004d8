import importlib
import pkgutil

import gmeasure


def test_every_all_entry_resolves():
    # tooling walks __all__ with getattr, so a stale entry breaks it
    for info in pkgutil.iter_modules(gmeasure.__path__):
        module = importlib.import_module(f"gmeasure.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gmeasure.{info.name}.__all__ lists {name!r}"
