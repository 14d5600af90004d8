import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gmeasure


def test_every_all_entry_resolves():
    # tooling walks __all__ with getattr, so a stale entry breaks it
    for info in pkgutil.iter_modules(gmeasure.__path__):
        module = importlib.import_module(f"gmeasure.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"gmeasure.{info.name}.__all__ lists {name!r}"


def test_benchmark_hooks_name_public_functions():
    # bench/tracing.py spans the public functions it times by name and counts
    # eval_indices on every loaded model; a renamed hook would read 0
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("gmeasure_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooked = [name for names in tracing._SPAN_TIMES.values() for name in names]
    for name in hooked + list(tracing._EXTRAS):
        layer, func = name.split(".")
        module = importlib.import_module(f"gmeasure.{layer}")
        assert func in module.__all__, f"bench/tracing.py times {name}, not a public name"
    for cls in (gmeasure.FiniteMemoryModel, gmeasure.LongRangeLinearModel):
        assert callable(getattr(cls, "eval_indices", None)), cls.__name__
