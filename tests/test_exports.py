import ast
import importlib
import importlib.util
import pkgutil
import re
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


def test_readme_names_existing_code():
    # every backticked `module.name` in README.md and docs/decisions.md,
    # module a gmeasure module, must still exist: a deleted or renamed name
    # fails here, not in a reader
    root = Path(__file__).resolve().parent.parent
    modules = "cli|coupling|criteria|errors|gmodel|renewal|tails|transfer"
    for doc in ("README.md", "docs/decisions.md"):
        refs = re.findall(rf"`({modules})\.(\w+)`", (root / doc).read_text())
        assert refs, doc
        missing = [f"{module}.{name}" for module, name in refs
                   if not hasattr(importlib.import_module(f"gmeasure.{module}"), name)]
        assert not missing, (doc, missing)


def _top_level_imports(tree):
    """(bound name, line) of each import in the module body, bar __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def test_no_unused_top_level_imports():
    # stands in for a linter: an import must be used as a name or be listed
    # in the module's __all__ (read from the imported module); a package's
    # __init__ is its public namespace, so what it imports it exports
    root = Path(__file__).resolve().parent.parent
    unused = []
    for path in sorted([*root.glob("src/gmeasure/*.py"), *root.glob("tests/*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exported = ()
        if path.parent.name == "gmeasure":
            exported = getattr(importlib.import_module(f"gmeasure.{path.stem}"), "__all__", ())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(root)}:{line} {name}"
                   for name, line in _top_level_imports(tree)
                   if name not in used and name not in exported]
    assert not unused, unused
