import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
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


def _bound_names(tree):
    """Every name a module binds: defs, classes, arguments, imports and
    assignment targets, attributes (``self._x = ...``) included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def test_src_docstrings_name_existing_code():
    # in the docstrings and comments of src/gmeasure, a double-backticked
    # private name must be bound in its own module, and a ``module.name``
    # reference (a gmeasure module, or np) must resolve: a helper folded
    # away or renamed fails here, not in a reader
    src = Path(gmeasure.__file__).resolve().parent
    modules = {info.name: importlib.import_module(f"gmeasure.{info.name}")
               for info in pkgutil.iter_modules(gmeasure.__path__)}
    modules["np"] = importlib.import_module("numpy")
    pattern = rf"``({'|'.join(modules)})((?:\.\w+)+)"
    private, dotted, stale = 0, 0, []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        bound = set(_bound_names(ast.parse(text, filename=str(path))))
        for name in re.findall(r"``(_[A-Za-z]\w*)\b", text):
            private += 1
            if name not in bound:
                stale.append(f"{path.name}: ``{name}``")
        for module, chain in re.findall(pattern, text):
            dotted += 1
            target = modules[module]
            for attr in chain[1:].split("."):
                target = getattr(target, attr, None)
            if target is None:
                stale.append(f"{path.name}: ``{module}{chain}``")
    assert private and dotted, (private, dotted)
    assert not stale, stale


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


def test_numpy_is_the_only_runtime_dependency():
    # every import in src/gmeasure, function-local ones included, names the
    # standard library, numpy or the package itself; scipy and the rest of
    # the test extra serve the tests only
    root = Path(__file__).resolve().parent.parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "gmeasure"}
    foreign = []
    for path in sorted(root.glob("src/gmeasure/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or a relative one within the package
            foreign += [f"{path.relative_to(root)}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not foreign, foreign
    pyproject = (root / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', dependencies) == ["numpy"], dependencies


def _defined_functions(tree, prefix=""):
    """Qualified name of every function and method written in a module."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from _defined_functions(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defined_functions(node, f"{prefix}{node.name}.")
        else:
            yield from _defined_functions(node, prefix)


_CONTEXT = ["--context-x", "1" * 48, "--context-y", "0" * 48]
_MC = ["--depth", "6", "--trajectories", "4", "--seed", "1", *_CONTEXT]
# one small run per subcommand, plus a finite-memory model through the
# sampler and an explicit schedule list
REACH_RUNS = [
    ["transfer", "--model", "{mem1}", "--n-max", "8"],
    ["transfer", "--model", "{longrange}", "--n-max", "8", "--trunc-memory", "4"],
    ["couple", "--model", "{longrange}", *_MC, "--dn-max", "2", "--tail-len", "2"],
    ["couple", "--model", "{mem1}", "--schedule", "1,2,2,2,2", *_MC],
    ["renewal", "--d", "0.5,0.3", "--b", "1,2,3", "--K", "2"],
    ["criteria", "--variation", "power_law:c=1,p=2"],
    ["criteria", "--variation", "exponential:c=1,r=0.5"],
    ["criteria", "--variation", "finite_range:M=3"],
    ["pipeline", "--model", "{longrange}", *_MC, "--K-max", "3"],
    ["pipeline", "--model", "{exponential}", "--schedule", "geom:l=1.5", *_MC, "--K-max", "3"],
    ["pipeline", "--model", "{mem1}", *_MC, "--K-max", "3"],
    ["selftest"],
]

# functions no REACH_RUNS run reaches, each with its reason
UNREACHED = {
    ("cli.py", "_Parser.error"): "bad input",
    ("errors.py", "ConvergenceError.__init__"): "bad input: a solve that does not converge",
    ("coupling.py", "sample_block_coupling"): "bench hook; ROADMAP item 1",
    ("coupling.py", "BlockSchedule.b"): "bench hook and test route; src reads partial_sums",
    ("gmodel.py", "FiniteMemoryModel.eval_indices"): "bench hook and oracle route; item 1",
    ("gmodel.py", "LongRangeLinearModel.eval_indices"): "bench hook and oracle route; item 1",
    ("criteria.py", "_tabulated_report"): "criteria --model; ROADMAP item 14",
    ("criteria.py", "affinity_product_floor"): "the tail term; ROADMAP item 6",
    ("criteria.py", "check_single_site_series"): "the d-bar bound; ROADMAP item 7",
}


def test_every_src_function_is_reached(tmp_path, capsys):
    # a function no CLI run reaches is dead code unless UNREACHED names why;
    # an entry whose function is reached, or gone, is stale
    from gmeasure import cli
    from test_cli import write_models

    src = Path(gmeasure.__file__).resolve().parent
    written = {(path.name, name) for path in src.glob("*.py")
               for name in _defined_functions(ast.parse(path.read_text()))}
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    paths = write_models(tmp_path)
    sys.setprofile(profile)
    try:
        cli._build_parser.__wrapped__()  # cached per process: a test may have built it
        exits = [cli.main([a.format(**paths) for a in argv] + ["--out", str(tmp_path / str(i))])
                 for i, argv in enumerate(REACH_RUNS)]
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(REACH_RUNS), capsys.readouterr().err
    reached = {(Path(code.co_filename).name, code.co_qualname) for code in codes
               if Path(code.co_filename).parent == src}
    assert written - reached == set(UNREACHED), sorted((written - reached) ^ set(UNREACHED))


# parameters with a default that no call in src/ sets, each with its reason
UNSET_DEFAULTS = {
    "stationary.tol": "the benchmark passes it",
    "main.argv": "console-script entry",
    "check_single_site_series.values": "the d-bar bound; ROADMAP item 7",
    "check_single_site_series.tail": "the d-bar bound; ROADMAP item 7",
}


def _defaults(func, qualname, callee, bound):
    """(qualified parameter, callee name, position or None) of each parameter
    of ``func`` with a default; ``bound`` leading parameters are not passed."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            len(positional) - len(args.defaults)):
        yield f"{qualname}.{arg.arg}", callee, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualname}.{arg.arg}", callee, None


def _public_defaults(tree, public):
    """Every parameter with a default of a public callable of a module:
    its ``__all__`` functions, its ``__all__`` classes' constructors, public
    methods and dataclass fields."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield from _defaults(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef) and node.name in public:
            if any(ast.unparse(d).startswith("dataclass") for d in node.decorator_list):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                yield from ((f"{node.name}.{f.target.id}", node.name, i)
                            for i, f in enumerate(fields) if f.value is not None)
            # the instance or class binds a method's first parameter
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                    yield from _defaults(method, node.name, node.name, 1)
                elif isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield from _defaults(method, f"{node.name}.{method.name}", method.name, 1)


def test_every_public_default_is_set_by_src():
    # a default that no call in src/ overrides is a knob with one value in
    # use: a constant unless UNSET_DEFAULTS names why; a stale entry fails too
    src = Path(gmeasure.__file__).resolve().parent
    defaults, passed = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        public = getattr(importlib.import_module(f"gmeasure.{path.stem}"), "__all__", ())
        if path.name != "__init__.py":
            defaults |= set(_public_defaults(tree, public))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            passed |= {(name, i) for i in range(len(call.args) if not starred else 64)}
            passed |= {(name, k.arg) for k in call.keywords}
    unset = {qualname for qualname, callee, position in defaults
             if (callee, qualname.rpartition(".")[2]) not in passed
             and (callee, position) not in passed}
    assert unset == set(UNSET_DEFAULTS), sorted(unset ^ set(UNSET_DEFAULTS))
