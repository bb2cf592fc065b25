"""The benchmark in perfbench/ reads homcount names: the span tracer patches
them with a bare getattr, and the workloads call them through module
attributes.  A deleted or renamed name would fail every benchmark run."""

import ast
import importlib
from collections import Counter
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                tables[name] = ast.literal_eval(node.value)
    return tables["FUNCTIONS"], tables["METHODS"]


def test_every_traced_name_resolves():
    functions, methods = _tracer_tables()
    assert functions and methods
    for module, attr, _ in functions:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            f"{module}.{attr}"
    for module, cls_name, attr, _ in methods:
        cls = getattr(importlib.import_module(module), cls_name, None)
        # the tracer reads the attribute from the class's own __dict__
        assert isinstance(cls, type) and attr in vars(cls), \
            f"{module}.{cls_name}.{attr}"


PERFBENCH = TRACER.parent
# The benchmark files that call homcount (tracer.py is checked above).
CALLERS = ("workloads.py", "run.py", "cli_child.py")
# The caches the workloads empty between ops and set-ups.
CLEARED = (("homcount.homsearch", "_search_plan"), ("homcount.sigstruct", "_canonical"),
           ("homcount.stirling", "_factorization_candidates"),
           ("homcount.stirling", "_generic_count_cached"),
           ("homcount.lovasz", "_structures_of_size"))


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _perfbench_references():
    """(module, name) for every homcount name the callers read: the names
    of `from homcount... import`, and the attributes read from the module
    bindings of `import homcount.x [as y]`."""
    refs = set()
    for file in CALLERS:
        tree = ast.parse((PERFBENCH / file).read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("homcount."):
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "homcount":
                refs.update((node.module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _dotted(node.value) in modules:
                refs.add((modules[_dotted(node.value)], node.attr))
    return refs


def test_every_name_perfbench_calls_resolves():
    refs = _perfbench_references()
    assert set(CLEARED) <= refs
    for module, attr in refs:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    for module, attr in CLEARED:
        cache = getattr(importlib.import_module(module), attr)
        assert callable(getattr(cache, "cache_clear", None)), f"{module}.{attr}"
    # the tracer wraps every CLI handler in place
    handlers = importlib.import_module("homcount.cli")._HANDLERS
    assert isinstance(handlers, dict) and handlers
    assert all(callable(h) for h in handlers.values())


SRC = TRACER.parents[1] / "src" / "homcount"
# The caches the workloads leave filled, each with the reason it may stay
# warm from one op to the next.
KEPT = {
    ("homcount.homsearch", "_map_space"):
        "keyed by a size pair (n, m): the bitsets of all maps [n] -> [m]",
    ("homcount.cklogic", "_tw_level"):
        "a family of test structures per (signature, k, size), like a catalogue level",
    ("homcount.profinite", "_as_structure"):
        "keyed by a group: its multiplication graph, a rewrite that holds no count",
    ("homcount.trees", "_encodings_of_size"):
        "keyed by a size: the encodings of the rooted trees with that many nodes",
}


def _lru_caches():
    """(module, function) for every function in src/homcount decorated with
    functools' lru_cache or cache, at any depth."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if (_dotted(target) or "").rsplit(".", 1)[-1] in ("lru_cache", "cache"):
                        found.add((f"homcount.{path.stem}", node.name))
    return found


def test_every_cache_is_emptied_or_kept_for_a_reason():
    # A new cache could let the benchmark's ops warm each other: it must
    # join the caches the workloads empty, or be kept here with a reason.
    assert all(KEPT.values())
    assert _lru_caches() == set(CLEARED) | set(KEPT)


# Library names that nothing else in src/homcount reads, each with the
# reason it stays.
UNREFERENCED = {
    ("homcount.lovasz", "mobius_invert_ints"):
        "the perfbench tracer patches it, and tests use it as the reference inversion",
    ("homcount.quotposet", "collapse_structure"):
        "the perfbench tracer patches it, and tests use it as the one-collapse reference",
    ("homcount.profinite", "enumerate_group_homs"):
        "the perfbench tracer patches it, and tests use it as the reference listing",
    ("homcount.stirling", "is_generic"):
        "the per-map genericity predicate that two paper-property tests call",
}


def _names_read(node):
    """How often each name is read under node: bare names, attributes, and
    the names an import binds."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rsplit(".", 1)[-1]] += 1
    return names


def test_every_library_name_is_read_or_kept_for_a_reason():
    # A top-level function, class or method of src/homcount that no other
    # code of the package reads is dead, or is kept here with a reason.
    # Names are matched by spelling alone; dunder methods are exempt.
    read, defined = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read += _names_read(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"homcount.{path.stem}", node.name, node))
                if isinstance(node, ast.ClassDef):
                    defined += [(f"homcount.{path.stem}", f"{node.name}.{sub.name}", sub)
                                for sub in node.body
                                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    unread = {(module, qualname) for module, qualname, node in defined
              if read[node.name] == _names_read(node)[node.name]}
    assert all(UNREFERENCED.values())
    assert unread == set(UNREFERENCED)
