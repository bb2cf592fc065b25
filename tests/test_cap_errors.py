"""Every cap error is built by `errors.cap_exceeded`, so each one names its
cap, the value reached, the limit and whether a setting raises it; and one
walk, `lovasz._capped_sizes`, reads and enforces HOMCOUNT_CAP for every
family of test structures."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "homcount"


def test_cap_errors_are_built_only_in_errors_py():
    builders = []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "CapExceededError":
                    builders.append(f"{path.name}:{node.lineno}")
    assert builders == []


def _call_name(node):
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def test_homcount_cap_is_read_and_enforced_only_by_the_one_walk():
    walker = None
    readers, enforcers = [], []
    for path in sorted(SRC.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(module):
            if isinstance(node, ast.FunctionDef) and node.name == "_capped_sizes":
                walker = set(ast.walk(node))
        for node in ast.walk(module):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) == "structure_cap":
                readers.append((path.name, node))
            elif _call_name(node) == "cap_exceeded" and any(
                    isinstance(arg, ast.Constant) and arg.value == "HOMCOUNT_CAP"
                    for arg in node.args + [kw.value for kw in node.keywords]):
                enforcers.append((path.name, node))
    assert walker is not None
    for calls in (readers, enforcers):
        assert [(name, node in walker) for name, node in calls] == [("lovasz.py", True)]
