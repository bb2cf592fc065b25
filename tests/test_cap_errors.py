"""Every cap error is built by `errors.cap_exceeded`, so each one names its
cap, the value reached, the limit and whether a setting raises it."""

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
