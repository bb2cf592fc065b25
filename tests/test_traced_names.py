"""The span tracer in perfbench/tracer.py patches homcount names with a bare
getattr; a deleted or renamed name would fail every traced benchmark run."""

import ast
import importlib
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
