"""The library is standard-library only, has no floating point, and catches
only named errors."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cch").glob("*.py"))
# math's float constants, and the float clocks (time.monotonic_ns is exact).
FORBIDDEN = {"math.inf", "math.nan", "time.monotonic", "time.time", "time.perf_counter"}
CATCH_ALL = {"Exception", "BaseException"}


def _problems(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names or name in FORBIDDEN:
                yield f"{where}: import {name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield f"{where}: literal {node.value!r}"
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "float":
            yield f"{where}: float(...)"
        if isinstance(node, ast.Attribute) and ast.unparse(node) in FORBIDDEN:
            yield f"{where}: {ast.unparse(node)}"
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or ast.unparse(t) in CATCH_ALL for t in caught):
                yield f"{where}: catch-all except"


def test_library_is_stdlib_only_without_floating_point():
    assert len(SOURCES) > 5
    assert [p for path in SOURCES for p in _problems(path)] == []
