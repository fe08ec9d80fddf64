"""Guards on the package surface: every definition has a caller, and every
name the benchmark's tracer patches or reads still exists."""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import smartcast
from smartcast.kriging import KrigingModel

SRC = Path(smartcast.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def test_every_definition_has_a_caller():
    files = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    texts = {path: path.read_text(encoding="utf-8") for path in files}
    uncalled = []
    for path in sorted(SRC.glob("*.py")):
        lines = texts[path].splitlines()
        for node in _definitions(ast.parse(texts[path])):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # The file without the definition's own lines, decorators included.
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            own = "\n".join(lines[: first - 1] + lines[node.end_lineno :])
            others = [own] + [text for other, text in texts.items() if other != path]
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not any(pattern.search(text) for text in others):
                uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert uncalled == []


def test_bench_trace_targets_resolve():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(f"smartcast.{module}"), attr, None)), (module, attr)
    # The tracer counts jittered models from build_model's result.
    assert "jitter" in {f.name for f in dataclasses.fields(KrigingModel)}
