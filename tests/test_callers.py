"""Guards on the package surface: every definition has a caller, every
defaulted parameter is passed by some call, and every name the benchmark's
tracer patches or reads still exists."""

import ast
import dataclasses
import importlib
import re
from collections import defaultdict
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


def _functions(tree: ast.Module):
    """Every function, nested ones included, with its class when it is a method."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update((id(n), node) for n in node.body if isinstance(n, ast.FunctionDef))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield methods.get(id(node)), node


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether `call` passes the parameter `name`, at positional `index`
    when it may be given by position; a spread argument passes every one."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (index is not None and len(call.args) > index)


def test_every_defaulted_parameter_is_passed_somewhere():
    # A default that no call in src/ or bench/ overrides is the only value
    # in use: it belongs in the function body as a constant.
    calls = defaultdict(list)
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls[getattr(node.func, "id", None) or node.func.attr].append(node)
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        for owner, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = positional[len(positional) - len(fn.args.defaults) :]
            defaulted += [a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            name = owner.name if owner is not None and fn.name == "__init__" else fn.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            offset = 1 if owner is not None and not static else 0  # self or cls is not passed
            for param in defaulted:
                index = positional.index(param) - offset if param in positional else None
                if not any(_passes(call, param.arg, index) for call in calls[name]):
                    unpassed.append(f"{path.name}:{fn.lineno} {fn.name}({param.arg})")
    assert unpassed == []


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
