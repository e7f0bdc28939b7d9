"""The library holds only what a fit, the CLI, the oracle or the benchmark runs.

Every module-level function and class of `src/treefit` must be named
somewhere it can run from: in a library module outside its own definition,
in `perfbench/` or `scripts/`, or in `treefit.__all__`. A checker that only
the tests call belongs next to its tests. A name counts as a variable, an
attribute or a string constant (the benchmark wraps library functions by
name); an import alone does not count.
"""
import ast
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import treefit

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "treefit").glob("*.py"))
CALLERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name used in tree, outside the subtree skip."""
    out: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_definitions() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text()) for path in LIBRARY}
    reached = set(treefit.__all__)
    for path in CALLERS:
        reached |= named(ast.parse(path.read_text()))
    unused = []
    for stem, module in modules.items():
        for node in module.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in reached:
                continue
            if not any(node.name in named(other, skip=node) for other in modules.values()):
                unused.append(f"{stem}.{node.name}")
    return unused


def test_every_library_definition_is_reached():
    assert LIBRARY and CALLERS
    assert unused_definitions() == []


def test_every_traced_call_resolves(monkeypatch):
    # the traced benchmark wraps library calls by owner and attribute name,
    # so a rename would fail only a traced run; install here records them
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layers = importlib.import_module("layers")
    wrapped = []
    recorder = SimpleNamespace(wrap=lambda owner, attr, *rest: wrapped.append((owner, attr)))
    layers.install(recorder, layers.public_api(treefit))
    missing = [(owner, attr) for owner, attr in wrapped if not callable(getattr(owner, attr, None))]
    assert len(wrapped) >= 20 and missing == []
