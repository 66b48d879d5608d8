"""Every public name has a caller.

A name in ``lossmc.__all__`` passes when the package reaches it: it is a
name or attribute reference (or the module of a relative import) at the
top level of a module under ``src/lossmc`` other than ``__init__.py``, or
inside a top-level function or class that is itself reached, or it is
referenced anywhere in ``benchmarks/``, string names included, since the
benchmark's tracer patches functions by name.  A definition's references
to itself do not reach it.  No public name is kept for the tests alone.
"""
import ast
from pathlib import Path

import lossmc

ROOT = Path(__file__).resolve().parents[1]


def _references(tree, strings=False):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _reached():
    """Names reached from the modules' top levels and the benchmarks,
    following top-level definitions to what they reference."""
    reached = set()
    defs = {}
    for path in (ROOT / "src" / "lossmc").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_references(node))
            else:
                reached |= _references(node)
    for path in (ROOT / "benchmarks").glob("*.py"):
        reached |= _references(ast.parse(path.read_text()), strings=True)
    frontier = reached
    while frontier:
        frontier = set().union(*(defs.get(name, ()) for name in frontier)) - reached
        reached |= frontier
    return reached


def test_every_public_name_is_reached():
    reached = _reached()
    assert [name for name in lossmc.__all__ if name not in reached] == []
