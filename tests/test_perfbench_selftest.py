"""The benchmark harness still runs against this source tree.

perfbench wraps functions of the package by name; a rename there
breaks the benchmark without failing any unit test.  The quick check
reads perfbench's sources with ``ast`` and looks up every package name
they use; the slow one runs the harness's own self-test (about 9 s on
two cores).
"""
import ast
import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACED = {"span", "count_yields"}
# layers.py checks hasattr before it counts this private hook
GUARDED = {("enumeration", "_extensions")}


def _package_bindings(tree: ast.Module) -> dict:
    """Local name -> object for each ``import posetfano.<m> as <alias>``
    and ``from posetfano[.<m>] import <name>`` of the module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("posetfano.") and a.asname:
                    bound[a.asname] = importlib.import_module(a.name)
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "posetfano"):
            module = importlib.import_module(node.module)
            for a in node.names:
                bound[a.asname or a.name] = getattr(module, a.name)
    return bound


def _loop_strings(tree: ast.Module) -> dict[str, list[str]]:
    """Loop variable -> the strings of ``for <name> in (<str>, ...)``."""
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            loops[node.target.id] = [e.value for e in node.iter.elts
                                     if isinstance(e, ast.Constant)]
    return loops


def test_perfbench_names_exist():
    missing, read = [], 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _package_bindings(tree)
        modules = {alias for alias, obj in bound.items() if isinstance(obj, ModuleType)}
        loops = _loop_strings(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                pairs = [(node.value.id, node.attr)]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TRACED and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "tracer"):
                owner, attr = node.args[:2]
                names = ([attr.value] if isinstance(attr, ast.Constant)
                         else loops.get(getattr(attr, "id", None), [None]))
                pairs = [(getattr(owner, "id", None), name) for name in names]
            else:
                continue
            for owner, name in pairs:
                read += 1
                if (owner, name) in GUARDED:
                    continue
                if not (owner in bound and isinstance(name, str)
                        and hasattr(bound[owner], name)):
                    missing.append(f"{path.name}:{node.lineno} {owner}.{name}")
    assert read, "perfbench reads no package names"
    assert not missing, missing


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
