"""The package runs on the standard library alone, as ``pyproject.toml``'s
empty ``dependencies`` promises; numpy, scipy and networkx are test extras."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "posetfano"


def test_src_imports_only_the_standard_library():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # not an import, or relative: the package itself
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "posetfano"}]
    assert not foreign
