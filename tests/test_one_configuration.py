"""The suite has one configuration: ``pytest -m "not slow"`` is the only
way to skip long tests.  No test module but the acceptance file, which
is kept as written, reads the environment to decide what runs."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _touches_the_environment(node: ast.AST) -> bool:
    """Whether the node names an ``os`` attribute for the environment
    (the mapping, or a function that gets, puts or unsets a variable)."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any("env" in a.name for a in node.names)
    return (isinstance(node, ast.Attribute) and "env" in node.attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_only_the_acceptance_file_reads_the_environment():
    readers = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name != "test_acceptance.py" and any(map(_touches_the_environment, ast.walk(tree))):
            readers.append(path.name)
    assert readers == []
