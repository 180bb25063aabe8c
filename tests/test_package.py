"""The package runs on the standard library alone, as ``pyproject.toml``'s
empty ``dependencies`` promises; numpy, scipy and networkx are test extras.
A process loads the process-pool stack only when it builds a pool."""
import ast
import json
import subprocess
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


POOL_STACK = ("concurrent.futures", "multiprocessing")

# Every pool-free entry point, then worker_pool(2) with two CPUs faked:
# prints the pool-stack modules loaded after each, as two JSON lines.
_POOL_FREE_RUN = f"""
import json, os, sys
from posetfano import (
    Poset, build_table, classify, cli, find_disagreement, poset_classes)
from posetfano.enumeration import pair_representatives, worker_pool
from posetfano.poset import save_poset

def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.startswith({POOL_STACK!r}))))

diamond = Poset.from_cover_relations(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
save_poset(diamond, sys.argv[1])
classify(diamond)
assert not find_disagreement(diamond)
poset_classes(5)
pair_representatives(5)
build_table(5, jobs=1)
assert cli.main(["oracle", sys.argv[1]]) == 0
loaded()
os.sched_getaffinity = lambda pid: {{0, 1}}
with worker_pool(2) as pool:
    loaded()
    import multiprocessing
    assert pool is not None and not multiprocessing.active_children()  # nothing submitted
"""


def test_the_pool_stack_loads_only_with_a_pool(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _POOL_FREE_RUN, str(tmp_path / "d.poset")],
                          cwd=SRC.parent, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pool_free, pooled = map(json.loads, proc.stdout.splitlines()[-2:])
    assert pool_free == []
    assert set(POOL_STACK) <= set(pooled)
