"""Locate the posetfano sources of the checkout the benchmark runs in."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def require() -> None:
    """Put ``src/`` first on the import path, or exit without a result."""
    if not (SRC / "posetfano" / "__init__.py").is_file():
        sys.exit(f"perfbench: no posetfano sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
