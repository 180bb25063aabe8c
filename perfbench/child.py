"""Work the benchmark runs in a fresh interpreter.

    child.py setup                          start and import posetfano
    child.py census D_MAX JOBS [SPANS UNTRACED_S]
    child.py certify-setup D

Prints one JSON object as the last line of standard output.
"""
from __future__ import annotations

import json
import sys

import source


def main(argv: list[str]) -> None:
    source.require()
    if argv[0] == "setup":
        import posetfano  # noqa: F401  (the import is the work)
        out = {}
    elif argv[0] == "census":
        import workloads
        traced = len(argv) == 5
        out = workloads.census_child(
            int(argv[1]), int(argv[2]),
            argv[3] if traced else None,
            float(argv[4]) if traced else None,
        )
    elif argv[0] == "certify-setup":
        import workloads
        out = workloads.certify_setup_child(int(argv[1]))
    else:
        sys.exit(f"child.py: unknown command {argv[0]!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
