"""posetfano benchmark.

    python3 perfbench/run.py --workload census|walks|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Text lines describe the run; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Exits 1 when an output check
failed.  Spans of traced runs are written under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import sys

import source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "walks", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source.require()
    import workloads

    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                bool(args.trace))
    for line in result.notes:
        print(line)
    print(f"error_rate {result.failed / result.attempted:.6f} "
          f"({result.failed} failed of {result.attempted} checks)")
    print(json.dumps(result.summary()))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
