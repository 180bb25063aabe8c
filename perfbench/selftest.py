"""Fast self-test of the benchmark harness at toy sizes.

    python3 perfbench/selftest.py

Runs the census to d = 5, a round of walks and a few d = 5 certify
classes, each in a fresh interpreter as the benchmark's own runs are,
and checks that every metric of BENCHMARK.json is reported
with its unit, that traced and untraced runs give the same answers,
that counts repeat exactly between two traced runs, and that a wrong
expected census row is reported as a failure.  Exits 1 on any problem.
"""
from __future__ import annotations

import json
import subprocess
import sys

import source


def toy_run(name: str, trace: bool, wrong_row: bool = False) -> dict:
    """One workload at toy size; returns the printed summary."""
    import workloads

    if name == "census":
        expected = list(workloads.EXPECTED_ROWS)
        if wrong_row:
            expected[3] = (4, 12, 7)
        result = workloads.census(0, 1, trace, d_max=5, expected=expected)
    elif name == "walks":
        result = workloads.walks(7, 1, trace, trace_items=len(workloads.WALK_D))
    else:
        result = workloads.certify(7, 1, trace, d=5, trace_items=6)
    return result.summary()


def fresh(name: str, trace: bool, wrong_row: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--one", name, str(int(trace)), str(int(wrong_row))],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    def units(summary: dict) -> dict:
        return {name: m["unit"] for name, m in summary["metrics"].items()}

    def counts(summary: dict) -> dict:
        return {name: m["value"] for name, m in summary["metrics"].items()
                if m["unit"] == "count"}

    for name in ("census", "walks", "certify"):
        plain = fresh(name, False)
        expect(plain["correct"] and plain["attempted"] > 0,
               f"{name}: untraced checks pass ({plain['attempted']} attempted)")
        expect(units(plain) == end_to_end,
               f"{name}: every end-to-end metric printed with its unit")
        first, second = fresh(name, True), fresh(name, True)
        expect(first["correct"] and second["correct"],
               f"{name}: traced answers equal untraced ones")
        expect(units(first) == per_layer,
               f"{name}: every per-layer metric printed with its unit")
        expect(counts(first) == counts(second),
               f"{name}: counts repeat between two traced runs")

    bad = fresh("census", False, wrong_row=True)
    expect(bad["failed"] == 1 and not bad["correct"],
           "census: a wrong expected row is reported as a failure")

    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    source.require()
    if sys.argv[1:2] == ["--one"]:
        name, trace, wrong = sys.argv[2], sys.argv[3] == "1", sys.argv[4] == "1"
        print(json.dumps(toy_run(name, trace, wrong)))
        sys.exit(0)
    sys.exit(main())
