"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload census --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out FILE]

For every metric prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  With ``--out`` the
per-run values, the summary and the machine (nproc, Python version,
CPU model from /proc/cpuinfo) are written as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import source


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model}


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((source.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=source.ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({"seed": seed, **{k: m["value"] for k, m in metrics.items()}})
        print(f"seed {seed} done", file=sys.stderr)

    table = {}
    for name in runs[0]:
        if name == "seed":
            continue
        values = [run[name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(name)}
        print(f"{name:<40} median {median:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"spread {spread:6.3f}  bound {bounds.get(name)}")
    if args.out:
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "machine": machine(), "summary": table, "runs": runs,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
