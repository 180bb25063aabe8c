"""Command-line front end.

Subcommands: classify, vertices, oracle, cross-check, table, enumerate.
Results go to stdout (JSON with --json where applicable); progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 domain error or
cross-check disagreement, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import suppress
from itertools import islice

from .classifier import classify, iter_witnesses
from .crosscheck import find_disagreement, oracle_report
from .enumeration import (
    build_table, pair_representatives, pool_map, poset_classes, worker_pool,
)
from .errors import PosetfanoError, UnsupportedSize
from .polytope import build_vertex_set
from .poset import load_poset, save_poset

# classify --all-witnesses lists at most this many walks; the most any
# class has is 252 at d = 7 and 1116 at d = 8
MAX_LISTED_WITNESSES = 10_000


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _positive_int(text: str) -> int:
    with suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetfano",
        description="Lattice polytopes of finite posets: vertices, exact "
                    "geometry, smoothness classification, census tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one poset's polytope")
    c.add_argument("file", help="poset file (text or JSON)")
    c.add_argument("--json", action="store_true", help="emit a JSON report")
    c.add_argument("--verify", action="store_true",
                   help="recompute all flags with the geometric oracle")
    c.add_argument("--all-witnesses", action="store_true",
                   help="list every blocking walk, not just the first")

    v = sub.add_parser("vertices", help="print the polytope vertex set")
    v.add_argument("file")
    v.add_argument("--json", action="store_true",
                   help="attach the producing Hasse edge to each vertex")

    o = sub.add_parser("oracle", help="facets and geometric flags as JSON")
    o.add_argument("file")

    x = sub.add_parser("cross-check",
                       help="classifier vs. oracle over the classes of size d")
    x.add_argument("--d", type=int, required=True)
    x.add_argument("--sample", type=_positive_int, metavar="N",
                   help="check N classes drawn at random (all when N is "
                        "at least the number of classes)")
    x.add_argument("--seed", type=int, default=0,
                   help="random seed for --sample (default: 0)")
    x.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker processes (default: all cores)")
    x.add_argument("--json", action="store_true")

    t = sub.add_parser("table", help="poset/smooth counts for d = 1..max-d")
    t.add_argument("--max-d", type=int, required=True)
    t.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker processes for enumeration and "
                        "classification (default: all cores)")
    t.add_argument("--out", help="stream rows to this CSV file")
    t.add_argument("--resume", action="store_true",
                   help="reuse the rows of --out, d = 1, 2, ... with 0 <= smooth <= "
                        "posets: skips their smooth counts, not the walk")
    t.add_argument("--json", action="store_true")

    e = sub.add_parser("enumerate", help="emit isomorphism-class representatives")
    e.add_argument("--d", type=int, required=True)
    e.add_argument("--emit", metavar="DIR",
                   help="write each representative as DIR/<key>.poset")
    e.add_argument("--up-to-duality", action="store_true",
                   help="quotient the classes by order duality first")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.out:
        parser.error("table --resume needs --out, the CSV file to resume")
    try:
        return _COMMANDS[args.command](args)
    except (PosetfanoError, ValueError, OSError) as e:
        _log(f"error: {e}")
        return 1


def cmd_classify(args) -> int:
    p = load_poset(args.file)
    report = classify(p)
    if args.verify:
        mismatch = find_disagreement(p)
        if mismatch:
            _log(f"error: classifier disagrees with the oracle: {mismatch}")
            return 1
    payload = report.to_dict()
    if args.verify:
        payload["verified"] = True
    if args.all_witnesses:
        walks = list(islice(iter_witnesses(p.hat()), MAX_LISTED_WITNESSES + 1))
        if len(walks) > MAX_LISTED_WITNESSES:
            raise UnsupportedSize(
                f"more than {MAX_LISTED_WITNESSES} blocking walks; "
                "--all-witnesses lists at most that many")
        payload["witnesses"] = [w.to_dict() for w in walks]
    if args.json:
        print(json.dumps(payload))
    else:
        for name in ("fano", "terminal", "gorenstein", "q_factorial", "smooth"):
            print(f"{name}: {'yes' if payload[name] else 'no'}")
        print(f"method: {payload['method']}")
        if report.witness is not None:
            w = report.witness
            print(f"witness {w.kind}: {' '.join(map(str, w.elements))}")
        if args.all_witnesses:
            for w in payload["witnesses"]:
                print(f"blocking {w['kind']}: {' '.join(map(str, w['elements']))}")
    return 0


def cmd_vertices(args) -> int:
    p = load_poset(args.file)
    vs = build_vertex_set(p.hat())
    if args.json:
        print(json.dumps({
            "d": vs.d,
            "vertices": [
                {"edge": list(e), "coords": list(v)}
                for e, v in zip(vs.edges, vs.vectors)
            ],
        }))
    else:
        for v in vs.vectors:
            print(",".join(map(str, v)))
    return 0


def cmd_oracle(args) -> int:
    p = load_poset(args.file)
    vs, facets, flags = oracle_report(p)
    print(json.dumps({
        "d": vs.d,
        "vertices": [list(v) for v in vs.vectors],
        "facets": [
            {"normal": list(f.normal), "offset": f.offset,
             "vertices": list(f.incident)}
            for f in facets
        ],
        **flags,
    }))
    return 0


def cmd_cross_check(args) -> int:
    classes = poset_classes(args.d)
    reps, sample = classes, None
    if args.sample is not None and args.sample < len(classes):
        reps = random.Random(args.seed).sample(classes, args.sample)
        sample = {"of": len(classes), "seed": args.seed}
    with worker_pool(args.jobs) as pool:
        results = list(pool_map(find_disagreement, reps, pool))
    bad = [(p, mm) for p, mm in zip(reps, results) if mm]
    if args.json:
        print(json.dumps({
            "d": args.d,
            "classes": len(reps),
            **({"sample": sample} if sample else {}),
            "disagreements": [
                {"covers": [list(c) for c in p.covers], "mismatch": {
                    k: {"classifier": a, "oracle": b}
                    for k, (a, b) in mm.items()
                }}
                for p, mm in bad
            ],
        }))
    else:
        line = f"d={args.d}: {len(reps)} classes, {len(bad)} disagreements"
        if sample:
            line += f" (sample of {sample['of']}, seed {args.seed})"
        print(line)
        for p, mm in bad:
            print(f"disagree {mm}: {p!r}")
    return 0 if not bad else 1


def cmd_table(args) -> int:
    rows = build_table(args.max_d, jobs=args.jobs, out=args.out,
                       resume=args.resume, log=_log)
    if args.json:
        print(json.dumps([
            {"d": r.d, "posets": r.posets, "smooth": r.smooth} for r in rows
        ]))
    else:
        print(f"{'d':>3} {'posets':>8} {'smooth':>8}")
        for r in rows:
            print(f"{r.d:>3} {r.posets:>8} {r.smooth:>8}")
    return 0


def cmd_enumerate(args) -> int:
    chosen = pair_representatives(args.d) if args.up_to_duality else poset_classes(args.d)
    if args.emit:
        os.makedirs(args.emit, exist_ok=True)
        for p in chosen:
            save_poset(p, os.path.join(args.emit, p.canonical_key().hex() + ".poset"))
    label = "duality classes" if args.up_to_duality else "isomorphism classes"
    print(f"d={args.d}: {len(chosen)} {label}")
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "vertices": cmd_vertices,
    "oracle": cmd_oracle,
    "cross-check": cmd_cross_check,
    "table": cmd_table,
    "enumerate": cmd_enumerate,
}


if __name__ == "__main__":
    sys.exit(main())
