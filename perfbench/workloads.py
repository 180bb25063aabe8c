"""The benchmark's workloads: census, walks and certify.

Each workload is a closed loop in one driver process: the next input is
handed over only when the previous answer is back.  A run with
``trace=False`` measures the end-to-end metrics; a run with
``trace=True`` does the same work once untraced and once traced and
reports the per-layer metrics, the tracing overhead being the
difference of the two.

census   ``build_table(8, jobs=2)`` in a fresh process, so no level
         memoized by ``poset_classes`` is reused.  One census per run;
         it is fixed work and ignores ``seconds``.
walks    ``classify`` on seeded random posets with d = 16..28, the large-d
         walk search with no enumeration at all.
certify  ``find_disagreement`` on seeded d = 7 duality classes, the
         brute-force geometric oracle; enumeration is set-up.

walks and certify draw their inputs in rounds that visit every stratum
once (each d in a random order for walks; cost strata by vertex count
for certify), so that runs on different seeds see the same mix.

BENCHMARK.json lists census and certify only.  walks keeps the known
blow-up of the walk search in its inputs (one input in a hundred takes
over a second, a few take 5 to 25 s), so which of them a run draws
moves its figures: over five seeds of 20 s on a 2-core Xeon the spread
(q3 - q1) / median was 0.84 for items_per_s, 0.50 for p50_ms and 0.46
for tail_ms, beyond any bound the benchmark may set.  It stays
runnable, with the same checks, for work on that search.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import posetfano.classifier as classifier
import posetfano.crosscheck as crosscheck
import posetfano.enumeration as enumeration
import posetfano.geometry as geometry
import posetfano.polytope as polytope
from posetfano import Poset, PosetfanoError

import layers
from source import OUT, ROOT
from spans import Tracer

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

# (d, posets up to isomorphism and duality, smooth) as this code computes
# them; the classifier and the exact oracle agree on every class through
# d = 7.  The reference census's 31/83/266 smooth counts are not used.
EXPECTED_ROWS = (
    (1, 1, 1), (2, 2, 2), (3, 4, 3), (4, 12, 6),
    (5, 39, 12), (6, 184, 32), (7, 1082, 88), (8, 8746, 302),
)

SETUP_REPEATS = 11
CERTIFY_SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
WALK_D = range(16, 29)
# each pair of a walk input is related with probability density / d
WALK_DENSITY = (2.25, 2.75, 3.25, 3.75)
CERTIFY_D = 7
CERTIFY_STRATA = 32  # a power of two, for the bit-reversed order
CERTIFY_ROUND = 8
TRACE_WALKS = 104
TRACE_CERTIFY = 20


@dataclass
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")

    def summary(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


# -- processes and resources ----------------------------------------------

def run_child(*args: str) -> tuple[dict, float]:
    """Run ``child.py`` with args; its last stdout line is JSON.

    The child leads its own process group, so a child that overruns
    CHILD_TIMEOUT_S is killed together with any pool workers it forked.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("child.py")), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} failed:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1]), wall


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def import_setup_s() -> float:
    """Median time to start a fresh interpreter and import posetfano."""
    return statistics.median(run_child("setup")[1] for _ in range(SETUP_REPEATS))


# -- latency statistics ---------------------------------------------------

def tail(latencies: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond); with too few samples
    for any percentile the maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 0, -1):
        value = ordered[max(0, -(-pct * n // 100) - 1)]  # nearest rank
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            return pct, value, beyond
    return 100, ordered[-1], 0


def latency_metrics(latencies: list[float], round_size: int,
                    result: Result) -> dict[str, float]:
    """items_per_s, p50_ms and tail_ms of a closed loop.

    Throughput is the median over complete rounds of items per busy
    second, so one slow input moves one round, not the whole figure.
    """
    rounds = [
        round_size / sum(latencies[i:i + round_size])
        for i in range(0, len(latencies) - round_size + 1, round_size)
    ]
    pct, value, beyond = tail(latencies)
    result.notes.append(
        f"samples {len(latencies)}, complete rounds {len(rounds)}, "
        f"tail_ms is p{pct} with {beyond} samples beyond, "
        f"mean throughput {len(latencies) / sum(latencies):.3f}/s, "
        f"max {max(latencies) * 1e3:.1f} ms"
    )
    return {
        "items_per_s": statistics.median(rounds) if rounds
        else len(latencies) / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": value * 1e3,
    }


def closed_loop(fn, inputs, seconds: float) -> tuple[list, list, list[float]]:
    """Call fn on inputs one at a time until ``seconds`` have elapsed."""
    items, answers, latencies = [], [], []
    start = time.perf_counter()
    for item in inputs:
        t0 = time.perf_counter()
        answer = fn(item)
        latencies.append(time.perf_counter() - t0)
        items.append(item)
        answers.append(answer)
        if time.perf_counter() - start >= seconds:
            break
    return items, answers, latencies


def timed_pass(fn, inputs) -> tuple[list, float]:
    start = time.perf_counter()
    answers = [fn(item) for item in inputs]
    return answers, time.perf_counter() - start


def traced_pass(fn, inputs, result: Result, untraced: tuple[list, float],
                tracer: Tracer) -> tuple[range, float]:
    """Repeat an untraced pass under tracing.

    Returns the indices of the pass's spans and its traced time.
    """
    first = len(tracer)
    layers.install(tracer)
    try:
        answers, traced_s = timed_pass(fn, inputs)
    finally:
        tracer.restore()
    result.check(answers == untraced[0], "traced answers differ from untraced")
    return range(first, len(tracer)), traced_s


def write_spans(tracer: Tracer, workload: str, seed: int, result: Result) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(path)
    result.notes.append(f"{len(tracer)} spans written to {path.relative_to(ROOT)}")


def account_lines(tracer: Tracer, window: range, untraced_s: float) -> list[str]:
    """Self time per layer against the untraced time of the same work."""
    account = layers.layer_account(tracer, window)
    lines = [f"  self {layer:<12} {seconds:9.3f} s "
             f"{100 * seconds / untraced_s:6.1f} % of untraced"
             for layer, seconds in sorted(account.items(), key=lambda kv: -kv[1])]
    lines.append(f"  untraced {untraced_s:.3f} s, layers {sum(account.values()):.3f} s")
    return lines


# -- census ---------------------------------------------------------------

def census(seed: int, seconds: float, trace: bool, d_max: int = 8,
           jobs: int = 2, expected=EXPECTED_ROWS) -> Result:
    """One cold ``build_table(d_max, jobs)``; seed and seconds are unused."""
    expected = [list(row) for row in expected[:d_max]]
    if not trace:
        setup_s = import_setup_s()
        before = cpu_seconds(resource.RUSAGE_CHILDREN)
        out, _ = run_child("census", str(d_max), str(jobs))
        cpu_s = cpu_seconds(resource.RUSAGE_CHILDREN) - before
        wall = out["wall_s"]
        result = Result({}, END_TO_END)
        _check_rows(out["rows"], expected, result)
        result.metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": cpu_s,
            "peak_rss_mb": out["peak_rss_mb"],
            # one census is one item
            "items_per_s": 1 / wall,
            "p50_ms": wall * 1e3,
            "tail_ms": wall * 1e3,
        }
        result.notes.append("census: one item per run, so items_per_s = "
                            "1/wall_s and p50_ms = tail_ms = wall")
        return result

    plain, _ = run_child("census", str(d_max), str(jobs))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-census-{seed}.jsonl"
    traced, _ = run_child("census", str(d_max), str(jobs), str(spans),
                          repr(plain["wall_s"]))
    result = Result(traced["layers"], layers.PER_LAYER)
    _check_rows(plain["rows"], expected, result)
    _check_rows(traced["rows"], expected, result)
    result.check(traced["rows"] == plain["rows"], "traced rows differ from untraced")
    result.check(traced["replay_smooth"] == [row[2] for row in plain["rows"]],
                 "in-process replay smooth counts differ from the table")
    result.notes.extend(traced["notes"])
    return result


def _check_rows(rows: list, expected: list, result: Result) -> None:
    result.check(len(rows) == len(expected),
                 f"{len(rows)} rows, expected {len(expected)}")
    for row, want in zip(rows, expected):
        result.check(row == want, f"row {row} != expected {want}")


def census_child(d_max: int, jobs: int, spans_path: str | None,
                 untraced_s: float | None) -> dict:
    """Body of the fresh census process; traced when spans_path is set.

    Pool workers are forked from this process and inherit the wrappers,
    but their spans stay in the workers, so the traced parent sees
    ``count_smooth`` only as the wall time of the pool at ``jobs``.
    The classifier and poset metrics come from classifying the same
    representatives again in-process after the timed census.
    """
    tracer = Tracer()
    smooth_inputs = layers.install(tracer) if spans_path else []
    try:
        start = time.perf_counter()
        rows = enumeration.build_table(d_max, jobs=jobs)
        wall = time.perf_counter() - start
        census_spans = range(len(tracer))
        replay = [sum(classifier.classify(p).smooth for p in reps)
                  for reps in smooth_inputs]
    finally:
        tracer.restore()
    out = {
        "rows": [[r.d, r.posets, r.smooth] for r in rows],
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if spans_path:
        tracer.write(spans_path)
        out["layers"] = layers.per_layer(tracer, census_spans, untraced_s, wall)
        out["replay_smooth"] = replay
        out["notes"] = [
            f"{len(tracer)} spans written to {spans_path}",
            *account_lines(tracer, census_spans, untraced_s),
            f"  pool workers are not traced: enumeration includes count_smooth "
            f"at jobs={jobs}; classifier and poset metrics come from an "
            f"in-process replay at jobs=1",
        ]
    return out


# -- walks ----------------------------------------------------------------

def random_poset(rng: random.Random, d: int, density: float) -> Poset:
    """Each pair of a random linear order related with probability density/d."""
    labels = rng.sample(range(1, d + 1), d)
    pairs = [(labels[i], labels[j]) for i in range(d) for j in range(i + 1, d)
             if rng.random() < density / d]
    return Poset.from_cover_relations(d, pairs)


def walk_inputs(seed: int):
    """Endless rounds: every d of WALK_D once, in random order, at one density."""
    rng = random.Random(seed)
    for r in itertools.count():
        density = WALK_DENSITY[r % len(WALK_DENSITY)]
        for d in rng.sample(WALK_D, len(WALK_D)):
            yield random_poset(rng, d, density)


def _classify(p: Poset):
    # looked up at call time, so that a traced pass calls the wrapper
    return classifier.classify(p)


def walks(seed: int, seconds: float, trace: bool,
          trace_items: int = TRACE_WALKS) -> Result:
    if not trace:
        setup_s = import_setup_s()
        cpu0 = cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        posets, answers, latencies = closed_loop(_classify, walk_inputs(seed), seconds)
        wall = time.perf_counter() - start
        cpu_s = cpu_seconds(resource.RUSAGE_SELF) - cpu0
        result = Result({}, END_TO_END)
        _check_walks(posets, answers, result)
        result.metrics = {
            "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb(),
            **latency_metrics(latencies, len(WALK_D), result),
        }
        return result

    posets = list(itertools.islice(walk_inputs(seed), trace_items))
    untraced = timed_pass(_classify, posets)
    result = Result({}, layers.PER_LAYER)
    _check_walks(posets, untraced[0], result)
    tracer = Tracer()
    window, traced_s = traced_pass(_classify, posets, result, untraced, tracer)
    result.metrics = layers.per_layer(tracer, window, untraced[1], traced_s)
    write_spans(tracer, "walks", seed, result)
    result.notes.extend(account_lines(tracer, window, untraced[1]))
    return result


def _check_walks(posets: list, answers: list, result: Result) -> None:
    """Every non-smooth answer's witness hyperplane, in exact integers.

    ``a.v <= 1`` on every vertex and ``a.v == 1`` on every edge vector
    of the witness walk.  Smooth answers are not verified at this d.
    """
    unverified = 0
    for p, report in zip(posets, answers):
        if report.smooth:
            unverified += 1
            continue
        result.check(_witness_holds(p, report.witness),
                     f"witness hyperplane fails for {p!r}")
    result.notes.append(f"walks: {len(answers)} answers, "
                        f"{unverified} smooth (unverified at this d)")


def _witness_holds(p: Poset, walk) -> bool:
    h = p.hat()
    try:
        plane = geometry.witness_hyperplane(h, walk)
    except PosetfanoError:
        return False

    def value(v) -> int:
        return sum(a * x for a, x in zip(plane.normal, v))

    vertices = polytope.build_vertex_set(h).vectors
    return (plane.offset == 1
            and all(value(v) <= 1 for v in vertices)
            and all(value(polytope.edge_vector(h, e)) == 1
                    for e in walk.edge_pairs()))


# -- certify --------------------------------------------------------------

def certify_classes(d: int) -> list[Poset]:
    """The set-up: every duality class on d elements."""
    return enumeration.quotient_by_duality(enumeration.poset_classes(d))


def certify_inputs(classes: list[Poset], seed: int):
    """Rounds that take one unused class from every cost stratum.

    Strata are equal slices of the classes ordered by vertex count n,
    which sets the size C(n, d) of the brute-force facet search.  A
    round visits them in bit-reversed order, so each aligned group of
    CERTIFY_ROUND inputs spreads evenly over the strata, wherever the
    time budget cuts the stream.  Every class is handed out at most once.
    """
    rng = random.Random(seed)

    def vertices(p: Poset) -> int:
        return len(p.covers) + len(p.minimal_elements) + len(p.maximal_elements)

    ordered = sorted(classes, key=vertices)
    n = len(ordered)
    blocks = [ordered[k * n // CERTIFY_STRATA:(k + 1) * n // CERTIFY_STRATA]
              for k in range(CERTIFY_STRATA)]
    for block in blocks:
        rng.shuffle(block)
    bits = CERTIFY_STRATA.bit_length() - 1
    order = [int(format(k, f"0{bits}b")[::-1], 2) for k in range(CERTIFY_STRATA)]
    for r in range(min(len(block) for block in blocks)):
        for k in order:
            yield blocks[k][r]


def _disagreement(p: Poset):
    return crosscheck.find_disagreement(p)


def certify(seed: int, seconds: float, trace: bool, d: int = CERTIFY_D,
            trace_items: int = TRACE_CERTIFY) -> Result:
    if not trace:
        setups = [run_child("certify-setup", str(d))
                  for _ in range(CERTIFY_SETUP_REPEATS)]
        result = Result({}, END_TO_END)
        covers = setups[0][0]["covers"]
        result.check(all(out["covers"] == covers for out, _ in setups),
                     "repeated set-ups disagree")
        classes = [Poset.from_cover_relations(d, [tuple(c) for c in cs])
                   for cs in covers]
        cpu0 = cpu_seconds(resource.RUSAGE_SELF)
        start = time.perf_counter()
        posets, answers, latencies = closed_loop(
            _disagreement, certify_inputs(classes, seed), seconds)
        wall = time.perf_counter() - start
        cpu_s = cpu_seconds(resource.RUSAGE_SELF) - cpu0
        for p, answer in zip(posets, answers):
            result.check(answer is None, f"disagreement {answer} on {p!r}")
        result.metrics = {
            "setup_s": statistics.median(wall for _, wall in setups),
            "wall_s": wall, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb(),
            **latency_metrics(latencies, CERTIFY_ROUND, result),
        }
        return result

    result = Result({}, layers.PER_LAYER)
    tracer = Tracer()
    layers.install(tracer)
    try:
        start = time.perf_counter()
        classes = certify_classes(d)
        setup_s = time.perf_counter() - start
    finally:
        tracer.restore()
    result.notes.append(f"traced set-up {setup_s:.3f} s, {len(tracer)} spans")
    posets = list(itertools.islice(certify_inputs(classes, seed), trace_items))
    untraced = timed_pass(_disagreement, posets)
    for p, answer in zip(posets, untraced[0]):
        result.check(answer is None, f"disagreement {answer} on {p!r}")
    window, traced_s = traced_pass(_disagreement, posets, result, untraced, tracer)
    result.metrics = layers.per_layer(tracer, window, untraced[1], traced_s)
    write_spans(tracer, "certify", seed, result)
    result.notes.extend(account_lines(tracer, window, untraced[1]))
    return result


def certify_setup_child(d: int) -> dict:
    return {"covers": [[list(c) for c in p.covers] for p in certify_classes(d)]}


WORKLOADS = {"census": census, "walks": walks, "certify": certify}
