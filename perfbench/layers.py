"""Which posetfano functions are traced, and the per-layer metrics.

Every layer is measured from outside, by timing calls into the
functions below; nothing under ``src/`` is changed.  The one private
hook is ``enumeration._extensions``, whose yields are the children the
enumeration generates; it is counted, not timed, and skipped when a
later version of the package no longer has it.
"""
from __future__ import annotations

from math import comb, prod

import posetfano.canonical as canonical
import posetfano.classifier as classifier
import posetfano.crosscheck as crosscheck
import posetfano.enumeration as enumeration
import posetfano.geometry as geometry
import posetfano.polytope as polytope
from posetfano.poset import Poset

from spans import Tracer

# name -> unit, in the order they are printed
PER_LAYER = {
    "canonical.calls": "count",
    "canonical.busy_s": "s",
    "enumeration.children": "count",
    "enumeration.dedup_yield": "ratio",
    "enumeration.extend_self_s": "s",
    "enumeration.quotient_s": "s",
    "enumeration.quotient_canonical_calls": "count",
    "enumeration.count_smooth_s": "s",
    "classifier.calls": "count",
    "classifier.busy_s": "s",
    "classifier.walks_examined": "count",
    "classifier.witness_yield": "ratio",
    "classifier.witness_cycle": "count",
    "classifier.witness_path": "count",
    "classifier.shortcut": "count",
    "poset.hat_calls": "count",
    "poset.hat_busy_s": "s",
    "polytope.busy_s": "s",
    "geometry.facets_busy_s": "s",
    "geometry.subsets_tried": "count",
    "geometry.facets": "count",
    "geometry.facet_yield": "ratio",
    "geometry.lattice_busy_s": "s",
    "geometry.lattice_points": "count",
    "geometry.checks_busy_s": "s",
    "crosscheck.self_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s",
    "trace.remainder_s": "s",
}

# span name -> layer whose self time it is
SPAN_LAYER = {
    "canonical": "canonical",
    "enumeration.table": "enumeration",
    "enumeration.classes": "enumeration",
    "enumeration.quotient": "enumeration",
    "enumeration.count_smooth": "enumeration",
    "classifier": "classifier",
    "poset.hat": "poset",
    "polytope": "polytope",
    "geometry.facets": "geometry",
    "geometry.lattice": "geometry",
    "geometry.checks": "geometry",
    "crosscheck": "crosscheck",
}


def install(tracer: Tracer) -> list:
    """Wrap every traced function; ``tracer.restore()`` undoes it.

    Returns a list that collects the posets handed to ``count_smooth``,
    whose classification may run in pool workers the tracer cannot see,
    so that a caller can classify them again in-process.
    """
    counts = tracer.counts
    smooth_inputs: list = []

    def on_classes(result, d):
        counts[f"classes.{d}"] = len(result)

    def on_classify(report, *_):
        if report.method == "pure-shortcut":
            counts["classifier.shortcut"] += 1
        elif report.witness is not None:
            counts[f"classifier.witness_{report.witness.kind}"] += 1

    def on_count_smooth(_, posets, *__):
        smooth_inputs.append(posets)

    def on_facets(facets, points):
        points = list(points)
        counts["geometry.facets"] += len(facets)
        # the brute force solves one hyperplane per d-subset of the points
        counts["geometry.subsets_tried"] += comb(len(points), len(points[0]))

    def on_lattice(_, points, *__):
        points = [tuple(p) for p in points]
        counts["geometry.lattice_points"] += prod(
            max(p[c] for p in points) - min(p[c] for p in points) + 1
            for c in range(len(points[0]))
        )

    tracer.span(canonical, "canonical_key", "canonical")
    tracer.span(enumeration, "build_table", "enumeration.table")
    tracer.span(enumeration, "poset_classes", "enumeration.classes", on_classes)
    tracer.span(enumeration, "quotient_by_duality", "enumeration.quotient")
    tracer.span(enumeration, "count_smooth", "enumeration.count_smooth",
                on_count_smooth)
    if hasattr(enumeration, "_extensions"):
        tracer.count_yields(enumeration, "_extensions", "enumeration.children")
    tracer.span(classifier, "classify", "classifier", on_classify)
    tracer.count_yields(classifier, "enumerate_cycles", "classifier.walks_examined")
    tracer.count_yields(classifier, "enumerate_paths", "classifier.walks_examined")
    tracer.span(Poset, "hat", "poset.hat")
    tracer.span(polytope, "build_vertex_set", "polytope")
    tracer.span(geometry, "enumerate_facets", "geometry.facets", on_facets)
    tracer.span(geometry, "is_fano", "geometry.lattice", on_lattice)
    tracer.span(geometry, "is_terminal", "geometry.lattice", on_lattice)
    for name in ("is_gorenstein", "is_simplicial", "is_smooth_geometric"):
        tracer.span(geometry, name, "geometry.checks")
    tracer.span(crosscheck, "find_disagreement", "crosscheck")
    tracer.span(crosscheck, "oracle_report", "crosscheck")
    return smooth_inputs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, window: range, untraced_s: float,
              traced_s: float) -> dict:
    """Every PER_LAYER metric from one traced run.

    ``untraced_s`` and ``traced_s`` time the same work without and with
    tracing, and ``window`` holds the indices of that work's spans.  The
    layer self times in the window are charged against the untraced
    time; what they do not cover is ``trace.remainder_s``, negative
    when tracing inflated the layers by more than the untraced time
    spent outside them.
    """
    counts = tracer.counts
    by_name: dict[str, float] = {}
    for name, t in zip(tracer.names, tracer.self_times()):
        by_name[name] = by_name.get(name, 0.0) + t
    children = counts["enumeration.children"]
    classes = sum(v for k, v in counts.items()
                  if k.startswith("classes.") and int(k.split(".")[1]) >= 2)
    walks = counts["classifier.walks_examined"]
    witnesses = counts["classifier.witness_cycle"] + counts["classifier.witness_path"]
    subsets = counts["geometry.subsets_tried"]
    layer_self = sum(layer_account(tracer, window).values())
    values = {
        "canonical.calls": tracer.calls("canonical"),
        "canonical.busy_s": tracer.inclusive("canonical"),
        "enumeration.children": children,
        "enumeration.dedup_yield": _ratio(classes, children),
        "enumeration.extend_self_s": by_name.get("enumeration.classes", 0.0),
        "enumeration.quotient_s": tracer.inclusive("enumeration.quotient"),
        "enumeration.quotient_canonical_calls": sum(
            1 for i, name in enumerate(tracer.names)
            if name == "canonical"
            and tracer.has_ancestor(i, "enumeration.quotient")
        ),
        "enumeration.count_smooth_s": tracer.inclusive("enumeration.count_smooth"),
        "classifier.calls": tracer.calls("classifier"),
        "classifier.busy_s": tracer.inclusive("classifier"),
        "classifier.walks_examined": walks,
        "classifier.witness_yield": _ratio(witnesses, walks),
        "classifier.witness_cycle": counts["classifier.witness_cycle"],
        "classifier.witness_path": counts["classifier.witness_path"],
        "classifier.shortcut": counts["classifier.shortcut"],
        "poset.hat_calls": tracer.calls("poset.hat"),
        "poset.hat_busy_s": tracer.inclusive("poset.hat"),
        "polytope.busy_s": tracer.inclusive("polytope"),
        "geometry.facets_busy_s": tracer.inclusive("geometry.facets"),
        "geometry.subsets_tried": subsets,
        "geometry.facets": counts["geometry.facets"],
        "geometry.facet_yield": _ratio(counts["geometry.facets"], subsets),
        "geometry.lattice_busy_s": tracer.inclusive("geometry.lattice"),
        "geometry.lattice_points": counts["geometry.lattice_points"],
        "geometry.checks_busy_s": tracer.inclusive("geometry.checks"),
        "crosscheck.self_s": by_name.get("crosscheck", 0.0),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.layer_self_s": layer_self,
        "trace.remainder_s": untraced_s - layer_self,
    }
    return values


def layer_account(tracer: Tracer, window: range) -> dict[str, float]:
    """Self time per layer, summed over the spans in ``window``."""
    self_times = tracer.self_times()
    account: dict[str, float] = {}
    for i in window:
        layer = SPAN_LAYER[tracer.names[i]]
        account[layer] = account.get(layer, 0.0) + self_times[i]
    return account
