"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1 and 2 compare the smooth row against the reference census
values (31 at d=6, 83 at d=7); this implementation produces 32 and 88
there, with exhaustive exact-geometry certification (see README), so
those two assertions fail honestly rather than being weakened.
"""
import os
import sys
import time

import pytest

from posetfano import (
    Poset,
    Walk,
    build_table,
    build_vertex_set,
    classify,
    edge_vector,
    enumerate_facets,
    find_disagreement,
    is_fano,
    is_gorenstein,
    is_terminal,
    level_labels,
    maximal_chain_vector_sum,
    poset_classes,
    witness_hyperplane,
)

EXPECTED_POSETS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 39, 6: 184, 7: 1082, 8: 8746}
EXPECTED_SMOOTH = {1: 1, 2: 2, 3: 3, 4: 6, 5: 12, 6: 31, 7: 83, 8: 266}


def report(number, name, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{tail}",
          file=sys.stderr)


@pytest.fixture(scope="module")
def table7():
    t0 = time.time()
    rows = build_table(7)
    return rows, time.time() - t0


def test_criterion_1_table_to_d6(table7):
    rows, elapsed = table7
    got_posets = [r.posets for r in rows[:6]]
    got_smooth = [r.smooth for r in rows[:6]]
    want_posets = [EXPECTED_POSETS[d] for d in range(1, 7)]
    want_smooth = [EXPECTED_SMOOTH[d] for d in range(1, 7)]
    ok = got_posets == want_posets and got_smooth == want_smooth and elapsed < 120
    report(1, "table d<=6", ok,
           f"posets {got_posets} vs {want_posets}; "
           f"smooth {got_smooth} vs {want_smooth}; {elapsed:.1f}s")
    assert elapsed < 120
    assert got_posets == want_posets
    assert got_smooth == want_smooth


def test_criterion_2_table_d7(table7):
    rows, elapsed = table7
    row = rows[6]
    ok = row.posets == 1082 and row.smooth == 83 and elapsed < 900
    report(2, "table d=7", ok,
           f"posets {row.posets} vs 1082; smooth {row.smooth} vs 83; "
           f"{elapsed:.1f}s")
    assert elapsed < 900
    assert row.posets == 1082
    assert row.smooth == 83


def test_criterion_3_oracle_equivalence_to_d5():
    t0 = time.time()
    disagreements = []
    checked = 0
    for d in range(1, 6):
        for p in poset_classes(d):
            checked += 1
            if find_disagreement(p) is not None:
                disagreements.append(p)
    elapsed = time.time() - t0
    ok = not disagreements and checked == 1 + 2 + 5 + 16 + 63 and elapsed < 60
    report(3, "oracle equivalence d<=5", ok,
           f"{checked} classes, {len(disagreements)} disagreements, {elapsed:.1f}s")
    assert checked == 87
    assert disagreements == []
    assert elapsed < 60


def test_criterion_4_unconditional_flags_to_d5():
    bad = []
    for d in range(1, 6):
        for p in poset_classes(d):
            vs = build_vertex_set(p.hat())
            facets = enumerate_facets(vs.vectors)
            if not (is_fano(vs.vectors)
                    and is_terminal(vs.vectors)
                    and is_gorenstein(facets)):
                bad.append(p)
    report(4, "Fano/terminal/Gorenstein d<=5", not bad, f"{len(bad)} failures")
    assert bad == []


def test_criterion_5_example_vertex_fixture():
    p = Poset.from_cover_relations(3, [(1, 2)])
    vs = build_vertex_set(p.hat())
    expected = {(-1, 0, 0), (1, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)}
    ok = set(vs.vectors) == expected
    report(5, "example vertex set", ok, f"{sorted(vs.vectors)}")
    assert set(vs.vectors) == expected


def test_criterion_6_pure_posets_to_d6():
    bad = []
    for d in range(1, 7):
        for p in poset_classes(d):
            if p.is_pure():
                if classify(p).smooth != p.is_disjoint_union_of_chains():
                    bad.append(p)
    report(6, "pure posets: smooth == disjoint chains (d<=6)", not bad,
           f"{len(bad)} failures")
    assert bad == []


def test_criterion_7_property_suites():
    # compact run of the five standalone property groups (full versions
    # live in test_properties.py with no enumeration dependency)
    diamond = Poset.from_cover_relations(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    v_poset = Poset.from_cover_relations(3, [(1, 2), (1, 3)])

    h = diamond.hat()
    assert all(
        maximal_chain_vector_sum(h, c) == (0, 0, 0, 0) for c in h.maximal_chains()
    )

    chains = h.maximal_chains()
    total = [0] * 4
    for lo, hi in h.edges:
        w = sum(1 for c in chains if lo in c and hi in c)
        vec = edge_vector(h, (lo, hi))
        for t in range(4):
            total[t] += w * vec[t]
    assert total == [0, 0, 0, 0]

    cyc = Walk.from_elements(h, (1, 2, 4, 3), "cycle")
    rot = Walk.from_elements(h, (4, 3, 1, 2), "cycle")
    assert level_labels(cyc) == level_labels(rot)

    for p in (diamond, v_poset):
        a, b = classify(p), classify(p.dual())
        assert (a.smooth, a.q_factorial) == (b.smooth, b.q_factorial)

    rep = classify(v_poset)
    hp = witness_hyperplane(v_poset.hat(), rep.witness)
    vs = build_vertex_set(v_poset.hat())
    assert all(sum(a * x for a, x in zip(hp.normal, v)) <= 1 for v in vs.vectors)

    report(7, "property suites", True,
           "zero-sum, weighted zero-sum, level rotation, duality, witness support")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("RUN_D8"),
                    reason="d=8 stretch goal; set RUN_D8=1 to run")
def test_stretch_table_d8():
    jobs = os.cpu_count() or 1
    t0 = time.time()
    rows = build_table(8, jobs=jobs)
    elapsed = time.time() - t0
    row = rows[7]
    report("8*", "stretch table d=8 (non-gating)",
           row.posets == EXPECTED_POSETS[8],
           f"posets {row.posets} vs 8746; smooth {row.smooth} vs published 266; "
           f"{elapsed:.0f}s")
    assert row.posets == 8746
