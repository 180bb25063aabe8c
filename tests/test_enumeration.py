import hashlib
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from math import factorial
from itertools import permutations, product

import pytest

from posetfano import (
    Poset,
    UnsupportedSize,
    build_table,
    classify,
    poset_classes,
    quotient_by_duality,
)
from posetfano import canonical, enumeration
from posetfano.classifier import hasse_squares
from posetfano.enumeration import (
    _extensions, count_smooth, pair_representatives, pool_map, read_table)
from oracles import (
    brute_isomorphic, cached_classes, filtered_extensions, first_seen_classes,
    labeled_posets, relabel, twin_prefix)


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(2) as executor:
        yield executor


ISO_CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}
LABELED = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def _orbit_sum(d):
    acc = 0
    for p in cached_classes(d):
        masks = p._above
        lower = p.lower_masks()
        # an automorphism maps each element to one with the same (down-set
        # size, up-set size), so only those permutations are tried
        blocks: dict[tuple[int, int], list[int]] = {}
        for i in p.elements:
            blocks.setdefault((lower[i].bit_count(), masks[i].bit_count()), []).append(i)
        auts = 0
        for images in product(*(permutations(b) for b in blocks.values())):
            pm = [0] * (d + 1)
            for block, image in zip(blocks.values(), images):
                for i, j in zip(block, image):
                    pm[i] = j
            ok = True
            for i in range(1, d + 1):
                m = 0
                am = masks[i]
                while am:
                    low = am & -am
                    m |= 1 << pm[low.bit_length() - 1]
                    am ^= low
                if m != masks[pm[i]]:
                    ok = False
                    break
            if ok:
                auts += 1
        acc += factorial(d) // auts
    return acc


class TestIsoClassCounts:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_counts_match_labeled_bruteforce(self, d):
        # independent universe: exhaustive labeled posets, key-deduplicated
        labeled = labeled_posets(d)
        assert len(labeled) == LABELED[d]
        keys = {p.canonical_key() for p in labeled}
        mine = {p.canonical_key() for p in cached_classes(d)}
        assert keys == mine
        assert len(mine) == ISO_CLASSES[d]

    @pytest.mark.parametrize("d", [6, 7])
    def test_larger_counts(self, d):
        assert len(cached_classes(d)) == ISO_CLASSES[d]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_representatives_pairwise_nonisomorphic(self, d):
        reps = cached_classes(d)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not brute_isomorphic(reps[i], reps[j])

    @pytest.mark.parametrize("d,total", [(4, 219), (5, 4231), (6, 130023)])
    def test_orbit_count_identity(self, d, total):
        # sum of orbit sizes d!/|Aut| equals the labeled count: this forces
        # the class list to be complete and duplicate-free
        assert _orbit_sum(d) == total

    @pytest.mark.slow
    def test_orbit_count_identity_d7(self):
        assert _orbit_sum(7) == 6129859

    @pytest.mark.slow
    def test_orbit_count_identity_d8(self):
        assert _orbit_sum(8) == 431723379  # OEIS A001035


def _children(p):
    """The children _extensions yields, as Posets."""
    return [Poset(p.d + 1, above) for above, _ in _extensions(p._above, p.lower_masks())]


def _digest(rows):
    """sha256 over the repr of each row, in order."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


class TestMaximalElementExtension:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_new_element_is_maximal_with_largest_down_set(self, d):
        new = d + 1
        for p in cached_classes(d):
            for above, below in _extensions(p._above, p.lower_masks()):
                child = Poset(new, above)
                assert child._above[new] == 0
                lower = child.lower_masks()
                assert below == lower
                size = lower[new].bit_count()
                for m in child.maximal_elements:
                    assert lower[m].bit_count() <= size

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_deleting_a_largest_maximal_element_lands_in_the_level_below(self, d):
        # the rule that makes the extension complete: every labelled poset
        # loses a maximal element with the largest down-set to a known class
        keys = {p.canonical_key() for p in cached_classes(d - 1)}
        for q in labeled_posets(d):
            lower = q.lower_masks()
            m = max(q.maximal_elements, key=lambda i: lower[i].bit_count())
            rest = [i for i in q.elements if i != m]
            label = {old: new for new, old in enumerate(rest, start=1)}
            pairs = [(label[i], label[j]) for i in rest for j in rest if q.less(i, j)]
            assert Poset.from_cover_relations(d - 1, pairs).canonical_key() in keys

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_ideals_equal_the_subset_filter(self, d):
        # each class as enumerated, whose index order is a linear
        # extension, and under a random relabelling, which need not be one
        rng = random.Random(d)
        for p in cached_classes(d):
            q = relabel(p, [0, *rng.sample(range(1, d + 1), d)])
            for parent in (p, q):
                assert _children(parent) == twin_prefix(parent, filtered_extensions(parent))

    def test_children_pinned_d7(self):
        # digest computed with the extension that filtered a table of the
        # down-set closures of all 2^d subsets
        children = [child for p in first_seen_classes(7)
                    for child in _extensions(p._above, p.lower_masks())]
        assert len(children) == 19622
        assert _digest(children) == (
            "7c6b74ffee8ad81e85fc3842eb9fa5c1ed35a36f4bc8eafa09212a5be7e94286"
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_twin_skip_drops_only_repeats(self, d):
        # a child whose ideal takes a twin without the twin before it has
        # the key of a child that comes earlier among its parent's children,
        # on every child with at most 7 elements
        dropped = 0
        for p in cached_classes(d):
            children = filtered_extensions(p)
            kept = set(twin_prefix(p, children))
            earlier = set()
            for child in children:
                if child in kept:
                    earlier.add(child.canonical_key())
                else:
                    dropped += 1
                    assert child.canonical_key() in earlier
        assert dropped == {1: 0, 2: 1, 3: 5, 4: 23, 5: 112, 6: 653}[d]

    @pytest.mark.slow
    def test_d8_class_count(self):
        assert len(cached_classes(8)) == 16999  # OEIS A000112

    @pytest.mark.slow
    def test_d8_duality_count(self):
        # the census's d = 8 poset row
        assert len(quotient_by_duality(cached_classes(8))) == 8746


class TestUnsupportedSize:
    @pytest.mark.parametrize("d", [0, 10])
    def test_poset_classes(self, d):
        # one size check guards both levels
        for level in (poset_classes, pair_representatives):
            with pytest.raises(UnsupportedSize,
                               match=f"^enumeration supports 1 <= d <= 9, got {d}$"):
                level(d)

    def test_build_table_raises_a_value_error(self):
        with pytest.raises(UnsupportedSize) as info:
            build_table(10)
        assert isinstance(info.value, ValueError)

    def test_cli_exit_code(self):
        from posetfano.cli import main
        assert main(["table", "--max-d", "10", "--jobs", "1"]) == 1


class TestDualityQuotient:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 12, 5: 39, 6: 184, 7: 1082}
        for d, n in expected.items():
            assert len(quotient_by_duality(cached_classes(d))) == n

    def test_self_dual_consistency_d5(self):
        reps = cached_classes(5)
        self_dual = sum(
            1 for p in reps
            if p.canonical_key() == p.dual().canonical_key()
        )
        assert self_dual == 15
        assert (len(reps) + self_dual) // 2 == 39


@pytest.fixture
def dual_key_calls(monkeypatch):
    """Counts serial calls of enumeration.masks_key.  Levels 7 and 8 are
    walked and cached first, and a level's keys are set, so over a
    cached level every call counted is a dual key."""
    cached_classes(7)
    cached_classes(8)
    calls = []
    real = enumeration.masks_key

    def counted(above, below):
        calls.append((above, below))
        return real(above, below)

    monkeypatch.setattr(enumeration, "masks_key", counted)
    return calls


class TestLocalQuotient:
    @pytest.mark.parametrize("d", [
        1, 2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    def test_one_member_of_every_pair(self, d):
        # kept keys and their duals' keys cover the level, and overlap
        # only in the self-dual classes
        keys = {p.canonical_key() for p in cached_classes(d)}
        kept = quotient_by_duality(cached_classes(d))
        kept_keys = {p.canonical_key() for p in kept}
        dual_keys = {p.dual().canonical_key() for p in kept}
        self_dual = {p.canonical_key() for p in kept
                     if p.canonical_key() == p.dual().canonical_key()}
        assert kept_keys | dual_keys == keys
        assert kept_keys & dual_keys == self_dual

    def test_decision_ignores_the_rest_of_the_input(self):
        rng = random.Random(61)
        shuffled = list(cached_classes(6))
        rng.shuffle(shuffled)
        duplicated = list(cached_classes(5))
        duplicated.insert(7, duplicated[3])
        v = Poset.from_cover_relations(3, [(1, 2), (1, 3)])
        cases = [
            shuffled,
            list(cached_classes(6))[::2],  # half a level: partners missing
            [v],  # its dual partner is absent and its degrees sort higher
            [v.dual()],
            duplicated,
            [],
        ]
        for posets in cases:
            alone = [p for p in posets if quotient_by_duality([p])]
            assert quotient_by_duality(posets) == alone

    def test_relabelings_get_the_same_decision(self):
        rng = random.Random(67)
        for p in cached_classes(6):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            q = relabel(p, [0] + perm)
            assert bool(quotient_by_duality([q])) == bool(quotient_by_duality([p]))

    def test_dual_keys_computed_d7(self, dual_key_calls):
        assert len(quotient_by_duality(cached_classes(7))) == 1082
        assert len(dual_key_calls) == 125

    @pytest.mark.slow
    def test_dual_keys_computed_d8(self, dual_key_calls):
        assert len(quotient_by_duality(cached_classes(8))) == 8746
        assert len(dual_key_calls) == 543

    def test_dual_key_is_the_key_of_the_dual(self):
        # _keeps swaps the masks instead of building p.dual()
        for d in range(1, 8):
            for p in cached_classes(d):
                assert canonical.masks_key(p.lower_masks(), p._above) == (
                    p.dual().canonical_key()), p

    # digests of the keys of the kept members, in order, computed with
    # the rule split over _sizes_order, _represents_its_pair and _dual_key;
    # which member of a pair is kept decides the files
    # `enumerate --up-to-duality --emit` writes
    def test_kept_members_pinned(self):
        kept = [p.canonical_key() for d in range(1, 8)
                for p in quotient_by_duality(cached_classes(d))]
        assert len(kept) == 1324
        assert _digest(kept) == (
            "c8922f44af918a5e3509635fefb556a97891d5e1b558918842eff46e846533c9"
        )

    @pytest.mark.slow
    def test_kept_members_pinned_d8(self):
        kept = [p.canonical_key() for p in quotient_by_duality(cached_classes(8))]
        assert len(kept) == 8746
        assert _digest(kept) == (
            "b8b73aa58fffd189d7ef9983731e32a1d6bef27ae4c5535c473ec5e91911a436"
        )


class TestDeterminism:
    # digests of the key and upper masks of every stored representative,
    # in order, computed with the extension that filtered a table of the
    # down-set closures of all 2^d subsets
    def test_stored_levels_pinned(self):
        levels = [(p.canonical_key(), p._above)
                  for d in range(1, 8) for p in first_seen_classes(d)]
        assert len(levels) == 2450
        assert _digest(levels) == (
            "a0b05a92e2fab20f802c640cdda851be0282d79a61efd5f967999233b531e432"
        )

    @pytest.mark.slow
    def test_stored_level_pinned_d8(self):
        level = [(p.canonical_key(), p._above) for p in first_seen_classes(8)]
        assert len(level) == 16999
        assert _digest(level) == (
            "6e4880a3d2344d7f61a07d78bd678a3a60982a53e1fb933c4cf8e7f76878df2b"
        )


class TestWalkedLevels:
    @pytest.mark.parametrize("d", [
        1, 2, 3, 4, 5, 6, 7,
        pytest.param(8, marks=pytest.mark.slow)])
    def test_keys_equal_the_first_seen_classes(self, d):
        assert [p.canonical_key() for p in cached_classes(d)] == [
            p.canonical_key() for p in first_seen_classes(d)]

    # digests of the key and upper masks of every class the walk gives,
    # in order, taken once its keys equalled the first-seen generator's;
    # the members differ from first_seen_classes' in 2 classes at d = 5,
    # 33 at d = 6, 446 at d = 7 and 6108 at d = 8
    def test_walked_levels_pinned(self):
        levels = [(p.canonical_key(), p._above)
                  for d in range(1, 8) for p in cached_classes(d)]
        assert len(levels) == 2450
        assert _digest(levels) == (
            "4945ea628d650681b8372dd03d01eb444f7d02234b1250aa5be389e47802b889"
        )

    @pytest.mark.slow
    def test_walked_level_pinned_d8(self):
        level = [(p.canonical_key(), p._above) for p in cached_classes(8)]
        assert len(level) == 16999
        assert _digest(level) == (
            "ee2173966708d5d291fb1bd90c2499d9540612b3c62ca36957ded0f0869bb47b"
        )

    def test_a_repeated_node_is_a_member(self, monkeypatch):
        # a generator fault that yields a class twice shows in the level
        # rather than being merged by key
        real, repeated = enumeration._accepted, []

        def repeating(parent, top):
            for child, path in real(parent, top):
                yield child, path
                if len(child[1]) == 5 and not repeated:
                    repeated.append(child)
                    yield child, path

        monkeypatch.setattr(enumeration, "_accepted", repeating)
        assert len(poset_classes(4)) == 17  # the 16 classes, one of them twice

    def test_each_call_walks_afresh(self):
        # a level lives as long as its caller holds it: no call returns
        # the level an earlier call gave
        for level in (poset_classes, pair_representatives):
            first, second = level(5), level(5)
            assert first == second
            assert first is not second


class TestSmoothCounting:
    def test_smooth_is_duality_invariant_so_count_is_well_defined(self):
        for d in range(1, 7):
            for p in cached_classes(d):
                assert classify(p).smooth == classify(p.dual()).smooth

    def test_parallel_matches_serial(self, pool):
        reps = quotient_by_duality(cached_classes(5))
        serial = count_smooth(reps)
        parallel = count_smooth(reps, pool=pool)
        assert serial == parallel


class TestBuildTable:
    def test_small_table(self):
        rows = build_table(4)
        assert [(r.d, r.posets) for r in rows] == [(1, 1), (2, 2), (3, 4), (4, 12)]
        assert [r.smooth for r in rows] == [1, 2, 3, 6]

    def test_csv_streaming_and_resume(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = build_table(3, out=str(out))
        assert read_table(str(out)) == rows
        # resume: reuse the three finished rows, add d=4 only
        resumed = build_table(4, out=str(out), resume=True)
        assert resumed[:3] == rows
        assert read_table(str(out)) == resumed

    def test_overwrite_without_resume(self, tmp_path):
        out = tmp_path / "rows.csv"
        build_table(2, out=str(out))
        rows = build_table(3, out=str(out))
        assert read_table(str(out)) == rows

    def test_hat_triangle_free_exhaustive_d6(self):
        for d in range(1, 7):
            for p in cached_classes(d):
                h = p.hat()
                und = {frozenset(e) for e in h.edges}
                for x, y in h.edges:
                    common = {
                        z for z in range(h.d + 2)
                        if frozenset((x, z)) in und and frozenset((y, z)) in und
                    }
                    assert not common

    def test_vector_injectivity_and_zero_sums_exhaustive_d6(self):
        from posetfano import build_vertex_set, maximal_chain_vector_sum
        for d in range(1, 7):
            for p in cached_classes(d):
                h = p.hat()
                vs = build_vertex_set(h)
                assert len(set(vs.vectors)) == len(h.edges)
                for c in h.maximal_chains():
                    assert maximal_chain_vector_sum(h, c) == (0,) * d


def _masks(posets):
    return [m for p in posets for m in p._above]


@pytest.fixture
def counting(monkeypatch):
    """Executors enumeration opens, and (executor, function) per map call."""
    opened, used = [], []

    class Counting(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            used.append((self, fn.__name__))
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Counting)
    return opened, used


class TestSharedPool:
    def test_parent_sets_the_fresh_key(self):
        for d in range(2, 8):
            for p in poset_classes(d):
                assert p._key == canonical.canonical_key(p)

    def test_table_rows_match_serial(self):
        serial = build_table(7, jobs=1)
        assert build_table(7, jobs=2) == serial
        assert [r.posets for r in serial] == [1, 2, 4, 12, 39, 184, 1082]
        # this code's smooth row; acceptance 1-2 pin the reference's 31/83
        assert [r.smooth for r in serial] == [1, 2, 3, 6, 12, 32, 88]

    @pytest.mark.parametrize("jobs,executors,mapped", [
        (1, 0, set()),
        (2, 1, {"_subtree", "_smooth_flag"}),
    ])
    def test_one_executor_per_table(self, jobs, executors, mapped, counting):
        opened, used = counting
        assert [r.smooth for r in build_table(5, jobs=jobs)] == [1, 2, 3, 6, 12]
        assert len(opened) == executors
        assert {name for _, name in used} == mapped

    def test_cross_check_shares_its_executor(self, counting, capsys):
        from posetfano import cli
        opened, used = counting
        assert cli.main(["cross-check", "--d", "4", "--jobs", "2"]) == 0
        assert "16 classes, 0 disagreements" in capsys.readouterr().out
        assert len(opened) == 1
        assert {name for _, name in used} == {"find_disagreement"}
        assert all(executor is opened[0] for executor, _ in used)


@pytest.fixture
def opened(monkeypatch):
    """The worker counts of the pools worker_pool opens, recorded by a
    fake: no process is started."""
    opened = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", opened.append)
    return opened


class TestWorkerPool:
    @pytest.mark.parametrize("jobs,cpus,workers", [
        (100000, 4, 4), (3, 4, 3), (2, None, 1), (4, 1, 1), (2, 1, 1)])
    def test_at_most_one_worker_per_cpu(self, jobs, cpus, workers, opened, monkeypatch):
        # cpus is the number of CPUs the process may run on, out of 64 on
        # the machine; None stands for a platform without CPU affinity
        # whose CPU count is unknown
        if cpus is None:
            monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
        pool = enumeration.worker_pool(jobs)
        if workers > 1:
            assert opened == [workers]
        else:  # a one-worker pool would only add pickling: run serially
            assert opened == [] and isinstance(pool, nullcontext)

    def test_without_cpu_affinity_the_cpu_count_caps(self, opened, monkeypatch):
        monkeypatch.delattr(enumeration.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
        enumeration.worker_pool(4)
        assert opened == [3]

    def test_cross_check_validates_before_it_opens_a_pool(self, opened, monkeypatch, capsys):
        from posetfano import cli
        monkeypatch.setattr(enumeration.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        assert cli.main(["cross-check", "--d", "0", "--jobs", "2"]) == 1
        assert "error: enumeration supports 1 <= d" in capsys.readouterr().err
        assert opened == []


class TestTopRow:
    def test_equals_the_stored_pair_representatives(self):
        for d in range(1, 8):
            top = pair_representatives(d)
            quotient = quotient_by_duality(cached_classes(d))
            assert _masks(top) == _masks(quotient)
            assert [p._key for p in top] == [p._key for p in quotient]

    @pytest.mark.slow
    def test_equals_the_quotient_d8(self):
        top = pair_representatives(8)
        quotient = quotient_by_duality(cached_classes(8))
        assert _masks(top) == _masks(quotient)
        assert [p._key for p in top] == [p._key for p in quotient]

    @pytest.mark.slow
    def test_d9_row(self):
        row = build_table(9, jobs=2)[-1]
        assert (row.d, row.posets, row.smooth) == (9, 92376, 1138)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_table_leaves_its_last_level_unstored(self, jobs):
        rows = build_table(6, jobs=jobs)
        assert [r.posets for r in rows] == [1, 2, 4, 12, 39, 184]
        assert len(poset_classes(6)) == ISO_CLASSES[6]
        assert len(pair_representatives(6)) == 184

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("done", [4, 6])
    def test_resume_gives_the_same_rows(self, jobs, done, tmp_path):
        serial = build_table(7)
        out = str(tmp_path / "rows.csv")
        build_table(done, out=out)
        assert build_table(7, jobs=jobs, out=out, resume=True) == serial
        assert read_table(out) == serial


class TestSquareFlag:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    def test_a_low_square_passes_to_every_child(self, d):
        # a low square misses the top: its edges are covers and edges from
        # the bottom, which a new maximal element keeps
        low_parents = 0
        for parent in cached_classes(d - 1):
            if any(y != d for *_, y in hasse_squares(parent._above)):
                low_parents += 1
                for above, _ in _extensions(parent._above, parent.lower_masks()):
                    assert next(hasse_squares(above), None) is not None, parent
        assert low_parents > 0 if d > 3 else low_parents == 0
        if d == 8:
            assert low_parents == 1637

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
    def test_worker_flags_exactly_the_squared_children(self, d):
        # the subtree below each parent, one level deep, against the
        # children _accepted gives, with squares tested here
        classes = flagged = 0
        for parent in cached_classes(d - 1):
            accepted = [child[1] for child, _ in enumeration._accepted(_node(parent), True)]
            squared = [next(hasse_squares(above), None) is not None for above in accepted]
            low = any(y != d for *_, y in hasse_squares(parent._above))
            count, free = enumeration._subtree((_node(parent), low, d)).get(d, (0, []))
            assert count == len(accepted), parent
            assert free == [above for above, sq in zip(accepted, squared) if not sq], parent
            classes += count
            flagged += sum(squared)
        assert 0 < classes and flagged < classes
        if d == 8:
            assert classes == 8746

    @pytest.mark.parametrize("d,posets,smooth,square_free", [
        (7, 1082, 88, 125),
        pytest.param(8, 8746, 302, 547, marks=pytest.mark.slow),
    ])
    def test_top_row_classifies_only_the_square_free_classes(
            self, d, posets, smooth, square_free, monkeypatch):
        handed, lines = [], []

        def recording(reps, *, pool=None):
            handed.append(reps)
            return count_smooth(reps, pool=pool)

        monkeypatch.setattr(enumeration, "count_smooth", recording)
        row = build_table(d, log=lines.append)[-1]
        assert (row.posets, row.smooth) == (posets, smooth)
        # every row, one call each in order, hands over its square-free pair classes
        assert len(handed) == d
        for size, reps in enumerate(handed, start=1):
            want = [p for p in quotient_by_duality(cached_classes(size))
                    if next(hasse_squares(p._above), None) is None]
            assert sorted(p.canonical_key() for p in reps) == sorted(p._key for p in want)
        assert len(handed[-1]) == square_free
        assert f"classifying {square_free} square-free of {posets} representatives " \
            f"at d={d}" in lines
        assert [len(reps) for reps in handed[:-1]] == [1, 2, 3, 6, 13, 37, 125][:d - 1]


def _node(p):
    """A deletion-tree node for the poset p, its key not yet computed."""
    return [None, p._above, p.lower_masks()]


def _accepted_keys(parent):
    """Canonical keys, computed here, of the children _accepted gives for
    parent at the top; module level, so a pool worker can run it."""
    return [canonical.masks_key(above, Poset(parent.d + 1, above).lower_masks())
            for (_, above, _), _ in enumeration._accepted(_node(parent), True)]


class TestCanonicalDeletion:
    @pytest.mark.parametrize("use_pool", [False, True])
    @pytest.mark.parametrize("d", [
        2, 3, 4, 5, 6, 7,
        pytest.param(8, marks=pytest.mark.slow)])
    def test_each_pair_class_is_accepted_once(self, d, use_pool, pool):
        parents = cached_classes(d - 1)
        keys = [key for batch in pool_map(_accepted_keys, parents, pool if use_pool else None)
                for key in batch]
        want = [p.canonical_key() for p in quotient_by_duality(cached_classes(d))]
        assert len(keys) == len(set(keys)) == len(want)
        assert sorted(keys) == sorted(want)

    def test_every_decision_path_is_taken(self):
        # unique deletable, invariant win, rival-key tie ("keys", or
        # "tied" when a rival's deletion has the parent's key), pair tie,
        # and the per-parent comparison, which drops repeats
        paths, dropped = Counter(), 0
        for d in range(2, 8):
            for parent in cached_classes(d - 1):
                got = [path for _, path in enumeration._accepted(_node(parent), True)]
                paths.update(word for path in got for word in path.split())
                passed = sum(
                    enumeration._deletion(above, below, _node(parent),
                                          enumeration._invariant(above, below, d)) is not None
                    for above, below in _extensions(parent._above, parent.lower_masks())
                    if enumeration._keeps([None, above, below]))
                dropped += passed - len(got)
        assert all(paths[word] > 0 for word in (
            "unique", "invariant", "keys", "tied", "pair", "dedup")), paths
        assert dropped == 40 + 7 + 1, dropped  # at d = 7, 6, 5; none at d <= 4

    def test_a_tied_child_is_compared_though_the_parent_has_only_twin_swaps(self):
        # the one d = 8 class whose children repeat a d = 9 class through a
        # rival deletion with the parent's key, though its refinement is
        # the twin groups
        parent = Poset.from_cover_relations(8, [
            (1, 5), (1, 6), (1, 7), (2, 5), (3, 6), (3, 8), (4, 7), (5, 8)])
        assert canonical.twin_discrete(parent._above, parent.lower_masks())
        paths = [path for _, path in enumeration._accepted(_node(parent), True)]
        assert "tied dedup" in paths
        keys = _accepted_keys(parent)
        assert len(keys) == len(set(keys)) == 19

    def test_deleting_an_element_renumbers_the_rest(self):
        p = Poset.from_cover_relations(4, [(1, 3), (2, 3), (3, 4)])
        for x in p.elements:
            q = Poset(3, enumeration._deleted(p._above, x))
            assert q.lower_masks() == enumeration._deleted(p.lower_masks(), x)
            rest = [i for i in p.elements if i != x]
            assert all(q.less(a + 1, b + 1) == p.less(rest[a], rest[b])
                       for a in range(3) for b in range(3))


def _walked(job):
    """(size, key computed here, whether _keeps keeps it, square-free
    flag, whether a Hasse square is found here) of each node
    ``_walk(*job)`` gives; module level, so a pool worker can run it."""
    return [(len(node[1]) - 1, canonical.masks_key(node[1], node[2]),
             enumeration._keeps([None, node[1], node[2]]), free,
             next(hasse_squares(node[1]), None) is not None)
            for node, _, free in enumeration._walk(*job)]


@pytest.fixture
def key_calls(monkeypatch):
    """Every call of masks_key, the enumeration's and the canonical
    module's (which canonical_key calls), in this process."""
    calls = []
    for module in (enumeration, canonical):
        def counted(above, below, real=module.masks_key):
            calls.append(above)
            return real(above, below)
        monkeypatch.setattr(module, "masks_key", counted)
    return calls


class TestDeletionTree:
    @pytest.mark.parametrize("use_pool", [False, True])
    @pytest.mark.parametrize("d", [
        2, 3, 4, 5, 6, 7,
        pytest.param(8, marks=pytest.mark.slow)])
    def test_each_class_is_one_node(self, d, use_pool, pool):
        # the top is d + 1, so every size up to d is internal: one node
        # per class, against the first-seen generator.  As in build_table,
        # sizes up to k are walked here and the subtrees below the nodes of
        # size k over the pool, the nodes carrying the keys found so far
        k = max(d - 2, 1)
        root = [None, (0, 0), (0, 0)]
        near = [(root, False), *((node, low) for node, low, _ in
                                 enumeration._walk(root, False, k, d + 1))]
        walked = _walked((root, False, k, d + 1))
        jobs = [(node, low, d, d + 1) for node, low in near if len(node[1]) == k + 1]
        for batch in pool_map(_walked, jobs, pool if use_pool else None):
            walked += batch
        assert all(free != squared for *_, free, squared in walked)
        for size in range(2, d + 1):
            keys = [key for n, key, *_ in walked if n == size]
            assert len(keys) == len(set(keys)) == len(first_seen_classes(size))
            assert sorted(keys) == sorted(p.canonical_key() for p in first_seen_classes(size))
            pairs = [key for n, key, pair, *_ in walked if n == size and pair]
            assert sorted(pairs) == sorted(
                p.canonical_key() for p in quotient_by_duality(first_seen_classes(size)))

    @pytest.mark.parametrize("d,budget", [(7, 700), pytest.param(8, 3300, marks=pytest.mark.slow)])
    def test_keys_are_computed_only_when_needed(self, d, budget, key_calls):
        # keying every class below the top takes 904 calls at d = 7 and 5067 at d = 8
        rows = build_table(d, jobs=1)
        assert [r.posets for r in rows] == [1, 2, 4, 12, 39, 184, 1082, 8746][:d]
        assert 0 < len(key_calls) <= budget


class TestStreamedMerge:
    @pytest.mark.parametrize("items, use_pool", [
        ([3, 1, 2], False), ([5], False), ([5], True)])
    def test_pool_map_calls_fn_only_as_results_are_read(self, items, use_pool, pool):
        calls = []

        def fn(x):
            calls.append(x)
            return -x

        results = pool_map(fn, items, pool if use_pool else None)
        assert calls == []
        assert next(results) == -items[0] and calls == items[:1]
        assert list(results) == [-x for x in items[1:]] and calls == items

    def test_pool_map_yields_in_input_order_over_a_pool(self, pool):
        items = [-x for x in range(40)]
        results = pool_map(abs, items, pool)
        assert iter(results) is results  # an iterator, not a built list
        assert next(results) == 0
        assert list(results) == list(range(1, 40))

    @pytest.mark.slow
    def test_level_holds_one_int_per_mask_value(self):
        # masks of d = 8 reach 510, past the interpreter's small-int cache,
        # and each child's masks are fresh ints
        masks = [m for p in poset_classes(8) for m in p._above]
        assert max(masks) > 256
        assert len({id(m) for m in masks}) == len(set(masks))
