import itertools
import random

import pytest

from conftest import complete_sym, cycle_sym, digraph, mixed_cases, no_relation, path_sym
from homcount import cklogic, lovasz
from homcount.cklogic import (
    TREEWIDTH_SIZE_CAP,
    TreeDecomposition,
    ck_profile_equal,
    enumerate_tw_lt_k,
    is_connected,
    tree_decomposition,
    treewidth,
    wl_equivalent,
)
from homcount.errors import CapExceededError
from homcount.homsearch import hom_count
from homcount.sigstruct import (
    GRAPH_SIGNATURE,
    Signature,
    Structure,
    are_isomorphic,
    canonical_form,
)
from oracles import (
    brute_treewidth,
    filter_first_tw_lt_k,
    gaifman_connected,
    is_valid_decomposition,
)


def random_digraph(rng, n, p=0.35):
    return digraph(n, {(i, j) for i in range(n) for j in range(n)
                       if rng.random() < p})


def undirected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        arcs = {(x, y) for x, y in chosen} | {(y, x) for x, y in chosen}
        yield digraph(n, arcs)


def test_treewidth_trivial_cases(point, loop_point):
    assert treewidth(point) == 0
    assert treewidth(loop_point) == 0
    assert treewidth(no_relation(4)) == 0
    assert treewidth(no_relation(0)) == 0


def test_treewidth_trees_are_one():
    assert treewidth(path_sym(2)) == 1
    assert treewidth(path_sym(5)) == 1
    star = digraph(4, {(0, 1), (0, 2), (0, 3)})
    assert treewidth(star) == 1


def test_treewidth_k3_and_c4(k3):
    assert treewidth(k3) == 2
    assert treewidth(cycle_sym(4)) == 2


def test_treewidth_k4_and_k5():
    assert treewidth(complete_sym(4)) == 3
    assert treewidth(complete_sym(5)) == 4


def test_treewidth_matches_brute_force():
    rng = random.Random(67)
    for n in (1, 2, 3, 4, 5):
        for _ in range(8):
            a = random_digraph(rng, n, 0.45)
            assert treewidth(a) == brute_treewidth(a)


def test_treewidth_higher_arity_signature():
    sig = Signature((("R", 3),))
    a = Structure.build(sig, 4, {"R": {(0, 1, 2), (1, 2, 3)}})
    assert treewidth(a) == 2


def test_treewidth_cap():
    with pytest.raises(CapExceededError):
        treewidth(no_relation(11))


def test_treewidth_at_the_cap():
    assert treewidth(cycle_sym(TREEWIDTH_SIZE_CAP)) == 2


def test_tree_decomposition_is_valid_and_optimal():
    rng = random.Random(71)
    cases = [complete_sym(4), cycle_sym(5), path_sym(4), no_relation(3)]
    cases += [random_digraph(rng, n) for n in (2, 3, 4, 5) for _ in range(4)]
    for a in cases:
        td = tree_decomposition(a)
        assert is_valid_decomposition(a, td)
        assert td.width == treewidth(a)


def test_the_empty_structure_is_not_connected_and_has_no_bags():
    assert is_connected(no_relation(0)) is False
    assert tree_decomposition(no_relation(0)) == TreeDecomposition((), (), 0)


def test_tree_width_layer_matches_the_oracles_on_mixed_arity():
    # connectivity, exact width and a valid optimal decomposition, over
    # E/2 R/3 and U/1 T/3 structures of 0 to 7 elements with loops
    for s in mixed_cases(197):
        assert is_connected(s) == gaifman_connected(s)
        width = treewidth(s)
        assert width == brute_treewidth(s)
        td = tree_decomposition(s)
        assert is_valid_decomposition(s, td)
        assert td.width == width


def test_enumerate_tw_lt_1():
    got = enumerate_tw_lt_k(GRAPH_SIGNATURE, 1, 3)
    assert len(got) == 2  # the bare point and the looped point: tw 0, connected
    assert {s.size for s in got} == {1}


def test_enumerate_tw_lt_2_undirected_preset():
    got = enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 3, undirected=True)
    # point, 2-path, 3-path: the trees on <= 3 vertices
    assert len(got) == 3
    assert [s.size for s in got] == [1, 2, 3]
    assert are_isomorphic(got[1], path_sym(2))
    assert are_isomorphic(got[2], path_sym(3))


def test_k3_excluded_at_k2_included_at_k3(k3):
    at_2 = enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 3)
    assert not any(are_isomorphic(s, k3) for s in at_2)
    at_3 = enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 3)
    assert any(are_isomorphic(s, k3) for s in at_3)


def test_enumerate_tw_fast_path_matches_generic_path():
    # The decorated-tree walk at k = 2 agrees with subset enumeration + filter.
    sig_other = Signature((("F", 2),))
    for n in (1, 2, 3):
        fast = enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, n)
        generic = [
            s
            for s in enumerate_tw_lt_k(Signature((("E", 2),)), 3, n)
            if treewidth(s) < 2
        ]
        assert sorted(canonical_form(s) for s in fast) == sorted(
            canonical_form(s) for s in generic
        )
        assert len(set(canonical_form(s) for s in fast)) == len(fast)


def test_tree_levels_carry_the_signature_they_were_asked_for():
    # any one binary symbol takes the k = 2 tree walk, and its tests must be
    # over that symbol, or counting them into the subjects is refused
    f = Signature((("F", 2),))
    for undirected in (False, True):
        got = enumerate_tw_lt_k(f, 2, 3, undirected)
        assert {s.signature for s in got} == {f}
        assert [s.relations for s in got] == \
            [s.relations for s in enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 3, undirected)]


@pytest.mark.parametrize("k, budget, undirected",
                         [(3, 4, True), (3, 5, True), (4, 5, True), (3, 3, False)])
def test_enumerate_tw_lt_k_matches_the_filter_first_reference(k, budget, undirected):
    # the catalogue is canonicalised before it is filtered; the reference
    # filters the raw candidates first
    assert (enumerate_tw_lt_k(GRAPH_SIGNATURE, k, budget, undirected)
            == filter_first_tw_lt_k(GRAPH_SIGNATURE, k, budget, undirected))


def test_enumerate_tw_lt_k_cap_counts_the_candidates_it_enumerates(monkeypatch):
    # undirected: 2^0 + 2^1 + 2^3 + 2^6 = 75 candidates through size 4
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    full = enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 4, undirected=True)
    monkeypatch.setenv("HOMCOUNT_CAP", "74")
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 4, undirected=True)
    assert err.value.count == 75
    assert "through size 4" in str(err.value)
    monkeypatch.setenv("HOMCOUNT_CAP", "75")
    assert enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 4, undirected=True) == full
    # directed: 2^1 + 2^4 = 18 candidates through size 2
    monkeypatch.setenv("HOMCOUNT_CAP", "17")
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 2)
    assert err.value.count == 18
    assert "through size 2" in str(err.value)
    # a point with or without a loop, and the 7 connected 2-element digraphs
    monkeypatch.setenv("HOMCOUNT_CAP", "18")
    assert len(enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 2)) == 9


def test_tree_walk_counts_its_candidates_against_the_cap(monkeypatch):
    # directed k = 2 levels: free trees times 3^(edges) orientations times
    # 2^n loop sets, i.e. 2, 12, 72, 864, 7,776, 93,312, 1,026,432
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    full = enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 4)
    monkeypatch.setenv("HOMCOUNT_CAP", "949")
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 4)
    assert err.value.count == 950
    assert "through size 4 spans 950 candidate structures, exceeding cap 949" \
        in str(err.value)
    monkeypatch.setenv("HOMCOUNT_CAP", "950")
    assert enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 4) == full
    monkeypatch.delenv("HOMCOUNT_CAP")
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 7)
    assert err.value.count == 1_128_470
    # undirected levels count their rooted trees: 37 through size 6
    assert len(enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 6, undirected=True)) == 14
    monkeypatch.setenv("HOMCOUNT_CAP", "36")
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 6, undirected=True)
    assert err.value.count == 37


def test_tree_levels_are_built_once_per_process(monkeypatch):
    # Every level is cached, the k = 2 tree levels like the filtered
    # catalogue levels, so a second walk canonicalises and filters nothing.
    cases = [(GRAPH_SIGNATURE, 2, 5, False), (GRAPH_SIGNATURE, 2, 5, True),
             (GRAPH_SIGNATURE, 3, 5, True), (GRAPH_SIGNATURE, 3, 3, False),
             (Signature((("E", 2), ("R", 3))), 2, 2, False)]
    first = [enumerate_tw_lt_k(*case) for case in cases]
    calls = []
    for module, name in ((cklogic, "_catalogue"), (lovasz, "_catalogue"),
                         (cklogic, "is_connected"), (cklogic, "treewidth")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda arg, real=real, name=name:
                            calls.append(name) or real(arg))
    assert [enumerate_tw_lt_k(*case) for case in cases] == first
    assert calls == []


def test_the_cap_is_checked_before_any_level_is_built(monkeypatch):
    # directed, through size 5: 2 + 16 + 512 + 65,536 + 2^25 candidates,
    # refused before levels 1 to 4 are built
    def unbuilt(*args, **kwargs):
        raise AssertionError("a level was built before the cap was checked")

    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    cklogic._tw_level.cache_clear()
    monkeypatch.setattr(cklogic, "_structures_of_size", unbuilt)
    with pytest.raises(CapExceededError) as err:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 5)
    assert err.value.count == 33_620_498
    assert "through size 5" in str(err.value)


@pytest.mark.parametrize("k, budget, undirected, cap", [
    (3, 4, True, 74), (2, 4, False, 949), (2, 6, True, 36)])
def test_a_cached_level_is_still_counted_against_the_cap(monkeypatch, k, budget,
                                                        undirected, cap):
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    enumerate_tw_lt_k(GRAPH_SIGNATURE, k, budget, undirected)
    monkeypatch.setenv("HOMCOUNT_CAP", str(cap))
    with pytest.raises(CapExceededError) as warm:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, k, budget, undirected)
    cklogic._tw_level.cache_clear()
    with pytest.raises(CapExceededError) as cold:
        enumerate_tw_lt_k(GRAPH_SIGNATURE, k, budget, undirected)
    assert (str(warm.value), warm.value.count) == (str(cold.value), cold.value.count)
    assert warm.value.count == cap + 1


def test_enumerate_tw_lt_k_connected_only():
    for s in enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 4):
        assert is_connected(s)
        assert treewidth(s) < 2


def test_wl_reflexive(k3, c6):
    for a in (k3, c6):
        for k in (2, 3):
            assert wl_equivalent(a, a, k)


def test_wl_c6_vs_two_triangles(c6, two_c3):
    assert wl_equivalent(c6, two_c3, 2) is True
    assert wl_equivalent(c6, two_c3, 3) is False


def test_wl_requires_k_at_least_2(k3):
    with pytest.raises(ValueError):
        wl_equivalent(k3, k3, 1)


def test_wl_distinguishes_sizes():
    assert wl_equivalent(no_relation(2), no_relation(3), 2) is False


def test_wl_monotone_refinement_on_colors():
    # Refinement partitions only get finer: once split, never merged.  Checked
    # via the internal one-dimensional refinement rounds, with the colours
    # relabelled to ints after each round, as wl_equivalent does.
    from homcount.cklogic import _initial_colors_d, _refine_1

    def relabel(c):
        table = {col: i for i, col in enumerate(sorted(set(c.values())))}
        return {x: table[col] for x, col in c.items()}

    def blocks(c):
        out = {}
        for x, col in c.items():
            out.setdefault(col, set()).add(x)
        return sorted(map(sorted, out.values()))

    rng = random.Random(73)
    for _ in range(10):
        a = random_digraph(rng, 5, 0.4)
        colors = relabel({x: c for (x,), c in _initial_colors_d(a, 1).items()})
        for _ in range(6):
            new = relabel(_refine_1(a, colors))
            old_blocks = blocks(colors)
            new_blocks = blocks(new)
            for nb in new_blocks:
                assert any(set(nb) <= set(ob) for ob in old_blocks)
            colors = new


def test_ck_profile_c6_vs_triangles_at_k3(c6, two_c3, k3):
    verdict = ck_profile_equal(c6, two_c3, k=3, budget=3)
    assert verdict.equivalent is False
    assert are_isomorphic(verdict.witness, k3)
    assert verdict.counts == (0, 12)
    assert treewidth(verdict.witness) < 3


def test_ck_profile_c6_vs_triangles_equal_at_k2(c6, two_c3):
    verdict = ck_profile_equal(c6, two_c3, k=2, budget=6, undirected=True)
    assert verdict.equivalent is True
    # closed form: both subjects are 2-regular on 6 vertices, so every tree T
    # admits 6 * 2^edges homomorphisms into each.
    for t in enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 6, undirected=True):
        edges = len(t.relation("E")) // 2
        assert hom_count(t, c6) == 6 * 2**edges
        assert hom_count(t, two_c3) == 6 * 2**edges


def test_ck_profile_c6_vs_triangles_equal_at_k2_directed(c6, two_c3):
    verdict = ck_profile_equal(c6, two_c3, k=2, budget=4)
    assert verdict.equivalent is True


def test_ck_profile_self(k3):
    assert ck_profile_equal(k3, k3, k=2, budget=3).equivalent is True


def test_wl_k3_consistent_with_bounded_profiles_on_small_graphs():
    # Sound direction of the k=3 correspondence on simple graphs <= 4
    # vertices: WL-equivalent pairs must agree on every tree-width-<3 test,
    # and any pair split by such a test must be WL-inequivalent.
    graphs = [g for g in undirected_graphs(3)] + [g for g in undirected_graphs(4)]
    seen = {}
    for g in graphs:
        seen.setdefault(canonical_form(g), g)
    graphs = list(seen.values())
    tests = enumerate_tw_lt_k(GRAPH_SIGNATURE, 3, 3)
    profiles = [tuple(hom_count(t, g) for t in tests) for g in graphs]
    for i, a in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            if wl_equivalent(a, graphs[j], 3):
                assert profiles[i] == profiles[j]
            elif profiles[i] != profiles[j]:
                assert not wl_equivalent(a, graphs[j], 3)


def test_ck_witnesses_have_small_treewidth():
    rng = random.Random(79)
    for _ in range(10):
        a, b = random_digraph(rng, 4), random_digraph(rng, 4)
        for k in (2, 3):
            v = ck_profile_equal(a, b, k=k, budget=3)
            if not v.equivalent:
                assert treewidth(v.witness) < k
                assert hom_count(v.witness, a) == v.counts[0]
                assert hom_count(v.witness, b) == v.counts[1]
