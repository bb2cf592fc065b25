import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_sym, cycle_sym, digraph, no_relation, path_sym
from homcount.errors import SignatureMismatchError
from homcount import homsearch
from homcount.homsearch import _search_plan, count_morphisms, hom_count, iter_hom_maps
from homcount.lovasz import decide_isomorphic_by_counting
from homcount.sigstruct import (
    E_SM,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    disjoint_union,
    validate_morphism,
)
from oracles import naive_count, naive_morphisms

CLS = MorphismClass


MIXED = Signature((("U", 1), ("T", 3)))
BINARY_TERNARY = Signature((("E", 2), ("R", 3)))


def random_digraph(rng, n, p=0.4):
    arcs = {(i, j) for i in range(n) for j in range(n) if rng.random() < p}
    return digraph(n, arcs)


def random_mixed(rng, n, p_u=0.5, p_t=0.15):
    u = {(i,) for i in range(n) if rng.random() < p_u}
    t = {t3 for t3 in itertools.product(range(n), repeat=3) if rng.random() < p_t}
    return Structure.build(MIXED, n, {"U": u, "T": t})


def test_free_point_count(point):
    for a in [no_relation(4), cycle_sym(5), complete_sym(3)]:
        assert hom_count(point, a) == a.size


def test_single_arc_into_k3(single_arc, k3):
    # Frozen from brute force over the 9 maps.
    assert hom_count(single_arc, k3) == 6


def test_k3_self_counts(k3):
    assert count_morphisms(k3, k3, CLS.MONO).count == 6
    assert hom_count(k3, k3) == 6


def test_k3_into_bipartite_c6(k3, c6):
    assert hom_count(k3, c6) == 0


def test_counts_match_naive_oracle_exhaustively():
    rng = random.Random(5)
    structures = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(6)]
    structures += [no_relation(2), digraph(1, {(0, 0)}), cycle_sym(3)]
    for c in structures:
        for a in structures:
            for cls in CLS:
                for system in (SE_M, E_SM):
                    got = count_morphisms(c, a, cls, system).count
                    assert got == naive_count(c, a, cls, system), (c, a, cls, system)


def test_enumeration_matches_naive_maps(single_arc, k3):
    res = count_morphisms(single_arc, k3, CLS.HOM, enumerate_witnesses=True)
    got = sorted(m.map for m in res.witnesses)
    assert got == sorted(naive_morphisms(single_arc, k3))
    assert res.count == len(res.witnesses)
    assert not res.truncated


def test_enumeration_limit_flags_truncation(k3):
    res = count_morphisms(k3, k3, CLS.HOM, enumerate_witnesses=True, limit=2)
    assert res.truncated
    assert len(res.witnesses) == 2
    assert res.count == 6


def test_limit_must_be_positive(k3):
    with pytest.raises(ValueError):
        count_morphisms(k3, k3, limit=0)


def test_signature_mismatch(k3):
    other = Structure.build(Signature((("R", 3),)), 2, {})
    with pytest.raises(SignatureMismatchError):
        count_morphisms(k3, other)


def test_class_count_inequalities():
    rng = random.Random(9)
    for _ in range(25):
        c = random_digraph(rng, rng.randint(1, 3))
        a = random_digraph(rng, rng.randint(1, 3))
        hom = hom_count(c, a)
        mono = count_morphisms(c, a, CLS.MONO).count
        strong = count_morphisms(c, a, CLS.STRONG_MONO).count
        assert strong <= mono <= hom


def test_multiplicativity_over_disjoint_union_size_le_3():
    # hom(c1 + c2, a) = hom(c1, a) * hom(c2, a), deterministic digraph family.
    rng = random.Random(13)
    smalls = [random_digraph(rng, n) for n in (1, 2) for _ in range(5)]
    targets = [random_digraph(rng, 3) for _ in range(6)] + [cycle_sym(3)]
    for c1 in smalls:
        for c2 in smalls:
            for a in targets:
                assert hom_count(disjoint_union(c1, c2), a) == hom_count(
                    c1, a
                ) * hom_count(c2, a)


def test_additivity_for_connected_sources():
    connected = [complete_sym(3), cycle_sym(3), digraph(2, {(0, 1)}),
                 digraph(3, {(0, 1), (1, 2), (2, 0)})]
    rng = random.Random(17)
    targets = [random_digraph(rng, 2), random_digraph(rng, 3), cycle_sym(3)]
    for c in connected:
        for a in targets:
            for b in targets:
                assert hom_count(c, disjoint_union(a, b)) == hom_count(
                    c, a
                ) + hom_count(c, b)


def test_precomposition_with_quotient_is_injective():
    # For a quotient q: c ->> m (either system), h -> h . q is injective from
    # hom(m, a) into hom(c, a); checked on every quotient between family members.
    rng = random.Random(23)
    family = [random_digraph(rng, n) for n in (2, 3) for _ in range(4)]
    targets = [random_digraph(rng, 3) for _ in range(3)]
    checked = 0
    for c in family:
        for m in family:
            for q in itertools.product(range(m.size), repeat=c.size):
                for system in (SE_M, E_SM):
                    if not validate_morphism(q, c, m, CLS.QUOTIENT, system):
                        continue
                    for a in targets:
                        homs_m = naive_morphisms(m, a)
                        composed = {tuple(h[q[x]] for x in range(c.size))
                                    for h in homs_m}
                        assert len(composed) == len(homs_m)
                        checked += 1
    assert checked > 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_iso_invariance_of_counts(data):
    n = data.draw(st.integers(1, 3))
    arcs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    c = digraph(n, arcs)
    m = data.draw(st.integers(1, 3))
    arcs_a = data.draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
    a = digraph(m, arcs_a)
    perm_c = data.draw(st.permutations(range(n)))
    perm_a = data.draw(st.permutations(range(m)))
    c2 = digraph(n, {(perm_c[x], perm_c[y]) for x, y in arcs})
    a2 = digraph(m, {(perm_a[x], perm_a[y]) for x, y in arcs_a})
    for cls in (CLS.HOM, CLS.MONO, CLS.SURJECTION):
        assert count_morphisms(c, a, cls).count == count_morphisms(c2, a2, cls).count


def test_empty_source_and_target():
    empty = no_relation(0)
    pt = no_relation(1)
    assert hom_count(empty, pt) == 1
    assert hom_count(empty, empty) == 1
    assert hom_count(pt, empty) == 0
    assert count_morphisms(empty, pt, CLS.SURJECTION).count == 0
    assert count_morphisms(empty, empty, CLS.SURJECTION).count == 1


def _listing_families():
    rng = random.Random(29)
    binary = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(4)]
    binary += [no_relation(0), digraph(1, {(0, 0)}), cycle_sym(3)]
    mixed = [random_mixed(rng, n) for n in (1, 2, 3) for _ in range(4)]
    mixed += [Structure.build(MIXED, 0, {}),
              Structure.build(MIXED, 2, {"U": {(0,)}, "T": {(0, 0, 1), (1, 1, 1)}})]
    return binary, mixed


def test_listing_is_complete_and_in_plan_order():
    # Both listing paths give each map once, in lexicographic order of its
    # values along the plan's variable order (the order `count --limit` prints).
    for structures in _listing_families():
        for c in structures:
            order = _search_plan(c).order
            for a in structures:
                homs = list(iter_hom_maps(c, a))
                for cls in CLS:
                    for system in (SE_M, E_SM):
                        expected = set(naive_morphisms(c, a, cls, system))
                        listed = [m.map for m in count_morphisms(
                            c, a, cls, system, enumerate_witnesses=True).witnesses]
                        filtered = [f for f in homs
                                    if validate_morphism(f, c, a, cls, system)]
                        for maps in (listed, filtered):
                            assert len(maps) == len(set(maps)) == len(expected)
                            assert set(maps) == expected
                            keys = [tuple(f[x] for x in order) for f in maps]
                            assert keys == sorted(keys), (c, a, cls, system)


def test_long_path_into_k2():
    # 2,000 pattern elements: far deeper than Python's recursion limit.
    path = path_sym(2000)
    k2 = complete_sym(2)
    assert hom_count(path, k2) == 2
    maps = list(iter_hom_maps(path, k2))
    assert len(maps) == 2
    assert {f[:2] for f in maps} == {(0, 1), (1, 0)}


# The classes that count without a reflection check, which the table path
# serves below its size rule.
TABLE_CLASSES = ((CLS.HOM, SE_M), (CLS.MONO, SE_M), (CLS.SURJECTION, SE_M),
                 (CLS.QUOTIENT, E_SM))


def random_structure(rng, signature, n, p):
    """Random tuples over n elements, each symbol with at least one tuple
    that repeats a variable when its arity and n allow it."""
    rels = {}
    for name, arity in signature.symbols:
        tuples = {t for t in itertools.product(range(n), repeat=arity)
                  if rng.random() < p}
        if n and arity > 1:
            x = rng.randrange(n)
            tuples.add((x, x) + tuple(rng.randrange(n) for _ in range(arity - 2)))
        rels[name] = tuples
    return Structure.build(signature, n, rels)


def _table_pairs():
    # (pattern, target) densities: sparse patterns into dense targets, so
    # that the injective and surjective counts are often nonzero too
    density = {Signature((("E", 2),)): (0.3, 0.6), MIXED: (0.03, 0.4),
               BINARY_TERNARY: (0.03, 0.4)}
    pairs = []
    for signature, (p, q) in density.items():
        rng = random.Random(f"table:{signature}")
        for n in range(1, 6):
            for m in range(6):
                pairs.append((random_structure(rng, signature, n, p),
                              random_structure(rng, signature, m, q)))
        # above the size rule: 5^6, 6^5 and 2^13 maps
        for n, m in ((6, 5), (5, 6), (13, 2)):
            pairs.append((random_structure(rng, signature, n, p / 2),
                          random_structure(rng, signature, m, q)))
    return pairs


def test_table_counts_match_naive_oracle():
    below = above = 0
    for c, a in _table_pairs():
        if a.size ** c.size <= homsearch._TABLE_MAPS:
            below += 1
        else:
            above += 1
        for cls, system in TABLE_CLASSES:
            got = count_morphisms(c, a, cls, system).count
            assert got == naive_count(c, a, cls, system), (c, a, cls, system)
    assert below and above


def test_table_and_backtracking_paths_agree(monkeypatch):
    pairs = _table_pairs()
    calls = []
    real = homsearch._table_count
    monkeypatch.setattr(homsearch, "_table_count",
                        lambda *args: calls.append(1) or real(*args))
    counts = {}
    for limit in (0, 10**9):
        monkeypatch.setattr(homsearch, "_TABLE_MAPS", limit)
        calls.clear()
        counts[limit] = [count_morphisms(c, a, cls, system).count
                         for c, a in pairs for cls, system in TABLE_CLASSES]
        # empty targets take the table path even at limit 0 (0^n = 0)
        taken = sum(len(TABLE_CLASSES) for c, a in pairs if a.size ** c.size <= limit)
        assert len(calls) == taken
    assert counts[0] == counts[10**9]
    assert any(counts[0])


def test_empty_target_builds_no_tables():
    _search_plan.cache_clear()
    for cls, system in TABLE_CLASSES:
        assert count_morphisms(cycle_sym(3), no_relation(0), cls, system).count == 0
    assert _search_plan.cache_info().currsize == 0


def test_isomorphism_by_counting_compiles_no_plan_per_test():
    # Every test structure is a pattern below the size rule, so only the two
    # subjects get a record, and neither is compiled as a pattern.
    a = digraph(3, {(0, 1), (1, 2), (2, 0), (0, 0)})
    b = digraph(3, {(2, 0), (0, 1), (1, 2), (1, 1)})
    _search_plan.cache_clear()
    assert decide_isomorphic_by_counting(a, b)
    assert _search_plan.cache_info().currsize == 2
    assert _search_plan(a)._order is None and _search_plan(b)._steps is None
