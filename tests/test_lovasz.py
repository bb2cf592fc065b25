import itertools
import random

import pytest

from conftest import complete_sym, cycle_sym, digraph, no_relation
from homcount import lovasz
from homcount.errors import CapExceededError, SignatureMismatchError
from homcount.quotposet import collapse_structure
from homcount.homsearch import count_morphisms, hom_count
from homcount.lovasz import (
    DISTINGUISHED,
    LEFT,
    PROFILES_EQUAL,
    RIGHT,
    _structures_of_size,
    decide_isomorphic_by_counting,
    distinguish,
    embeddings_via_mobius,
    enumerate_structures,
    hom_profile,
)
from homcount.sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    _image,
    are_isomorphic,
    canonical_form,
    embedding_class,
)
from oracles import (
    all_candidates_level,
    brute_isomorphic,
    naive_count,
    naive_morphisms,
    satisfies,
)


def random_digraph(rng, n, p=0.35):
    return digraph(n, {(i, j) for i in range(n) for j in range(n)
                       if rng.random() < p})


def test_hom_profile_k2(single_arc, point):
    k2 = complete_sym(2)
    prof = hom_profile(k2, [point, single_arc], RIGHT)
    assert prof.counts == (2, 2)


def test_hom_profile_empty_family(k3):
    assert hom_profile(k3, []).counts == ()


def test_hom_profile_self_is_positive(k3, c6):
    for a in (k3, c6):
        assert hom_profile(a, [a]).counts[0] >= 1


def random_structure(rng, signature, n, p):
    return Structure(signature, n, tuple(
        frozenset(t for t in itertools.product(range(n), repeat=arity) if rng.random() < p)
        for _, arity in signature.symbols))


def test_hom_profile_matches_the_naive_oracle_for_every_class():
    # Every class under both systems, on both sides, on E/2 and E/2,R/3:
    # size-0 members and subjects, loops in both, and one pair past the
    # table path's size rule.
    rng = random.Random("profile")
    for signature in (GRAPH_SIGNATURE, Signature((("E", 2), ("R", 3)))):
        loop = Structure.build(signature, 1, {"E": {(0, 0)}})
        empty = Structure.build(signature, 0)
        family = [empty, loop, Structure.build(signature, 1)]
        family += [random_structure(rng, signature, n, 0.35) for n in (2, 3) for _ in range(2)]
        subjects = [empty, loop] + [random_structure(rng, signature, n, 0.5) for n in (2, 3)]
        for a in subjects:
            for cls in MorphismClass:
                for system in (SE_M, E_SM):
                    right = hom_profile(a, family, RIGHT, cls, system)
                    assert right.counts == tuple(naive_count(t, a, cls, system) for t in family)
                    left = hom_profile(a, family, LEFT, cls, system)
                    assert left.counts == tuple(naive_count(a, t, cls, system) for t in family)
                    assert (right.side, left.side, left.family) == (RIGHT, LEFT, tuple(family))
        # Past the table path: an induced 5-element substructure of a
        # 6-element structure, and that structure onto a collapse of it.
        six = random_structure(rng, signature, 6, 0.4)
        five = Structure(signature, 5, tuple(frozenset(t for t in rel if 5 not in t)
                                             for rel in six.relations))
        merged = collapse_structure(six, ((0, 5), (1,), (2,), (3,), (4,)))[0]
        for c, a in ((five, six), (six, merged)):
            homs = naive_morphisms(c, a)
            for cls in MorphismClass:
                for system in (SE_M, E_SM):
                    want = (sum(satisfies(f, c, a, cls, system) for f in homs),)
                    assert want != (0,) or cls is not MorphismClass.HOM
                    assert hom_profile(a, [c], RIGHT, cls, system).counts == want
                    assert hom_profile(c, [a], LEFT, cls, system).counts == want
        other = Structure.build(Signature((("F", 2),)), 1)
        for side in (RIGHT, LEFT):
            with pytest.raises(SignatureMismatchError):
                hom_profile(subjects[-1], family + [other], side)


def test_enumerate_structures_size_1():
    got = enumerate_structures(GRAPH_SIGNATURE, 1)
    assert len(got) == 2
    # descending tuple count: the loop comes before the bare point
    assert got[0].relation("E") == frozenset({(0, 0)})
    assert got[1].relation("E") == frozenset()


def test_enumerate_structures_counts():
    # Binary relations up to isomorphism: 2, 10, 104, 3044 on 1..4 points
    # (OEIS A000595).
    sizes = {}
    for s in enumerate_structures(GRAPH_SIGNATURE, 3):
        sizes[s.size] = sizes.get(s.size, 0) + 1
    assert sizes == {1: 2, 2: 10, 3: 104}
    assert len(_structures_of_size(GRAPH_SIGNATURE, 4)) == 3044


def test_enumerate_structures_deterministic_and_deduplicated():
    a = enumerate_structures(GRAPH_SIGNATURE, 2)
    b = enumerate_structures(GRAPH_SIGNATURE, 2)
    assert a == b
    codes = [canonical_form(s) for s in a]
    assert len(set(codes)) == len(codes)


def test_undirected_levels_are_the_simple_graphs():
    # simple graphs up to isomorphism on 1..6 vertices (OEIS A000088)
    for n, classes in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        level = _structures_of_size(GRAPH_SIGNATURE, n, undirected=True)
        assert len(level) == classes
        for g in level:
            arcs = g.relation("E")
            assert all(x != y and (y, x) in arcs for x, y in arcs)
        keys = [(-g.total_tuples(), canonical_form(g)) for g in level]
        assert keys == sorted(keys)
        if n <= 4:
            assert not any(brute_isomorphic(a, b)
                           for a, b in itertools.combinations(level, 2))


def test_levels_match_the_all_candidates_reference(monkeypatch):
    # Each level equals the one built by canonicalising every candidate, and
    # only one structure per class reaches the canonicalising step.
    fed = []

    def spy(structures):
        structures = list(structures)
        fed.append(len(structures))
        return catalogue(structures)

    catalogue = lovasz._catalogue
    monkeypatch.setattr(lovasz, "_catalogue", spy)
    cases = [(GRAPH_SIGNATURE, n, False) for n in (1, 2, 3)]
    cases += [(Signature((("U", 1), ("T", 3))), 2, False),
              (Signature((("E", 2), ("R", 3))), 2, False)]
    cases += [(GRAPH_SIGNATURE, n, True) for n in range(1, 6)]
    for signature, n, undirected in cases:
        fed.clear()
        got = _structures_of_size.__wrapped__(signature, n, undirected=undirected)
        assert fed == [len(got)], (signature, n, undirected)
        assert got == all_candidates_level(signature, n, undirected), \
            (signature, n, undirected)


def test_enumerate_structures_cap(monkeypatch):
    monkeypatch.setenv("HOMCOUNT_CAP", "1000")
    with pytest.raises(CapExceededError) as err:
        enumerate_structures(GRAPH_SIGNATURE, 6)
    assert err.value.count > 1000
    # the cap counts the candidate space (2 + 16 + 512 + 65,536), not classes
    monkeypatch.setenv("HOMCOUNT_CAP", "66065")
    with pytest.raises(CapExceededError) as err:
        enumerate_structures(GRAPH_SIGNATURE, 4)
    assert err.value.count == 66066
    monkeypatch.setenv("HOMCOUNT_CAP", "66066")
    assert len(enumerate_structures(GRAPH_SIGNATURE, 4)) == 2 + 10 + 104 + 3044


def test_embeddings_via_mobius_no_relation_sources():
    # c = 2-element no-relation: count is n^2 - n, the injections.
    for n in range(5):
        assert embeddings_via_mobius(no_relation(2), no_relation(n), SE_M) == n * n - n


def test_embeddings_via_mobius_singleton_source(point, loop_point):
    for a in [no_relation(3), cycle_sym(3)]:
        assert embeddings_via_mobius(point, a, SE_M) == hom_count(point, a)
    # E_SM on a loopy target differs: the only hom is degenerate.
    assert embeddings_via_mobius(point, loop_point, E_SM) == 0


def test_embeddings_via_mobius_k3(k3):
    assert embeddings_via_mobius(k3, k3, SE_M) == 6


def test_embeddings_via_mobius_matches_direct_counts_both_systems():
    rng = random.Random(53)
    family = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(6)]
    family += [no_relation(3), complete_sym(3), digraph(2, {(0, 0), (0, 1)})]
    for c in family:
        for a in family:
            for system in (SE_M, E_SM):
                direct = count_morphisms(c, a, embedding_class(system), system).count
                assert embeddings_via_mobius(c, a, system) == direct, (c, a, system)


def test_distinguish_c6_vs_two_triangles(c6, two_c3, k3):
    res = distinguish(c6, two_c3, budget=3, side=RIGHT)
    assert res.verdict == DISTINGUISHED
    assert are_isomorphic(res.witness, k3)
    assert res.counts == (0, 12)


def test_distinguish_self_is_equal(k3):
    res = distinguish(k3, k3, budget=3)
    assert res.verdict == PROFILES_EQUAL
    assert res.witness is None


def test_distinguish_left_side_example(single_arc):
    k2 = complete_sym(2)
    two_points = no_relation(2)
    res = distinguish(k2, two_points, budget=1, side=LEFT)
    assert res.verdict == DISTINGUISHED
    assert res.witness.size == 1
    assert res.witness.relation("E") == frozenset()
    assert res.counts == (0, 1)


def test_decide_isomorphic_relabeled(k3):
    relabeled = digraph(3, {(1, 0), (0, 1), (2, 1), (1, 2), (0, 2), (2, 0)})
    assert decide_isomorphic_by_counting(k3, relabeled)


def test_decide_isomorphic_c6_vs_triangles(c6, two_c3):
    assert decide_isomorphic_by_counting(c6, two_c3) is False


def test_decide_isomorphic_agrees_with_are_isomorphic_on_small_digraphs():
    # Every ordered pair of the 116 binary classes through size 3.
    structures = enumerate_structures(GRAPH_SIGNATURE, 3)
    assert len(structures) == 116
    for a in structures:
        for b in structures:
            assert decide_isomorphic_by_counting(a, b) == are_isomorphic(a, b), (a, b)


def relabelled(rng, a):
    perm = list(range(a.size))
    rng.shuffle(perm)
    return _image(a, perm, a.size)


def movable(a):
    """The symbols of a with a tuple and a non-tuple."""
    return [s for s, (r, (_, arity)) in enumerate(zip(a.relations, a.signature.symbols))
            if 0 < len(r) < a.size ** arity]


def moved_tuple(rng, a):
    """a with one tuple of one relation moved to a non-tuple, so the size and
    every tuple count stay as they are."""
    rels = list(a.relations)
    s = rng.choice(movable(a))
    absent = [t for t in itertools.product(range(a.size), repeat=a.signature.symbols[s][1])
              if t not in rels[s]]
    rels[s] = rels[s] - {rng.choice(sorted(rels[s]))} | {rng.choice(absent)}
    return Structure(a.signature, a.size, tuple(rels))


def assert_decides_both_orders(a, b):
    expected = are_isomorphic(a, b)
    assert decide_isomorphic_by_counting(a, b) == expected, (a, b)
    assert decide_isomorphic_by_counting(b, a) == expected, (b, a)


def test_decide_isomorphic_on_relabelled_and_perturbed_digraphs_of_4_to_8():
    # Loops included; a perturbed copy keeps the size and the tuple count,
    # so the quotient counts have to tell it apart.
    rng = random.Random(67)
    for n in range(4, 9):
        a = random_digraph(rng, n)
        assert any(x == y for x, y in a.relation("E"))
        b = relabelled(rng, a)
        assert decide_isomorphic_by_counting(a, b) and decide_isomorphic_by_counting(b, a)
        for _ in range(3):
            assert_decides_both_orders(a, relabelled(rng, moved_tuple(rng, b)))


def test_decide_isomorphic_on_mixed_arity():
    rng = random.Random(71)
    signature = Signature((("E", 2), ("R", 3)))
    for n in (1, 2, 3, 4):
        for _ in range(4):
            a = Structure(signature, n, tuple(
                frozenset(t for t in itertools.product(range(n), repeat=arity)
                          if rng.random() < 0.3)
                for _, arity in signature.symbols))
            b = relabelled(rng, a)
            assert_decides_both_orders(a, b)
            if movable(a):
                assert_decides_both_orders(a, moved_tuple(rng, b))
    # equal size and tuple count in total, split differently between symbols
    e_only = Structure.build(signature, 2, {"E": {(0, 1)}})
    r_only = Structure.build(signature, 2, {"R": {(0, 1, 1)}})
    assert_decides_both_orders(e_only, r_only)


def test_decide_isomorphic_on_empty_and_unequal_sizes(k3, point):
    empty = no_relation(0)
    assert decide_isomorphic_by_counting(empty, empty)
    for a, b in [(empty, point), (point, no_relation(2)), (k3, complete_sym(4)),
                 (no_relation(3), k3)]:
        assert_decides_both_orders(a, b)


def test_decide_isomorphic_answers_pairs_beyond_the_catalogue_cap():
    # The size-5 binary catalogue spans 2^25 candidates per level, above
    # HOMCOUNT_CAP; the quotients of a 5-element subject are 52 tests.
    rng = random.Random(73)
    a = random_digraph(rng, 5)
    with pytest.raises(CapExceededError, match="HOMCOUNT_CAP"):
        distinguish(a, a, 5)
    assert decide_isomorphic_by_counting(a, relabelled(rng, a))


def test_decide_isomorphic_is_bounded_by_the_partition_cap():
    rng = random.Random(79)
    a = random_digraph(rng, 9)
    with pytest.raises(CapExceededError, match="PARTITION_SIZE_CAP") as err:
        decide_isomorphic_by_counting(a, relabelled(rng, a))
    assert err.value.count == 9


def test_decide_isomorphic_builds_no_catalogue_level():
    rng = random.Random(83)
    a = random_digraph(rng, 4)
    before = _structures_of_size.cache_info()
    assert decide_isomorphic_by_counting(a, relabelled(rng, a))
    assert not decide_isomorphic_by_counting(a, moved_tuple(rng, a))
    assert _structures_of_size.cache_info() == before


def test_distinguish_witness_counts_are_sound(c6, two_c3):
    res = distinguish(c6, two_c3, budget=3)
    assert hom_count(res.witness, c6) == res.counts[0]
    assert hom_count(res.witness, two_c3) == res.counts[1]
    assert res.counts[0] != res.counts[1]


def test_profile_equality_is_iso_invariant():
    rng = random.Random(61)
    for _ in range(10):
        a = random_digraph(rng, 3)
        perm = list(range(3))
        rng.shuffle(perm)
        b = digraph(3, {(perm[x], perm[y]) for x, y in a.relation("E")})
        family = enumerate_structures(GRAPH_SIGNATURE, 2)
        assert hom_profile(a, family).counts == hom_profile(b, family).counts
        assert (
            hom_profile(a, family, LEFT).counts == hom_profile(b, family, LEFT).counts
        )
