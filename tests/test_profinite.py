import itertools
import random

import pytest

from homcount.lovasz import DISTINGUISHED, PROFILES_EQUAL
from homcount.profinite import (
    FiniteGroup,
    GroupHom,
    Tower,
    continuous_hom_count,
    count_group_homs,
    cyclic_group,
    direct_product,
    distinguish_towers,
    enumerate_group_homs,
    has_surjection,
    is_group_hom,
    mod_surjection,
    surjection_profile,
    towers_isomorphic,
)
from homcount.selftest import _tower_zoo
from oracles import naive_group_homs

Z1 = cyclic_group(1)
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z8 = cyclic_group(8)
V4 = direct_product(Z2, Z2, "V4")


def permutation_group(generators, name):
    """The group generated by permutations of 0..n-1, elements in sorted
    order, with (p * q)(i) = p(q(i))."""
    elements = {tuple(range(len(generators[0])))}
    frontier = list(elements)
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = tuple(p[i] for i in g)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    table = tuple(tuple(index[tuple(p[i] for i in q)] for q in elements)
                  for p in elements)
    return FiniteGroup(len(elements), table, name)


S3 = permutation_group([(1, 0, 2), (1, 2, 0)], "S3")
D4 = permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)], "D4")


def relabelled(g, perm):
    """The copy of g in which element x is called perm[x]."""
    inv = sorted(range(g.order), key=perm.__getitem__)
    table = tuple(tuple(perm[g.table[inv[x]][inv[y]]] for y in range(g.order))
                  for x in range(g.order))
    return FiniteGroup(g.order, table, g.name + "-relabelled")


def relabelled_tower(t, rng):
    """The copy of t with every level relabelled by a random permutation."""
    perms = [rng.sample(range(g.order), g.order) for g in t.levels]
    levels = tuple(relabelled(g, p) for g, p in zip(t.levels, perms))
    connecting = []
    for i, hom in enumerate(t.connecting):
        upper, lower = perms[i + 1], perms[i]
        image = [0] * len(upper)
        for x, y in enumerate(hom.map):
            image[upper[x]] = lower[y]
        connecting.append(GroupHom(levels[i + 1], levels[i], tuple(image)))
    return Tower(levels, tuple(connecting), t.name + "-relabelled")


def z2_tower():
    return Tower(
        (Z2, Z4, Z8),
        (mod_surjection(4, 2), mod_surjection(8, 4)),
        "Z2-tower",
    )


def extended_tower():
    """Z/2 x Z/2 <- Z/4 x Z/2 <- Z/8 x Z/2 with mod maps on the first factor."""
    levels = (direct_product(Z2, Z2), direct_product(Z4, Z2), direct_product(Z8, Z2))

    def conn(n, m):
        dom = direct_product(cyclic_group(n), Z2)
        cod = direct_product(cyclic_group(m), Z2)
        pairs_dom = list(itertools.product(range(n), range(2)))
        pairs_cod = list(itertools.product(range(m), range(2)))
        idx = {p: i for i, p in enumerate(pairs_cod)}
        return GroupHom(dom, cod, tuple(idx[(a % m, b)] for a, b in pairs_dom))

    return Tower(levels, (conn(4, 2), conn(8, 4)), "Z2xZ2-extension")


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroup(2, ((0, 1), (1, 1)))  # not a group
    with pytest.raises(ValueError):
        FiniteGroup(2, ((1, 0), (0, 0)))  # no two-sided identity fails assoc/inv


def test_group_validation_names_a_missing_identity_or_inverse():
    with pytest.raises(ValueError, match="no identity element"):
        FiniteGroup(2, ((0, 0), (0, 0)))  # associative, constant
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        FiniteGroup(2, ((0, 1), (1, 1)))  # max: identity 0, and 1 absorbs


def test_refused_towers_and_surjections():
    with pytest.raises(ValueError, match="a tower has at least one level"):
        Tower((), ())
    with pytest.raises(ValueError, match="connecting map 0 has wrong endpoints"):
        Tower((Z2, Z4), (mod_surjection(8, 2),))
    with pytest.raises(ValueError, match="m must divide n"):
        mod_surjection(6, 4)
    shallow = Tower((Z2, Z4), (mod_surjection(4, 2),))
    deep = Tower((Z2, Z4, Z8), (mod_surjection(4, 2), mod_surjection(8, 4)))
    assert towers_isomorphic(shallow, deep) is False
    assert towers_isomorphic(deep, shallow) is False


def test_group_hom_validation():
    GroupHom(Z4, Z2, (0, 1, 0, 1))
    with pytest.raises(ValueError):
        GroupHom(Z4, Z2, (0, 0, 1, 0))


def test_hom_counts_match_naive_oracle():
    groups = [Z1, Z2, Z3, Z4, V4, direct_product(Z2, Z3), S3]
    for g in groups:
        for c in groups:
            naive = naive_group_homs(g, c)
            assert sorted(enumerate_group_homs(g, c)) == sorted(naive)
            assert count_group_homs(g, c) == len(naive)
            onto = any(len(set(f)) == c.order for f in naive)
            assert has_surjection(g, c) == onto


def test_is_group_hom_matches_the_cayley_table_oracle():
    # Every map between groups of order <= 6, the non-abelian S3 included.
    groups = [Z1, Z2, Z3, Z4, V4, cyclic_group(5), direct_product(Z2, Z3), S3]
    checked = 0
    for g in groups:
        for c in groups:
            homs = set(naive_group_homs(g, c))
            for f in itertools.product(range(c.order), repeat=g.order):
                assert is_group_hom(f, g, c) == (f in homs), (g.name, c.name, f)
                checked += 1
    assert checked > 250_000
    assert not is_group_hom((0, 0), Z3, Z2)
    assert not is_group_hom((0, 2), Z2, Z2)


def test_non_abelian_hom_counts():
    # hom(S3, S3): the trivial map, 3 onto the subgroups of order 2, and the
    # 6 automorphisms; hom(D4, D4) = 36.
    assert (S3.order, D4.order) == (6, 8)
    assert count_group_homs(S3, S3) == 10
    assert count_group_homs(D4, D4) == 36


def test_hom_count_to_trivial_group():
    for g in [Z2, Z8, V4]:
        assert count_group_homs(g, Z1) == 1


def test_z4_to_z2_and_back():
    assert count_group_homs(Z4, Z2) == 2
    assert count_group_homs(Z2, Z4) == 2
    images = {f[1] for f in enumerate_group_homs(Z2, Z4)}
    assert images == {0, 2}


def test_tower_validation_requires_surjections():
    inj = GroupHom(Z2, Z4, (0, 2))
    with pytest.raises(ValueError):
        Tower((Z4, Z2), (inj,))


def test_continuous_hom_count_z2_tower():
    assert continuous_hom_count(z2_tower(), Z2) == (2, True)


def test_continuous_hom_count_trivial_tower():
    ident = GroupHom(Z1, Z1, (0,))
    t = Tower((Z1, Z1, Z1), (ident, ident))
    for c in [Z2, Z8, V4]:
        assert continuous_hom_count(t, c) == (1, True)


def test_continuous_hom_count_extended_tower():
    assert continuous_hom_count(extended_tower(), Z2) == (4, True)


def test_single_level_tower_reports_unstabilized():
    t = Tower((Z4,), ())
    count, stabilized = continuous_hom_count(t, Z2)
    assert count == 2
    assert stabilized is False


def test_level_counts_non_decreasing_on_towers():
    towers = [z2_tower(), extended_tower()]
    tests = [Z1, Z2, Z3, Z4, Z8, V4]
    for t in towers:
        for c in tests:
            counts = [count_group_homs(level, c) for level in t.levels]
            assert counts == sorted(counts)


def test_distinguish_towers_by_z2():
    res = distinguish_towers(z2_tower(), extended_tower(), [Z2])
    assert res.verdict == DISTINGUISHED
    assert res.counts == (2, 4)
    assert res.witness is Z2


def test_distinguish_towers_self():
    t = z2_tower()
    assert distinguish_towers(t, t, [Z1, Z2, Z4]).verdict == PROFILES_EQUAL


def test_distinguish_towers_z9_vs_z3xz3():
    z9 = cyclic_group(9)
    z3z3 = direct_product(Z3, Z3)
    t1 = Tower((Z3, z9), (mod_surjection(9, 3),))
    proj = GroupHom(z3z3, Z3,
                    tuple(a for a, b in itertools.product(range(3), range(3))))
    t2 = Tower((Z3, z3z3), (proj,))
    res = distinguish_towers(t1, t2, [Z3])
    assert res.verdict == DISTINGUISHED
    assert res.counts == (3, 9)


def test_surjection_profile_z2_tower():
    t = z2_tower()
    assert surjection_profile(t, [Z4]) == (True,)
    assert surjection_profile(t, [V4]) == (False,)
    assert surjection_profile(t, [Z1]) == (True,)


def test_surjection_profile_separates_from_v4_tower():
    assert surjection_profile(extended_tower(), [V4]) == (True,)
    assert surjection_profile(z2_tower(), [V4]) == (False,)


def test_surjection_profile_tower_iso_invariant():
    t1 = z2_tower()
    # same tower with relabeled top level: conjugate Z8 by the permutation
    # swapping generators 1 and 5 (an automorphism: x -> 5x mod 8)
    relabel = [(5 * x) % 8 for x in range(8)]
    table = tuple(
        tuple(relabel.index((relabel[x] + relabel[y]) % 8) for y in range(8))
        for x in range(8)
    )
    z8_iso = FiniteGroup(8, table, "Z8-relabeled")
    conn = GroupHom(z8_iso, Z4, tuple(relabel[x] % 4 for x in range(8)))
    t2 = Tower((Z2, Z4, z8_iso), (mod_surjection(4, 2), conn))
    assert towers_isomorphic(t1, t2)
    family = [Z1, Z2, Z4, Z8, V4]
    assert surjection_profile(t1, family) == surjection_profile(t2, family)


def test_towers_isomorphic_rejects_different_systems():
    z3z3 = direct_product(Z3, Z3)
    t1 = Tower((Z3, cyclic_group(9)), (mod_surjection(9, 3),))
    proj = GroupHom(z3z3, Z3,
                    tuple(a for a, b in itertools.product(range(3), range(3))))
    t2 = Tower((Z3, z3z3), (proj,))
    assert not towers_isomorphic(t1, t2)


def test_eventually_constant_tower_counts_are_exact():
    # If the tower is constant with identity connecting maps from some level
    # on, the reported count is the hom count of the repeated group.
    ident = GroupHom(Z4, Z4, tuple(range(4)))
    t = Tower((Z2, Z4, Z4, Z4), (mod_surjection(4, 2), ident, ident))
    for c in [Z1, Z2, Z4, Z8, V4]:
        count, stabilized = continuous_hom_count(t, c)
        assert stabilized
        assert count == count_group_homs(Z4, c)


def test_towers_isomorphic_needs_a_well_defined_push_down():
    # Equal levels Z2 <- Z4 x Z2, but the kernels differ (V4 against Z4), so
    # no isomorphism of the tops pushes down to a map of the bottoms.
    top = direct_product(Z4, Z2)
    pairs = list(itertools.product(range(4), range(2)))
    first = GroupHom(top, Z2, tuple(a % 2 for a, b in pairs))
    second = GroupHom(top, Z2, tuple(b for a, b in pairs))
    t1, t2 = Tower((Z2, top), (first,)), Tower((Z2, top), (second,))
    assert not towers_isomorphic(t1, t2)
    assert not towers_isomorphic(t2, t1)
    assert towers_isomorphic(t1, t1)


def test_towers_isomorphic_to_relabelled_copies():
    rng = random.Random(5)
    for t in _tower_zoo():
        assert towers_isomorphic(t, relabelled_tower(t, rng)), t.name
