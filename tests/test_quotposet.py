import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraph, no_relation
from homcount.errors import CapExceededError
from homcount.lovasz import embeddings_via_mobius, mobius_invert_ints
from homcount.quotposet import (
    FinitePoset,
    collapse_structure,
    partition_mobius,
    partition_refines,
    quotient_poset,
    set_partitions,
)
from homcount.sigstruct import E_SM, SE_M, MorphismClass, validate_morphism
from homcount.stirling import kernel_decomposition
from oracles import naive_count, partitions_of_set


def bell(n):
    return len(partitions_of_set(n))


def test_set_partitions_counts_match_bell():
    for n in range(7):
        got = list(set_partitions(n))
        assert len(got) == bell(n)
        assert len(set(got)) == len(got)


def test_set_partitions_blocks_are_canonical():
    for p in set_partitions(4):
        for block in p:
            assert list(block) == sorted(block)
        mins = [block[0] for block in p]
        assert mins == sorted(mins)


def test_partition_refines():
    fine = ((0,), (1,), (2,))
    mid = ((0, 1), (2,))
    coarse = ((0, 1, 2),)
    assert partition_refines(fine, mid, 3)
    assert partition_refines(mid, coarse, 3)
    assert not partition_refines(coarse, mid, 3)


def test_quotient_poset_singleton():
    q = quotient_poset(no_relation(1))
    assert len(q) == 1
    assert q.top == 0


def test_quotient_poset_of_3_element_no_relation():
    q = quotient_poset(no_relation(3))
    assert len(q) == 5
    assert len(q.elements[q.top].partition) == 3


def test_quotient_poset_of_single_arc():
    c = digraph(2, {(0, 1)})
    q = quotient_poset(c)
    assert len(q) == 2
    collapse = q.index_of_partition(((0, 1),))
    quotient = q.elements[collapse].codomain
    assert quotient.relation("E") == frozenset({(0, 0)})
    _, proj = collapse_structure(c, ((0, 1),))
    assert validate_morphism(proj, c, quotient, MorphismClass.QUOTIENT, SE_M)


def test_quotient_poset_representatives_are_quotients_in_both_systems():
    # The projection onto each class's codomain is a quotient in both systems.
    c = digraph(3, {(0, 1), (1, 2)})
    q = quotient_poset(c)
    for e in q.elements:
        quotient, proj = collapse_structure(c, e.partition)
        assert quotient == e.codomain
        for system in (SE_M, E_SM):
            assert validate_morphism(proj, c, quotient, MorphismClass.QUOTIENT, system)


def test_quotient_poset_cap():
    # Every SE_M path that enumerates partitions refuses the same sizes.
    c = no_relation(9)
    for run in (lambda: quotient_poset(c),
                lambda: embeddings_via_mobius(c, no_relation(9), SE_M),
                lambda: kernel_decomposition(c, no_relation(2), SE_M)):
        with pytest.raises(CapExceededError, match="partition enumeration cap 8"):
            run()


def test_collapse_structure_images():
    c = digraph(3, {(0, 1), (1, 2)})
    m, proj = collapse_structure(c, ((0, 2), (1,)))
    assert m.size == 2
    assert proj == (0, 1, 0)
    assert m.relation("E") == frozenset({(0, 1), (1, 0)})


def chain(n):
    return FinitePoset(n, [[i <= j for j in range(n)] for i in range(n)])


def test_mobius_reflexive_and_chain():
    p = chain(4)
    assert p.mobius(2, 2) == 1
    assert p.mobius(1, 2) == -1
    assert p.mobius(0, 2) == 0


def test_mobius_domain_error():
    p = chain(3)
    with pytest.raises(ValueError):
        p.mobius(2, 0)


def test_mobius_of_partition_lattice_of_3_set():
    # mu(bottom, top) of the partition lattice of a 3-set is 2.
    q = quotient_poset(no_relation(3))
    bottom = q.index_of_partition(((0, 1, 2),))
    assert q.poset.mobius(bottom, q.top) == 2


def test_partition_mobius_matches_the_quotient_poset():
    # The closed form agrees with the recursion on the poset for every class.
    for n in range(6):
        q = quotient_poset(no_relation(n))
        for i, e in enumerate(q.elements):
            assert partition_mobius(e.partition) == q.poset.mobius(i, q.top)


def test_convolution_identity_mu_zeta_is_delta():
    posets = [chain(5), quotient_poset(no_relation(4)).poset,
              quotient_poset(digraph(3, {(0, 1)})).poset]
    for p in posets:
        for x in range(p.size):
            for y in p.up_set(x):
                total = sum(p.mobius(x, z) for z in p.up_set(x) if p.leq(z, y))
                assert total == (1 if x == y else 0)


def test_mobius_is_two_sided_convolution_inverse_of_zeta():
    posets = [chain(4), quotient_poset(no_relation(4)).poset,
              quotient_poset(digraph(3, {(0, 1), (1, 2)})).poset]
    for p in posets:
        for x in range(p.size):
            for y in p.up_set(x):
                interval = [z for z in p.up_set(x) if p.leq(z, y)]
                delta = 1 if x == y else 0
                assert sum(p.mobius(x, z) for z in interval) == delta
                assert sum(p.mobius(z, y) for z in interval) == delta


def test_mobius_invert_zero():
    assert mobius_invert_ints(chain(4), [0, 0, 0, 0]) == [0, 0, 0, 0]


def test_mobius_invert_two_element_quotient_poset(point):
    # Q(2-element no-relation): f1(id) = hom(c, 3-elt) = 9, f1(collapse) = 3;
    # inversion gives f2(id) = 6 = injections of a 2-set into a 3-set.
    c = no_relation(2)
    a = no_relation(3)
    q = quotient_poset(c)
    f1 = [naive_count(e.codomain, a) for e in q.elements]
    assert sorted(f1) == [3, 9]
    f2 = mobius_invert_ints(q.poset, f1)
    assert f2[q.top] == 6


def random_poset(rng, n):
    """Random poset as the reachability order of a random DAG on 0..n-1."""
    above = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                above[i].add(j)
    for i in reversed(range(n)):
        extra = set()
        for j in above[i]:
            extra |= above[j]
        above[i] |= extra
    leq = [[i == j or j in above[i] for j in range(n)] for i in range(n)]
    return FinitePoset(n, leq)


def forward_sum(p, f2):
    """f1(y) = sum_{x<=y} f2(x), the inverse of Moebius inversion."""
    return [sum(f2[x] for x in range(p.size) if p.leq(x, y)) for y in range(p.size)]


def test_mobius_invert_round_trip_on_random_posets():
    rng = random.Random(31)
    for _ in range(30):
        p = random_poset(rng, rng.randint(1, 7))
        f1 = [rng.randint(-9, 9) for _ in range(p.size)]
        f2 = mobius_invert_ints(p, f1)
        assert forward_sum(p, f2) == f1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31), st.integers(1, 6))
def test_mobius_round_trip_property(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    f1 = [rng.randint(-50, 50) for _ in range(n)]
    f2 = mobius_invert_ints(p, f1)
    assert forward_sum(p, f2) == f1
