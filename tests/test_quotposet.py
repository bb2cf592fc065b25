import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED_SIGNATURES, digraph, no_relation, random_looped, random_mixed
from homcount import lovasz
from homcount.errors import CapExceededError
from homcount.homsearch import _search_plan
from homcount.lovasz import (
    decide_isomorphic_by_counting,
    embeddings_via_mobius,
    mobius_invert_ints,
)
from homcount.quotposet import (
    PARTITION_SIZE_CAP,
    FinitePoset,
    RefinementOrder,
    _esm_mobius,
    collapse_structure,
    collapses,
    partition_mobius,
    quotient_poset,
    set_partitions,
)
from homcount.sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    validate_morphism,
)
from homcount.stirling import _realized_quotients, kernel_decomposition
from oracles import (
    naive_count,
    partition_refines,
    partitions_of_set,
    quotient_class_leq,
)


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
    collapse = [e.partition for e in q.elements].index(((0, 1),))
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


def random_structure(rng, signature, n, p):
    return Structure(signature, n, tuple(
        frozenset(t for t in itertools.product(range(n), repeat=arity) if rng.random() < p)
        for _, arity in signature.symbols))


def test_quotient_poset_order_is_refinement():
    # Classes in set_partitions order with collapsed codomains, the identity
    # class on top, and i <= j exactly when j's kernel refines i's.
    rng = random.Random(17)
    sources = [no_relation(n) for n in range(7)]
    sources += [digraph(n, {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.3})
                for n in range(1, 7) for _ in range(2)]
    sources += [random_mixed(rng, MIXED_SIGNATURES[0], n) for n in range(7)]
    for c in sources:
        q = quotient_poset(c)
        parts = [e.partition for e in q.elements]
        assert parts == list(set_partitions(c.size))
        assert sorted(parts) == sorted(tuple(map(tuple, p)) for p in partitions_of_set(c.size))
        assert all(e.codomain == collapse_structure(c, e.partition)[0] for e in q.elements)
        assert parts[q.top] == tuple((x,) for x in range(c.size))
        for i, p in enumerate(parts):
            assert q.poset.up_set(i) == [j for j, r in enumerate(parts)
                                         if partition_refines(r, p, c.size)]
            assert q.poset.down_set(i) == [j for j, r in enumerate(parts)
                                           if partition_refines(p, r, c.size)]


def order_cases(sizes):
    """E/2 with loops and the mixed arity E/2,R/3, one structure each per
    size."""
    rng = random.Random(35)
    return [case for n in sizes for case in (
        random_looped(rng, GRAPH_SIGNATURE, n, 0.3) if n else digraph(0, set()),
        random_mixed(rng, MIXED_SIGNATURES[0], n))]


def test_closed_form_mobius_matches_the_recursion_on_every_comparable_pair():
    # The order's closed form against FinitePoset.mobius, the recursion on the
    # same up-sets, on every comparable pair through 7 elements (19,302 pairs
    # at 7).
    for c in order_cases(range(8)):
        order = quotient_poset(c).poset
        up_sets = [order.up_set(x) for x in range(order.size)]
        reference = FinitePoset(order.size, up_sets)
        for x, up in enumerate(up_sets):
            for y in up:
                assert order.mobius(x, y) == reference.mobius(x, y), (c, x, y)


def test_mobius_of_an_incomparable_pair_is_refused_as_the_recursion_refuses_it():
    for c in order_cases(range(6)):
        order = quotient_poset(c).poset
        reference = FinitePoset(order.size, [order.up_set(x) for x in range(order.size)])
        for x, y in itertools.product(range(order.size), repeat=2):
            if y not in order.up_set(x):
                with pytest.raises(ValueError) as got:
                    order.mobius(x, y)
                with pytest.raises(ValueError) as want:
                    reference.mobius(x, y)
                assert str(got.value) == str(want.value) == f"mobius undefined: {x} is not <= {y}"


def test_quotient_poset_builds_no_up_set_table(monkeypatch):
    # quotient_poset builds no FinitePoset, and mu(-, top) reads no up-set
    # or down-set: the order transposes its down-sets only when an up-set is
    # read.
    def refuse(*args, **kwargs):
        raise AssertionError("up-set table built")

    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    monkeypatch.setattr(RefinementOrder, "up_set", refuse)
    monkeypatch.setattr(RefinementOrder, "down_set", refuse)
    for c in order_cases(range(8)):
        q = quotient_poset(c)
        assert [q.poset.mobius(i, q.top) for i in range(len(q))] == [
            partition_mobius(e.partition) for e in q.elements]
        assert q.poset._up is None
    monkeypatch.undo()
    assert q.poset.up_set(q.top) == [q.top] and q.poset._up is not None


def test_quotient_poset_at_the_cap():
    q = quotient_poset(no_relation(PARTITION_SIZE_CAP))
    assert len(q) == 4140
    for i in list(range(0, len(q), 97)) + [len(q) - 1]:
        assert partition_mobius(q.elements[i].partition) == q.poset.mobius(i, q.top)


def test_quotient_poset_cap():
    # Every SE_M path that enumerates partitions refuses the same sizes.
    c = no_relation(9)
    for run in (lambda: quotient_poset(c),
                lambda: embeddings_via_mobius(c, no_relation(9), SE_M),
                lambda: kernel_decomposition(c, no_relation(2), SE_M)):
        with pytest.raises(CapExceededError, match=r"partition enumeration over 9 "
                                                   r"elements, exceeding cap 8 "
                                                   r"\(PARTITION_SIZE_CAP"):
            run()
    # set_partitions owns the cap and refuses at the call, not at the first next()
    with pytest.raises(CapExceededError, match="PARTITION_SIZE_CAP"):
        set_partitions(9)


def test_collapses_match_one_collapse_per_partition():
    # `collapses` against `collapse_structure`, the one-collapse reference, in
    # `set_partitions` order: E/2 with loops on 0-8 elements, and the mixed
    # arities E/2,R/3 and U/1,T/3.
    rng = random.Random(29)
    cases = [digraph(0, set())]
    cases += [random_looped(rng, GRAPH_SIGNATURE, n, p) for n in range(1, 9) for p in (0.2, 0.5)]
    cases += [random_mixed(rng, signature, n)
              for signature in MIXED_SIGNATURES for n in range(7) for _ in range(2)]
    for c in cases:
        assert tuple(collapses(c)) == tuple(
            (p, collapse_structure(c, p)[0]) for p in set_partitions(c.size)), c


def test_collapses_refuse_above_the_cap_before_the_first_item():
    with pytest.raises(CapExceededError, match=r"partition enumeration over 9 elements"):
        collapses(no_relation(9))


def esm_pairs():
    """(c, a) pairs for the E_SM Moebius sum, under E/2 and under the mixed
    arity E/2,R/3: 1-4 elements, size 0 on either side, and 5-6-element
    patterns with loops on both sides."""
    rng, big = random.Random(41), random.Random(23)
    loops = digraph(3, {(0, 0), (0, 1), (1, 2)})
    pairs = [(loops, digraph(4, {(0, 0), (1, 1), (0, 1), (1, 2), (2, 0), (3, 3)})),
             (loops, no_relation(0))]
    for signature, p_rel, p_big, q_big in ((Signature((("E", 2),)), 0.35, 0.09, 0.5),
                                           (Signature((("E", 2), ("R", 3))), 0.1, 0.02, 0.6)):
        pairs.append((random_structure(rng, signature, 0, p_rel),
                      random_structure(rng, signature, 3, 2 * p_rel)))
        pairs.append((random_structure(rng, signature, 3, p_rel),
                      random_structure(rng, signature, 0, p_rel)))
        for r in (rng, big):
            for _ in range(12):
                n, m = r.randint(1, 4), r.randint(1, 4)
                pairs.append((random_structure(r, signature, n, p_rel),
                              random_structure(r, signature, m, 2 * p_rel)))
        pairs += [(random_looped(big, signature, n, p_big),
                   random_looped(big, signature, m, q_big))
                  for n, m in ((5, 4), (6, 3), (5, 5))]
    return pairs


def esm_classes(c, a):
    """The classes embeddings_via_mobius sums over, in its order, and the top."""
    top = (tuple((x,) for x in range(c.size)), c.relations)
    return {**_realized_quotients(c, a), top: c}, top


def pairwise_poset(keys):
    """The E_SM classes ordered pair by pair by oracles.quotient_class_leq."""
    return FinitePoset(len(keys), [[j for j, y in enumerate(keys) if quotient_class_leq(x, y)]
                                   for x in keys])


def test_factorisation_up_sets_match_the_pairwise_order():
    # The order _esm_mobius pushes along is the pairwise order of
    # oracles.quotient_class_leq: with each class y as the top, in the
    # caller's class order and shuffled, the column is FinitePoset.mobius(x, y)
    # on the down-set of y and 0 off it.  The whole mu matrix fixes the order
    # (zeta is its inverse), so a pair ordered wrongly shows in some column.
    rng = random.Random(29)
    for c, a in esm_pairs():
        keys = list(esm_classes(c, a)[0])
        for order in (keys, rng.sample(keys, len(keys))):
            poset = pairwise_poset(order)
            for y, top in enumerate(order):
                down = set(poset.down_set(y))
                assert _esm_mobius(order, top) == [poset.mobius(x, y) if x in down else 0
                                                   for x in range(poset.size)], (c, a, top)


def test_top_column_matches_the_full_inversion():
    # mu(-, top) by the push-down against FinitePoset.mobius, read through
    # mobius_invert_ints over the pairwise order of oracles.quotient_class_leq,
    # with the classes in the caller's order and shuffled.
    rng = random.Random(23)
    for c, a in esm_pairs():
        realized, top = esm_classes(c, a)
        keys = list(realized)
        poset, t = pairwise_poset(keys), keys.index(top)
        want = [mobius_invert_ints(poset, [int(y == x) for y in range(poset.size)])[t]
                for x in range(poset.size)]
        assert _esm_mobius(keys, top) == want, (c, a)
        shuffled = rng.sample(range(len(keys)), len(keys))
        assert _esm_mobius([keys[i] for i in shuffled], top) == [want[i] for i in shuffled]


def test_esm_embedding_count_matches_the_naive_count():
    # The embedding count against the naive strong-mono count, and against
    # the full inversion of the hom counts over the pairwise order.
    for c, a in esm_pairs():
        realized, top = esm_classes(c, a)
        keys = list(realized)
        want = naive_count(c, a, MorphismClass.STRONG_MONO, E_SM)
        counts = [naive_count(q, a) for q in realized.values()]
        assert mobius_invert_ints(pairwise_poset(keys), counts)[keys.index(top)] == want
        assert embeddings_via_mobius(c, a, E_SM) == want, (c, a)


def test_mobius_sum_builds_no_poset(monkeypatch):
    # Both systems sum mu(x, top) hom(cod x, a) with no poset and no
    # inversion; E_SM counts each class with mu != 0 once, and skips the rest.
    c = digraph(4, {(0, 1), (0, 3), (1, 1), (1, 3), (2, 2), (3, 0)})
    a = digraph(6, set(c.relation("E")) | {(0, 4), (1, 4), (3, 5), (4, 3), (4, 4),
                                             (4, 5), (5, 0), (5, 1), (5, 2)})
    realized, top = esm_classes(c, a)
    nonzero = [q for m, q in zip(_esm_mobius(list(realized), top), realized.values()) if m]
    assert 0 < len(nonzero) < len(realized)
    want = {E_SM: naive_count(c, a, MorphismClass.STRONG_MONO, E_SM),
            SE_M: naive_count(c, a, MorphismClass.MONO, SE_M)}
    assert want[E_SM] > 0

    def refuse(*args, **kwargs):
        raise AssertionError("poset work while counting embeddings")

    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    monkeypatch.setattr(FinitePoset, "mobius", refuse)
    monkeypatch.setattr(lovasz, "mobius_invert_ints", refuse)
    counted = []
    hom_count = lovasz.hom_count
    monkeypatch.setattr(lovasz, "hom_count", lambda q, b: counted.append(q) or hom_count(q, b))
    assert embeddings_via_mobius(c, a, E_SM) == want[E_SM]
    assert counted == nonzero
    counted.clear()
    assert embeddings_via_mobius(c, a, SE_M) == want[SE_M]
    assert counted == [q for _, q in _search_plan(c).quotients]


@pytest.fixture
def collapsed(monkeypatch):
    """The structure of each collapse taken from `collapses`, in the order
    they are taken, from every module of the package that imports it."""
    collapses = sys.modules["homcount.quotposet"].collapses
    calls = []

    def spy(s, *args):
        for item in collapses(s, *args):
            calls.append(s)
            yield item

    for name, module in list(sys.modules.items()):
        if name.startswith("homcount."):
            for attr, value in list(vars(module).items()):
                if value is collapses:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def test_quotients_are_collapsed_once_per_record(collapsed):
    # The SE_M Moebius sum and the SE_M kernel read c's quotients from its
    # record, so c is collapsed B(|c|) times for any number of targets, and
    # again once the record is dropped.
    c = digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)})
    rng = random.Random(43)
    _search_plan.cache_clear()
    for n in (2, 4, 5):
        a = digraph(n, {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.5})
        assert embeddings_via_mobius(c, a, SE_M) == naive_count(c, a, MorphismClass.MONO)
        kernel_decomposition(c, a, SE_M)
    assert collapsed == [c] * bell(4)
    _search_plan.cache_clear()
    kernel_decomposition(c, a, SE_M)
    assert collapsed == [c] * (2 * bell(4))


def test_one_off_readers_keep_no_quotients(collapsed):
    # The isomorphism decision and the quotient poset collapse as they go
    # and leave nothing on the record: decide stops at the first quotient
    # whose counts differ, and neither keeps B(|c|) structures alive.
    c = digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)})
    twin = digraph(4, {(2, 3), (3, 0), (0, 1), (1, 2), (3, 3)})
    _search_plan.cache_clear()
    assert decide_isomorphic_by_counting(c, twin)
    assert len(quotient_poset(c)) == bell(4)
    assert collapsed == [c] * (2 * bell(4))
    assert "quotients" not in vars(_search_plan(c))
    # One point with a loop counts 1 into `loop`, 0 into `arc`.
    loop, arc = digraph(2, {(0, 0)}), digraph(2, {(0, 1)})
    collapsed.clear()
    assert not decide_isomorphic_by_counting(loop, arc)
    assert collapsed == [loop]


def test_collapse_structure_images():
    c = digraph(3, {(0, 1), (1, 2)})
    m, proj = collapse_structure(c, ((0, 2), (1,)))
    assert m.size == 2
    assert proj == (0, 1, 0)
    assert m.relation("E") == frozenset({(0, 1), (1, 0)})


def chain(n):
    return FinitePoset(n, [range(i, n) for i in range(n)])


def test_finite_poset_rejects_non_orders():
    with pytest.raises(ValueError, match="reflexive"):
        FinitePoset(2, [{0, 1}, set()])
    with pytest.raises(ValueError, match="antisymmetric"):
        FinitePoset(2, [{0, 1}, {0, 1}])
    with pytest.raises(ValueError, match="transitive"):
        FinitePoset(3, [{0, 1}, {1, 2}, {2}])
    with pytest.raises(ValueError, match="outside 0..1"):
        FinitePoset(2, [{0, 1, -1}, {1}])
    with pytest.raises(ValueError, match="outside 0..1"):
        FinitePoset(2, [{0, 1, 2}, {1}])
    with pytest.raises(ValueError, match="need 3 up-sets, one per element, not 2"):
        FinitePoset(3, [{0}, {1}])


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
    bottom = [e.partition for e in q.elements].index(((0, 1, 2),))
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
                total = sum(p.mobius(x, z) for z in p.up_set(x) if y in p.up_set(z))
                assert total == (1 if x == y else 0)


def test_mobius_is_two_sided_convolution_inverse_of_zeta():
    posets = [chain(4), quotient_poset(no_relation(4)).poset,
              quotient_poset(digraph(3, {(0, 1), (1, 2)})).poset]
    for p in posets:
        for x in range(p.size):
            for y in p.up_set(x):
                interval = [z for z in p.up_set(x) if y in p.up_set(z)]
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
    return FinitePoset(n, [{j for j in range(n) if leq[i][j]} for i in range(n)])


def forward_sum(p, f2):
    """f1(y) = sum_{x<=y} f2(x), the inverse of Moebius inversion."""
    return [sum(f2[x] for x in range(p.size) if y in p.up_set(x)) for y in range(p.size)]


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
