import random
from itertools import combinations, product

import pytest

import homcount.quotposet
import homcount.stirling
from conftest import (
    complete_sym,
    cycle_sym,
    digraph,
    mixed_cases,
    no_relation,
    path_sym,
    random_looped,
)
from homcount import homsearch
from homcount.errors import SignatureMismatchError
from homcount.homsearch import count_morphisms, hom_count
from homcount.lovasz import _structures_of_size
from homcount.selftest import full_acceptance
from homcount.sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    embedding_class,
)
from homcount.stirling import (
    _factorization_candidates,
    _factors_through,
    _realized_quotients,
    generic_count,
    is_generic,
    kernel_decomposition,
    stirling_number,
)
from oracles import (
    all_maps,
    is_hom,
    naive_count,
    naive_is_generic,
    naive_morphisms,
    naive_realized_quotients,
    naive_stirling,
)


def random_digraph(rng, n, p=0.35):
    return digraph(n, {(i, j) for i in range(n) for j in range(n)
                       if rng.random() < p})


def falling(a, m):
    out = 1
    for i in range(m):
        out *= a - i
    return out


def test_stirling_trivial_rows():
    for n in range(8):
        assert stirling_number(n, n) == 1
    for n in range(1, 8):
        assert stirling_number(n, 1) == 1
    assert stirling_number(0, 0) == 1
    assert stirling_number(3, 5) == 0


def test_stirling_small_values_from_partition_enumeration():
    # Frozen from the naive partition counter: S(3,2)=3, S(4,2)=7.
    assert stirling_number(3, 2) == 3
    assert stirling_number(4, 2) == 7
    for n in range(7):
        for m in range(n + 2):
            assert stirling_number(n, m) == naive_stirling(n, m)


def test_stirling_recurrence():
    for n in range(1, 10):
        for m in range(1, n + 1):
            assert stirling_number(n, m) == m * stirling_number(
                n - 1, m
            ) + stirling_number(n - 1, m - 1)


def test_generic_count_size_one_source(loop_point):
    # A 1-element source has no proper collapses, so under SE_M every hom is
    # generic.
    for a in [no_relation(3), cycle_sym(3), loop_point]:
        assert generic_count(no_relation(1), a, SE_M) == hom_count(no_relation(1), a)


def test_generic_count_no_relation_case():
    # 2-element into 3-element no-relation source/target, SE_M: frozen from
    # the 9-map enumeration, the 6 injections are the generic ones.
    assert generic_count(no_relation(2), no_relation(3), SE_M) == 6


def test_generic_count_k3_self(k3):
    assert generic_count(k3, k3, SE_M) == 6


def test_generic_point_into_loop_point_differs_by_system(point, loop_point):
    # The E_SM proper quotient that adds the loop makes the single hom
    # degenerate; under SE_M there is no proper quotient at all.
    assert generic_count(point, loop_point, SE_M) == 1
    assert generic_count(point, loop_point, E_SM) == 0


def test_generic_equals_embedding_count_both_systems():
    # Example-level identity: generic elements of hom(c, a) are exactly the
    # embeddings of the chosen system.  Exhaustive over a random family of
    # digraphs of size <= 3, both systems.
    rng = random.Random(41)
    family = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(7)]
    family += [no_relation(2), complete_sym(3), digraph(1, {(0, 0)})]
    for c in family:
        for a in family:
            for system in (SE_M, E_SM):
                emb = count_morphisms(c, a, embedding_class(system), system).count
                assert generic_count(c, a, system) == emb, (c, a, system)


def test_generic_stable_under_embedding_precomposition():
    # If g: n >-> n' is an embedding and x in hom(n', a) is generic, x . g is
    # generic; size <= 3, both systems.
    rng = random.Random(43)
    family = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(5)]
    targets = [random_digraph(rng, 3) for _ in range(4)]
    for n_small in family:
        for n_big in family:
            for system in (SE_M, E_SM):
                embeddings = naive_morphisms(
                    n_small, n_big, embedding_class(system), system
                )
                if not embeddings:
                    continue
                for a in targets:
                    for x in naive_morphisms(n_big, a):
                        if not is_generic(x, n_big, a, system):
                            continue
                        for g in embeddings:
                            composite = tuple(x[g[v]] for v in range(n_small.size))
                            assert is_generic(composite, n_small, a, system)


@pytest.mark.parametrize("signature, top", [(GRAPH_SIGNATURE, 3),
                                             (Signature((("U", 1), ("T", 3))), 2)])
def test_is_generic_matches_the_all_collapses_oracle(signature, top):
    # The coatom test agrees with the test against every proper collapse on
    # every map, homomorphism or not, of every pair: sources are all classes
    # up to the top size, targets all smaller classes plus a fixed stratum
    # of the top size (every class with HOMCOUNT_ACCEPTANCE_FULL=1).
    sources = [s for n in range(1, top + 1) for s in _structures_of_size(signature, n)]
    targets = [s for s in sources if s.size < top]
    level = _structures_of_size(signature, top)
    targets += level if full_acceptance() else level[::len(level) // 12]
    checked = 0
    for c in sources:
        for a in targets:
            for h in all_maps(c, a):
                for system in (SE_M, E_SM):
                    assert (is_generic(h, c, a, system)
                            == naive_is_generic(h, c, a, system)), (h, c, a, system)
                    checked += 1
    assert checked > 50_000


UNARY_TERNARY = Signature((("U", 1), ("T", 3)))
BINARY_TERNARY = Signature((("E", 2), ("R", 3)))


def _generic_pairs():
    """(c, a) pairs on `E/2`, `U/1,T/3` and `E/2,R/3`, with a loop (a tuple
    on one element) per symbol on both sides: sources of 1 to 5 elements
    into targets of 0 to 5, and pairs of 5 to 7 elements over more than
    4,096 maps, one of them a source induced in its target."""
    rng = random.Random("generic")
    pairs = []
    for signature, p in ((GRAPH_SIGNATURE, 0.25), (UNARY_TERNARY, 0.06),
                         (BINARY_TERNARY, 0.05)):
        empty = Structure(signature, 0, tuple(frozenset() for _ in signature.symbols))
        for n in range(1, 6):
            for m in range(6):
                a = random_looped(rng, signature, m, 0.5) if m else empty
                pairs.append((random_looped(rng, signature, n, p), a))
        for n, m in ((6, 5), (5, 6), (5, 7)):
            pairs.append((random_looped(rng, signature, n, p),
                          random_looped(rng, signature, m, 0.6)))
        # c induced in a, so that some E_SM count past 4,096 maps is not 0
        c = random_looped(rng, signature, 5, p)
        grown = random_looped(rng, signature, 6, 0.4)
        pairs.append((c, Structure(signature, 6, tuple(
            rel | {t for t in more if 5 in t}
            for rel, more in zip(c.relations, grown.relations)))))
    return pairs


def test_generic_count_matches_the_listing_oracle():
    # The count of homomorphisms that the all-collapses oracle calls
    # generic, on both sides of the table path's 4,096 maps.
    nonzero = set()  # (system, over 4,096 maps) of the pairs with generic elements
    for c, a in _generic_pairs():
        homs = naive_morphisms(c, a)
        for system in (SE_M, E_SM):
            want = sum(1 for h in homs if naive_is_generic(h, c, a, system))
            assert generic_count(c, a, system) == want, (c, a, system)
            if want:
                nonzero.add((system, a.size ** c.size > homsearch._TABLE_MAPS))
    assert len(nonzero) == 4


def test_generic_count_bitset_and_listing_paths_agree(monkeypatch):
    # The table rule forced off and on gives the same counts, and a spy on
    # each side shows which one ran: the bitsets take every pair with a
    # source and a target of two or more elements once the rule admits it.
    cases = [(c, a, system) for c, a in _generic_pairs() for system in (SE_M, E_SM)]
    calls = dict.fromkeys(("_generic_maps", "iter_hom_maps"), 0)

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(homcount.stirling, name, spy(name, getattr(homcount.stirling, name)))
    by_rule = [generic_count(*case) for case in cases]
    assert calls["_generic_maps"] == sum(
        a.size > 1 and a.size ** c.size <= homsearch._TABLE_MAPS for c, a, _ in cases)
    on_bitsets = sum(a.size > 1 for _, a, _ in cases)
    for limit, bitsets in ((0, 0), (10 ** 9, on_bitsets)):
        monkeypatch.setattr(homsearch, "_TABLE_MAPS", limit)
        calls.update(dict.fromkeys(calls, 0))
        assert [generic_count(*case) for case in cases] == by_rule
        assert calls == {"_generic_maps": bitsets, "iter_hom_maps": len(cases) - bitsets}
    assert any(by_rule)


def test_factorization_candidates_keep_their_expansions_and_order():
    # the E_SM expansions are c's non-tuples, symbol by symbol, each symbol's
    # in lexicographic order; SE_M has none
    sig = Signature((("E", 2), ("R", 3)))
    c = Structure.build(sig, 2, {"E": {(0, 1)}, "R": {(0, 1, 1), (1, 0, 0)}})
    assert _factorization_candidates(c, E_SM) == (((0, 1),), (
        (0, (0, 0)), (0, (1, 0)), (0, (1, 1)),
        (1, (0, 0, 0)), (1, (0, 0, 1)), (1, (0, 1, 0)), (1, (1, 0, 1)), (1, (1, 1, 0)),
        (1, (1, 1, 1))))
    assert _factorization_candidates(c, SE_M) == (((0, 1),), ())
    for c in mixed_cases(211, per_size=2, sizes=range(6)):
        merges, expansions = _factorization_candidates(c, E_SM)
        assert merges == tuple(combinations(range(c.size), 2))
        assert expansions == tuple(
            (sym, t) for sym, ((_, arity), rel) in enumerate(zip(c.signature.symbols,
                                                                c.relations))
            for t in sorted(set(product(range(c.size), repeat=arity)) - rel))


def test_a_homomorphism_factors_through_every_merge_it_identifies():
    # Why `generic_count` decides a merge by h[x] == h[y] alone: the merge's
    # relations are images of c's, so on every pair of `_generic_pairs`
    # (mixed arity, loops) the map a homomorphism with h[x] == h[y] induces
    # on the collapse of c by {x, y} is a homomorphism.
    checked = 0
    for c, a in _generic_pairs():
        for h in naive_morphisms(c, a):
            for x, y in combinations(range(c.size), 2):
                if h[x] != h[y]:
                    continue
                block = [z - (z > y) for z in range(c.size)]
                block[y] = x
                merged = Structure(c.signature, c.size - 1, tuple(
                    frozenset(tuple(block[z] for z in t) for t in rel) for rel in c.relations))
                induced = [h[z] for z in range(c.size) if z != y]
                assert is_hom(induced, merged, a), (h, x, y, c, a)
                checked += 1
    assert checked > 10_000


def test_is_generic_keeps_the_merged_tuple_test_off_homomorphisms():
    # h sends the arc of c to no arc of a point, so it is no homomorphism,
    # and it factors through no quotient: the merge's loop has nowhere to
    # go.  The listing's test, right on homomorphisms only, decides the
    # merge by h[0] == h[1] and calls h degenerate.
    c, a, h = digraph(2, {(0, 1)}), no_relation(1), (0, 0)
    assert not is_hom(h, c, a)
    for system in (SE_M, E_SM):
        assert naive_is_generic(h, c, a, system)
        assert is_generic(h, c, a, system)
        assert _factors_through(h, a, *_factorization_candidates(c, system))


@pytest.mark.parametrize("n, m", [(2, 3), (6, 5)])
def test_generic_count_refuses_a_signature_mismatch(n, m):
    # Over 9 maps (bitsets) and over 15,625 (listing).
    c = random_looped(random.Random(n), GRAPH_SIGNATURE, n, 0.3)
    a = random_looped(random.Random(m), UNARY_TERNARY, m, 0.3)
    for system in (SE_M, E_SM):
        with pytest.raises(SignatureMismatchError):
            generic_count(c, a, system)


def test_genericity_above_the_partition_cap(monkeypatch):
    # A 10-element source is past the partition cap: SE_M generic counts and
    # E_SM kernels test coatoms and never enumerate set partitions.
    def refuse(n):
        raise AssertionError("set partitions enumerated")

    monkeypatch.setattr(homcount.quotposet, "_growth_strings", refuse)
    p10, c10 = path_sym(10), cycle_sym(10)
    mono = count_morphisms(p10, c10, MorphismClass.MONO).count
    assert generic_count(p10, c10, SE_M) == mono == 20
    dec = kernel_decomposition(p10, c10, E_SM)
    assert dec.total == dec.homcount == 5120
    assert len(dec.rows) == 256


def test_kernel_decomposition_worked_instance():
    # 8 = 1*2 + 3*2 + 1*0 over the partitions of a 3-set with 1, 2, 3 blocks.
    dec = kernel_decomposition(no_relation(3), no_relation(2), SE_M)
    assert dec.homcount == 8
    assert dec.total == 8
    by_blocks = {}
    for row in dec.rows:
        by_blocks.setdefault(len(row.partition), []).append(row.generic)
    assert by_blocks[1] == [2]
    assert sorted(by_blocks[2]) == [2, 2, 2]
    assert by_blocks[3] == [0]


def test_kernel_decomposition_single_row_for_point(point):
    for a in [no_relation(4), cycle_sym(3)]:
        dec = kernel_decomposition(point, a, SE_M)
        assert len(dec.rows) == 1
        assert dec.rows[0].generic == a.size == dec.homcount


def test_kernel_decomposition_k3(k3):
    dec = kernel_decomposition(k3, k3, SE_M)
    assert dec.homcount == 6
    ident_row = [r for r in dec.rows if len(r.partition) == 3]
    assert [r.generic for r in ident_row] == [6]
    assert all(r.generic == 0 for r in dec.rows if len(r.partition) < 3)


def test_kernel_decomposition_total_matches_homcount_both_systems():
    rng = random.Random(47)
    family = [random_digraph(rng, n) for n in (1, 2, 3) for _ in range(6)]
    family.append(no_relation(0))
    for c in family:
        for a in family:
            for system in (SE_M, E_SM):
                dec = kernel_decomposition(c, a, system)
                assert dec.total == dec.homcount == naive_count(c, a)


def test_realized_quotients_match_the_definition():
    # Classes read off hom(c, a) equal the partitions-times-injections
    # definition, codomains included, in the order of block count,
    # partition and sorted relations; small digraphs pairwise, and patterns
    # of 5-6 elements with loops on both sides, on E/2 and on E/2,R/3.
    rng = random.Random(53)
    family = [random_digraph(rng, n, 0.4) for n in (0, 1, 2, 3, 4) for _ in range(4)]
    family += [no_relation(3), complete_sym(3), digraph(1, {(0, 0)})]
    pairs = [(c, a) for c in family for a in family]
    mixed = Signature((("E", 2), ("R", 3)))
    for signature, sizes, p, q in ((GRAPH_SIGNATURE, ((5, 4), (6, 4), (5, 5)), 0.15, 0.4),
                                   (mixed, ((5, 3), (5, 4), (6, 3)), 0.02, 0.6)):
        pairs += [(random_looped(rng, signature, n, p), random_looped(rng, signature, m, q))
                  for n, m in sizes for _ in range(2)]
    for c, a in pairs:
        got = _realized_quotients(c, a)
        want = naive_realized_quotients(c, a)
        assert got == want, (c, a)
        assert list(got) == sorted(want, key=lambda key: (
            len(key[0]), key[0], tuple(tuple(sorted(r)) for r in key[1]))), (c, a)
    # the larger pairs realize classes that share a partition
    assert any(len(got) > len({p for p, _ in got}) for got in
               (_realized_quotients(c, a) for c, a in pairs[-12:]))


def test_kernel_decomposition_esm_rows_expand_codomains(point, loop_point):
    dec = kernel_decomposition(point, loop_point, E_SM)
    assert dec.homcount == 1
    assert len(dec.rows) == 1
    assert dec.rows[0].codomain.relation("E") == frozenset({(0, 0)})


def test_finset_specialization():
    # For no-relation structures, |hom(n, a)| = sum_m S(n,m) * a-falling-m.
    for n in range(7):
        for a in range(7):
            total = sum(
                stirling_number(n, m) * falling(a, m) for m in range(n + 1)
            )
            assert hom_count(no_relation(n), no_relation(a)) == a**n == total


def test_finset_decomposition_rows_are_stirling_counts():
    # Row multiplicities grouped by block count match S(n, m) and each row's
    # generic count is the falling factorial.
    n, a = 4, 3
    dec = kernel_decomposition(no_relation(n), no_relation(a), SE_M)
    by_blocks = {}
    for row in dec.rows:
        by_blocks.setdefault(len(row.partition), []).append(row.generic)
    for m, generics in by_blocks.items():
        assert len(generics) == stirling_number(n, m)
        assert all(g == falling(a, m) for g in generics)
