"""The structure machinery is signature-generic; everything else in the suite
runs over one binary symbol, so this file drives the same identities over a
mixed signature with a unary and a ternary symbol."""

import itertools
import random

from homcount.cklogic import treewidth, wl_equivalent
from homcount.homsearch import count_morphisms, hom_count
from homcount.lovasz import distinguish, embeddings_via_mobius
from homcount.sigstruct import (
    E_SM,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    are_isomorphic,
    canonical_form,
    disjoint_union,
    embedding_class,
)
from homcount.stirling import _realized_quotients, generic_count, kernel_decomposition
from oracles import (
    brute_isomorphic,
    brute_treewidth,
    naive_count,
    naive_realized_quotients,
)

MIXED = Signature((("U", 1), ("T", 3)))


def random_mixed(rng, n, p_u=0.5, p_t=0.15):
    u = {(i,) for i in range(n) if rng.random() < p_u}
    t = {t3 for t3 in itertools.product(range(n), repeat=3) if rng.random() < p_t}
    return Structure.build(MIXED, n, {"U": u, "T": t})


def family(seed, sizes=(1, 2, 3), per_size=5):
    rng = random.Random(seed)
    out = [random_mixed(rng, n) for n in sizes for _ in range(per_size)]
    out.append(Structure.build(MIXED, 2, {}))
    out.append(Structure.build(MIXED, 1, {"U": {(0,)}, "T": {(0, 0, 0)}}))
    return out


def test_counts_match_naive_all_classes_and_systems():
    structures = family(101)
    for c in structures:
        for a in structures[::2]:
            for cls in MorphismClass:
                for system in (SE_M, E_SM):
                    assert (
                        count_morphisms(c, a, cls, system).count
                        == naive_count(c, a, cls, system)
                    ), (c, a, cls, system)


def test_canonical_form_matches_brute_force():
    rng = random.Random(103)
    structures = [random_mixed(rng, 3) for _ in range(25)]
    for a in structures:
        perm = list(range(3))
        rng.shuffle(perm)
        relabeled = Structure.build(
            MIXED,
            3,
            {
                "U": {(perm[x],) for (x,) in a.relation("U")},
                "T": {(perm[x], perm[y], perm[z]) for x, y, z in a.relation("T")},
            },
        )
        assert canonical_form(relabeled) == canonical_form(a)
        for b in structures[:8]:
            assert are_isomorphic(a, b) == brute_isomorphic(a, b)


def test_generic_equals_embedding_mixed_signature():
    structures = family(107, per_size=4)
    for c in structures:
        for a in structures:
            for system in (SE_M, E_SM):
                emb = count_morphisms(c, a, embedding_class(system), system).count
                assert generic_count(c, a, system) == emb, (c, a, system)


def test_mobius_embeddings_mixed_signature():
    structures = family(109, per_size=4)
    for c in structures:
        for a in structures:
            for system in (SE_M, E_SM):
                direct = count_morphisms(c, a, embedding_class(system), system).count
                assert embeddings_via_mobius(c, a, system) == direct, (c, a, system)


def test_kernel_decomposition_mixed_signature():
    structures = family(113, per_size=4)
    for c in structures:
        for a in structures[::2]:
            for system in (SE_M, E_SM):
                dec = kernel_decomposition(c, a, system)
                assert dec.total == dec.homcount


def test_realized_quotients_mixed_signature():
    structures = family(149, per_size=4)
    for c in structures:
        for a in structures:
            assert _realized_quotients(c, a) == naive_realized_quotients(c, a), (c, a)


def test_distinguish_with_ternary_witness():
    # same unary data, different ternary data: only a ternary-sensitive test
    # can split them
    a = Structure.build(MIXED, 2, {"U": {(0,), (1,)}, "T": {(0, 0, 0)}})
    b = Structure.build(MIXED, 2, {"U": {(0,), (1,)}, "T": {(0, 0, 1)}})
    res = distinguish(a, b, budget=1)
    assert res.distinguished
    assert res.witness.relation("T")


def test_treewidth_gaifman_cliques_from_ternary_tuples():
    rng = random.Random(127)
    for n in (2, 3, 4):
        for _ in range(6):
            a = random_mixed(rng, n, p_t=0.2)
            assert treewidth(a) == brute_treewidth(a)
    spread = Structure.build(MIXED, 5, {"T": {(0, 1, 2), (2, 3, 4)}})
    assert treewidth(spread) == 2


def test_wl_sees_unary_and_ternary_data():
    a = Structure.build(MIXED, 2, {"U": {(0,)}})
    b = Structure.build(MIXED, 2, {})
    assert not wl_equivalent(a, b, 2)
    c = Structure.build(MIXED, 2, {"T": {(0, 1, 0)}})
    d = Structure.build(MIXED, 2, {"T": {(0, 1, 1)}})
    assert not wl_equivalent(c, d, 3)
    assert wl_equivalent(a, a, 2) and wl_equivalent(c, c, 3)


def test_multiplicativity_mixed_signature():
    structures = family(137, sizes=(1, 2), per_size=4)
    targets = family(139, sizes=(2, 3), per_size=3)
    for c1 in structures:
        for c2 in structures[::2]:
            for a in targets[::2]:
                assert hom_count(disjoint_union(c1, c2), a) == hom_count(
                    c1, a
                ) * hom_count(c2, a)
