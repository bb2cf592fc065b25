import hashlib
import itertools

import pytest

from conftest import (
    complete_sym,
    cycle_sym,
    digraph,
    mixed_cases,
    no_relation,
    path_sym,
    random_mixed,
)
from homcount.errors import CapExceededError, SignatureMismatchError
from homcount.lovasz import _structures_of_size
from homcount.sigstruct import (
    CANON_SIZE_CAP,
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    Morphism,
    MorphismClass,
    Signature,
    Structure,
    _gaifman,
    _non_tuples,
    _representative_code,
    are_isomorphic,
    canonical_form,
    canonical_representative,
    disjoint_union,
    pushout,
    validate_morphism,
)
from oracles import (
    brute_isomorphic,
    gaifman_edges,
    identity_morphism,
    naive_count,
    reference_canonical,
)

CLS = MorphismClass


def all_small_digraphs(n):
    slots = [(i, j) for i in range(n) for j in range(n)]
    for bits in itertools.product((0, 1), repeat=len(slots)):
        arcs = {p for p, b in zip(slots, bits) if b}
        yield digraph(n, arcs)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature((("E", 2), ("E", 3)))
    with pytest.raises(ValueError):
        Signature((("E", 0),))


def test_structure_validation():
    with pytest.raises(ValueError):
        Structure.build(GRAPH_SIGNATURE, 2, {"E": {(0, 2)}})
    with pytest.raises(ValueError):
        Structure.build(GRAPH_SIGNATURE, 2, {"E": {(0, 1, 1)}})
    with pytest.raises(ValueError):
        Structure.build(GRAPH_SIGNATURE, 2, {"R": {(0, 1)}})
    with pytest.raises(ValueError, match="size must be non-negative"):
        Structure(GRAPH_SIGNATURE, -1, (frozenset(),))
    with pytest.raises(ValueError, match="one relation per signature symbol"):
        Structure(GRAPH_SIGNATURE, 2, ())


@pytest.mark.parametrize("size, tuples, message", [
    (2, {(0, 1), ()}, "tuple () has wrong arity for E/2"),
    (2, {(0, 1), (0, 1, 1)}, "tuple (0, 1, 1) has wrong arity for E/2"),
    (2, {(1, 1), (0, -1)}, "tuple (0, -1) of E out of range 0..1"),
    (2, {(1, 1), (0, 2)}, "tuple (0, 2) of E out of range 0..1"),
    (0, {(0, 0)}, "tuple (0, 0) of E out of range (the structure has no elements)"),
])
def test_structure_validation_names_the_offending_tuple(size, tuples, message):
    with pytest.raises(ValueError) as err:
        Structure(GRAPH_SIGNATURE, size, (frozenset(tuples),))
    assert str(err.value) == message


def test_structure_validation_reports_the_first_offending_tuple_in_iteration_order():
    # A relation with a tuple of the wrong arity and one out of range, among
    # good ones: the message is that of the first bad tuple the relation
    # yields, as a tuple-by-tuple walk finds it.
    signature = Signature((("U", 1), ("E", 2)))
    for bad in ({(0, 1, 2), (0, 3)}, {(3, 0), (1,)}, {(), (-1, 0), (2, 2, 2)}):
        rel = frozenset(bad | {(0, 1), (2, 2), (1, 0)})
        first = next(t for t in rel if len(t) != 2 or not all(0 <= x < 3 for x in t))
        want = (f"tuple {first} has wrong arity for E/2" if len(first) != 2
                else f"tuple {first} of E out of range 0..2")
        with pytest.raises(ValueError) as err:
            Structure(signature, 3, (frozenset({(0,), (2,)}), rel))
        assert str(err.value) == want


def test_signature_lookups_refuse_an_unknown_name():
    assert GRAPH_SIGNATURE.arity("E") == 2 and GRAPH_SIGNATURE.index("E") == 0
    with pytest.raises(KeyError):
        GRAPH_SIGNATURE.arity("R")
    with pytest.raises(KeyError):
        GRAPH_SIGNATURE.index("R")


def test_a_tuple_in_a_size_0_structure_is_refused_as_having_no_elements():
    with pytest.raises(ValueError) as err:
        Structure.build(GRAPH_SIGNATURE, 0, {"E": {(2, 0)}})
    assert str(err.value) == "tuple (2, 0) of E out of range (the structure has no elements)"


def test_validate_morphism_identity_is_hom(k3):
    assert validate_morphism((0, 1, 2), k3, k3, CLS.HOM)


def test_validate_morphism_constant_map_to_loopless_point_fails(single_arc, point):
    assert not validate_morphism((0, 0), single_arc, point, CLS.HOM)


def test_validate_morphism_quotient_arc_to_loop(single_arc, loop_point):
    # Derived by enumerating the tuple-image condition: the loop (0,0) is the
    # image of the arc (0,1) under the constant map.
    assert validate_morphism((0, 0), single_arc, loop_point, CLS.QUOTIENT, SE_M)


def test_validate_morphism_signature_mismatch(k3):
    other = Structure.build(Signature((("R", 2),)), 3, {})
    with pytest.raises(SignatureMismatchError):
        validate_morphism((0, 1, 2), k3, other, CLS.HOM)


def test_validate_morphism_refuses_a_map_that_is_not_total(k3):
    for f in ((0, 1), (0, 1, 2, 0), (0, 1, 3)):
        with pytest.raises(ValueError, match="total map"):
            validate_morphism(f, k3, k3, CLS.HOM)


def test_class_implications_on_small_structures():
    # quotient => surjection => hom and strong-mono => mono => hom,
    # over every map between all digraphs of size <= 2.
    structures = list(all_small_digraphs(1)) + list(all_small_digraphs(2))
    for c in structures:
        for a in structures:
            for f in itertools.product(range(a.size), repeat=c.size):
                for system in (SE_M, E_SM):
                    if validate_morphism(f, c, a, CLS.QUOTIENT, system):
                        assert validate_morphism(f, c, a, CLS.SURJECTION)
                    if validate_morphism(f, c, a, CLS.SURJECTION):
                        assert validate_morphism(f, c, a, CLS.HOM)
                    if validate_morphism(f, c, a, CLS.STRONG_MONO):
                        assert validate_morphism(f, c, a, CLS.MONO)
                    if validate_morphism(f, c, a, CLS.MONO):
                        assert validate_morphism(f, c, a, CLS.HOM)


def test_quotient_and_embedding_implies_isomorphism():
    # In either system, a map that is both a quotient and an embedding must be
    # bijective with a homomorphism inverse.  Exhaustive at size <= 3 over a
    # deterministic family, all maps.
    family = [no_relation(2), digraph(2, {(0, 1)}), digraph(3, {(0, 1), (1, 2)}),
              complete_sym(3), digraph(3, {(0, 0), (1, 2)}), cycle_sym(3)]
    for c in family:
        for a in family:
            for f in itertools.product(range(a.size), repeat=c.size):
                for system, emb in ((SE_M, CLS.MONO), (E_SM, CLS.STRONG_MONO)):
                    if (validate_morphism(f, c, a, CLS.QUOTIENT, system)
                            and validate_morphism(f, c, a, emb, system)):
                        assert brute_isomorphic(c, a)
                        inv = [0] * c.size
                        for x, y in enumerate(f):
                            inv[y] = x
                        assert validate_morphism(inv, a, c, CLS.HOM)


def test_morphism_rejects_non_hom(single_arc, point):
    with pytest.raises(ValueError):
        Morphism.build(single_arc, point, (0, 0))


def test_are_isomorphic_reflexive(k3, c6):
    assert are_isomorphic(k3, k3)
    assert are_isomorphic(c6, c6)


def test_c6_not_isomorphic_to_two_triangles(c6, two_c3):
    # Frozen from the 720-bijection exhaustion oracle.
    assert brute_isomorphic(c6, two_c3) is False
    assert are_isomorphic(c6, two_c3) is False


def test_relabeled_k3_isomorphic(k3):
    relabeled = digraph(3, {(2, 1), (1, 2), (2, 0), (0, 2), (1, 0), (0, 1)})
    assert are_isomorphic(k3, relabeled)


def test_are_isomorphic_agrees_with_brute_force_size_3():
    structures = list(all_small_digraphs(3))
    import random

    rng = random.Random(7)
    sample = rng.sample(structures, 40)
    for a in sample:
        for b in rng.sample(structures, 12):
            assert are_isomorphic(a, b) == brute_isomorphic(a, b)


def test_disjoint_union_unit_law(k3):
    empty = no_relation(0)
    assert are_isomorphic(disjoint_union(k3, empty), k3)


def test_disjoint_union_two_triangles(two_c3):
    assert two_c3.size == 6
    assert len(two_c3.relation("E")) == 12


def test_point_counts_add_over_disjoint_union(point):
    for a in all_small_digraphs(2):
        for b in [no_relation(3), cycle_sym(3)]:
            u = disjoint_union(a, b)
            assert naive_count(point, u) == a.size + b.size


def test_pushout_of_identity_legs(k3):
    ident = identity_morphism(k3)
    p, la, lb = pushout(ident, ident)
    assert are_isomorphic(p, k3)
    assert la.map == lb.map


def test_pushout_glues_arcs_into_path():
    arc = digraph(2, {(0, 1)})
    pt = no_relation(1)
    # include the shared vertex as target of one arc and source of the other
    f = Morphism.build(pt, arc, (1,))
    g = Morphism.build(pt, arc, (0,))
    p, la, lb = pushout(f, g)
    assert p.size == 3
    assert len(p.relation("E")) == 2
    expected = digraph(3, {(0, 1), (1, 2)})
    assert are_isomorphic(p, expected)


def test_pushout_in_finset():
    sig = Signature((("U", 1),))
    one = Structure.build(sig, 1, {})
    two = Structure.build(sig, 2, {})
    f = Morphism.build(one, two, (0,))
    g = Morphism.build(one, two, (1,))
    p, _, _ = pushout(f, g)
    assert p.size == 3


def test_pushout_refuses_legs_whose_domains_differ():
    arc = digraph(2, {(0, 1)})
    f = Morphism.build(no_relation(1), arc, (0,))
    g = Morphism.build(arc, arc, (0, 1))
    with pytest.raises(ValueError, match="pushout legs must share their domain"):
        pushout(f, g)


def test_pushout_commutes_and_is_universal_on_small_instances():
    # Universal property on every span between <=2-element digraphs: for any
    # commuting cocone there is exactly one mediating hom from the pushout.
    structures = list(all_small_digraphs(1)) + list(all_small_digraphs(2))
    import random

    rng = random.Random(3)
    spans = []
    for c in structures[:8]:
        for a in rng.sample(structures, 6):
            for b in rng.sample(structures, 4):
                fs = [f for f in itertools.product(range(a.size), repeat=c.size)
                      if validate_morphism(f, c, a, CLS.HOM)]
                gs = [g for g in itertools.product(range(b.size), repeat=c.size)
                      if validate_morphism(g, c, b, CLS.HOM)]
                if fs and gs:
                    spans.append((c, a, b, fs[0], gs[-1]))
    assert spans
    for c, a, b, fm, gm in spans:
        f = Morphism.build(c, a, fm)
        g = Morphism.build(c, b, gm)
        p, la, lb = pushout(f, g)
        assert all(la.map[f.map[x]] == lb.map[g.map[x]] for x in range(c.size))
        for t in structures[:6]:
            for u in itertools.product(range(t.size), repeat=a.size):
                if not validate_morphism(u, a, t, CLS.HOM):
                    continue
                for v in itertools.product(range(t.size), repeat=b.size):
                    if not validate_morphism(v, b, t, CLS.HOM):
                        continue
                    if any(u[f.map[x]] != v[g.map[x]] for x in range(c.size)):
                        continue
                    mediating = [
                        h for h in itertools.product(range(t.size), repeat=p.size)
                        if validate_morphism(h, p, t, CLS.HOM)
                        and all(h[la.map[x]] == u[x] for x in range(a.size))
                        and all(h[lb.map[x]] == v[x] for x in range(b.size))
                    ]
                    assert len(mediating) == 1


def test_canonical_form_permutation_invariance(k3):
    for perm in itertools.permutations(range(3)):
        relabeled = digraph(3, {(perm[x], perm[y]) for x, y in k3.relation("E")})
        assert canonical_form(relabeled) == canonical_form(k3)


def test_canonical_form_separates_c6_from_triangles(c6, two_c3):
    assert canonical_form(c6) != canonical_form(two_c3)


def test_canonical_form_empty_structure():
    assert canonical_form(no_relation(0)) == b"0|E/2:"
    mixed = Signature((("E", 2), ("R", 3)))
    assert canonical_form(Structure.build(mixed, 0)) == b"0|E/2:|R/3:"


def test_gaifman_matches_the_edge_oracle():
    # both directions of every oracle edge, and no element its own neighbour
    for s in mixed_cases(181):
        nbrs = _gaifman(s)
        assert len(nbrs) == s.size
        edges = gaifman_edges(s)
        assert {(x, y) for x in range(s.size) for y in range(s.size)
                if nbrs[x] >> y & 1} == edges | {(y, x) for x, y in edges}


def test_non_tuples_are_the_tuples_outside_each_relation_in_order():
    for s in mixed_cases(191):
        assert _non_tuples(s) == [
            sorted(set(itertools.product(range(s.size), repeat=arity)) - rel)
            for (_, arity), rel in zip(s.signature.symbols, s.relations)]


def test_canonical_form_cap():
    with pytest.raises(CapExceededError):
        canonical_form(no_relation(9))


def test_canonical_form_at_the_cap():
    # a directed path on 8 elements and a relabelled copy
    n = CANON_SIZE_CAP
    arcs = {(i, i + 1) for i in range(n - 1)}
    perm = [3, 7, 0, 5, 1, 6, 2, 4]
    relabelled = digraph(n, {(perm[x], perm[y]) for x, y in arcs})
    code = canonical_form(digraph(n, arcs))
    assert code.startswith(b"8|")
    assert canonical_form(relabelled) == code
    assert canonical_form(canonical_representative(relabelled)) == code


def test_canonical_form_agrees_with_brute_force_on_size_3_pairs():
    import random

    structures = list(all_small_digraphs(3))
    rng = random.Random(11)
    for _ in range(250):
        a, b = rng.choice(structures), rng.choice(structures)
        assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)


def test_canonical_form_agrees_with_brute_force_on_size_4_samples():
    import random

    rng = random.Random(13)
    for _ in range(30):
        arcs_a = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 8))}
        arcs_b = {(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randint(0, 8))}
        a, b = digraph(4, arcs_a), digraph(4, arcs_b)
        assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)
        perm = list(range(4))
        rng.shuffle(perm)
        relabeled = digraph(4, {(perm[x], perm[y]) for x, y in arcs_a})
        assert canonical_form(relabeled) == canonical_form(a)


def test_canonical_representative_is_isomorphic_with_same_code():
    for a in all_small_digraphs(2):
        rep = canonical_representative(a)
        assert canonical_form(rep) == canonical_form(a)
        assert brute_isomorphic(rep, a)


def test_a_representative_reads_its_code_off_its_own_labelling():
    levels = [_structures_of_size(GRAPH_SIGNATURE, n) for n in range(1, 5)]
    levels += [_structures_of_size(GRAPH_SIGNATURE, n, undirected=True) for n in range(1, 6)]
    assert sum(map(len, levels)) == 2 + 10 + 104 + 3044 + 1 + 2 + 4 + 11 + 34
    for rep in itertools.chain.from_iterable(levels):
        assert _representative_code(rep) == canonical_form(rep), rep


def test_canonical_codes_equal_the_reference_byte_for_byte():
    # The catalogue's order and every printed witness follow the codes, so
    # the search must find the reference's minimum, not just some invariant.
    import random

    rng = random.Random(31)
    binary = [_structures_of_size(GRAPH_SIGNATURE, n) for n in range(1, 5)]
    undirected = [_structures_of_size(GRAPH_SIGNATURE, n, undirected=True)
                  for n in range(1, 7)]
    cases = []
    for rep in itertools.chain.from_iterable(binary + undirected):
        cases.append(rep)
        for _ in range(3):
            perm = rng.sample(range(rep.size), rep.size)
            cases.append(Structure(rep.signature, rep.size, tuple(
                frozenset(tuple(perm[x] for x in t) for t in rel) for rel in rep.relations)))
    mixed = Signature((("E", 2), ("R", 3), ("U", 1)))
    cases += [random_mixed(rng, mixed, rng.randrange(8)) for _ in range(2000)]
    assert len(cases) == 4 * (3160 + 208) + 2000
    for s in cases:
        assert (canonical_form(s), canonical_representative(s)) == reference_canonical(s), s
    codes = b"\n".join(map(canonical_form, binary[3]))
    assert hashlib.sha256(codes).hexdigest() == (
        "3016009c86a64eefa76f1ce56c7e2b3821f36ecb98197d5b9c180edf106c7cc3")


def test_canonical_form_congruence_for_disjoint_union():
    small = [no_relation(1), digraph(1, {(0, 0)}), digraph(2, {(0, 1)}),
             cycle_sym(3), path_sym(3)]
    for a in small:
        for b in small:
            assert canonical_form(disjoint_union(a, b)) == canonical_form(
                disjoint_union(b, a)
            )
