import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_sym, cycle_sym, digraph, no_relation, path_sym
from homcount.errors import SignatureMismatchError
from homcount import homsearch, profinite, sigstruct
from homcount.homsearch import _search_plan, count_morphisms, hom_count, iter_hom_maps
from homcount.cklogic import ck_profile_equal
from homcount.cli import run
from homcount.formats import write_structure
from homcount.lovasz import (
    LEFT,
    RIGHT,
    _structures_of_size,
    decide_isomorphic_by_counting,
    distinguish,
    embeddings_via_mobius,
    hom_profile,
)
from homcount.profinite import count_group_homs, cyclic_group, direct_product, has_surjection
from homcount.selftest import full_acceptance
from homcount.sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    disjoint_union,
    embedding_class,
    validate_morphism,
)
from homcount.stirling import generic_count, kernel_decomposition
from oracles import naive_count, naive_group_homs, naive_morphisms

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


def spy_reflection(monkeypatch):
    """Wrap the leaf check `reflects_relations` under both of its bindings,
    in `sigstruct` and in `homsearch`; the returned list counts its calls."""
    calls = [0]
    real = sigstruct.reflects_relations

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(sigstruct, "reflects_relations", counted)
    monkeypatch.setattr(homsearch, "reflects_relations", counted)
    return calls


def test_listing_hom_witnesses_checks_no_reflection(monkeypatch, k3):
    # A HOM witness is checked as a homomorphism only: the bijections of
    # k3 -> k3 and the surjections onto K2 call no reflection check.
    calls = spy_reflection(monkeypatch)
    for system in (SE_M, E_SM):
        for c, a in ((k3, k3), (path_sym(3), k3), (k3, complete_sym(2)),
                     (cycle_sym(4), complete_sym(2))):
            res = count_morphisms(c, a, CLS.HOM, system, enumerate_witnesses=True)
            assert sorted(m.map for m in res.witnesses) == sorted(naive_morphisms(c, a))
    assert calls == [0]


def test_strong_monos_prune_reflection_in_the_search(monkeypatch):
    # Strong monos are pruned step by step, on the table path and in the
    # search, so no complete map reaches the leaf check; SE_M quotients
    # still take it, once per surjective homomorphism.
    calls = spy_reflection(monkeypatch)
    rng = random.Random(31)
    pairs = [(random_digraph(rng, n, 0.3), random_digraph(rng, m, 0.5))
             for n, m in ((3, 4), (4, 4), (5, 7), (6, 6))]
    assert any(m.size ** c.size > homsearch._TABLE_MAPS for c, m in pairs)
    for c, a in pairs:
        for system in (SE_M, E_SM):
            expected = naive_count(c, a, CLS.STRONG_MONO, system)
            assert count_morphisms(c, a, CLS.STRONG_MONO, system).count == expected
            res = count_morphisms(c, a, CLS.STRONG_MONO, system, enumerate_witnesses=True)
            assert res.count == len(res.witnesses) == expected
            assert len(list(iter_hom_maps(c, a, CLS.STRONG_MONO, system))) == expected
    assert calls == [0]
    c, a = cycle_sym(6), complete_sym(3)
    surjections = count_morphisms(c, a, CLS.SURJECTION).count
    assert surjections == 60
    assert count_morphisms(c, a, CLS.QUOTIENT, SE_M).count == naive_count(c, a, CLS.QUOTIENT, SE_M)
    assert calls == [surjections]


def count_with_limit(tmp_path, capsys, c, a, limit, *options):
    # `homcount count --limit`, the one listing that is cut at a limit
    paths = []
    for name, s in (("c", c), ("a", a)):
        path = tmp_path / f"{name}.struct"
        path.write_text(write_structure(name, s))
        paths.append(str(path))
    code = run(["count", *options, "--limit", str(limit), *paths])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out.splitlines()


def map_lines(maps):
    return ["map\t" + " ".join(map(str, f)) for f in maps]


def test_enumeration_limit_flags_truncation(k3, tmp_path, capsys):
    lines = count_with_limit(tmp_path, capsys, k3, k3, 2)
    first = itertools.islice(iter_hom_maps(k3, k3), 2)
    assert lines == ["6"] + map_lines(first) + ["truncated"]


def test_a_truncated_listing_counts_its_total(tmp_path, capsys, monkeypatch):
    # The total of a truncated listing is counted, not listed: the listing
    # stops at the limit.  6 * 5^8 maps, of which 3 are listed.
    pulled = []
    real_maps = homsearch._maps

    def maps(*args):
        pulled.append(0)
        i = len(pulled) - 1
        for f in real_maps(*args):
            pulled[i] += 1
            yield f

    monkeypatch.setattr(homsearch, "_maps", maps)
    p9, k6 = path_sym(9), complete_sym(6)
    for system in (SE_M, E_SM):
        del pulled[:]
        lines = count_with_limit(tmp_path, capsys, p9, k6, 3, "--system", system.value)
        assert lines[0] == str(6 * 5 ** 8)
        assert lines[-1] == "truncated" and len(lines) == 5
        assert pulled == [3]
    assert lines[1:4] == map_lines(itertools.islice(iter_hom_maps(p9, k6), 3))


def test_a_truncated_listing_of_a_class_counted_by_listing_goes_on_with_that_listing(
        tmp_path, capsys, monkeypatch):
    # SE_M quotients are counted by listing them, so the listing that gives
    # the maps printed also gives the total of a truncated one
    c, a = digraph(4, {(0, 1)}), digraph(2, {(0, 1)})
    listings = []
    maps = homsearch._maps
    monkeypatch.setattr(homsearch, "_maps", lambda *args: listings.append(args) or maps(*args))
    lines = count_with_limit(tmp_path, capsys, c, a, 1, "--class", "quotient", "--system",
                             SE_M.value)
    assert len(listings) == 1
    assert int(lines[0]) == naive_count(c, a, CLS.QUOTIENT, SE_M) == 4
    assert lines[1:] == ["map\t0 1 0 0", "truncated"]


def test_an_unknown_class_or_system_is_refused(k3):
    # A plain string in place of an enum member is refused, not read as HOM or E_SM.
    arc = digraph(2, {(0, 1)})
    k2_loop = digraph(3, {(0, 1), (1, 0), (2, 2)})
    refused = [
        lambda: count_morphisms(arc, k3, "strong-mono"),
        lambda: list(iter_hom_maps(arc, k3, "hom")),
        lambda: count_morphisms(no_relation(2), digraph(1, {(0, 0)}), CLS.QUOTIENT, "se-m"),
        lambda: validate_morphism((0, 1), arc, k3, "mono"),
        lambda: embeddings_via_mobius(arc, k2_loop, "se-m"),
        lambda: generic_count(arc, k2_loop, "se-m"),
        lambda: kernel_decomposition(no_relation(2), k2_loop, "se-m"),
        # refused before the loop, so an empty family is refused too
        lambda: hom_profile(k3, [], RIGHT, "strong-mono"),
        lambda: hom_profile(k3, [], RIGHT, CLS.HOM, "se-m"),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="unknown (morphism class|factorisation system)"):
            call()
    for family in ([], [arc]):
        with pytest.raises(ValueError, match="side must be"):
            hom_profile(k3, family, "sideways")


def test_signature_mismatch(k3):
    other = Structure.build(Signature((("R", 3),)), 2, {})
    with pytest.raises(SignatureMismatchError):
        count_morphisms(k3, other)


def test_no_internal_count_builds_a_count_result(monkeypatch, k3, c6, two_c3):
    # CountResult is built at the public edge only: with it refused, every
    # counting loop of the package still gives the values it gave when its
    # counts went through count_morphisms.
    def refuse(*args, **kwargs):
        raise AssertionError("CountResult built by an internal count")

    monkeypatch.setattr(homsearch, "CountResult", refuse)
    with pytest.raises(AssertionError, match="CountResult"):
        count_morphisms(k3, k3)
    a = digraph(3, {(0, 1), (1, 0), (1, 2), (2, 2)})
    family = [no_relation(0), digraph(1, {(0, 0)}), digraph(2, {(0, 1)}), k3,
              digraph(3, {(0, 1), (1, 2), (2, 0), (1, 1)})]
    assert hom_count(k3, c6) == 0
    assert hom_count(family[-1], a) == naive_count(family[-1], a)
    for cls in CLS:
        for system in (SE_M, E_SM):
            assert hom_profile(a, family, RIGHT, cls, system).counts == tuple(
                naive_count(t, a, cls, system) for t in family)
            assert hom_profile(a, family, LEFT, cls, system).counts == tuple(
                naive_count(a, t, cls, system) for t in family)
    triangle = digraph(3, {(0, 1), (1, 2), (2, 1), (2, 0), (0, 2), (1, 0)})
    verdict = distinguish(c6, two_c3, 3, RIGHT)
    assert (verdict.witness, verdict.counts) == (triangle, (0, 12))
    verdict = distinguish(c6, two_c3, 3, LEFT)
    assert (verdict.witness, verdict.counts) == (digraph(2, {(1, 0), (1, 1), (0, 0)}), (2, 4))
    assert not decide_isomorphic_by_counting(c6, two_c3)
    assert decide_isomorphic_by_counting(k3, digraph(3, set(k3.relation("E"))))
    assert ck_profile_equal(c6, two_c3, 2, 4, undirected=True).equivalent
    verdict = ck_profile_equal(c6, two_c3, 3, 3, undirected=True)
    assert (verdict.witness, verdict.counts) == (triangle, (0, 12))
    c = digraph(3, {(0, 1), (1, 2), (2, 2)})
    target = digraph(3, {(0, 1), (1, 0), (1, 2), (2, 2), (0, 0)})
    for system, generic in ((SE_M, (2, 0, 1, 2, 1)), (E_SM, (2, 1, 1, 1, 1))):
        assert embeddings_via_mobius(family[-1], a, system) == naive_count(
            family[-1], a, embedding_class(system), system)
        decomposition = kernel_decomposition(c, target, system)
        assert tuple(row.generic for row in decomposition.rows) == generic
        assert decomposition.total == decomposition.homcount == 6
    z2, z4 = cyclic_group(2), cyclic_group(4)
    for g, h in ((z4, z2), (direct_product(z2, z2), z4), (z2, direct_product(z2, z2))):
        assert count_group_homs(g, h) == len(naive_group_homs(g, h))


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


# The classes that count without a reflection check on complete maps, which
# the table path serves below its size rule.
TABLE_CLASSES = ((CLS.HOM, SE_M), (CLS.MONO, SE_M), (CLS.SURJECTION, SE_M),
                 (CLS.QUOTIENT, E_SM), (CLS.STRONG_MONO, SE_M), (CLS.STRONG_MONO, E_SM))


# The classes the frontier DP serves: plain homomorphisms, and the
# surjective classes with no reflection check, by inclusion-exclusion.
FRONTIER_CLASSES = ((CLS.HOM, SE_M), (CLS.SURJECTION, SE_M), (CLS.SURJECTION, E_SM),
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
    # a long pattern below the size rule: 1^40 maps, into a point with and
    # without a loop
    pairs += [(path_sym(40), digraph(1, arcs)) for arcs in (set(), {(0, 0)})]
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


def _with_loops(rng, s):
    """s with a tuple on one element added to each symbol, at a random
    element (s unchanged when it has none)."""
    if not s.size:
        return s
    rels = {name: set(rel) | {(rng.randrange(s.size),) * arity}
            for (name, arity), rel in zip(s.signature.symbols, s.relations)}
    return Structure.build(s.signature, s.size, rels)


def _induced(rng, a, n):
    """The substructure of a induced on n of its elements, chosen at random
    and numbered in their order in a: it has a strong mono into a."""
    keep = sorted(rng.sample(range(a.size), n))
    index = {x: i for i, x in enumerate(keep)}
    rels = {name: {tuple(index[x] for x in t) for t in rel if all(x in index for x in t)}
            for (name, _), rel in zip(a.signature.symbols, a.relations)}
    return Structure.build(a.signature, n, rels)


def test_strong_mono_counts_and_listings_match_naive_oracle():
    # Both sides of the table path's size rule, binary and mixed arity, with
    # loops in the pattern, the target, both or neither, and patterns
    # induced in their targets, so that some counts are nonzero.  The
    # listing is the MONO listing with the maps that do not reflect left
    # out, in its order.
    rng = random.Random("strong")
    pairs = _table_pairs()
    pairs += [(_with_loops(rng, c), a) for c, a in pairs[::3]]
    pairs += [(c, _with_loops(rng, a)) for c, a in pairs[1::3]]
    pairs += [(_with_loops(rng, c), _with_loops(rng, a)) for c, a in pairs[2::3]]
    for signature in (GRAPH_SIGNATURE, MIXED, BINARY_TERNARY):
        for n, m in ((3, 5), (4, 9), (5, 6), (5, 7)):
            for p in (0.02, 0.15, 0.4):
                a = random_structure(rng, signature, m, p)
                pairs += [(_induced(rng, a, n), a), (_induced(rng, a, n), _with_loops(rng, a))]
    below = above = nonzero = 0
    for c, a in pairs:
        if a.size ** c.size <= homsearch._TABLE_MAPS:
            below += 1
        else:
            above += 1
        monos = list(iter_hom_maps(c, a, CLS.MONO))
        for system in (SE_M, E_SM):
            expected = set(naive_morphisms(c, a, CLS.STRONG_MONO, system))
            assert count_morphisms(c, a, CLS.STRONG_MONO, system).count == len(expected)
            listed = [m.map for m in count_morphisms(c, a, CLS.STRONG_MONO, system,
                                                     enumerate_witnesses=True).witnesses]
            assert listed == [f for f in monos if f in expected], (c, a, system)
            assert list(iter_hom_maps(c, a, CLS.STRONG_MONO, system)) == listed
        nonzero += bool(expected)
    assert below and above and nonzero


COUNTING_PATHS = ("_table_count", "_search_count", "_frontier_count")


def spy_paths(monkeypatch):
    """Wrap the three counting paths; the returned dict counts their calls."""
    calls = dict.fromkeys(COUNTING_PATHS, 0)

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in COUNTING_PATHS:
        monkeypatch.setattr(homsearch, name, spy(name, getattr(homsearch, name)))
    return calls


def force_path(monkeypatch, name):
    """Make the selection rule choose the named path for every count."""
    monkeypatch.setattr(homsearch, "_counter", lambda *args: getattr(homsearch, name))


def test_table_and_backtracking_paths_agree(monkeypatch):
    # The selection forced to each path in turn gives the counts the rule
    # gives; the frontier DP serves plain homomorphisms and the surjective
    # classes with no reflection check, so it is forced on those counts.
    cases = [(c, a, cls, system) for c, a in _table_pairs() for cls, system in TABLE_CLASSES]
    calls = spy_paths(monkeypatch)
    by_rule = [count_morphisms(*case).count for case in cases]
    # the table path takes exactly the counts over few maps
    assert calls["_table_count"] == sum(a.size ** c.size <= homsearch._TABLE_MAPS
                                        for c, a, _, _ in cases)
    for name in COUNTING_PATHS:
        force_path(monkeypatch, name)
        calls.update(dict.fromkeys(COUNTING_PATHS, 0))
        forced = [(case, n) for case, n in zip(cases, by_rule)
                  if name != "_frontier_count" or case[2:] in FRONTIER_CLASSES]
        assert [count_morphisms(*case).count for case, _ in forced] == [n for _, n in forced]
        assert calls == {path: len(forced) if path == name else 0 for path in COUNTING_PATHS}
    assert any(by_rule)


def _undirected(rng, n, p, loops=0.0):
    """A random symmetric E/2 structure on n elements: each edge with
    probability p, each loop with probability `loops`."""
    arcs = {(i, j) for i in range(n) for j in range(i, n)
            if rng.random() < (p if i != j else loops)}
    return digraph(n, arcs | {(j, i) for i, j in arcs})


def _forced_path_cases():
    """(pattern, target) pairs for the forced paths: undirected patterns
    (cycles, paths, K4, a diamond with a pendant), each also with a loop,
    into undirected targets of 0 to 8 elements and into digraphs of 0 to 5,
    at most 8^4 maps each for the oracle's sake; and E/2,R/3 patterns whose
    ternary tuples repeat a variable, into random targets of 0 to 5
    elements."""
    rng = random.Random("forced paths")
    diamond = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)}
    patterns = [cycle_sym(3), cycle_sym(4), cycle_sym(5), path_sym(3), path_sym(4),
                complete_sym(4), digraph(5, diamond | {(j, i) for i, j in diamond})]
    patterns += [_with_loops(rng, c) for c in patterns]
    targets = [_undirected(rng, m, 0.5) for m in range(9)]
    targets += [_undirected(rng, m, 0.5, loops=0.3) for m in range(1, 6)]
    targets += [random_digraph(rng, m) for m in range(6)]
    pairs = [(c, a) for c in patterns for a in targets if a.size ** c.size <= 8 ** 4]
    # Each of (0, 1, 0) and (1, 0, 1) repeats a variable, so whichever of 0
    # and 1 is bound later repeats in one of them.
    ternary = [Structure.build(BINARY_TERNARY, n, {"E": arcs, "R": {(0, 1, 0), (1, 0, 1)} | more})
               for n, arcs, more in ((2, set(), set()), (3, {(0, 2)}, {(2, 2, 1)}),
                                     (4, {(2, 3), (3, 2)}, {(0, 3, 3), (3, 1, 2)}))]
    pairs += [(c, random_structure(rng, BINARY_TERNARY, m, 0.3)) for c in ternary
              for m in range(6)]
    return pairs


def test_forced_paths_on_undirected_inputs_match_naive_oracle(monkeypatch):
    # Symmetric patterns read equal tables for (x, v) and (v, x) in a
    # symmetric target, which each step binds once; ternary tuples that
    # repeat the step's variable keep only the target tuples that agree.
    pairs = _forced_path_cases()
    nsym = len(BINARY_TERNARY.symbols)
    assert any(bin(key // nsym).count("1") > 1
               for c, _ in pairs if c.signature == BINARY_TERNARY
               for _, ones, _ in _search_plan(c).steps for key, _ in ones)
    cases = [(c, a, cls, system) for c, a in pairs for cls in CLS for system in (SE_M, E_SM)]
    expected = [naive_count(*case) for case in cases]
    calls = spy_paths(monkeypatch)
    for name in COUNTING_PATHS:
        force_path(monkeypatch, name)
        calls.update(dict.fromkeys(COUNTING_PATHS, 0))
        for case, n in zip(cases, expected):
            if name != "_frontier_count" or case[2:] in FRONTIER_CLASSES:
                assert count_morphisms(*case).count == n, (name, case)
        assert calls[name] > 0
    assert any(expected)


def test_each_step_binds_each_distinct_table_once():
    # C4's order binds each vertex after some of its neighbours.  Into an
    # undirected target the tables of (x, v) and (v, x) are equal, and the
    # step binds one; into a digraph whose relation is not symmetric they
    # differ, and it binds both.  Under strong mono the complements of the
    # tables of the non-edges are deduplicated the same way.
    c = cycle_sym(4)
    plan = _search_plan(c)
    order = plan.order
    earlier = [[x for x in order[:s] if (x, v) in c.relations[0]] for s, v in enumerate(order)]
    assert any(earlier)
    rng = random.Random("bound steps")
    undirected = _undirected(rng, 6, 0.5)
    arcs = {(i, j) for i in range(6) for j in range(6) if i != j and rng.random() < 0.4}
    arcs.add((0, 1))
    arcs.discard((1, 0))
    directed = digraph(6, arcs)
    for a, copies in ((undirected, 1), (directed, 2)):
        bound = homsearch._bind(plan.steps, a)
        assert [len(ones) for _, ones, _ in bound] == [copies * len(e) for e in earlier]
        # with the non-edges' complements: one table per earlier vertex
        bound = homsearch._bind(plan.steps, a, plan.absent)
        assert [len(ones) for _, ones, _ in bound] == [copies * s for s in range(c.size)]


def _frontier_pairs():
    """(pattern, target) pairs for the frontier DP against the oracle, with
    random targets of sizes 0 to 5: every binary catalogue class with at
    most 4 elements (a fixed stratum of the size-4 level, against half the
    targets, unless HOMCOUNT_ACCEPTANCE_FULL=1), every E/2,R/3 class with at
    most 2 elements (the 2-element ones against one target each), random
    patterns up to 5 elements whose tuples repeat variables, and their
    disjoint unions with small classes."""
    rng = random.Random("frontier")
    pairs = []
    for signature, top in ((Signature((("E", 2),)), 4), (BINARY_TERNARY, 2)):
        targets = [random_structure(rng, signature, m, q)
                   for m in range(6) for q in (0.3, 0.6)]
        patterns = [s for n in range(1, top) for s in _structures_of_size(signature, n)]
        patterns += [random_structure(rng, signature, n, p)
                     for n in range(3, 6) for p in (0.0, 0.03, 0.06, 0.1, 0.2)]
        patterns += [disjoint_union(rng.choice(patterns[:4]), x) for x in patterns[-15:-5]]
        pairs += [(c, a) for c in patterns for a in targets]
        level = _structures_of_size(signature, top)
        if top == 2:
            pairs += [(c, targets[i % len(targets)]) for i, c in enumerate(level)]
        elif full_acceptance():
            pairs += [(c, a) for c in level for a in targets]
        else:
            pairs += [(c, a) for c in level[::8] for a in targets[::2]]
    return pairs


def test_frontier_counts_match_naive_oracle(monkeypatch):
    force_path(monkeypatch, "_frontier_count")
    calls = spy_paths(monkeypatch)
    pairs = _frontier_pairs()
    for c, a in pairs:
        assert hom_count(c, a) == naive_count(c, a), (c, a)
    assert calls["_frontier_count"] == len(pairs)
    # the frontier empties before the last step (isolated elements, several
    # components), and stays empty in patterns with no tuple between two
    # elements
    plans = [_search_plan(c) for c, _ in pairs]
    assert any(keep(tuple(range(10))) == () and not stays
               for plan in plans for _, keep, stays in plan.frontier[:-1])
    assert any(plan.walk[0] == 0 and len(plan.frontier) > 1 for plan in plans)


def _with_isolated(s):
    """s with one more element, in no tuple."""
    return Structure.build(s.signature, s.size + 1,
                           {name: rel for (name, _), rel in zip(s.signature.symbols,
                                                                s.relations)})


def _surjection_pairs():
    """(pattern, target) pairs for surjective counts: `E/2` patterns of 1 to 6
    elements without loops and `E/2,R/3` ones with repeated variables, each
    also with loops added, into targets of 1 to 4 elements, with and without
    loops, and with an isolated element added (at most 3^6 or 5^5 maps)."""
    rng = random.Random("surjective frontier")
    pairs = []
    for signature, p, q in ((GRAPH_SIGNATURE, 0.35, 0.6), (BINARY_TERNARY, 0.04, 0.3)):
        targets = [random_structure(rng, signature, m, q) for m in range(1, 5) for _ in range(2)]
        targets += [_with_loops(rng, a) for a in targets[::2]]
        targets += [_with_isolated(a) for a in targets[:6]]
        for n in range(1, 7):
            for _ in range(3):
                if signature is GRAPH_SIGNATURE:
                    c = digraph(n, {(x, y) for x in range(n) for y in range(n)
                                    if x != y and rng.random() < p})
                else:
                    c = random_structure(rng, signature, n, p)
                for pattern in (c, _with_loops(rng, c)):
                    fits = [a for a in targets if a.size ** n <= 5 ** 5 or a.size <= 3]
                    pairs += [(pattern, a) for a in rng.sample(fits, 5)]
    return pairs


def test_surjective_frontier_counts_match_naive_oracle(monkeypatch):
    force_path(monkeypatch, "_frontier_count")
    calls = spy_paths(monkeypatch)
    pairs = _surjection_pairs()
    nonzero = 0
    for c, a in pairs:
        for cls, system in FRONTIER_CLASSES:
            got = count_morphisms(c, a, cls, system).count
            assert got == naive_count(c, a, cls, system), (c, a, cls, system)
            nonzero += cls is CLS.SURJECTION and got > 0
    assert calls["_frontier_count"] == len(pairs) * len(FRONTIER_CLASSES)
    assert nonzero > len(pairs) // 10
    # targets larger than their pattern, one-element targets, targets with an
    # element in no tuple, loops on both sides, and both signatures
    assert any(a.size > c.size for c, a in pairs)
    assert any(a.size == 1 for c, a in pairs)
    assert any(not any(x in t for rel in a.relations for t in rel)
               for c, a in pairs for x in range(a.size))
    for side in (0, 1):
        assert any(any(t.count(t[0]) == len(t) for rel in pair[side].relations for t in rel)
                   for pair in pairs)
    assert {c.signature for c, _ in pairs} == {GRAPH_SIGNATURE, BINARY_TERNARY}


def test_frontier_walk_lists_the_frontier_before_each_step():
    # The frontier plan reads its frontiers from the walk, so they are
    # checked here against their definition, on patterns with isolated
    # elements and loops.
    rng = random.Random("walk")
    for signature in (Signature((("E", 2),)), BINARY_TERNARY):
        for n in range(1, 11):
            for p in (0.0, 0.02, 0.08, 0.2):
                c = random_structure(rng, signature, n, p)
                for pattern in (c, _with_loops(rng, c)):
                    w, order, fronts = _search_plan(pattern).walk
                    assert sorted(order) == list(range(n))
                    assert len(fronts) == n + 1 and fronts[0] == fronts[-1] == ()
                    assert w == max(map(len, fronts))
                    tuples = [set(t) for rel in pattern.relations for t in rel]
                    for s in range(n):
                        rest = set(order[s + 1:])
                        assert fronts[s + 1] == tuple(
                            x for x in order[:s + 1]
                            if any(x in t and t & rest for t in tuples))
                    plan = _search_plan(pattern).frontier
                    for v, before, after, (_, keep, stays) in zip(order, fronts,
                                                                   fronts[1:], plan):
                        assert keep(before) + ((v,) if stays else ()) == after


def test_dense_patterns_compile_no_frontier_walk(monkeypatch):
    # 2d >= |c|, d the least Gaifman degree, sends a count to the search
    # before the walk is compiled: Z16's multiplication graph (d = 15) and
    # K(4, 4, 4) (d = 8), which the search counts.  A cycle still walks.
    walks = []
    real = homsearch._frontier_walk
    monkeypatch.setattr(homsearch, "_frontier_walk",
                        lambda *args: walks.append(args[0].size) or real(*args))
    calls = spy_paths(monkeypatch)
    _search_plan.cache_clear()
    assert count_group_homs(cyclic_group(16), cyclic_group(3)) == 1
    k444 = digraph(12, {(x, y) for x in range(12) for y in range(12) if x % 3 != y % 3})
    assert hom_count(k444, complete_sym(3)) == 6
    assert walks == [] and calls["_search_count"] == 2
    assert hom_count(cycle_sym(12), complete_sym(3)) == 2 ** 12 + 2
    assert walks == [12] and calls["_frontier_count"] == 1


def _parent_rule(c, a, injective, surjective):
    """The path rule without the degree test: the walk's width decides."""
    n, m = c.size, a.size
    if m ** n <= homsearch._TABLE_MAPS:
        return homsearch._table_count
    if injective or n > homsearch._FRONTIER_SIZE or (
            surjective and m > homsearch._SURJECTIVE_TARGET):
        return homsearch._search_count
    w = _search_plan(c).walk[0]
    if 2 * w >= n or m ** w > homsearch._FRONTIER_STATES:
        return homsearch._search_count
    return homsearch._frontier_count


def test_degree_test_keeps_every_path():
    # The rule picks the path the width alone picks, on random patterns of
    # 1 to 40 elements from sparse to dense, and on cycles and complete
    # bipartite graphs K(k, k) and K(k, k + 1), where 2d is |c| or |c| - 1
    # (the DP is taken for K(k, k + 1)); it compiles no walk for the
    # patterns the degree test sends to the search.
    rng = random.Random("degree")
    patterns = [random_digraph(rng, n, min(1.0, p / n))
                for n in range(1, 41) for p in (1, 3, n / 2, 0.9 * n)]
    patterns += [random_structure(rng, BINARY_TERNARY, n, p)
                 for n in range(1, 9) for p in (0.01, 0.1, 0.5)]
    patterns += [cycle_sym(n) for n in range(3, 41)]
    patterns += [digraph(n, {(x, y) for x in range(n) for y in range(n)
                             if (x < n // 2) != (y < n // 2)}) for n in range(2, 16)]
    skipped = walks_to_search = taken = 0
    for c in patterns:
        for m, injective, surjective in ((2, False, False), (3, False, True),
                                         (7, False, False), (7, True, False)):
            a = random_structure(rng, c.signature, m, 0.5)
            _search_plan.cache_clear()
            path = homsearch._counter(c, a, injective, surjective)
            walked = "walk" in vars(_search_plan(c))
            assert path is _parent_rule(c, a, injective, surjective), (c, m)
            if not injective and path is homsearch._search_count:
                skipped += not walked and m ** c.size > homsearch._TABLE_MAPS
                walks_to_search += walked
            taken += path is homsearch._frontier_count
    assert skipped > 100 and walks_to_search > 20 and taken > 100


def _adjacency_power_sums(a, top):
    """[(1^T A^k 1, trace A^k) for k = 0..top] by integer matrix powers of
    a's relation."""
    n = a.size
    adj = [[int((x, y) in a.relations[0]) for y in range(n)] for x in range(n)]
    power = [[int(x == y) for y in range(n)] for x in range(n)]
    sums = []
    for _ in range(top + 1):
        sums.append((sum(map(sum, power)), sum(power[x][x] for x in range(n))))
        power = [[sum(row[z] * adj[z][y] for z in range(n)) for y in range(n)]
                 for row in power]
    return sums


def test_long_path_and_cycle_into_g40(monkeypatch):
    # Out of the search's reach: it did not finish P9 -> G(40, 0.3) in 300 s.
    # P24, C23 and P40 are past the frontier DP's old 10-element size rule.
    rng = random.Random(40)
    edges = [e for e in itertools.combinations(range(40), 2) if rng.random() < 0.3]
    g40 = digraph(40, set(edges) | {(y, x) for x, y in edges})
    sums = _adjacency_power_sums(g40, 39)
    cases = [(path_sym(k + 1), sums[k][0]) for k in (8, 23, 39)]
    cases += [(cycle_sym(k), sums[k][1]) for k in (8, 23)]
    calls = spy_paths(monkeypatch)
    for pattern, expected in cases:
        start = time.process_time()
        assert hom_count(pattern, g40) == expected
        assert time.process_time() - start < 1.0
    assert calls["_frontier_count"] == len(cases)


def test_frontier_path_serves_plain_and_surjective_counts_only(monkeypatch):
    calls = spy_paths(monkeypatch)
    rng = random.Random(6)
    target = random_digraph(rng, 6, 0.3)
    c6 = cycle_sym(6)
    assert count_morphisms(c6, target).count == naive_count(c6, target)
    assert calls["_frontier_count"] == 1
    calls["_frontier_count"] = 0
    for cls, system in ((CLS.MONO, SE_M), (CLS.STRONG_MONO, SE_M),
                        (CLS.STRONG_MONO, E_SM), (CLS.QUOTIENT, SE_M)):
        count_morphisms(c6, target, cls, system)
    count_morphisms(c6, target, enumerate_witnesses=True)
    assert calls["_frontier_count"] == 0
    # surjective counts without a reflection check, into targets of at most
    # _SURJECTIVE_TARGET elements: 3^8 maps, above the table path's
    c8, k3 = cycle_sym(8), complete_sym(3)
    for cls, system in ((CLS.SURJECTION, SE_M), (CLS.SURJECTION, E_SM), (CLS.QUOTIENT, E_SM)):
        assert count_morphisms(c8, k3, cls, system).count == naive_count(c8, k3, cls, system)
    assert calls["_frontier_count"] == 3
    calls["_frontier_count"] = 0
    count_morphisms(c8, cycle_sym(homsearch._SURJECTIVE_TARGET + 1), CLS.SURJECTION)
    # group surjections: a group's multiplication graph has a wide frontier
    assert has_surjection(cyclic_group(16), cyclic_group(2))
    assert _search_plan(profinite._as_structure(cyclic_group(16))).walk[0] == 15
    # wide frontiers, 2w >= |c|: C4 keeps 2 of 4 values, K4 3
    assert [_search_plan(c).walk[0] for c in (path_sym(5), c6, cycle_sym(4))] == [1, 2, 2]
    g9 = random_digraph(rng, 9, 0.5)  # 9^4 maps, above the table path's
    for wide in (cycle_sym(4), complete_sym(4)):
        assert hom_count(wide, g9) == naive_count(wide, g9)
    # above the size rule, and above the state bound: |a|^w for C6 (w = 2)
    assert count_morphisms(path_sym(homsearch._FRONTIER_SIZE + 1), complete_sym(2)).count == 2
    assert hom_count(path_sym(2000), complete_sym(2)) == 2
    m = math.isqrt(homsearch._FRONTIER_STATES)
    assert hom_count(c6, cycle_sym(m + 1)) == 20 * (m + 1)
    assert calls["_frontier_count"] == 0
    assert hom_count(c6, cycle_sym(m)) == 20 * m
    assert calls["_frontier_count"] == 1


def test_left_profile_builds_one_map_space_per_size_pair():
    # hom(subject, K) over catalogue targets K: every count is a table
    # count into a fresh target, and the size-only bitsets are shared.
    subject = digraph(4, {(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)})
    family = [s for n in range(1, 4) for s in _structures_of_size(GRAPH_SIGNATURE, n)]
    assert len(family) >= 50
    _search_plan.cache_clear()
    homsearch._map_space.cache_clear()
    profile = hom_profile(subject, family, LEFT)
    # built at most once per (4, m), and read again for the other targets
    built = homsearch._map_space.cache_info()
    assert built.misses <= len({k.size for k in family}) < built.hits
    assert list(profile.counts) == [naive_count(subject, k) for k in family]


def test_empty_target_builds_no_tables():
    _search_plan.cache_clear()
    for cls, system in TABLE_CLASSES:
        assert count_morphisms(cycle_sym(3), no_relation(0), cls, system).count == 0
    assert _search_plan.cache_info().currsize == 0


def test_isomorphism_by_counting_compiles_no_plan_per_test():
    # The test structures are a's quotients, each a pattern below the size
    # rule, so only the two subjects get a record (the discrete quotient is
    # equal to a), and neither is compiled as a pattern.
    a = digraph(3, {(0, 1), (1, 2), (2, 0), (0, 0)})
    b = digraph(3, {(2, 0), (0, 1), (1, 2), (1, 1)})
    _search_plan.cache_clear()
    assert decide_isomorphic_by_counting(a, b)
    assert _search_plan.cache_info().currsize == 2
    for record in (_search_plan(a), _search_plan(b)):
        assert not {"order", "steps", "walk"} & vars(record).keys()
