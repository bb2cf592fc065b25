"""Desk-scale acceptance suite, one runner per criterion.

Levels: "desk" runs the full suite, "quick" a reduced smoke version of each
criterion.  Criteria whose literal quantifier ("all pairs of size <= 4")
spans millions of pairs run exhaustively on sizes <= 3 and on a fixed
deterministic stratum of the size-4 classes; setting
HOMCOUNT_ACCEPTANCE_FULL=1 restores the full quantifier at the cost of a
much longer run.  Everything checked is exact, tolerance zero.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time

from .cklogic import (
    ck_profile_equal,
    enumerate_tw_lt_k,
    treewidth,
    wl_equivalent,
)
from .homsearch import count_morphisms, hom_count, iter_hom_maps
from .lovasz import (
    LEFT,
    RIGHT,
    decide_isomorphic_by_counting,
    distinguish,
    embeddings_via_mobius,
    enumerate_structures,
    _side_count,
    _structures_of_size,
)
from .profinite import (
    GroupHom,
    Tower,
    count_group_homs,
    cyclic_group,
    direct_product,
    distinguish_towers,
    mod_surjection,
    surjection_profile,
    towers_isomorphic,
)
from .sigstruct import (
    E_SM,
    GRAPH_SIGNATURE,
    SE_M,
    Morphism,
    MorphismClass,
    Structure,
    _Frozen,
    _image,
    canonical_form,
    disjoint_union,
    embedding_class,
    pushout,
)
from .stirling import generic_count, kernel_decomposition, stirling_number
from .trees import (
    chain_tree,
    count_tree_morphisms,
    distinguish_trees,
    enumerate_trees,
)


def cycle_sym(n: int) -> Structure:
    arcs = set()
    for i in range(n):
        arcs.add((i, (i + 1) % n))
        arcs.add(((i + 1) % n, i))
    return Structure.build(GRAPH_SIGNATURE, n, {"E": arcs})


def complete_sym(n: int) -> Structure:
    return Structure.build(
        GRAPH_SIGNATURE, n,
        {"E": {(i, j) for i in range(n) for j in range(n) if i != j}},
    )


def no_relation(n: int) -> Structure:
    return Structure.build(GRAPH_SIGNATURE, n, {})


def full_acceptance() -> bool:
    return os.environ.get("HOMCOUNT_ACCEPTANCE_FULL", "") not in ("", "0")


class CriterionResult(_Frozen):
    """One criterion's outcome."""

    __slots__ = ("number", "name", "passed", "detail", "seconds")

    def __init__(self, number: int, name: str, passed: bool, detail: str, seconds: float):
        object.__setattr__(self, "number", number)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "seconds", seconds)


def _refine_to_singletons(classes, tests, side):
    """Split the classes by hom counts against successive tests, keeping only
    groups of two or more: (fully separated, tests consumed, counts computed)."""
    count = _side_count(side, MorphismClass.HOM, SE_M)
    live = [classes] if len(classes) > 1 else []
    used = computed = 0
    for t in tests:
        if not live:
            break
        used += 1
        next_live = []
        for g in live:
            split = {}
            for s in g:
                split.setdefault(count(t, s), []).append(s)
            computed += len(g)
            next_live.extend(part for part in split.values() if len(part) > 1)
        live = next_live
    return bool(classes) and not live, used, computed


def criterion_1_lovasz_completeness(level: str) -> tuple[bool, str]:
    max_size = 3 if level == "quick" else 4
    classes = enumerate_structures(GRAPH_SIGNATURE, max_size)
    details = [f"{len(classes)} classes"]
    rng = random.Random(2024)

    for side in (RIGHT, LEFT):
        separated, used, computed = _refine_to_singletons(classes, classes, side)
        if not separated:
            return False, f"side {side}: classes not separated within budget"
        details.append(f"{side}: split by {used} tests ({computed} counts)")

    # end-to-end spot checks through distinguish() itself
    for _ in range(12 if level == "quick" else 25):
        a, b = rng.choice(classes), rng.choice(classes)
        for side in (RIGHT, LEFT):
            res = distinguish(a, b, max_size, side)
            if res.distinguished == (canonical_form(a) == canonical_form(b)):
                return False, "distinguish disagrees with canonical forms"
    for _ in range(6 if level == "quick" else 10):
        a = rng.choice(classes)
        perm = list(range(a.size))
        rng.shuffle(perm)
        if not decide_isomorphic_by_counting(a, _image(a, perm, a.size)):
            return False, "relabeled pair not recognized as isomorphic"
    return True, "; ".join(details)


def _strata_pairs(level: str):
    """(c, a) pairs: exhaustive on sizes <= 3, a fixed stratum at size 4."""
    small = list(enumerate_structures(GRAPH_SIGNATURE, 3))
    if level == "quick":
        sample = small[::7]
        return [(c, a) for c in sample for a in sample]
    pairs = [(c, a) for c in small for a in small]
    size4 = list(_structures_of_size(GRAPH_SIGNATURE, 4))
    if full_acceptance():
        pairs += [(c, a) for c in size4 for a in small + size4]
        pairs += [(c, a) for c in small for a in size4]
        return pairs
    stratum = size4[::60] + [complete_sym(4), cycle_sym(4), no_relation(4)]
    small_sample = small[::4]
    pairs += [(c, a) for c in stratum for a in small_sample]
    pairs += [(c, a) for c in small_sample for a in stratum]
    pairs += [(c, a) for c in stratum for a in stratum[::6]]
    return pairs


def _matches_embedding_count(level: str, count) -> tuple[bool, str]:
    """count(c, a, system) against the direct embedding count, on every
    stratum pair under both systems."""
    pairs = _strata_pairs(level)
    checked = 0
    for system in (SE_M, E_SM):
        for c, a in pairs:
            direct = count_morphisms(c, a, embedding_class(system), system).count
            if count(c, a, system) != direct:
                return False, f"mismatch at {c} -> {a} under {system.value}"
            checked += 1
    return True, f"{checked} pair/system checks, exact"


def criterion_2_mobius_oracle(level: str) -> tuple[bool, str]:
    return _matches_embedding_count(level, embeddings_via_mobius)


def criterion_3_stirling_decomposition(level: str) -> tuple[bool, str]:
    pairs = _strata_pairs(level)
    checked = 0
    for system in (SE_M, E_SM):
        for c, a in pairs:
            kernel_decomposition(c, a, system)  # raises on total mismatch
            checked += 1

    # FinSet specialization with falling factorials
    top = 4 if level == "quick" else 6
    for n in range(top + 1):
        for a_size in range(top + 1):
            total = sum(stirling_number(n, m) * math.perm(a_size, m)
                        for m in range(n + 1))
            if hom_count(no_relation(n), no_relation(a_size)) != total:
                return False, f"FinSet formula fails at n={n}, a={a_size}"

    # the worked instance: 8 = 1*2 + 3*2 + 1*0
    dec = kernel_decomposition(no_relation(3), no_relation(2), SE_M)
    contributions = sorted(r.generic for r in dec.rows)
    if dec.homcount != 8 or contributions != [0, 2, 2, 2, 2]:
        return False, "worked instance 8 = 1*2 + 3*2 + 1*0 failed"
    return True, f"{checked} decompositions + FinSet table to {top}"


def criterion_4_generic_equals_embedding(level: str) -> tuple[bool, str]:
    return _matches_embedding_count(level, generic_count)


def criterion_5_counting_logic_k2(level: str) -> tuple[bool, str]:
    max_size = 4 if level == "quick" else 5
    graphs = [g for n in range(1, max_size + 1)
              for g in _structures_of_size(GRAPH_SIGNATURE, n, undirected=True)]
    trees = enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, max_size, undirected=True)
    profiles = [tuple(hom_count(t, g) for t in trees) for g in graphs]
    pairs = 0
    for i, a in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            b = graphs[j]
            wl = wl_equivalent(a, b, 2)
            prof = profiles[i] == profiles[j]
            if wl != prof:
                return False, f"WL vs tree-profile disagreement on a pair of size {a.size},{b.size}"
            verdict = ck_profile_equal(a, b, 2, max_size, undirected=True)
            if verdict.equivalent != wl:
                return False, "ck_profile_equal disagrees with WL"
            if not verdict.equivalent:
                if treewidth(verdict.witness) >= 2:
                    return False, "witness is not a forest"
            pairs += 1

    # the named instance: C6 vs the disjoint union of two triangles
    c6 = cycle_sym(6)
    two_c3 = disjoint_union(cycle_sym(3), cycle_sym(3))
    if not wl_equivalent(c6, two_c3, 2):
        return False, "C6 and 2.C3 must be equivalent at k=2"
    for t in enumerate_tw_lt_k(GRAPH_SIGNATURE, 2, 6, undirected=True):
        edges = len(t.relation("E")) // 2
        expected = 6 * 2**edges
        if hom_count(t, c6) != expected or hom_count(t, two_c3) != expected:
            return False, "closed form 6*2^edges fails on a tree"
    if wl_equivalent(c6, two_c3, 3):
        return False, "C6 and 2.C3 must differ at k=3"
    verdict = ck_profile_equal(c6, two_c3, 3, 3)
    if verdict.equivalent or verdict.counts != (0, 12):
        return False, "expected K3 witness with counts (0, 12)"
    if canonical_form(verdict.witness) != canonical_form(complete_sym(3)):
        return False, "expected the full triangle as the first witness"
    return True, f"{pairs} graph pairs on <= {max_size} vertices + named instance"


def criterion_6_trees(level: str) -> tuple[bool, str]:
    budget = 4 if level == "quick" else 5
    trees = enumerate_trees(budget)
    for i, p in enumerate(trees):
        for q in trees[i + 1:]:
            res = distinguish_trees(p, q, budget)
            if not res.distinguished:
                return False, "non-isomorphic rooted trees not distinguished"
        if distinguish_trees(p, p, budget).distinguished:
            return False, "a tree distinguished from itself"

    chain_top = 6 if level == "quick" else 7
    for p in enumerate_trees(chain_top):
        depths = p.depths()
        for n in range(1, chain_top + 1):
            expected = sum(1 for d in depths if d == n - 1)
            if count_tree_morphisms(chain_tree(n), p) != expected:
                return False, "chain-counting law failed"
    return True, (f"{len(trees)} trees pairwise distinguished; chain law on "
                  f"all trees <= {chain_top} nodes")


def _product_mod_surjection(n: int, m: int, right) -> GroupHom:
    dom = direct_product(cyclic_group(n), right)
    cod = direct_product(cyclic_group(m), right)
    pairs_dom = list(itertools.product(range(n), range(right.order)))
    pairs_cod = list(itertools.product(range(m), range(right.order)))
    idx = {p: i for i, p in enumerate(pairs_cod)}
    return GroupHom(dom, cod, tuple(idx[(a % m, b)] for a, b in pairs_dom))


def _tower_zoo():
    z2, z4, z8 = cyclic_group(2), cyclic_group(4), cyclic_group(8)
    v4 = direct_product(z2, z2, "V4")
    z16 = cyclic_group(16)
    t_z2 = Tower((z2, z4, z8), (mod_surjection(4, 2), mod_surjection(8, 4)),
                 "Z2-tower")
    t_z2_deep = Tower((z2, z4, z8, z16),
                      (mod_surjection(4, 2), mod_surjection(8, 4),
                       mod_surjection(16, 8)), "Z2-tower-deep")
    t_ext = Tower(
        (v4, direct_product(z4, z2), direct_product(z8, z2)),
        (_product_mod_surjection(4, 2, z2), _product_mod_surjection(8, 4, z2)),
        "Z2xZ2-extension",
    )
    t_const = Tower((z4, z4, z4),
                    (GroupHom(z4, z4, (0, 1, 2, 3)),) * 2, "Z4-constant")
    t_stall = Tower((z2, z4, z4),
                    (mod_surjection(4, 2), GroupHom(z4, z4, (0, 1, 2, 3))),
                    "Z4-stalled")
    t_v = Tower((v4, direct_product(v4, z2)),
                (GroupHom(direct_product(v4, z2), v4,
                          tuple(a for a, b in itertools.product(range(4), range(2)))),),
                "V4-tower")
    return [t_z2, t_z2_deep, t_ext, t_const, t_stall, t_v]


def criterion_7_towers(level: str) -> tuple[bool, str]:
    z1, z2, z4, z8 = (cyclic_group(1), cyclic_group(2), cyclic_group(4),
                      cyclic_group(8))
    v4 = direct_product(z2, z2, "V4")
    family = [z1, z2, z4, v4, z8, direct_product(z4, z2),
              direct_product(v4, z2)]
    towers = _tower_zoo()

    # monotonicity of level counts along every tested tower
    for t in towers:
        for c in family:
            counts = [count_group_homs(g, c) for g in t.levels]
            if counts != sorted(counts):
                return False, f"level counts decreased on {t.name}"

    # the named instance
    res = distinguish_towers(towers[0], towers[2], [z2])
    if not res.distinguished or res.counts != (2, 4):
        return False, "Z2-tower vs extension: expected counts (2, 4)"

    # surjection profiles: the cyclic tower never surjects onto Z/2 x Z/2
    if surjection_profile(towers[0], [v4]) != (False,):
        return False, "Z2-tower claims a surjection onto V4"
    for t in (towers[2], towers[5]):
        if surjection_profile(t, [v4]) != (True,):
            return False, f"{t.name} should surject onto V4"

    # pairwise: distinguished by the family, or genuinely isomorphic as
    # truncated systems.  Towers of different depths can share all stabilized
    # counts (truncations of the same limit): expected for the Z2-tower
    # against its deeper copy and for the constant/stalled pair.
    expected_inconclusive = {
        (towers[0].name, towers[1].name),
        (towers[3].name, towers[4].name),
    }
    found = set()
    for t1, t2 in itertools.combinations(towers, 2):
        res = distinguish_towers(t1, t2, family)
        if not res.distinguished and not (
            len(t1.levels) == len(t2.levels) and towers_isomorphic(t1, t2)
        ):
            found.add((t1.name, t2.name))
    if found != expected_inconclusive:
        return False, f"unexpected indistinguishable tower pairs: {found}"
    return True, f"{len(towers)} towers vs family of {len(family)} groups"


def criterion_8_quasi_pullbacks(level: str) -> tuple[bool, str]:
    exhaustive = enumerate_structures(GRAPH_SIGNATURE, 2)
    curated = [
        no_relation(1),
        Structure.build(GRAPH_SIGNATURE, 1, {"E": {(0, 0)}}),
        Structure.build(GRAPH_SIGNATURE, 2, {"E": {(0, 1)}}),
        complete_sym(2),
        Structure.build(GRAPH_SIGNATURE, 3, {"E": {(0, 1), (1, 2)}}),
        Structure.build(GRAPH_SIGNATURE, 3, {"E": {(0, 1), (1, 2), (2, 0)}}),
        complete_sym(3),
        no_relation(3),
    ]
    if full_acceptance():
        curated = list(enumerate_structures(GRAPH_SIGNATURE, 3))
    if level == "quick":
        exhaustive = exhaustive[:6]
        curated = curated[:4]

    squares = 0
    checks = 0
    for pool, span_cap in ((exhaustive, None), (curated, 3)):
        # homs[c][i]: the maps from c into pool[i], each hom-set listed once
        homs = {c: [list(iter_hom_maps(c, t)) for t in pool] for c in pool}
        for c in pool:
            for a, c_to_a in zip(pool, homs[c]):
                fs = c_to_a[:span_cap]
                for b, c_to_b in zip(pool, homs[c]):
                    gs = c_to_b[:span_cap]
                    for fm in fs:
                        f = Morphism.build(c, a, fm)
                        for gm in gs:
                            g = Morphism.build(c, b, gm)
                            p, la, lb = pushout(f, g)
                            squares += 1
                            for t, a_to_t, b_to_t in zip(pool, homs[a], homs[b]):
                                exts = {
                                    (tuple(z[la.map[i]] for i in range(a.size)),
                                     tuple(z[lb.map[j]] for j in range(b.size)))
                                    for z in iter_hom_maps(p, t)
                                }
                                for x in a_to_t:
                                    xf = tuple(x[fm[i]] for i in range(c.size))
                                    for y in b_to_t:
                                        if xf != tuple(y[gm[i]] for i in range(c.size)):
                                            continue
                                        checks += 1
                                        if (x, y) not in exts:
                                            return False, (
                                                "quasi-pullback fails for a span "
                                                f"over {c.size}/{a.size}/{b.size} "
                                                f"elements at a {t.size}-element target"
                                            )
    return True, f"{squares} pushout squares, {checks} amalgamation instances"


CRITERIA = (
    (1, "Lovasz completeness on <= 4 elements, both sides",
     criterion_1_lovasz_completeness),
    (2, "Moebius embedding counts match direct counts, both systems",
     criterion_2_mobius_oracle),
    (3, "Kernel decompositions add up + Stirling/FinSet table",
     criterion_3_stirling_decomposition),
    (4, "Generic elements = embeddings, both systems",
     criterion_4_generic_equals_embedding),
    (5, "Counting-logic k=2 equivalence matches tree profiles",
     criterion_5_counting_logic_k2),
    (6, "Rooted trees distinguished; chain-counting law",
     criterion_6_trees),
    (7, "Group towers: monotone counts, distinguishing, surjections",
     criterion_7_towers),
    (8, "Pushout squares are quasi-pullbacks on representables",
     criterion_8_quasi_pullbacks),
)


def run_criterion(number: int, level: str = "desk") -> CriterionResult:
    num, name, fn = CRITERIA[number - 1]
    start = time.perf_counter()
    passed, detail = fn(level)
    return CriterionResult(num, name, passed, detail,
                           time.perf_counter() - start)


def run_all(level: str = "desk") -> list[CriterionResult]:
    results = []
    for num, _, _ in CRITERIA:
        result = run_criterion(num, level)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}\tcriterion {result.number}\t{result.name}\t"
              f"{result.detail}\t{result.seconds:.1f}s")
    return results
