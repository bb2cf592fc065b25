"""Generic/degenerate hom-set elements, the kernel decomposition of hom-sets
over quotient classes, and Stirling numbers of the second kind.

An element h of hom(c, a) is degenerate when it factors through a proper
quotient of c, and generic otherwise.  Genericity is decided here by
factorization tests against proper quotients, never by the embedding
shortcut, so the generic-equals-embedding identity stays a real check.

The tests run against the coatoms of the quotient poset only, the quotients
directly below the top.  Under SE_M every quotient class is a kernel-partition
collapse with image relations.  A proper collapse by a partition P factors as
the merge of any two elements x ~ y of P followed by the further collapse,
which is a homomorphism because relations are images; so h factors through
some proper collapse iff it factors through a two-element merge, and the
k(k-1)/2 merges of a k-element source stand in for all B(k) - 1 proper
collapses (B(k) the Bell number).  Under E_SM
quotients are plain surjections, so a quotient class is a kernel partition
together with a codomain that may carry extra tuples beyond the image; a
proper quotient of that kind lies below a merge or below an identity-kernel
quotient that adds a single tuple, so the merges and the single-tuple
expansions are the whole test family.

A homomorphism h with h(x) = h(y) always factors through the merge
c/(x ~ y): the merge's relations are the images of c's, so every merged
tuple is the image of a tuple t of c, and h's induced map sends it to h(t),
which lies in a.  So on homomorphisms factorisation through a merge is
decided by h(x) = h(y) alone, and through a single-tuple expansion by
whether h sends the added tuple into a; `generic_count` tests only that.
`is_generic` alone also checks that the merged tuples land in a: it is
given maps that are not homomorphisms as well, and such a map with
h(x) = h(y) need not factor through the merge.

The same test runs on one of two sides.  Over at most
`homsearch._TABLE_MAPS` maps c -> a, into a target of two or more elements,
it runs on the table path's whole-map bitsets, one bit per map: the
homomorphisms are the AND of c's tuple masks in a's record, a merge of x
and y contributes the maps with g(x) = g(y), a single-tuple expansion
contributes the maps that send its added tuple into a, and the generic
elements are the homomorphisms outside the OR of those sets.  Larger
hom-sets are listed, and each homomorphism is tested on its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, product

from . import homsearch
from .errors import InvariantViolationError
from .homsearch import (
    _map_table,
    _search_plan,
    _tuple_mask,
    hom_count,
    iter_hom_maps,
)
from .quotposet import Partition, _blocks
from .sigstruct import (
    SE_M,
    E_SM,
    FactorisationSystem,
    MorphismClass,
    Structure,
    _check_same_signature,
    _class_rules,
    _Frozen,
    _non_tuples,
)


def stirling_number(n: int, m: int) -> int:
    """Partitions of an n-set into m non-empty blocks."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be non-negative")
    if m > n:
        return 0
    row = [1] + [0] * m  # S(0, j)
    for i in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(1, min(i, m) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[m]


@lru_cache(maxsize=4096)
def _factorization_candidates(c: Structure, system: FactorisationSystem):
    """The coatoms of the quotient poset of c: the merges, as the pairs
    x < y in lexicographic order, then under E_SM the single-tuple
    expansions, as (symbol index, added tuple), one per non-tuple of c
    (`sigstruct._non_tuples`) in that order.  It builds no merged
    relations: `is_generic`, the one test that needs them, reads them off
    c's tuples."""
    merges = tuple(combinations(range(c.size), 2))
    if system is not E_SM:
        return merges, ()
    return merges, tuple((sym, t) for sym, absent in enumerate(_non_tuples(c))
                         for t in absent)


def _factors_through(h, a: Structure, merges, expansions) -> bool:
    """Does the homomorphism h factor through one of the compiled coatoms?
    Through the merge of x and y iff h[x] == h[y] (module docstring)."""
    for x, y in merges:
        if h[x] == h[y]:
            return True
    for sym, t in expansions:
        if tuple([h[z] for z in t]) in a.relations[sym]:
            return True
    return False


def is_generic(h, c: Structure, a: Structure,
               system: FactorisationSystem = SE_M) -> bool:
    """Does the map h factor through no proper quotient of c?

    It is enough to test the coatoms (see the module docstring).  h need
    not be a homomorphism, so factorization through the merge of x and y
    holds iff h[x] == h[y] and the induced map is a homomorphism from the
    merged quotient, i.e. every merged tuple, read in representatives (y
    replaced by x), maps into a; factorization through a single-tuple
    expansion holds iff h carries the added tuple into a relation of a.
    """
    merges, expansions = _factorization_candidates(c, system)
    merges = [(x, y) for x, y in merges if h[x] == h[y] and all(
        tuple([h[x if z == y else z] for z in t]) in rel_a
        for rel, rel_a in zip(c.relations, a.relations) for t in rel)]
    return not _factors_through(h, a, merges, expansions)


def _generic_maps(c: Structure, a: Structure, merges, expansions) -> int:
    """The generic elements of hom(c, a) as a bitset over the maps c -> a
    (`homsearch._map_space`): the homomorphisms outside the maps with
    g(x) = g(y) for a merge (x, y) and the maps that send an expansion's
    added tuple into a.  Needs |c| >= 1 and |a| >= 2."""
    (homs, proj, _, _, same), known = _map_table(a, c.size)

    def mask(sym, t):  # the maps that send t into a's relation sym
        seen = known[sym]
        bits = seen.get(t)
        if bits is None:
            bits = seen[t] = _tuple_mask(proj, a.relations[sym], t)
        return bits

    for sym, rel in enumerate(c.relations):
        for t in rel:
            homs &= mask(sym, t)
    if not homs:
        return 0
    through = 0
    for x, y in merges:
        through |= same[y][x]
    for sym, t in expansions:
        through |= mask(sym, t)
    return homs & ~through


def generic_count(c: Structure, a: Structure,
                  system: FactorisationSystem = SE_M) -> int:
    """Number of generic elements of hom(c, a), computed by definition: the
    homomorphisms that factor through no coatom of c's quotient poset, a
    merge (x, y) decided by h(x) = h(y) alone (module docstring), as
    bitsets of maps over at most `_TABLE_MAPS` maps, else map by map.  A
    target of at most one element admits at most one map, which is listed."""
    _class_rules(MorphismClass.QUOTIENT, system)  # refuses an unknown system
    _check_same_signature(c, a)
    merges, expansions = _factorization_candidates(c, system)
    if c.size and a.size > 1 and a.size ** c.size <= homsearch._TABLE_MAPS:
        return _generic_maps(c, a, merges, expansions).bit_count()
    return sum(1 for h in iter_hom_maps(c, a)
               if not _factors_through(h, a, merges, expansions))


@lru_cache(maxsize=65536)
def _generic_count_cached(m: Structure, a: Structure,
                          system: FactorisationSystem) -> int:
    return generic_count(m, a, system)


class DecompositionRow(_Frozen):
    __slots__ = ("partition", "codomain", "generic")

    def __init__(self, partition: Partition, codomain: Structure, generic: int):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "generic", generic)


class KernelDecomposition(_Frozen):
    __slots__ = ("source", "target", "system", "rows", "total", "homcount")

    def __init__(self, source: Structure, target: Structure, system: FactorisationSystem,
                 rows: tuple[DecompositionRow, ...], total: int, homcount: int):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "homcount", homcount)


def _realized_quotients(c: Structure, a: Structure):
    """E_SM quotient classes of c whose codomain admits a relation-reflecting
    injection into a: kernel partition plus the pulled-back relations.  These
    are exactly the classes that can carry generic elements of hom(c, a).
    The dict maps each key (partition, relations) to its codomain, ordered
    by block count, then partition, then sorted relations.

    Every h in hom(c, a) factors as its kernel collapse followed by the
    injection of the blocks onto im h; a class is realized iff it is
    (ker h, the relations of a pulled back along that injection) for some h.
    The pull-back depends only on the ordered image (the values of h in
    order of first occurrence), so it is computed once per image, by C-level
    iteration: the k^arity index tuples of the k blocks whose images lie in
    a's relation.  A map's kernel is read as the indices of its values in
    the image (a restricted growth string), made a partition once per class.
    """
    keys = set()
    pulled = {}
    for h in iter_hom_maps(c, a):
        image = tuple(dict.fromkeys(h))
        rels = pulled.get(image)
        if rels is None:
            rels = pulled[image] = tuple([
                frozenset(compress(product(range(len(image)), repeat=arity),
                                   map(rel.__contains__, product(image, repeat=arity))))
                for (_, arity), rel in zip(c.signature.symbols, a.relations)])
        keys.add((tuple(map(image.index, h)), rels))
    rows = sorted(((_blocks(labels), rels) for labels, rels in keys), key=lambda row: (
        len(row[0]), row[0], tuple(tuple(sorted(r)) for r in row[1])))
    return {(p, rels): Structure(c.signature, len(p), rels) for p, rels in rows}


def kernel_decomposition(c: Structure, a: Structure,
                         system: FactorisationSystem = SE_M) -> KernelDecomposition:
    """Decompose hom(c, a) over the quotient classes of c.

    Under SE_M one row per kernel partition (image codomain, read from c's
    record), zero rows included.  Under E_SM the quotient classes carry
    expanded codomains and only the realized (non-zero) classes are listed.
    The row totals must add up to the homomorphism count; a mismatch is an
    implementation bug and raises rather than reporting a best-effort table.
    """
    _class_rules(MorphismClass.QUOTIENT, system)  # refuses an unknown system
    if system is SE_M:
        classes = _search_plan(c).quotients
    else:
        classes = [(partition, codomain) for (partition, _), codomain
                   in _realized_quotients(c, a).items()]
    rows = tuple(
        DecompositionRow(partition, codomain,
                         _generic_count_cached(codomain, a, system))
        for partition, codomain in classes
    )
    total = sum(r.generic for r in rows)
    homs = hom_count(c, a)
    if total != homs:
        raise InvariantViolationError(
            f"kernel decomposition of hom-set does not add up: "
            f"{total} != {homs} for system {system.value}"
        )
    return KernelDecomposition(c, a, system, rows, total, homs)
