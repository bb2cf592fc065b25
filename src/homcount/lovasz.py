"""Hom profiles, Moebius-based embedding counts, and isomorphism decision by
counting morphisms, at desk scale.

The distinguishing engine enumerates canonical representatives of all
structures up to a size budget in a fixed deterministic order: by size, then
by descending relation-tuple count, then by canonical code.  This module owns
that catalogue, and the one walk that counts the candidates of every family of
test structures (this catalogue, `cklogic`'s tree-width levels, `trees`'
rooted trees) against HOMCOUNT_CAP; `cklogic` reads the catalogue restricted
to tree-width < k.  Deciding isomorphism needs no catalogue: the quotients
of one subject a are enough as tests (Lovasz 1967), because Moebius
inversion over a's partitions turns equal counts into an injective hom from
a to the other subject, which equal sizes and tuple counts make an
isomorphism.  PARTITION_SIZE_CAP, not HOMCOUNT_CAP, bounds that decision.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from .errors import cap_exceeded
from .homsearch import _count, _search_plan, hom_count
from .quotposet import (
    _esm_mobius,
    collapses,
    partition_mobius,
)
from .sigstruct import (
    SE_M,
    FactorisationSystem,
    MorphismClass,
    Signature,
    Structure,
    _check_same_signature,
    _class_rules,
    _Frozen,
    canonical_form,
    canonical_representative,
)
from .stirling import _realized_quotients

DEFAULT_STRUCTURE_CAP = 10**6

RIGHT = "right"
LEFT = "left"

DISTINGUISHED = "distinguished"
PROFILES_EQUAL = "profiles-equal-within-budget"


def structure_cap() -> int:
    """Global cap on enumerated candidate structures; HOMCOUNT_CAP overrides,
    and a setting that is not a non-negative integer is refused."""
    raw = os.environ.get("HOMCOUNT_CAP")
    if not raw:
        return DEFAULT_STRUCTURE_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"HOMCOUNT_CAP must be a non-negative integer, got {raw!r}")
    return cap


class HomProfile(_Frozen):
    __slots__ = ("subject", "family", "counts", "side")

    def __init__(self, subject: Structure, family: tuple[Structure, ...],
                 counts: tuple[int, ...], side: str):
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "side", side)


class DistinguishResult(_Frozen):
    __slots__ = ("witness", "counts", "verdict", "warnings")

    def __init__(self, witness: object | None, counts: tuple[int, int] | None,
                 verdict: str, warnings: tuple = ()):
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "warnings", warnings)

    @property
    def distinguished(self) -> bool:
        return self.verdict == DISTINGUISHED


def _side_count(side: str, cls: MorphismClass, system: FactorisationSystem):
    """(test, subject) -> count on this side; an unknown side or class is refused."""
    rules = _class_rules(cls, system)
    if side == RIGHT:
        return lambda test, subject: _count(test, subject, *rules)
    if side == LEFT:
        return lambda test, subject: _count(subject, test, *rules)
    raise ValueError(f"side must be {RIGHT!r} or {LEFT!r}, got {side!r}")


def hom_profile(a: Structure, family, side: str = RIGHT,
                cls: MorphismClass = MorphismClass.HOM,
                system: FactorisationSystem = SE_M) -> HomProfile:
    """Exact morphism counts of a against each family member, in order."""
    count = _side_count(side, cls, system)
    family = tuple(family)
    for t in family:
        _check_same_signature(t, a)
    return HomProfile(a, family, tuple(count(t, a) for t in family), side)


def _catalogue(structures) -> tuple[Structure, ...]:
    """Canonical representatives of the isomorphism classes met in a stream
    of structures, in catalogue order: descending tuple count, then
    canonical code."""
    seen: dict[bytes, Structure] = {}
    for s in structures:
        code = canonical_form(s)
        if code not in seen:
            seen[code] = canonical_representative(s)
    return tuple(seen[code] for code in
                 sorted(seen, key=lambda code: (-seen[code].total_tuples(), code)))


def _slot_grid(signature: Signature, n: int, undirected: bool):
    """Per symbol, the slots of a candidate relation on n elements: the
    groups of tuples a candidate takes or leaves together.  A slot is one
    tuple, or a pair of distinct elements in both orientations when
    undirected (binary symbols)."""
    if undirected:
        pairs = [((x, y), (y, x)) for x, y in itertools.combinations(range(n), 2)]
        return [pairs for _ in signature.symbols]
    return [[(t,) for t in itertools.product(range(n), repeat=arity)]
            for _, arity in signature.symbols]


def _byte_tables(targets) -> list[list[int]]:
    """Per byte of a mask, the table from that byte's value to the mask of
    its bits moved to `targets` (bit i goes to bit targets[i])."""
    tables = []
    for lo in range(0, len(targets), 8):
        table = [0]
        for t in targets[lo:lo + 8]:
            table += [m | 1 << t for m in table]
        tables.append(table)
    return tables


@lru_cache(maxsize=64)
def _structures_of_size(signature: Signature, n: int, *,
                        undirected: bool = False) -> tuple[Structure, ...]:
    """Catalogue level n: canonical representatives of all structures of
    size n (of the symmetric loopless ones when undirected), sorted by
    descending tuple count then canonical code.

    A candidate is a mask over the flattened slots.  The masks are scanned
    in increasing order with one byte each of marking: an unmarked mask is
    the least of its isomorphism class, and every image of it under an
    element permutation is marked.  Only those least masks, one per class,
    are built and canonicalised."""
    slots = [(s, slot) for s, row in enumerate(_slot_grid(signature, n, undirected))
             for slot in row]
    index = {(s, frozenset(slot)): i for i, (s, slot) in enumerate(slots)}
    perm_tables = [
        _byte_tables([index[s, frozenset(tuple(perm[x] for x in t) for t in slot)]
                      for s, slot in slots])
        for perm in itertools.permutations(range(n))
    ]
    # Per byte of a mask, its table under each permutation.  A permutation moves
    # distinct slots to distinct slots, so the sum of the bytes' images is the mask's.
    byte_tables = list(zip(*perm_tables))
    width = len(byte_tables)
    seen = bytearray(1 << len(slots))
    reps = []
    mask = seen.find(0)
    while mask >= 0:
        reps.append(mask)
        parts = mask.to_bytes(width, "little")
        for image in map(sum, zip(*[[table[part] for table in tables]
                                    for tables, part in zip(byte_tables, parts)])):
            seen[image] = 1
        mask = seen.find(0, mask + 1)

    def structure(mask: int) -> Structure:
        rels = [set() for _ in signature.symbols]
        for i, (s, slot) in enumerate(slots):
            if mask >> i & 1:
                rels[s].update(slot)
        return Structure(signature, n, tuple(map(frozenset, rels)))

    return _catalogue(map(structure, reps))


def _capped_sizes(max_size: int, level_counts, what: str, unit: str):
    """The sizes 1..max_size of a level-by-level walk, yielded while the
    running total of candidates, one count per level from `level_counts`,
    stays within HOMCOUNT_CAP.  The first size past the cap raises before
    its level is built, so a consumer that stops early never pays for, or
    trips over, the larger levels.  A max_size below 1 is refused."""
    if max_size < 1:
        raise ValueError("budget must be >= 1")
    cap = structure_cap()
    total = 0
    for n, count in zip(range(1, max_size + 1), level_counts):
        total += count
        if total > cap:
            raise cap_exceeded("HOMCOUNT_CAP", cap, f"{what} through size {n} spans",
                               total, unit)
        yield n


def _candidate_counts(signature: Signature, undirected: bool = False):
    """Per catalogue level 1, 2, ...: the number of candidate masks."""
    for n in itertools.count(1):
        yield 2 ** sum(map(len, _slot_grid(signature, n, undirected)))


def iter_structures(signature: Signature, max_size: int):
    """Lazily yield canonical structures with 1..max_size elements in the
    deterministic order (size ascending, tuple count descending, canonical
    code), level by level under the cap."""
    for n in _capped_sizes(max_size, _candidate_counts(signature),
                           "enumeration", "candidate structures"):
        yield from _structures_of_size(signature, n)


def enumerate_structures(signature: Signature, max_size: int) -> tuple[Structure, ...]:
    """All canonical structures with 1..max_size elements, deterministic order
    (size ascending, tuple count descending, canonical code)."""
    return tuple(iter_structures(signature, max_size))


def embeddings_via_mobius(c: Structure, a: Structure,
                          system: FactorisationSystem = SE_M) -> int:
    """Embedding count recovered from hom counts by Moebius inversion: the
    sum of mu(x, top) |hom(cod x, a)| over the quotient classes x of c, the
    top being the identity class.  Under SE_M the classes are the collapses
    on c's record, with mu(x, top) in closed form (`partition_mobius`).
    Under E_SM they are the classes realized by maps into a, plus the top:
    every class with a generic map into a is among them, so the sum is
    exact, and `quotposet._esm_mobius` gives their mu.  No class with mu 0
    is counted.
    """
    _class_rules(MorphismClass.QUOTIENT, system)  # refuses an unknown system
    if system is SE_M:
        terms = [(partition_mobius(p), q) for p, q in _search_plan(c).quotients]
    else:
        top = (tuple((x,) for x in range(c.size)), c.relations)
        realized = {**_realized_quotients(c, a), top: c}
        terms = zip(_esm_mobius(list(realized), top), realized.values())
    return sum(m * hom_count(q, a) for m, q in terms if m)


def mobius_invert_ints(poset, f1) -> list[int]:
    """Given integers f1 on a poset with `size`, `down_set` and `mobius` (a
    `quotposet.FinitePoset`, or the order `quotient_poset(c).poset`), return
    f2 with f2(y) = sum_{x<=y} f1(x) mu(x,y), the unique solution of
    f1(y) = sum_{x<=y} f2(x).  Only tests call it, as the reference."""
    return [sum(f1[x] * poset.mobius(x, y) for x in poset.down_set(y))
            for y in range(poset.size)]


def distinguish(a: Structure, b: Structure, budget: int,
                side: str = RIGHT) -> DistinguishResult:
    """First enumerated test structure whose hom counts against a and b
    differ."""
    _check_same_signature(a, b)
    count = _side_count(side, MorphismClass.HOM, SE_M)
    for test in iter_structures(a.signature, budget):
        na, nb = count(test, a), count(test, b)
        if na != nb:
            return DistinguishResult(test, (na, nb), DISTINGUISHED)
    return DistinguishResult(None, None, PROFILES_EQUAL)


def decide_isomorphic_by_counting(a: Structure, b: Structure) -> bool:
    """Lovasz's decision: a and b are isomorphic iff they have the same size,
    the same number of tuples per symbol, and hom(a/P, a) = hom(a/P, b) for
    every quotient a/P of a.

    The first two are hom counts too (of one point, and of one tuple on
    distinct elements).  Since inj(a, x) = sum_P mu(0, P) hom(a/P, x), equal
    quotient counts give inj(a, b) = inj(a, a) >= 1, and an injective hom
    between structures of equal size and equal tuple counts maps each
    relation onto the other's: it is an isomorphism.  The tests are the
    B(|a|) quotients, so PARTITION_SIZE_CAP bounds the call."""
    _check_same_signature(a, b)
    if a.size != b.size or any(len(r) != len(s) for r, s in zip(a.relations, b.relations)):
        return False
    for _, test in collapses(a):
        if hom_count(test, a) != hom_count(test, b):
            return False
    return True
