"""Generic/degenerate hom-set elements, the kernel decomposition of hom-sets
over quotient classes, and Stirling numbers of the second kind.

An element h of hom(c, a) is degenerate when it factors through a proper
quotient of c, and generic otherwise.  Genericity is decided here by
factorization tests against proper quotients, never by the embedding
shortcut, so the generic-equals-embedding identity stays a real check.

Under SE_M every quotient class is a kernel-partition collapse with image
relations.  Under E_SM quotients are plain surjections, so a quotient class
is a kernel partition together with a codomain that may carry extra tuples
beyond the image; factoring through any proper quotient is equivalent to
factoring through a proper collapse or through an identity-kernel quotient
that adds a single tuple, which keeps the test family finite and small.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import InvariantViolationError
from .homsearch import hom_count, iter_hom_maps
from .quotposet import (
    Partition,
    check_partition_cap,
    collapse_structure,
    set_partitions,
)
from .sigstruct import (
    SE_M,
    E_SM,
    FactorisationSystem,
    Structure,
    is_homomorphism,
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
    """Proper quotients sufficient to witness every degeneracy.

    Collapses come first, finest first, so a non-injective h is caught by a
    cheap two-element merge; the E_SM single-tuple expansions follow.
    """
    collapses = []
    for partition in set_partitions(c.size):
        if len(partition) == c.size:
            continue
        quotient, proj = collapse_structure(c, partition)
        collapses.append((partition, proj, quotient))
    collapses.sort(key=lambda item: -len(item[0]))
    expansions = []
    if system is E_SM:
        for sym_idx, (_, arity) in enumerate(c.signature.symbols):
            have = c.relations[sym_idx]
            for t in product(range(c.size), repeat=arity):
                if t not in have:
                    expansions.append((sym_idx, t))
    return tuple(collapses), tuple(expansions)


def is_generic(h, c: Structure, a: Structure,
               system: FactorisationSystem = SE_M) -> bool:
    """Does the homomorphism h factor through no proper quotient of c?

    Factorization through a collapse q holds iff h is constant on the kernel
    blocks of q and the induced map is a homomorphism from the quotient
    structure; factorization through a single-tuple expansion holds iff h
    carries the added tuple into a relation of a.
    """
    collapses, expansions = _factorization_candidates(c, system)
    for partition, proj, quotient in collapses:
        constant = True
        induced = [0] * quotient.size
        for bi, block in enumerate(partition):
            first = h[block[0]]
            for x in block[1:]:
                if h[x] != first:
                    constant = False
                    break
            if not constant:
                break
            induced[bi] = first
        if constant and is_homomorphism(induced, quotient, a):
            return False
    for sym_idx, t in expansions:
        if tuple(h[x] for x in t) in a.relations[sym_idx]:
            return False
    return True


def generic_count(c: Structure, a: Structure,
                  system: FactorisationSystem = SE_M) -> int:
    """Number of generic elements of hom(c, a), computed by definition."""
    return sum(1 for h in iter_hom_maps(c, a) if is_generic(h, c, a, system))


@lru_cache(maxsize=65536)
def _generic_count_cached(m: Structure, a: Structure,
                          system: FactorisationSystem) -> int:
    return generic_count(m, a, system)


@dataclass(frozen=True)
class DecompositionRow:
    partition: Partition
    codomain: Structure
    generic: int


@dataclass(frozen=True)
class KernelDecomposition:
    source: Structure
    target: Structure
    system: FactorisationSystem
    rows: tuple[DecompositionRow, ...]
    total: int
    homcount: int


def _realized_quotients(c: Structure, a: Structure):
    """E_SM quotient classes of c whose codomain admits a relation-reflecting
    injection into a: kernel partition plus the pulled-back relations.  These
    are exactly the classes that can carry generic elements of hom(c, a).

    Every h in hom(c, a) factors as its kernel collapse followed by the
    injection of the blocks onto im h; a class is realized iff it is
    (ker h, the relations of a pulled back along that injection) for some h.
    """
    rows = {}
    for h in iter_hom_maps(c, a):
        blocks: dict[int, list[int]] = {}
        for x, y in enumerate(h):
            blocks.setdefault(y, []).append(x)
        # blocks were opened in order of their least element
        partition = tuple(tuple(block) for block in blocks.values())
        index = {y: i for i, y in enumerate(blocks)}
        rels = tuple(
            frozenset(tuple(index[y] for y in t) for t in rel
                      if all(y in index for y in t))
            for rel in a.relations
        )
        key = (partition, rels)
        if key not in rows:
            rows[key] = Structure(c.signature, len(partition), rels)
    return rows


def kernel_decomposition(c: Structure, a: Structure,
                         system: FactorisationSystem = SE_M) -> KernelDecomposition:
    """Decompose hom(c, a) over the quotient classes of c.

    Under SE_M one row per kernel partition (image codomain), zero rows
    included.  Under E_SM the quotient classes carry expanded codomains and
    only the realized (non-zero) classes are listed.  The row totals must add
    up to the homomorphism count; a mismatch is an implementation bug and
    raises rather than reporting a best-effort table.
    """
    if system is SE_M:
        check_partition_cap(c.size)
        classes = [(partition, collapse_structure(c, partition)[0])
                   for partition in set_partitions(c.size)]
    else:
        classes = [
            (partition, codomain)
            for (partition, _), codomain in sorted(
                _realized_quotients(c, a).items(),
                key=lambda kv: (len(kv[0][0]), kv[0][0],
                                tuple(tuple(sorted(r)) for r in kv[0][1])),
            )
        ]
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
