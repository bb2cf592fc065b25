"""Set partitions, quotient posets of structures, and their Moebius function.

A quotient class of a structure c is keyed by the kernel partition of its
projection together with the induced codomain (relation tuples are images of
c's tuples).  The order is "x <= y iff x factors through y", i.e. the kernel
of y refines the kernel of x; the identity class is the unique top element.
The interval from a class up to the top is a product of partition lattices,
one per kernel block, so mu(class, top) has a closed form
(`partition_mobius`).  Exact integer arithmetic throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import CapExceededError
from .sigstruct import Structure

PARTITION_SIZE_CAP = 8

Partition = tuple[tuple[int, ...], ...]


def check_partition_cap(size: int) -> None:
    """Refuse to enumerate the set partitions of more than
    PARTITION_SIZE_CAP elements."""
    if size > PARTITION_SIZE_CAP:
        raise CapExceededError(
            f"partition enumeration cap {PARTITION_SIZE_CAP} exceeded by size {size}",
            count=size,
        )


def set_partitions(n: int):
    """All partitions of 0..n-1 via restricted growth strings, duplicate-free.

    Blocks are sorted internally and by least element.
    """
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def emit():
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(rgs):
            blocks.setdefault(b, []).append(i)
        yield tuple(tuple(blocks[b]) for b in sorted(blocks))

    def grow(i: int, maxval: int):
        if i == n:
            yield from emit()
            return
        for b in range(maxval + 2):
            rgs[i] = b
            yield from grow(i + 1, max(maxval, b))

    rgs[0] = 0
    yield from grow(1, 0)


def partition_refines(p: Partition, q: Partition, n: int) -> bool:
    """Every block of p lies inside a block of q."""
    block_of_q = [0] * n
    for bi, block in enumerate(q):
        for x in block:
            block_of_q[x] = bi
    return all(len({block_of_q[x] for x in block}) == 1 for block in p)


def partition_mobius(partition: Partition) -> int:
    """mu(class, top) for the class with this kernel partition: the product
    over blocks B of (-1)^(|B|-1) (|B|-1)!, the Moebius value of the
    partition lattice of B (Rota 1964)."""
    mu = 1
    for block in partition:
        k = len(block) - 1
        mu *= (-1) ** k * factorial(k)
    return mu


def collapse_structure(c: Structure, partition: Partition) -> tuple[Structure, tuple[int, ...]]:
    """Quotient of c by the partition: blocks become elements (ordered by
    least member), relations are images.  Returns (structure, projection)."""
    proj = [0] * c.size
    for bi, block in enumerate(partition):
        for x in block:
            proj[x] = bi
    rels = tuple(
        frozenset(tuple(proj[x] for x in t) for t in rel) for rel in c.relations
    )
    return Structure(c.signature, len(partition), rels), tuple(proj)


class FinitePoset:
    """A finite poset over elements 0..n-1 given by a leq predicate matrix."""

    def __init__(self, size: int, leq_matrix):
        self.size = size
        self._up = [frozenset(j for j in range(size) if leq_matrix[i][j])
                    for i in range(size)]
        self._down = [frozenset(i for i in range(size) if leq_matrix[i][j])
                      for j in range(size)]
        self._mobius: dict[tuple[int, int], int] = {}
        for i in range(size):
            if i not in self._up[i]:
                raise ValueError("leq must be reflexive")
            for j in self._up[i]:
                if i != j and i in self._up[j]:
                    raise ValueError("leq must be antisymmetric")
                if not self._up[j] <= self._up[i]:
                    raise ValueError("leq must be transitive")

    def leq(self, x: int, y: int) -> bool:
        return y in self._up[x]

    def down_set(self, y: int):
        return sorted(self._down[y])

    def up_set(self, x: int):
        return sorted(self._up[x])

    def mobius(self, x: int, y: int) -> int:
        """mu(x,x) = 1 and mu(x,y) = -sum_{x <= z < y} mu(x,z)."""
        if y not in self._up[x]:
            raise ValueError(f"mobius undefined: {x} is not <= {y}")
        key = (x, y)
        if key not in self._mobius:
            if x == y:
                self._mobius[key] = 1
            else:
                total = 0
                for z in self._up[x] & self._down[y]:
                    if z != y:
                        total += self.mobius(x, z)
                self._mobius[key] = -total
        return self._mobius[key]

    def top(self) -> int | None:
        tops = [y for y in range(self.size) if len(self._down[y]) == self.size]
        return tops[0] if len(tops) == 1 else None


@dataclass(frozen=True)
class QuotientClass:
    partition: Partition
    codomain: Structure


class QuotientPoset:
    """Q(c): one class per kernel partition, ordered by factorization."""

    def __init__(self, source: Structure, elements: tuple[QuotientClass, ...],
                 poset: FinitePoset, top: int):
        self.source = source
        self.elements = elements
        self.poset = poset
        self.top = top

    def __len__(self):
        return len(self.elements)

    def index_of_partition(self, partition: Partition) -> int:
        for i, e in enumerate(self.elements):
            if e.partition == partition:
                return i
        raise KeyError(partition)


def quotient_poset(c: Structure) -> QuotientPoset:
    """The partition-keyed quotient poset of c, classes in `set_partitions`
    order.

    Each class's codomain is the collapse of c by its kernel partition, so
    the projection onto it is a quotient under both factorisation systems and
    the poset is the same for both; the identity class is the top element.
    """
    check_partition_cap(c.size)
    classes = tuple(QuotientClass(partition, collapse_structure(c, partition)[0])
                    for partition in set_partitions(c.size))
    n = len(classes)
    leq = [[partition_refines(classes[j].partition, classes[i].partition, c.size)
            for j in range(n)] for i in range(n)]
    # leq[i][j] as built means "j's kernel refines i's kernel" = i <= j
    poset = FinitePoset(n, leq)
    top = poset.top()
    assert top is not None and len(classes[top].partition) == c.size
    return QuotientPoset(c, classes, poset, top)
