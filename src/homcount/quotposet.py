"""Set partitions, quotient posets of structures, and their Moebius function.

`collapses(c)` is the one generator of c's B(n) collapses c/P: it builds
each restricted growth string with its blocks, prefix by prefix, and reads
the growth string as the projection, each relation's image taken column by
column.  The quotient poset, the SE_M Moebius sum and kernel (through the
pattern's record) and the isomorphism decision all read it.

A quotient class of a structure c is keyed by the kernel partition of its
projection together with the induced codomain (relation tuples are images of
c's tuples).  The order is "x <= y iff x factors through y", i.e. the kernel
of y refines the kernel of x; the identity class is the unique top element.
The interval from a class up to the top is a product of partition lattices,
one per kernel block, so mu(class, top) has a closed form
(`partition_mobius`).  Under E_SM a codomain may carry tuples beyond the
image, the classes are those realized by maps into a target, and
`_esm_mobius` computes their column mu(-, top) in one pass, pushing mu down
from the classes where it is not 0.  Exact integer arithmetic throughout.
"""

from __future__ import annotations

from math import factorial
from operator import itemgetter

from .errors import cap_exceeded
from .sigstruct import Structure, _Frozen, _image

PARTITION_SIZE_CAP = 8

Partition = tuple[tuple[int, ...], ...]


def _growth_strings(n: int):
    """The list of (s, blocks) for each restricted growth string s of length
    n, in lexicographic order: s[x] is the block of element x, each new
    block is numbered one above the largest before it, and blocks is the
    partition that puts x in block s[x].  Both are built prefix by prefix.
    More than PARTITION_SIZE_CAP elements are refused."""
    if n > PARTITION_SIZE_CAP:
        raise cap_exceeded("PARTITION_SIZE_CAP", PARTITION_SIZE_CAP,
                           "partition enumeration over", n, "elements")
    level = [((), ())]
    for x in range(n):
        level = [extended for prefix in level for extended in _extensions(prefix, x)]
    return level


def _extensions(prefix, x: int):
    """The growth strings one element longer than prefix = (s, blocks), x
    joining each block of s in turn and then a new one."""
    s, blocks = prefix
    k = len(blocks)
    for b in range(k):
        yield s + (b,), blocks[:b] + (blocks[b] + (x,),) + blocks[b + 1:]
    yield s + (k,), blocks + ((x,),)


def _blocks(labels) -> Partition:
    """The partition that puts x in block labels[x] (a growth string)."""
    blocks: list[list[int]] = []
    for x, b in enumerate(labels):
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(x)
    return tuple(map(tuple, blocks))


def set_partitions(n: int):
    """All partitions of 0..n-1 via restricted growth strings, duplicate-free.
    More than PARTITION_SIZE_CAP elements are refused at the call, before
    the first partition.

    Blocks are sorted internally and by least element.
    """
    return map(itemgetter(1), _growth_strings(n))


def collapses(c: Structure):
    """(P, c/P) for each partition P of c's elements, in `set_partitions`
    order: c/P has one element per block, numbered by least member, and the
    images of c's tuples as relations.  The growth string of P is the
    projection, and each relation's image is read column by column, the
    columns taken once per call.  More than PARTITION_SIZE_CAP elements are
    refused at the call, before the first collapse."""
    strings = _growth_strings(c.size)
    signature = c.signature
    columns = [list(zip(*rel)) for rel in c.relations]
    return ((blocks, Structure(signature, len(blocks), tuple([
        frozenset(zip(*[map(s.__getitem__, col) for col in cols])) for cols in columns])))
        for s, blocks in strings)


def block_labels(partition: Partition, n: int) -> tuple[int, ...]:
    """The block index of each element 0..n-1."""
    labels = [0] * n
    for bi, block in enumerate(partition):
        for x in block:
            labels[x] = bi
    return tuple(labels)


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
    proj = block_labels(partition, c.size)
    return _image(c, proj, len(partition)), proj


class FinitePoset:
    """A finite poset over elements 0..n-1 given by its up-sets: up_sets[i]
    holds every j with i <= j."""

    def __init__(self, size: int, up_sets):
        self.size = size
        self._up = [frozenset(up) for up in up_sets]
        down: list[list[int]] = [[] for _ in range(size)]
        for i, up in enumerate(self._up):
            for j in up:
                down[j].append(i)
        self._down = [frozenset(d) for d in down]
        self._mobius: dict[tuple[int, int], int] = {}
        for i in range(size):
            if i not in self._up[i]:
                raise ValueError("leq must be reflexive")
            for j in self._up[i]:
                if i != j and i in self._up[j]:
                    raise ValueError("leq must be antisymmetric")
                if not self._up[j] <= self._up[i]:
                    raise ValueError("leq must be transitive")

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


def _esm_mobius(keys, top) -> list[int]:
    """mu(x, top) for each E_SM quotient class x of `keys`, in their order,
    0 where x is not below `top`; a class is keyed (kernel partition of
    0..n-1, relations) and `top` is one of them, the identity class for
    `embeddings_via_mobius`.  x <= y when y's partition refines x's and y's
    relations, pushed along the merge of y's blocks into x's, lie in x's.

    The classes are visited finest first, more blocks then fewer tuples, so
    every y above x is finished before x: mu(top) = 1, every other mu(x) is
    minus the sum pushed onto x, and each y with mu(y) != 0 pushes mu(y) onto
    every class below it; a class with mu 0 pushes nothing.  A partition
    with block labels f refines one with labels g exactly when the distinct
    pairs of zip(f, g) are as many as its blocks; those pairs are then the
    merge.  That test runs once per partition that pushes, against each
    partition with no more blocks, and the relations are pushed column by
    column."""
    n = sum(map(len, top[0]))
    by_partition: dict[Partition, list[int]] = {}
    for i, (partition, _) in enumerate(keys):
        by_partition.setdefault(partition, []).append(i)
    labels = {p: block_labels(p, n) for p in by_partition}
    coarser: dict[Partition, list] = {}
    pushed = [0] * len(keys)
    pushed[keys.index(top)] = -1
    mu = [0] * len(keys)
    for y in sorted(range(len(keys)),
                    key=lambda i: (-len(keys[i][0]), sum(map(len, keys[i][1])))):
        mu[y] = m = -pushed[y]
        if not m:
            continue
        fine, rels = keys[y]
        if fine not in coarser:
            coarser[fine] = [
                (dict(pairs).__getitem__, lower)
                for coarse, lower in by_partition.items() if len(coarse) <= len(fine)
                and len(pairs := set(zip(labels[fine], labels[coarse]))) == len(fine)]
        columns = [list(zip(*rel)) for rel in rels]
        for merge, lower in coarser[fine]:
            images = [set(zip(*[map(merge, col) for col in cols])) for cols in columns]
            for x in lower:  # y itself is among them, and done
                if all(map(set.__le__, images, keys[x][1])):
                    pushed[x] += m
    return mu


class QuotientClass(_Frozen):
    __slots__ = ("partition", "codomain")

    def __init__(self, partition: Partition, codomain: Structure):
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "codomain", codomain)


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


def quotient_poset(c: Structure) -> QuotientPoset:
    """The partition-keyed quotient poset of c, classes in `set_partitions`
    order.

    Each class's codomain is the collapse of c by its kernel partition, so
    the projection onto it is a quotient under both factorisation systems and
    the poset is the same for both; the identity class is the top element.
    """
    classes = tuple(QuotientClass(p, q) for p, q in collapses(c))
    labels = [s for s, _ in _growth_strings(c.size)]
    index = {s: i for i, s in enumerate(labels)}
    # The partitions coarser than p are p's blocks merged by each partition of
    # p's block numbers; composing growth strings gives the merged one.  The
    # identity string composes to the merge itself (and for fewer than two
    # elements itemgetter would return a bare label, not a tuple).
    merges: dict[int, list[tuple[int, ...]]] = {c.size: labels}
    up_sets: list[list[int]] = [[] for _ in labels]
    for j, s in enumerate(labels):
        k = max(s, default=-1) + 1
        if k not in merges:
            merges[k] = [m for m, _ in _growth_strings(k)]
        compose = itemgetter(*s) if k < len(s) else tuple
        for m in merges[k]:
            up_sets[index[compose(m)]].append(j)
    # the identity class is the last growth string, 0, 1, ..., n - 1
    return QuotientPoset(c, classes, FinitePoset(len(classes), up_sets), len(classes) - 1)
