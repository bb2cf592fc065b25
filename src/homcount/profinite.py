"""Towers of finite groups as truncated inverse limits, and hom counting.

A tower is a finite chain G_0, ..., G_d with surjective connecting maps
G_{i+1} ->> G_i.  Precomposition with a surjection embeds hom(G_i, C) into
hom(G_{i+1}, C), so the level counts n_i are non-decreasing; the reported
count is the last one, flagged "stabilized" when the last two levels agree.
That flag is a truncation certificate, not a proof about the inverse limit:
whether the full limit's hom set is captured depends on the (infinite) tower
the chain was cut from.

Groups have no search of their own.  Each group is encoded once as the
structure whose one ternary relation M = {(x, y, xy)} is the graph of its
multiplication, and `homsearch` counts and lists the maps that preserve M,
which are exactly the group homomorphisms.  Two towers are compared by
pushing each isomorphism of their top levels down the connecting maps.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InvariantViolationError
from .homsearch import _count, hom_count, iter_hom_maps
from .lovasz import DISTINGUISHED, PROFILES_EQUAL, DistinguishResult
from .sigstruct import (
    SE_M,
    MorphismClass,
    Signature,
    Structure,
    _class_rules,
    _Frozen,
    is_homomorphism,
)

_GROUP_SIGNATURE = Signature((("M", 3),))


class FiniteGroup(_Frozen):
    """Cayley-table presentation on 0..order-1; verified at construction.
    The name is a label: equality and hash ignore it."""

    __slots__ = ("order", "table", "name")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], name: str = ""):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "name", name)
        self.__post_init__()

    def _key(self) -> tuple:
        return self.order, self.table

    def __post_init__(self):
        n = self.order
        if n < 1 or len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be an order x order grid")
        if any(not 0 <= v < n for row in self.table for v in row):
            raise ValueError("table entries out of range")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                        raise ValueError("operation is not associative")
        if self.identity is None:
            raise ValueError("no identity element")
        e = self.identity
        for x in range(n):
            if not any(self.table[x][y] == e and self.table[y][x] == e for y in range(n)):
                raise ValueError(f"element {x} has no inverse")

    @property
    def identity(self) -> int | None:
        for e in range(self.order):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(self.order)):
                return e
        return None


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    table = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
    return FiniteGroup(n, table, name or f"Z{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    pairs = list(itertools.product(range(g.order), range(h.order)))
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(
        tuple(
            index[(g.table[x1][x2], h.table[y1][y2])]
            for (x2, y2) in pairs
        )
        for (x1, y1) in pairs
    )
    return FiniteGroup(g.order * h.order, table,
                       name or f"{g.name or 'G'}x{h.name or 'H'}")


class GroupHom(_Frozen):
    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, map: tuple[int, ...]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "map", map)
        self.__post_init__()

    def __post_init__(self):
        if not is_group_hom(self.map, self.domain, self.codomain):
            raise ValueError("not a group homomorphism")

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.codomain.order


def is_group_hom(f, g: FiniteGroup, c: FiniteGroup) -> bool:
    """Is the total map f a homomorphism g -> c, that is, a homomorphism of
    their multiplication graphs?"""
    if len(f) != g.order or any(not 0 <= v < c.order for v in f):
        return False
    return is_homomorphism(f, _as_structure(g), _as_structure(c))


@lru_cache(maxsize=256)
def _as_structure(g: FiniteGroup) -> Structure:
    """g as a structure whose one relation is the graph M = {(x, y, xy)} of
    its multiplication: a map of groups is a homomorphism exactly when it
    is a homomorphism of these structures."""
    return Structure(_GROUP_SIGNATURE, g.order, (frozenset(
        (x, y, xy) for x, row in enumerate(g.table) for y, xy in enumerate(row)
    ),))


def enumerate_group_homs(g: FiniteGroup, c: FiniteGroup) -> list[tuple[int, ...]]:
    """Every homomorphism g -> c, listed by the structure search."""
    return list(iter_hom_maps(_as_structure(g), _as_structure(c)))


def count_group_homs(g: FiniteGroup, c: FiniteGroup) -> int:
    return hom_count(_as_structure(g), _as_structure(c))


class Tower(_Frozen):
    """Levels G_0, ..., G_d with verified surjective connecting maps
    G_{i+1} -> G_i.  The name is a label: equality and hash ignore it."""

    __slots__ = ("levels", "connecting", "name")

    def __init__(self, levels: tuple[FiniteGroup, ...], connecting: tuple[GroupHom, ...],
                 name: str = ""):
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "connecting", connecting)
        object.__setattr__(self, "name", name)
        self.__post_init__()

    def _key(self) -> tuple:
        return self.levels, self.connecting

    def __post_init__(self):
        if not self.levels:
            raise ValueError("a tower has at least one level")
        if len(self.connecting) != len(self.levels) - 1:
            raise ValueError("need exactly one connecting map per step")
        for i, hom in enumerate(self.connecting):
            if hom.domain != self.levels[i + 1] or hom.codomain != self.levels[i]:
                raise ValueError(f"connecting map {i} has wrong endpoints")
            if not hom.is_surjective():
                raise ValueError(f"connecting map {i} is not surjective")


def continuous_hom_count(t: Tower, c: FiniteGroup) -> tuple[int, bool]:
    """Level counts n_i = |hom(G_i, c)| are non-decreasing (asserted); the
    result is the last count, with stabilized = the last two levels agree.
    A single-level tower carries no certificate and reports False."""
    counts = [count_group_homs(level, c) for level in t.levels]
    for lower, upper in zip(counts, counts[1:]):
        if upper < lower:
            raise InvariantViolationError(
                f"hom counts decreased along the tower: {counts}"
            )
    stabilized = len(counts) >= 2 and counts[-1] == counts[-2]
    return counts[-1], stabilized


def distinguish_towers(t1: Tower, t2: Tower, family) -> DistinguishResult:
    """First family member whose top-level counts differ.  Members whose
    counts did not stabilize on both towers are collected as inconclusive
    warnings: a difference there still rules out isomorphism of the given
    truncations, but says less about the limits they were cut from."""
    warnings = []
    for c in family:
        n1, s1 = continuous_hom_count(t1, c)
        n2, s2 = continuous_hom_count(t2, c)
        if not (s1 and s2):
            warnings.append(c)
        if n1 != n2:
            return DistinguishResult(c, (n1, n2), DISTINGUISHED, tuple(warnings))
    return DistinguishResult(None, None, PROFILES_EQUAL, tuple(warnings))


def has_surjection(g: FiniteGroup, c: FiniteGroup) -> bool:
    rules = _class_rules(MorphismClass.SURJECTION, SE_M)
    return _count(_as_structure(g), _as_structure(c), *rules) > 0


def surjection_profile(t: Tower, family) -> tuple[bool, ...]:
    """Per family member: does some level surject onto it?  Such a surjection
    composed with the projections witnesses a continuous surjection from the
    inverse limit."""
    return tuple(
        any(has_surjection(level, c) for level in t.levels) for c in family
    )


def _push_down(f, p1: GroupHom, p2: GroupHom) -> list[int] | None:
    """The map f' with f'(p1(x)) = p2(f(x)), or None where that is not well
    defined.  p1 is surjective, so f' is total when it exists."""
    lower: list[int | None] = [None] * p1.codomain.order
    for x, y in enumerate(f):
        v, w = p2.map[y], lower[p1.map[x]]
        if w is None:
            lower[p1.map[x]] = v
        elif w != v:
            return None
    return lower


def towers_isomorphic(t1: Tower, t2: Tower) -> bool:
    """Levelwise isomorphisms commuting with the connecting maps.  Each
    isomorphism of the top levels fixes every lower level by pushing it down
    the (surjective) connecting maps; the towers are isomorphic when some
    push-down is well defined at every level, which with equal orders makes
    each pushed map a bijective hom."""
    if len(t1.levels) != len(t2.levels):
        return False
    if any(a.order != b.order for a, b in zip(t1.levels, t2.levels)):
        return False
    top1, top2 = t1.levels[-1], t2.levels[-1]
    steps = list(zip(t1.connecting, t2.connecting))[::-1]
    # injective homs between groups of equal order: the isomorphisms
    for f in iter_hom_maps(_as_structure(top1), _as_structure(top2), MorphismClass.MONO):
        for p1, p2 in steps:
            f = _push_down(f, p1, p2)
            if f is None:
                break
        if f is not None:
            return True
    return False


def mod_surjection(n: int, m: int) -> GroupHom:
    """The reduction Z/n ->> Z/m (requires m | n)."""
    if n % m:
        raise ValueError("m must divide n")
    return GroupHom(cyclic_group(n), cyclic_group(m), tuple(x % m for x in range(n)))
