"""Exhaustive morphism counting and enumeration by pruned backtracking.

Domain elements are assigned one at a time in descending-degree order.
Pruning: partial relation violations, injectivity conflicts (mono classes),
and a remaining-slots feasibility bound for the surjective classes.  The
relation-reflection conditions (strong-mono, SE_M quotient) are non-monotone
under partial assignment and are checked on complete maps only.

Counts are plain Python integers, so they stay exact past 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SignatureMismatchError
from .sigstruct import (
    SE_M,
    FactorisationSystem,
    Morphism,
    MorphismClass,
    Structure,
    reflects_relations,
)


@dataclass(frozen=True)
class CountResult:
    count: int
    witnesses: tuple[Morphism, ...] | None = None
    truncated: bool = False


@lru_cache(maxsize=4096)
def _search_plan(c: Structure):
    """Variable order (descending tuple-occurrence degree) plus, per step, the
    tuples of c that become fully assigned exactly at that step."""
    degree = [0] * c.size
    for rel in c.relations:
        for t in rel:
            for x in t:
                degree[x] += 1
    order = sorted(range(c.size), key=lambda x: (-degree[x], x))
    step_of = {x: s for s, x in enumerate(order)}
    constraints: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in order]
    for sym_idx, rel in enumerate(c.relations):
        for t in rel:
            last = max(step_of[x] for x in t) if t else 0
            constraints[last].append((sym_idx, t))
    return tuple(order), tuple(tuple(cs) for cs in constraints)


def count_morphisms(
    c: Structure,
    a: Structure,
    cls: MorphismClass = MorphismClass.HOM,
    system: FactorisationSystem = SE_M,
    enumerate_witnesses: bool = False,
    limit: int | None = None,
) -> CountResult:
    """Exact number of maps c -> a in the given class; optionally the maps."""
    if c.signature != a.signature:
        raise SignatureMismatchError(
            f"signatures differ: {c.signature.symbols} vs {a.signature.symbols}"
        )
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1 when given")

    injective = cls in (MorphismClass.MONO, MorphismClass.STRONG_MONO)
    surjective = cls in (MorphismClass.SURJECTION, MorphismClass.QUOTIENT)
    needs_reflect = cls is MorphismClass.STRONG_MONO or (
        cls is MorphismClass.QUOTIENT and system is SE_M
    )

    n, m = c.size, a.size
    if surjective and m > n:
        return CountResult(0, () if enumerate_witnesses else None)
    if injective and n > m:
        return CountResult(0, () if enumerate_witnesses else None)

    order, constraints = _search_plan(c)
    rels_a = a.relations
    img = [0] * n
    cover = [0] * m
    state = {"count": 0, "witnesses": [], "truncated": False}

    def accept():
        f = tuple(img)
        if needs_reflect and not reflects_relations(f, c, a):
            return
        state["count"] += 1
        if enumerate_witnesses:
            if limit is not None and len(state["witnesses"]) >= limit:
                state["truncated"] = True
            else:
                state["witnesses"].append(Morphism.build(c, a, f, system))

    def extend(step: int, uncovered: int):
        if step == n:
            accept()
            return
        v = order[step]
        slots_left = n - step
        for y in range(m):
            if injective and cover[y]:
                continue
            newly = 1 if cover[y] == 0 else 0
            if surjective and uncovered - newly > slots_left - 1:
                continue
            img[v] = y
            ok = True
            for sym_idx, t in constraints[step]:
                if tuple(img[x] for x in t) not in rels_a[sym_idx]:
                    ok = False
                    break
            if ok:
                cover[y] += 1
                extend(step + 1, uncovered - newly)
                cover[y] -= 1

    if n == 0:
        if not surjective or m == 0:
            accept()
    else:
        extend(0, m)

    witnesses = tuple(state["witnesses"]) if enumerate_witnesses else None
    return CountResult(state["count"], witnesses, state["truncated"])


def iter_hom_maps(c: Structure, a: Structure):
    """Yield every homomorphism c -> a as a raw index tuple (no Morphism
    construction); same backtracking and pruning as count_morphisms."""
    if c.signature != a.signature:
        raise SignatureMismatchError("signatures differ")
    n, m = c.size, a.size
    if n == 0:
        yield ()
        return
    order, constraints = _search_plan(c)
    rels_a = a.relations
    img = [0] * n

    def extend(step: int):
        if step == n:
            yield tuple(img)
            return
        v = order[step]
        for y in range(m):
            img[v] = y
            ok = True
            for sym_idx, t in constraints[step]:
                if tuple(img[x] for x in t) not in rels_a[sym_idx]:
                    ok = False
                    break
            if ok:
                yield from extend(step + 1)

    yield from extend(0)


def hom_count(c: Structure, a: Structure) -> int:
    """Shorthand for the plain homomorphism count."""
    return count_morphisms(c, a).count
