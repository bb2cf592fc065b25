"""Exhaustive morphism counting and enumeration by one iterative search over
bitmasks of admissible values.

Domain elements are assigned one at a time in descending-degree order, with
an explicit stack, so pattern size is not limited by Python's recursion
depth.  Every structure gets one compiled record (`_search_plan`): as a
pattern, its variable order and the tuples that become fully assigned at
each step; as a target, an index, filled as the search first needs it, from
(symbol, positions of the new variable) and the values already bound at the
other positions to the int bitmask of values the new variable may take.  A
step intersects those masks.  Injective classes mask out the values already
used; the surjective classes mask to the uncovered values once as many
remain as there are steps left.  The relation-reflection conditions
(strong-mono, SE_M quotient) are non-monotone under partial assignment and
are checked on complete maps only.  A count that needs no such check adds
the popcount of the last step's mask instead of visiting its maps.

Maps are listed in lexicographic order of their values along the variable
order.  Counts are plain Python integers, so they stay exact past 2^63.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .sigstruct import (
    SE_M,
    FactorisationSystem,
    Morphism,
    MorphismClass,
    Structure,
    _check_same_signature,
    reflects_relations,
)


# Enum attribute lookups are slow; the class rules run once per count.
_MONO, _STRONG_MONO = MorphismClass.MONO, MorphismClass.STRONG_MONO
_SURJECTION, _QUOTIENT = MorphismClass.SURJECTION, MorphismClass.QUOTIENT


@dataclass(frozen=True)
class CountResult:
    count: int
    witnesses: tuple[Morphism, ...] | None = None
    truncated: bool = False


class _Record:
    """The search's view of one structure, as pattern and as target.

    As a pattern: `order` lists the variables in search order (descending
    tuple-occurrence degree), and `steps[s]` the tuples that become fully
    assigned at step s, each by the key of its target table, in three
    groups: keys of tuples with no other variable; (key, variable) for one
    other position; (key, itemgetter of the other variables) for two or
    more.  A key packs the symbol index and the bitmask of the positions of
    the variable assigned at step s into one int.

    As a target: `table(key)`, built the first time a search asks for it.
    """

    __slots__ = ("structure", "order", "steps", "_index")

    def __init__(self, s: Structure):
        self.structure = s
        degree = [0] * s.size
        for rel in s.relations:
            for t in rel:
                for x in t:
                    degree[x] += 1
        self.order = tuple(sorted(range(s.size), key=lambda x: (-degree[x], x)))
        rank = [0] * s.size
        for i, x in enumerate(self.order):
            rank[x] = i
        nsym = len(s.relations)
        steps = [([], [], []) for _ in self.order]
        for sym, rel in enumerate(s.relations):
            for t in rel:
                v = t[0]
                for x in t:
                    if rank[x] > rank[v]:
                        v = x
                if t.count(v) == 1:
                    p = t.index(v)
                    key, rest = sym + (nsym << p), t[:p] + t[p + 1:]
                else:
                    key = sym + nsym * sum(1 << i for i, x in enumerate(t) if x == v)
                    rest = tuple(x for x in t if x != v)
                statics, ones, manys = steps[rank[v]]
                if not rest:
                    statics.append(key)
                elif len(rest) == 1:
                    ones.append((key, rest[0]))
                else:
                    manys.append((key, itemgetter(*rest)))
        # Tuples of ints only, which the garbage collector stops tracking.
        self.steps = tuple(tuple(map(tuple, groups)) for groups in steps)
        self._index = {}

    def table(self, key):
        """Admissible values of the variable at the positions the key names,
        as a bitmask: one int when there are no other positions, a tuple by
        the value at the one other position, else a dict by the tuple of
        values at the other positions (absent key: no value)."""
        tab = self._index.get(key)
        if tab is None:
            vmask, sym = divmod(key, len(self.structure.relations))
            arity = self.structure.signature.symbols[sym][1]
            vpos = [i for i in range(arity) if vmask >> i & 1]
            rest = [i for i in range(arity) if not vmask >> i & 1]
            p = vpos[0]
            fits = [u for u in self.structure.relations[sym]
                    if all(u[q] == u[p] for q in vpos)]
            if not rest:
                tab = 0
                for u in fits:
                    tab |= 1 << u[p]
            elif len(rest) == 1:
                q = rest[0]
                masks = [0] * self.structure.size
                for u in fits:
                    masks[u[q]] |= 1 << u[p]
                tab = tuple(masks)
            else:
                tab = {}
                get = itemgetter(*rest)
                for u in fits:
                    k = get(u)
                    tab[k] = tab.get(k, 0) | 1 << u[p]
            self._index[key] = tab
        return tab


@lru_cache(maxsize=4096)
def _search_plan(s: Structure) -> _Record:
    """The compiled record of s, shared by every search that uses s."""
    return _Record(s)


def _last_masks(c: Structure, a: Structure, img: list[int],
                injective: bool, surjective: bool):
    """The search.  For every assignment of all but the last variable of c
    that passes every check, leave it in img and yield the nonzero bitmask of
    values the last variable may take.  Needs c.size >= 1."""
    n, m = c.size, a.size
    if (surjective and m > n) or (injective and n > m):
        return
    plan = _search_plan(c)
    table = _search_plan(a).table
    full = (1 << m) - 1
    # per step: the static mask, (tuple table, variable) and (dict table, getter) pairs
    base, singles, multis = [], [], []
    for statics, ones, manys in plan.steps:
        b = full
        for key in statics:
            b &= table(key)
        if not b:  # no value fits this step's tuples on their own
            return
        base.append(b)
        singles.append([(table(key), x) for key, x in ones])
        multis.append([(table(key), get) for key, get in manys])

    order = plan.order
    last = n - 1
    track = injective or surjective
    taken = [0] * n      # values taken by the steps before s
    uncovered = [m] * n  # values of a not taken before step s
    cand = [0] * n       # values still to try at step s
    # Step 0 has no earlier variables, and the class masks do not bind yet.
    if last == 0:
        yield base[0]
        return
    cand[0] = base[0]
    s = 0
    while s >= 0:
        bits = cand[s]
        if not bits:
            s -= 1
            continue
        low = bits & -bits
        cand[s] = bits ^ low
        img[order[s]] = low.bit_length() - 1
        t = s + 1
        mask = base[t]
        for tab, x in singles[t]:
            mask &= tab[img[x]]
        for tab, get in multis[t]:
            mask &= tab.get(get(img), 0)
        if track:
            seen = taken[s]
            taken[t] = seen | low
            if injective:
                mask &= ~taken[t]
            else:
                left = uncovered[s] - (0 if seen & low else 1)
                uncovered[t] = left
                if left == n - t:
                    mask &= ~taken[t]
        if t == last:
            if mask:
                yield mask
        else:
            cand[t] = mask
            s = t


def _class_rules(cls: MorphismClass, system: FactorisationSystem):
    """(injective, surjective, needs_reflect) for the class."""
    injective = cls is _MONO or cls is _STRONG_MONO
    surjective = cls is _SURJECTION or cls is _QUOTIENT
    needs_reflect = cls is _STRONG_MONO or (cls is _QUOTIENT and system is SE_M)
    return injective, surjective, needs_reflect


def _maps(c: Structure, a: Structure, injective: bool, surjective: bool,
          needs_reflect: bool):
    """Every map c -> a of the class with these rules as a raw index tuple,
    in listing order."""
    n, m = c.size, a.size
    if n == 0:
        if not surjective or m == 0:
            yield ()
        return
    img = [0] * n
    v = _search_plan(c).order[-1]
    for mask in _last_masks(c, a, img, injective, surjective):
        while mask:
            low = mask & -mask
            mask ^= low
            img[v] = low.bit_length() - 1
            f = tuple(img)
            if not needs_reflect or reflects_relations(f, c, a):
                yield f


def count_morphisms(
    c: Structure,
    a: Structure,
    cls: MorphismClass = MorphismClass.HOM,
    system: FactorisationSystem = SE_M,
    enumerate_witnesses: bool = False,
    limit: int | None = None,
) -> CountResult:
    """Exact number of maps c -> a in the given class; optionally the maps."""
    _check_same_signature(c, a)
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1 when given")

    injective, surjective, needs_reflect = _class_rules(cls, system)
    if not enumerate_witnesses and not needs_reflect and c.size > 0:
        masks = _last_masks(c, a, [0] * c.size, injective, surjective)
        return CountResult(sum(map(int.bit_count, masks)))

    count = 0
    witnesses = []
    truncated = False
    for f in _maps(c, a, injective, surjective, needs_reflect):
        count += 1
        if enumerate_witnesses:
            if limit is not None and len(witnesses) >= limit:
                truncated = True
            else:
                witnesses.append(Morphism.build(c, a, f, system))
    return CountResult(count, tuple(witnesses) if enumerate_witnesses else None, truncated)


def iter_hom_maps(c: Structure, a: Structure):
    """Yield every homomorphism c -> a as a raw index tuple (no Morphism
    construction), in the order count_morphisms lists them."""
    _check_same_signature(c, a)
    yield from _maps(c, a, False, False, False)


def hom_count(c: Structure, a: Structure) -> int:
    """Shorthand for the plain homomorphism count."""
    return count_morphisms(c, a).count
