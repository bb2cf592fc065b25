"""Exhaustive morphism counting and enumeration, on two paths: one iterative
search over bitmasks of admissible values, and, for small counts, whole-map
bitsets.

The search assigns domain elements one at a time in descending-degree order,
with an explicit stack, so pattern size is not limited by Python's recursion
depth.  Every structure gets one record (`_search_plan`): as a pattern, its
variable order and the tuples that become fully assigned at each step,
compiled on first use; as a target, an index, filled as the search first
needs it, from (symbol, positions of the new variable) and the values already
bound at the other positions to the int bitmask of values the new variable
may take.  A step intersects those masks.  Injective classes mask out the
values already used; the surjective classes mask to the uncovered values
once as many remain as there are steps left.  The relation-reflection
conditions (strong-mono, SE_M quotient) are non-monotone under partial
assignment and are checked on complete maps only.  A count that needs no
such check adds the popcount of the last step's mask instead of visiting its
maps.

The table path answers such a count (no witnesses, no reflection check) when
it ranges over few maps: |a|^|c| <= `_TABLE_MAPS`.  Then every map c -> a is
one bit of an int, the target's record keeps, per pattern size, the set of
maps that send each tuple of pattern variables into a's relation, and the
count is the popcount of the AND of c's tuple sets and the class's
injective or surjective set.  The pattern needs no record at all.  The
constant is the measured crossover of one count into a fresh target (random
`E/2` and `E/2,R/3` structures, 2 cores, Python 3.11): the table path was
ahead at every measured size up to 4,096 maps, even or mixed from 6,561 to
7,776 and behind from 15,625 on.  Counting 20 patterns into one target, it
stayed ahead through 16,384 maps.  Witness listing, `limit`,
`iter_hom_maps`, the reflection classes and larger counts stay on the
search.

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

# The table path's size rule (module docstring): counts over at most this
# many maps c -> a, |a|^|c| of them, take it.
_TABLE_MAPS = 1 << 12


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
    the variable assigned at step s into one int.  Both are compiled the
    first time a search reads them, so a structure used only as a target
    never pays for them.

    As a target: `table(key)`, built the first time a search asks for it,
    and `map_tables(n)`, the whole-map bitsets for patterns of size n.
    """

    __slots__ = ("structure", "_order", "_steps", "_index", "_map_tables")

    def __init__(self, s: Structure):
        self.structure = s
        self._order = self._steps = None
        self._index = {}
        self._map_tables = {}

    @property
    def order(self):
        if self._order is None:
            self._compile_pattern()
        return self._order

    @property
    def steps(self):
        if self._steps is None:
            self._compile_pattern()
        return self._steps

    def _compile_pattern(self):
        s = self.structure
        degree = [0] * s.size
        for rel in s.relations:
            for t in rel:
                for x in t:
                    degree[x] += 1
        order = tuple(sorted(range(s.size), key=lambda x: (-degree[x], x)))
        rank = [0] * s.size
        for i, x in enumerate(order):
            rank[x] = i
        nsym = len(s.relations)
        steps = [([], [], []) for _ in order]
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
        self._order = order
        # Tuples of ints only, which the garbage collector stops tracking.
        self._steps = tuple(tuple(map(tuple, groups)) for groups in steps)

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

    def map_tables(self, n: int) -> _MapTables:
        """The whole-map bitsets of this target for patterns of size n."""
        tabs = self._map_tables.get(n)
        if tabs is None:
            tabs = self._map_tables[n] = _MapTables(self.structure, n)
        return tabs


class _MapTables:
    """Sets of maps g: [n] -> [m] into a target a of size m >= 1, as ints of
    m^n bits: bit sum_x g(x) m^x stands for g.

    `proj[x][u]` holds the maps with g(x) = u: within every block of m^(x+1)
    bits, the run of m^x bits at offset u m^x, repeated by multiplying with
    a repunit.  `tuples[sym][t]`, for a tuple t of pattern variables, holds
    the maps that send t into a's relation sym: the OR over a's tuples u of
    the AND of the proj[t[i]][u[i]] (a repeated variable needs no special
    case).  The injective and surjective masks are built on first use."""

    __slots__ = ("relations", "proj", "full", "tuples", "_injective", "_surjective")

    def __init__(self, a: Structure, n: int):
        m = a.size
        self.relations = a.relations
        self.full = full = (1 << m ** n) - 1
        self.proj = []
        for x in range(n):
            run = m ** x
            base = ((1 << run) - 1) * (full // ((1 << run * m) - 1))
            self.proj.append([base << u * run for u in range(m)])
        self.tuples = [{} for _ in a.relations]
        self._injective = self._surjective = None

    def tuple_mask(self, sym: int, t: tuple) -> int:
        proj = self.proj
        first, rest = proj[t[0]], tuple(enumerate(t))[1:]
        mask = 0
        for u in self.relations[sym]:
            g = first[u[0]]
            for i, x in rest:
                g &= proj[x][u[i]]
            mask |= g
        self.tuples[sym][t] = mask
        return mask

    def injective(self) -> int:
        if self._injective is None:
            clash = 0
            for x, px in enumerate(self.proj):
                for py in self.proj[x + 1:]:
                    for bx, by in zip(px, py):
                        clash |= bx & by
            self._injective = self.full & ~clash
        return self._injective

    def surjective(self) -> int:
        if self._surjective is None:
            mask = self.full
            for column in zip(*self.proj):  # the maps that hit u, per u
                hit = 0
                for bits in column:
                    hit |= bits
                mask &= hit
            self._surjective = mask
        return self._surjective


@lru_cache(maxsize=4096)
def _search_plan(s: Structure) -> _Record:
    """The compiled record of s, shared by every search that uses s."""
    return _Record(s)


def _table_count(c: Structure, a: Structure, injective: bool,
                 surjective: bool) -> int:
    """The count of maps c -> a of the class with these rules that need no
    reflection check, as the popcount of the AND of c's tuple masks (and the
    class mask).  Needs c.size >= 1."""
    n, m = c.size, a.size
    if m == 0 or (injective and n > m) or (surjective and m > n):
        return 0
    tabs = _search_plan(a).map_tables(n)
    mask = tabs.injective() if injective else tabs.surjective() if surjective else tabs.full
    for sym, rel in enumerate(c.relations):
        known = tabs.tuples[sym]
        for t in rel:
            bits = known.get(t)
            mask &= tabs.tuple_mask(sym, t) if bits is None else bits
            if not mask:
                return 0
    return mask.bit_count()


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
        if a.size ** c.size <= _TABLE_MAPS:
            return CountResult(_table_count(c, a, injective, surjective))
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
