"""Exhaustive morphism counting and enumeration, on three paths: one
iterative search over bitmasks of admissible values, and, for counts only,
whole-map bitsets and dynamic programming over the search frontier.

The search assigns domain elements one at a time in descending-degree order,
with an explicit stack, so pattern size is not limited by Python's recursion
depth.  Every structure gets one record (`_search_plan`): as a pattern, its
variable orders and the tuples that become fully assigned at each step,
compiled on first use; as a target, an index, filled as a count first needs
it, from (symbol, positions of the new variable) and the values already
bound at the other positions to the int bitmask of values the new variable
may take.  A step intersects those masks.  Injective classes mask out the
values already used; the surjective classes mask to the uncovered values
once as many remain as there are steps left.  An injective homomorphism
reflects every relation exactly when it sends no non-tuple of the pattern (a
tuple of its variables outside the relation) into the target's relation.
That condition is monotone: a partial map that breaks it has no extension
that repairs it.  So strong-mono steps also AND the complements of the
target's masks for the non-tuples completed there.  For a surjective map
reflection is not monotone (a later value can still cover a target tuple),
so the SE_M quotients are checked on complete maps only.  A count that needs
no such check adds the popcount of the last step's mask instead of visiting
its maps.

`_count` is the one count entry, returning an int; `count_morphisms` wraps
it in a `CountResult` at the public edge.  Size-0 patterns and the SE_M
quotients stay on listing; for every other count one rule (`_counter`)
chooses the path, from the sizes and the pattern's frontier width:

* The table path, when the count ranges over few maps: |a|^|c| <=
  `_TABLE_MAPS`.  Every map c -> a is one bit of an int.  The bitsets that
  depend on the sizes only (all maps, the maps with g(x) = u, the maps with
  g(x) = g(y), the injective and the surjective maps) are built once per
  size pair (`_map_space`); the target's record keeps, per pattern size,
  the set of maps that send each tuple of pattern variables into a's
  relation (`_map_table`).  The count is the popcount of the AND of c's
  tuple sets and the class's injective or surjective set.  A strong-mono
  count also ANDs the complements of the sets of c's non-tuples.  The
  pattern needs no record at all.  The same tuple sets serve `stirling`'s
  generic counts over as many maps, which OR the maps that factor through
  each coatom of c's quotients.  The constant is the
  measured crossover of one count into a fresh target (random `E/2` and
  `E/2,R/3` structures, 2 cores, Python 3.11): the table path was ahead at
  every measured size up to 4,096 maps, even or mixed from 6,561 to 7,776
  and behind from 15,625 on.  Counting 20 patterns into one target, it
  stayed ahead through 16,384 maps.
* The frontier DP, for larger plain and surjective counts (no injective
  rule, no reflection check) of patterns with at most `_FRONTIER_SIZE` (40)
  elements whose frontier stays narrow: 2w < |c| and |a|^w <=
  `_FRONTIER_STATES` (2^20).  The frontier after a step is the variables
  assigned so far that still share a tuple with an unassigned one, and w is
  its largest size along the pattern's greedy frontier order.  The state
  maps the frontier values to the number of partial maps that reach them; a
  step ANDs the target's index masks for them, and a variable that leaves
  the frontier at its own step is summed as a popcount.  This is variable
  elimination with bags the frontier plus the new variable, the tree-width
  reading of Lovász's theorem (Dvořák 2010; Dell, Grohe and Rattan 2018),
  and it uses the search's target index only.  A surjective count is
  Möbius inversion on the Boolean lattice of a's subsets, the dual of the
  quotient-poset inversion (Rota 1964): surj(c, a) = sum over S of
  (-1)^|A - S| hom(c, a[S]), one pass of the DP per S with every step's
  values restricted to S, largest S first, so that the subsets of an S
  that counts 0 are skipped.  With 2^|a| passes, it takes the DP only into
  targets of at most `_SURJECTIVE_TARGET` (6) elements.
  The rule 2w < |c| is the measured crossover against the search (random
  connected `E/2` and `E/2,R/3` patterns of 4 to 10 elements into random
  targets of 8 to 32 elements, 3 seeds, 1,160 pairs, one count into a
  fresh target): where 2w < |c| the DP was faster in 450 of 561 pairs, at
  a median 0.44 of the search's time; where |c|/2 <= w <= |c| - 3 in 78 of
  273 (median 1.36x the search's time), and where w >= |c| - 2 in 40 of 326
  (median 1.37x).
  The three bounds come from a second grid (BENCH_22.json): random banded
  `E/2` patterns of 4 to 40 elements and w from 1 to 7 (`R/3` triples on
  some), cycles and sparse random graphs, all with 2w < |c|, into random
  targets of 2 to 32 elements; one cold count each, the search stopped
  after 0.25 s.  Plain counts: the DP was faster in 734 of 1,017 pairs with
  |a|^w <= 2^18 (median 0.08 of the search's time; 9.1 s summed against
  more than 122 s, the search stopped in 456), at most 1.05 s each; with
  2^18 < |a|^w <= 2^20 in 27 of 48 (every DP finished, in at most 5.1 s and
  83 MB peak RSS; the search stopped in 42).  Past 2^20 it was not run.
  Surjective counts, into targets of 2 to 8 elements (K_m, C_m, G(m, 0.6)
  with loops, random `E/2,R/3` ones): with |a| <= 6 the DP was faster in
  517 of 795 pairs (median 0.19 of the search's time; 4.6 s summed against
  more than 77 s), at most 0.48 s each; on patterns of at most 10 elements,
  where the search is cheap, in 81 of 158 (0.19 s against 3.0 s).  P10, C9
  and G(10, 0.3) into C5 take 0.2 to 0.6 ms, against 0.09 to 1.2 ms on the
  search.  With |a| = 8 (255 passes) the DP was faster in 96 of 150 pairs,
  but took 31.6 s summed against at least 25.8 s, and 6 counts ran past 2 s.
  The size bound is the grid's largest pattern: the walk is quadratic in
  |c| (0.4 ms at 40 elements, 334 ms at 1,000, where the search counts a
  path into K2 in 5 ms), so larger patterns stay on the search.
* The search, for every other count: the injective classes, surjective
  counts into larger targets, larger or wider patterns.  Witness listing,
  `iter_hom_maps` and the SE_M quotients always take it; a listing cut at
  its limit takes its total from `_count`, or from the rest of the listing
  for a class that `_count` counts by listing.

Maps are listed in lexicographic order of their values along the search's
variable order.  Counts are plain Python integers, so they stay exact past
2^63.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import islice
from operator import itemgetter

from .quotposet import collapses
from .sigstruct import (
    SE_M,
    FactorisationSystem,
    Morphism,
    MorphismClass,
    Structure,
    _check_same_signature,
    _class_rules,
    _Frozen,
    _gaifman,
    _non_tuples,
    reflects_relations,
)

# The table path's size rule (module docstring): counts over at most this
# many maps c -> a, |a|^|c| of them, take it.
_TABLE_MAPS = 1 << 12

# The frontier DP's rule (module docstring): plain and surjective counts
# above the table path's, of patterns with at most `_FRONTIER_SIZE` elements
# whose frontier plan keeps fewer than half of them, 2w < |c|, and at most
# `_FRONTIER_STATES` frontier values, |a|^w; surjective counts into targets
# of at most `_SURJECTIVE_TARGET` elements, one pass per subset of a.
_FRONTIER_SIZE = 40
_FRONTIER_STATES = 1 << 20
_SURJECTIVE_TARGET = 6


class CountResult(_Frozen):
    __slots__ = ("count", "witnesses", "truncated")

    def __init__(self, count: int, witnesses: tuple[Morphism, ...] | None = None,
                 truncated: bool = False):
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "truncated", truncated)


class _Record:
    """The search's view of one structure, as pattern and as target.

    As a pattern: `order` lists the variables in search order (descending
    tuple-occurrence degree), and `steps[s]` the tuples that become fully
    assigned at step s, grouped as `_step_tuples` says, each other variable
    by its index in the map being built.  `neighbours[x]` is the bitmask
    of x's neighbours in the Gaifman graph, read from `sigstruct._gaifman`,
    the one source of that graph.  `walk` is (w, order, fronts), the
    frontier DP's variable order and the frontier before each of its steps
    (`_frontier_walk`; a frontier is the variables assigned so far that
    share a tuple with an unassigned one); w, the largest frontier, is what
    the selection rule reads.  `frontier` is the DP's plan read from those
    frontiers: step s is ((statics, ones, manys), keep, stays), the tuples
    completed at step s as above, but each other variable by its index in
    fronts[s]; `keep`, the itemgetter of the values of fronts[s] that stay
    in fronts[s + 1]; `stays`, whether the new variable joins it.  `absent`
    is `steps` for the non-tuples (the tuples of variables outside a
    relation, read from `sigstruct._non_tuples`, their one source, which
    the table path's reflection test reads too), along the same `order`:
    an injective homomorphism reflects every relation exactly when it sends
    none of them into the target's relation, so the strong-mono search
    masks out, at each step, the values that would.
    Each plan is compiled the first time a count reads it, so a structure
    used only as a target never pays for them.  `quotients`, the pairs (P,
    c/P) of `quotposet.collapses`, serves the SE_M Moebius sum and kernel,
    which meet c with many targets; one-off readers (the isomorphism
    decision, the quotient poset) read `collapses` as they go and keep
    nothing here.

    As a target: `table(key)`, built the first time a search or the frontier
    DP asks for it, and `tuple_masks[n]`, for patterns of size n, the pair
    of `_map_space(n, |a|)` and, per symbol, the dict from a tuple of
    pattern variables to the maps that send it into the relation, read
    through `_map_table` and filled by the table path and by `stirling`'s
    generic counts.
    """

    def __init__(self, s: Structure):
        self.structure = s
        self._index = {}
        self.tuple_masks = {}

    @cached_property
    def order(self):
        s = self.structure
        degree = [0] * s.size
        for rel in s.relations:
            for t in rel:
                for x in t:
                    degree[x] += 1
        return tuple(sorted(range(s.size), key=lambda x: (-degree[x], x)))

    @cached_property
    def steps(self):
        return _step_tuples(self.structure.relations, self.order, lambda step, x: x)

    @cached_property
    def absent(self):
        return _step_tuples(_non_tuples(self.structure), self.order, lambda step, x: x)

    @cached_property
    def quotients(self):
        return tuple(collapses(self.structure))

    @cached_property
    def neighbours(self):
        return _gaifman(self.structure)

    @cached_property
    def walk(self):
        return _frontier_walk(self.structure, self.neighbours)

    @cached_property
    def frontier(self):
        _, order, fronts = self.walk
        keeps, stays = [], []
        for v, before, after in zip(order, fronts, fronts[1:]):
            kept = [i for i, x in enumerate(before) if x in after]
            # a slice when contiguous: itemgetter of one index gives no tuple
            lo, hi = (kept[0], kept[-1] + 1) if kept else (0, 0)
            keeps.append(itemgetter(slice(lo, hi)) if hi - lo == len(kept)
                         else itemgetter(*kept))
            stays.append(v in after)
        steps = _step_tuples(self.structure.relations, order,
                             lambda step, x: fronts[step].index(x))
        return tuple(zip(steps, keeps, stays))

    def table(self, key):
        """Admissible values of the variable at the positions the key names,
        as a bitmask: one int when there are no other positions, a tuple by
        the value at the one other position, else a dict by the tuple of
        values at the other positions (absent key: no value).  A key of one
        position takes every tuple of the relation; one of several takes
        the tuples whose values agree at all of them."""
        tab = self._index.get(key)
        if tab is None:
            vmask, sym = divmod(key, len(self.structure.relations))
            arity = self.structure.signature.symbols[sym][1]
            vpos = [i for i in range(arity) if vmask >> i & 1]
            rest = [i for i in range(arity) if not vmask >> i & 1]
            p = vpos[0]
            fits = self.structure.relations[sym]
            if len(vpos) > 1:
                fits = [u for u in fits if all(u[q] == u[p] for q in vpos)]
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


@lru_cache(maxsize=256)
def _map_space(n: int, m: int):
    """The maps g: [n] -> [m], m >= 1, as ints of m^n bits, bit sum_x g(x) m^x
    standing for g: (full, proj, injective, surjective, same).

    `proj[x][u]` holds the maps with g(x) = u: within every block of m^(x+1)
    bits, the run of m^x bits at offset u m^x, repeated by multiplying with
    a repunit.  `same[y][x]`, for x < y, holds the maps with g(x) = g(y);
    the injective maps are the rest, so that mask is the complement of their
    OR when n <= m, and 0 otherwise.  With m = 1 `same` is empty: there is
    one map, and n is unbounded on the table path, so n(n - 1)/2 pair masks
    would make a count quadratic.  The surjective mask is built only when
    m <= n; otherwise no map is one, and the mask is 0."""
    full = (1 << m ** n) - 1
    proj = []
    for x in range(n):
        run = m ** x
        base = ((1 << run) - 1) * (full // ((1 << run * m) - 1))
        proj.append(tuple(base << u * run for u in range(m)))
    same = []
    clash = 0
    for y, py in enumerate(proj if m > 1 else ()):
        row = []
        for px in proj[:y]:
            bits = 0
            for bx, by in zip(px, py):
                bits |= bx & by
            row.append(bits)
            clash |= bits
        same.append(tuple(row))
    injective = full & ~clash if n <= m else 0
    surjective = 0
    if m <= n:
        surjective = full
        for column in zip(*proj):  # the maps that hit u, per u
            hit = 0
            for bits in column:
                hit |= bits
            surjective &= hit
    return full, tuple(proj), injective, surjective, tuple(same)


def _tuple_mask(proj, rel, t: tuple) -> int:
    """The maps that send the tuple t of pattern variables into the target
    relation rel: the OR over its tuples u of the AND of the proj[t[i]][u[i]]
    (a repeated variable needs no special case)."""
    first, rest = proj[t[0]], tuple(enumerate(t))[1:]
    mask = 0
    for u in rel:
        g = first[u[0]]
        for i, x in rest:
            g &= proj[x][u[i]]
        mask |= g
    return mask


def _map_table(a: Structure, n: int):
    """The table path's view of the target a for patterns of size n, kept on
    a's record: the pair of `_map_space(n, |a|)` and, per symbol, the dict
    from a tuple of pattern variables to the maps that send it into that
    relation of a (`_tuple_mask`), filled as its readers first need each
    tuple.  Needs |a| >= 1."""
    tables = _search_plan(a).tuple_masks
    entry = tables.get(n)
    if entry is None:
        entry = tables[n] = (_map_space(n, a.size), [{} for _ in a.relations])
    return entry


def _frontier_walk(s: Structure, nbrs):
    """The frontier DP's variable order, chosen greedily so that each step
    leaves the smallest frontier: (w, order, fronts), with fronts[s] the
    frontier before step s (the variables of order[:s] that share a tuple
    with one of order[s:], in the order they were assigned, which is how
    the plan indexes them; fronts[n] is empty) and w the largest of them.
    `nbrs` is s's `_Record.neighbours`."""
    n = s.size
    degree = [near.bit_count() for near in nbrs]
    left = (1 << n) - 1
    frontier = []
    order = []
    fronts = [()]
    while left:
        # The frontier variables whose one unassigned neighbour is v leave
        # it when v is assigned, and v joins it unless it has none.
        leave = {}
        for x in frontier:
            near = nbrs[x] & left
            if not near & (near - 1):
                leave[near] = leave.get(near, 0) + 1
        # The smallest frontier after the step, then the most assigned and
        # the fewest unassigned neighbours (digits of one int in base n + 1),
        # then the least variable.
        best = None
        for v in range(n):
            bit = 1 << v
            if left & bit:
                free = (nbrs[v] & left).bit_count()
                key = (((len(frontier) + (free > 0) - leave.get(bit, 0)) * (n + 1)
                        + n + free - degree[v]) * (n + 1) + free)
                if best is None or key < best:
                    best, pick = key, v
        left ^= 1 << pick
        frontier.append(pick)
        frontier = [x for x in frontier if nbrs[x] & left]
        order.append(pick)
        fronts.append(tuple(frontier))
    return max(map(len, fronts)), order, fronts


def _step_tuples(relations, order, address):
    """Per step of the variable order, the tuples of the relations (one
    collection per symbol, over the variables of `order`) that become fully
    assigned there, each by the key of its target table, in three groups:
    keys of tuples with no other variable; (key, address) for one other
    position; (key, itemgetter of the addresses) for two or more.
    `address(step, x)` says where that step reads the value of an earlier
    variable x.  A key packs the symbol index and the bitmask of the
    positions of the step's variable into one int."""
    rank = [0] * len(order)
    for i, x in enumerate(order):
        rank[x] = i
    nsym = len(relations)
    steps = [([], [], []) for _ in order]
    for sym, rel in enumerate(relations):
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
            step = rank[v]
            rest = [address(step, x) for x in rest]
            statics, ones, manys = steps[step]
            if not rest:
                statics.append(key)
            elif len(rest) == 1:
                ones.append((key, rest[0]))
            else:
                manys.append((key, itemgetter(*rest)))
    # Tuples of ints only, which the garbage collector stops tracking.
    return tuple(tuple(map(tuple, groups)) for groups in steps)


@lru_cache(maxsize=4096)
def _search_plan(s: Structure) -> _Record:
    """The compiled record of s, shared by every search that uses s."""
    return _Record(s)


def _table_count(c: Structure, a: Structure, injective: bool,
                 surjective: bool, reflects: bool) -> int:
    """The count of maps c -> a of the class with these rules, as the
    popcount of the AND of c's tuple masks, the class mask and, for an
    injective class that reflects, the complements of the masks of c's
    non-tuples (the reflection check of a surjective class is not done
    here).  Needs c.size >= 1."""
    n, m = c.size, a.size
    if m == 0 or (injective and n > m) or (surjective and m > n):
        return 0
    (full, proj, inj, surj, _), known = _map_table(a, n)
    mask = inj if injective else surj if surjective else full
    for sym, rel in enumerate(c.relations):
        seen = known[sym]
        for t in rel:
            bits = seen.get(t)
            if bits is None:
                bits = seen[t] = _tuple_mask(proj, a.relations[sym], t)
            mask &= bits
            if not mask:
                return 0
    if injective and reflects:
        for sym, absent in enumerate(_non_tuples(c)):
            seen = known[sym]
            for t in absent:
                bits = seen.get(t)
                if bits is None:
                    bits = seen[t] = _tuple_mask(proj, a.relations[sym], t)
                mask &= ~bits
            if not mask:
                return 0
    return mask.bit_count()


def _bind(steps, a: Structure, absent=None):
    """The steps of a plan with a's tables in place of their keys: per step,
    (the AND of its static masks, [(tuple table, address)], [(dict table,
    getter, mask of a missing key)]).  `absent`, a plan of non-tuples in the
    same form, adds the complements of its tables, which mask out the values
    that send a non-tuple into a's relation; a missing dict key forbids no
    value.  Each step binds each distinct (tuple table, address) once: a
    symmetric pattern's (x, v) and (v, x) read equal tables in a symmetric
    target.  None when some step's static tuples admit no value."""
    table = _search_plan(a).table
    full = (1 << a.size) - 1
    flipped = {}  # key -> the complement of its table

    def flip(key):
        tab = flipped.get(key)
        if tab is None:
            tab = table(key)
            if isinstance(tab, dict):
                tab = {k: ~bits for k, bits in tab.items()}
            else:
                tab = tuple(~bits for bits in tab)
            flipped[key] = tab
        return tab

    bound = []
    for step, (statics, ones, manys) in enumerate(steps):
        base = full
        for key in statics:
            base &= table(key)
        ones = [(table(key), x) for key, x in ones]
        manys = [(table(key), get, 0) for key, get in manys]
        if absent is not None:
            statics, others, more = absent[step]
            for key in statics:
                base &= ~table(key)
            ones += [(flip(key), x) for key, x in others]
            manys += [(flip(key), get, -1) for key, get in more]
        if not base:
            return None
        bound.append((base, list(dict.fromkeys(ones)), manys))
    return bound


def _frontier_count(c: Structure, a: Structure, injective: bool = False,
                    surjective: bool = False, reflects: bool = False) -> int:
    """The number of homomorphisms c -> a, or of surjective ones, by dynamic
    programming along c's frontier plan: the state after step s maps the
    values of the frontier to the number of partial maps that reach them.
    Variable elimination along the reverse order, with bags the frontier
    plus the new variable.  Surjections by inclusion-exclusion over the
    subsets S of a's values, surj(c, a) = sum over S of (-1)^|A - S|
    hom(c, a[S]), each hom(c, a[S]) one pass with every step's values
    restricted to S.  No injective rule and no reflection check.  Needs
    c.size >= 1."""
    m = a.size
    if surjective and m > c.size:
        return 0
    table = _search_plan(a).table
    # A tuple on one variable (a loop) binds in every order: if the target
    # has no value for it, the count is 0 before the plan's steps are built.
    nsym = len(c.relations)
    for sym, rel in enumerate(c.relations):
        for t in rel:
            if t.count(t[0]) == len(t) and not table(sym + nsym * ((1 << len(t)) - 1)):
                return 0
    plan = _search_plan(c).frontier
    bound = _bind([step for step, _, _ in plan], a)
    if bound is None:
        return 0
    steps = list(zip(bound, plan))
    singletons = [(u,) for u in range(m)]
    spread = {}  # mask -> the singletons of its values, shared by the passes
    full = (1 << m) - 1
    if not surjective:
        return _frontier_pass(steps, full, singletons, spread)
    # Largest S first: when hom(c, a[S]) is 0, so is every subset's count.
    total = 0
    dead = set()
    for within in range(full, 0, -1):  # S empty: no map from c.size >= 1 elements
        if within in dead:
            continue
        homs = _frontier_pass(steps, within, singletons, spread)
        if homs:
            total += -homs if (m - within.bit_count()) & 1 else homs
        else:
            sub = within
            while sub:
                dead.add(sub)
                sub = (sub - 1) & within
    return total


def _frontier_pass(steps, within: int, singletons, spread) -> int:
    """One pass of the frontier DP over the bound steps, each step's values
    restricted to the bitmask `within`: the number of homomorphisms into the
    substructure induced on those values."""
    state = {(): 1}
    for (base, ones, manys), (_, keep, stays) in steps:
        base &= within
        reached = defaultdict(int)
        for values, k in state.items():
            mask = base
            for tab, i in ones:
                mask &= tab[values[i]]
            for tab, get, miss in manys:
                mask &= tab.get(get(values), miss)
            if not mask:
                continue
            values = keep(values)
            if stays:
                units = spread.get(mask)
                if units is None:
                    units = spread[mask] = []
                    bits = mask
                    while bits:
                        low = bits & -bits
                        bits ^= low
                        units.append(singletons[low.bit_length() - 1])
                for u in units:
                    reached[values + u] += k
            else:
                reached[values] += k * mask.bit_count()
        if not reached:
            return 0
        state = reached
    return state[()]


def _search_count(c: Structure, a: Structure, injective: bool,
                  surjective: bool, reflects: bool) -> int:
    """The count of maps c -> a of the class with these rules, as the sum of
    the popcounts of the search's last masks (the reflection check of a
    surjective class is not done here).  Needs c.size >= 1."""
    masks = _last_masks(c, a, [0] * c.size, injective, surjective, reflects)
    return sum(map(int.bit_count, masks))


def _counter(c: Structure, a: Structure, injective: bool, surjective: bool):
    """The one rule choosing the path of a count with no witnesses and no
    reflection check on complete maps (module docstring): the table path,
    the frontier DP or the search, as the function to call with (c, a,
    injective, surjective, reflects).  The frontier walk is compiled only
    when the cheaper tests leave the DP possible.  One is 2d >= |c| for d
    the least Gaifman degree, since w >= d: before the first step that
    leaves some x and its >= d neighbours all assigned, the >= d variables
    assigned were all on the frontier.  Needs c.size >= 1."""
    n, m = c.size, a.size
    if m ** n <= _TABLE_MAPS:
        return _table_count
    if injective or n > _FRONTIER_SIZE or (surjective and m > _SURJECTIVE_TARGET):
        return _search_count
    plan = _search_plan(c)
    if 2 * min(map(int.bit_count, plan.neighbours)) >= n:
        return _search_count
    w = plan.walk[0]
    if 2 * w >= n or m ** w > _FRONTIER_STATES:
        return _search_count
    return _frontier_count


def _last_masks(c: Structure, a: Structure, img: list[int],
                injective: bool, surjective: bool, reflects: bool):
    """The search.  For every assignment of all but the last variable of c
    that passes every check, leave it in img and yield the nonzero bitmask of
    values the last variable may take.  An injective class that reflects
    masks out the values that send a non-tuple of c into a's relation; a
    surjective one is left to the caller.  Needs c.size >= 1."""
    n, m = c.size, a.size
    if (surjective and m > n) or (injective and n > m):
        return
    plan = _search_plan(c)
    bound = _bind(plan.steps, a, plan.absent if injective and reflects else None)
    if bound is None:  # no value fits some step's tuples on their own
        return

    order = plan.order
    last = n - 1
    track = injective or surjective
    taken = [0] * n      # values taken by the steps before s
    uncovered = [m] * n  # values of a not taken before step s
    cand = [0] * n       # values still to try at step s
    # Step 0 has no earlier variables, and the class masks do not bind yet.
    if last == 0:
        yield bound[0][0]
        return
    cand[0] = bound[0][0]
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
        mask, ones, manys = bound[t]
        for tab, x in ones:
            mask &= tab[img[x]]
        for tab, get, miss in manys:
            mask &= tab.get(get(img), miss)
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


def _maps(c: Structure, a: Structure, injective: bool, surjective: bool,
          reflects: bool):
    """Every map c -> a of the class with these rules as a raw index tuple,
    in listing order.  The search prunes the injective maps that do not
    reflect; a surjective map is checked once complete."""
    n, m = c.size, a.size
    if n == 0:
        if not surjective or m == 0:
            yield ()
        return
    check = reflects and surjective
    img = [0] * n
    v = _search_plan(c).order[-1]
    for mask in _last_masks(c, a, img, injective, surjective, reflects):
        while mask:
            low = mask & -mask
            mask ^= low
            img[v] = low.bit_length() - 1
            f = tuple(img)
            if not check or reflects_relations(f, c, a):
                yield f


def _counted_by_listing(c: Structure, surjective: bool, reflects: bool) -> bool:
    """Does `_count` count the maps of the class with these rules by listing
    them?  It does for size-0 patterns and for the SE_M quotients, whose
    reflection is checked on complete maps only."""
    return c.size == 0 or (reflects and surjective)


def _count(c: Structure, a: Structure, injective: bool, surjective: bool,
           reflects: bool) -> int:
    """The number of maps c -> a of the class with these rules, with no
    signature check: by listing where `_counted_by_listing` says so, else on
    `_counter`'s path."""
    if _counted_by_listing(c, surjective, reflects):
        return sum(1 for _ in _maps(c, a, injective, surjective, reflects))
    return _counter(c, a, injective, surjective)(c, a, injective, surjective, reflects)


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
    rules = _class_rules(cls, system)
    if not enumerate_witnesses:
        return CountResult(_count(c, a, *rules))
    # One map past the limit tells a truncated listing.  Its total is counted,
    # or, for a class counted by listing, read off the rest of the listing.
    maps = _maps(c, a, *rules)
    listed = list(islice(maps, None if limit is None else limit + 1))
    truncated = limit is not None and len(listed) > limit
    witnesses = tuple(Morphism.build(c, a, f) for f in listed[:limit])
    if truncated and not _counted_by_listing(c, *rules[1:]):
        return CountResult(_count(c, a, *rules), witnesses, truncated)
    return CountResult(len(listed) + sum(1 for _ in maps), witnesses, truncated)


def iter_hom_maps(c: Structure, a: Structure, cls: MorphismClass = MorphismClass.HOM,
                  system: FactorisationSystem = SE_M):
    """Yield every map c -> a of the class as a raw index tuple (no Morphism
    construction), in the order count_morphisms lists them."""
    _check_same_signature(c, a)
    yield from _maps(c, a, *_class_rules(cls, system))


def hom_count(c: Structure, a: Structure) -> int:
    """The plain homomorphism count."""
    _check_same_signature(c, a)
    return _count(c, a, False, False, False)
