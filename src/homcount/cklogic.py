"""Counting-logic equivalence machinery: exact tree-width, enumeration of
tree-width-bounded test structures, a Weisfeiler-Leman oracle, hom-profile
comparison.

Tree-width of a structure is the tree-width of its Gaifman graph (each
relation tuple turns into a clique on its elements), read as bitmasks from
`sigstruct._gaifman`, the one source of that graph.  One search over those
bitmasks, `_reach`, gives connectivity, the exact DP's fill term and the
bags of a decomposition.  Equivalence in k-variable counting logic is
decided by (k-1)-dimensional Weisfeiler-Leman refinement: classical colour
refinement on elements for k = 2, refinement of (k-1)-tuples by
substitution neighbourhoods for k >= 3.  That correspondence
(Cai-Fuerer-Immerman / Immerman-Lander) is an external theorem this module
relies on, not something it re-proves.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import cap_exceeded
from .homsearch import hom_count
from .lovasz import _candidate_counts, _capped_sizes, _catalogue, _structures_of_size
from .sigstruct import Signature, Structure, _check_same_signature, _Frozen, _gaifman
from .trees import _encodings_of_size, _rooted_tree_counts, tree_from_encoding

TREEWIDTH_SIZE_CAP = 10


def _reach(nbrs, start: int, through: int) -> int:
    """The elements reachable from the bitmask `start` along the Gaifman
    graph `nbrs` (`sigstruct._gaifman`) with every inner element of the path
    in the bitmask `through`: start itself, and each neighbour of start or
    of an element of `through` reached so far."""
    seen = grow = start
    while grow:
        near = 0
        while grow:
            low = grow & -grow
            grow ^= low
            near |= nbrs[low.bit_length() - 1]
        grow = near & ~seen
        seen |= grow
        grow &= through
    return seen


def is_connected(a: Structure) -> bool:
    """Connectivity of the Gaifman graph; the empty structure is not connected."""
    full = (1 << a.size) - 1
    return a.size > 0 and _reach(_gaifman(a), 1, full) == full


def treewidth(a: Structure) -> int:
    """Exact tree-width by dynamic programming over elimination orderings."""
    return _treewidth_dp(a)[0]


def _treewidth_dp(a: Structure) -> tuple[int, list[int]]:
    """Returns (tree-width, optimal elimination order)."""
    n = a.size
    if n > TREEWIDTH_SIZE_CAP:
        raise cap_exceeded("TREEWIDTH_SIZE_CAP", TREEWIDTH_SIZE_CAP, "exact tree-width of",
                           n, "elements")
    if n == 0:
        return 0, []
    nbrs = _gaifman(a)
    full = (1 << n) - 1
    best = [0] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        best_here = n
        pick = -1
        for v in range(n):
            vbit = 1 << v
            if not mask & vbit:
                continue
            # the fill term: the elements outside mask that v reaches
            # through the ones eliminated before it
            rest = mask ^ vbit
            value = max(best[rest], (_reach(nbrs, vbit, rest) & ~mask).bit_count())
            if value < best_here:
                best_here = value
                pick = v
        best[mask] = best_here
        choice[mask] = pick
    order = []
    mask = full
    while mask:
        v = choice[mask]
        order.append(v)
        mask ^= 1 << v
    order.reverse()
    return best[full], order


class TreeDecomposition(_Frozen):
    __slots__ = ("bags", "tree", "width")

    def __init__(self, bags: tuple[frozenset[int], ...], tree: tuple[tuple[int, int], ...],
                 width: int):
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "width", width)


def tree_decomposition(a: Structure) -> TreeDecomposition:
    """An optimal-width decomposition built from the DP's elimination order:
    the bag of v is v and its neighbours when it is eliminated, the later
    elements it reaches through the ones eliminated before it."""
    _, order = _treewidth_dp(a)
    n = a.size
    if n == 0:
        return TreeDecomposition((), (), 0)
    nbrs = _gaifman(a)
    position = {v: i for i, v in enumerate(order)}
    bags = []
    done = 0
    for v in order:
        bag = _reach(nbrs, 1 << v, done) & ~done
        bags.append(frozenset(u for u in range(n) if bag >> u & 1))
        done |= 1 << v
    edges = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            j = min(position[u] for u in later)
            edges.append((i, j))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges), max(len(b) for b in bags) - 1)


def _is_graph_signature(sig: Signature) -> bool:
    return len(sig.symbols) == 1 and sig.symbols[0][1] == 2


def _decorations(tree: Structure):
    """Every digraph whose Gaifman graph is the given tree: every tree edge
    carries one of {forward, backward, both}, every node may carry a loop."""
    n = tree.size
    edges = sorted((x, y) for x, y in tree.relations[0] if x < y)
    for orient in itertools.product(range(3), repeat=len(edges)):
        base = set()
        for (x, y), o in zip(edges, orient):
            if o != 1:
                base.add((x, y))
            if o != 0:
                base.add((y, x))
        for loopbits in range(1 << n):
            loops = {(v, v) for v in range(n) if loopbits >> v & 1}
            yield Structure(tree.signature, n, (frozenset(base | loops),))


@lru_cache(maxsize=128)
def _tw_level(signature: Signature, k: int, n: int, undirected: bool) -> tuple[Structure, ...]:
    """Level n of `enumerate_tw_lt_k`, in catalogue order.  Over one binary
    symbol at k = 2 these are the trees on n nodes (read off the rooted
    trees) when undirected, and their decorations when directed; otherwise
    the catalogue level filtered to connected structures of tree-width < k."""
    if k == 2 and _is_graph_signature(signature):
        if not undirected:
            return _catalogue(s for tree in _tw_level(signature, 2, n, True)
                              for s in _decorations(tree))

        def symmetric(tree):
            arcs = {(tree.parent[v], v) for v in range(n) if tree.parent[v] != -1}
            return Structure(signature, n, (frozenset(arcs | {(y, x) for x, y in arcs}),))

        return _catalogue(symmetric(tree_from_encoding(code))
                          for code in _encodings_of_size(n))
    # the keyword only when set, so each catalogue level has one cache entry
    level = (_structures_of_size(signature, n, undirected=True) if undirected
             else _structures_of_size(signature, n))
    return tuple(s for s in level if is_connected(s) and treewidth(s) < k)


def enumerate_tw_lt_k(signature: Signature, k: int, max_size: int,
                      undirected: bool = False) -> tuple[Structure, ...]:
    """All connected canonical structures with <= max_size elements and
    tree-width < k, in the deterministic (size, tuples desc, code) order:
    the catalogue of `lovasz` filtered level by level.

    Connected test structures suffice for profile comparison because hom
    counts are multiplicative over disjoint unions.  With `undirected` the
    enumeration is restricted to symmetric loopless relations (one binary
    symbol only), which carries the same distinguishing power against
    symmetric subjects.  For k = 2 over one binary symbol the levels come
    from loop-decorated tree orientations instead of all relation subsets,
    which reaches sizes whose full catalogue level is beyond the cap.  The
    candidates of every level through max_size (the rooted trees per
    undirected tree level, every orientation and loop set of every tree per
    directed one, every relation subset per catalogue level) are counted
    against the cap before any level is built; each level is built once per
    process.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if undirected and not _is_graph_signature(signature):
        raise ValueError("the undirected preset needs exactly one binary symbol")
    if k != 2 or not _is_graph_signature(signature):
        counts = _candidate_counts(signature, undirected)
    elif undirected:
        counts = _rooted_tree_counts()
    else:
        counts = (len(_tw_level(signature, 2, n, True)) * 3 ** (n - 1) * 2 ** n
                  for n in itertools.count(1))
    sizes = list(_capped_sizes(max_size, counts, "enumeration", "candidate structures"))
    return tuple(s for n in sizes for s in _tw_level(signature, k, n, undirected))


def _refine_1(s: Structure, colors):
    sigs = {}
    for x in range(s.size):
        local = []
        for sym_idx, rel in enumerate(s.relations):
            for t in rel:
                for j, y in enumerate(t):
                    if y == x:
                        local.append((sym_idx, j, tuple(colors[z] for z in t)))
        sigs[x] = (colors[x], tuple(sorted(local)))
    return sigs


def _initial_colors_d(s: Structure, d: int):
    colors = {}
    for xs in itertools.product(range(s.size), repeat=d):
        eq = tuple(min(j for j in range(i + 1) if xs[j] == xs[i]) for i in range(d))
        members = []
        for sym_idx, (_, arity) in enumerate(s.signature.symbols):
            for phi in itertools.product(range(d), repeat=arity):
                if tuple(xs[p] for p in phi) in s.relations[sym_idx]:
                    members.append((sym_idx, phi))
        colors[xs] = (eq, tuple(sorted(members)))
    return colors


def _refine_d(s: Structure, colors, d: int):
    sigs = {}
    for xs in colors:
        neigh = []
        for w in range(s.size):
            neigh.append(tuple(
                colors[xs[:i] + (w,) + xs[i + 1:]] for i in range(d)
            ))
        sigs[xs] = (colors[xs], tuple(sorted(neigh)))
    return sigs


def wl_equivalent(a: Structure, b: Structure, k: int) -> bool:
    """(k-1)-dimensional Weisfeiler-Leman indistinguishability, refined jointly
    over both structures until the colour partition stabilises."""
    _check_same_signature(a, b)
    if k < 2:
        raise ValueError("k must be >= 2")
    d = k - 1
    if d == 1:
        col_a, col_b = ({x: c for (x,), c in _initial_colors_d(s, 1).items()}
                        for s in (a, b))
        refine = _refine_1
    else:
        col_a, col_b = _initial_colors_d(a, d), _initial_colors_d(b, d)
        refine = lambda s, c: _refine_d(s, c, d)

    def normalise(ca, cb):
        table = {}
        for sig in sorted(itertools.chain(ca.values(), cb.values())):
            if sig not in table:
                table[sig] = len(table)
        return ({x: table[s] for x, s in ca.items()},
                {x: table[s] for x, s in cb.items()})

    col_a, col_b = normalise(col_a, col_b)
    while True:
        new_a, new_b = normalise(refine(a, col_a), refine(b, col_b))
        stable = (
            len(set(new_a.values()) | set(new_b.values()))
            == len(set(col_a.values()) | set(col_b.values()))
        )
        col_a, col_b = new_a, new_b
        if stable:
            break
    return sorted(col_a.values()) == sorted(col_b.values())


class CkVerdict(_Frozen):
    __slots__ = ("equivalent", "witness", "counts")

    def __init__(self, equivalent: bool, witness: Structure | None = None,
                 counts: tuple[int, int] | None = None):
        object.__setattr__(self, "equivalent", equivalent)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "counts", counts)


def ck_profile_equal(a: Structure, b: Structure, k: int, budget: int,
                     undirected: bool = False) -> CkVerdict:
    """Compare hom counts from every connected test structure of tree-width
    < k up to the size budget; first differing count wins."""
    _check_same_signature(a, b)
    for test in enumerate_tw_lt_k(a.signature, k, budget, undirected):
        na, nb = hom_count(test, a), hom_count(test, b)
        if na != nb:
            return CkVerdict(False, test, (na, nb))
    return CkVerdict(True)
