"""Finite rooted trees, tree morphisms, counting and distinguishing.

Tree morphisms send the root to the root and preserve the covering relation
(parent links), which pins each node's image to the depth of the node.  One
consequence worth knowing (though no separate morphism class exists for it):
a tree morphism whose domain is a chain is automatically injective, since
its nodes sit at pairwise distinct depths; chains are therefore the natural
probes for per-depth node counts.  A finitely branching infinite tree enters
only as a finite-state specification whose unfolding is truncated at a
chosen depth; all theorem-level statements are exercised on those
truncations.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import cap_exceeded
from .lovasz import DISTINGUISHED, PROFILES_EQUAL, DistinguishResult, _capped_sizes
from .sigstruct import _Frozen

TRUNCATION_NODE_CAP = 200_000


class FiniteTree(_Frozen):
    """Rooted tree on nodes 0..size-1: parent[v] for non-roots, -1 at the root."""

    __slots__ = ("size", "parent")

    def __init__(self, size: int, parent: tuple[int, ...]):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "parent", parent)
        self.__post_init__()

    def __post_init__(self):
        if self.size < 0 or len(self.parent) != self.size:
            raise ValueError("parent vector must cover the universe")
        roots = [v for v in range(self.size) if self.parent[v] == -1]
        if self.size > 0 and len(roots) != 1:
            raise ValueError("a non-empty tree has exactly one root")
        for v in range(self.size):
            p = self.parent[v]
            if p != -1 and not 0 <= p < self.size:
                raise ValueError(f"parent of {v} out of range")
        # acyclicity: the root-first walk reaches exactly the nodes whose
        # parent chain ends at the root, and it ends, as the root is on no cycle
        if len(self._topological()) != self.size:
            raise ValueError("parent links contain a cycle")

    @property
    def root(self) -> int | None:
        for v in range(self.size):
            if self.parent[v] == -1:
                return v
        return None

    def children(self) -> list[list[int]]:
        out = [[] for _ in range(self.size)]
        for v in range(self.size):
            if self.parent[v] != -1:
                out[self.parent[v]].append(v)
        return out

    def depths(self) -> list[int]:
        d = [0] * self.size
        for v in self._topological():
            if self.parent[v] != -1:
                d[v] = d[self.parent[v]] + 1
        return d

    def _topological(self):
        """Nodes in root-first order."""
        children = self.children()
        order = []
        if self.size:
            stack = [self.root]
            while stack:
                v = stack.pop()
                order.append(v)
                stack.extend(children[v])
        return order


def chain_tree(n: int) -> FiniteTree:
    return FiniteTree(n, tuple([-1] + list(range(n - 1))) if n else ())


def count_tree_morphisms(r: FiniteTree, p: FiniteTree) -> int:
    """Dynamic program from the leaves up: a node mapped to x sends each
    child to some child of x, independently.  ways[u][x] counts the maps of
    u's subtree with u mapped to x, for every x at u's depth in p."""
    if r.size == 0:
        return 1
    if p.size == 0:
        return 0
    r_children = r.children()
    p_children = p.children()
    r_depth = r.depths()
    p_level: dict[int, list[int]] = {}
    for x, d in enumerate(p.depths()):
        p_level.setdefault(d, []).append(x)

    ways: dict[int, dict[int, int]] = {}
    for u in reversed(r._topological()):
        here = dict.fromkeys(p_level.get(r_depth[u], ()), 1)
        for cu in r_children[u]:
            below = ways.pop(cu)
            for x, total in here.items():
                if total:
                    here[x] = total * sum(below[cx] for cx in p_children[x])
        ways[u] = here
    return ways[r.root][p.root]


class RationalTreeSpec(_Frozen):
    """Finite presentation of a finitely branching (possibly infinite) tree:
    per state an ordered list of child states, unfolded from `start`."""

    __slots__ = ("states", "children", "start")

    def __init__(self, states: tuple[str, ...], children: tuple[tuple[int, ...], ...],
                 start: int):
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "start", start)
        self.__post_init__()

    def __post_init__(self):
        if not 0 <= self.start < len(self.states):
            raise ValueError("start state out of range")
        for kids in self.children:
            for k in kids:
                if not 0 <= k < len(self.states):
                    raise ValueError("child state out of range")


def truncate(spec: RationalTreeSpec, depth: int) -> FiniteTree:
    """The unfolding of spec cut at the given depth (nodes at depth <= depth).
    The unfolding is built level by level and stops at the first empty
    level, so a spec whose unfolding is finite takes the same time at any
    depth past its height."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    parents = [-1]
    frontier = [(0, spec.start)]
    for _ in range(depth):
        if not frontier:
            break
        new_frontier = []
        for node, state in frontier:
            for child_state in spec.children[state]:
                parents.append(node)
                if len(parents) > TRUNCATION_NODE_CAP:
                    raise cap_exceeded("TRUNCATION_NODE_CAP", TRUNCATION_NODE_CAP,
                                       "truncation to", len(parents), "nodes")
                new_frontier.append((len(parents) - 1, child_state))
        frontier = new_frontier
    return FiniteTree(len(parents), tuple(parents))


def tree_from_encoding(code) -> FiniteTree:
    if code is None:
        return FiniteTree(0, ())
    parents = []
    stack = [(code, -1)]
    while stack:
        node_code, parent = stack.pop()
        parents.append(parent)
        me = len(parents) - 1
        stack.extend((sub, me) for sub in reversed(node_code))
    return FiniteTree(len(parents), tuple(parents))


@lru_cache(maxsize=64)
def _encodings_of_size(n: int) -> tuple:
    """Sorted canonical encodings of all rooted trees with exactly n nodes."""
    if n == 1:
        return ((),)
    results = set()

    def multisets(remaining: int, largest_allowed: int, acc):
        if remaining == 0:
            results.add(tuple(sorted(acc)))
            return
        for size in range(min(remaining, largest_allowed), 0, -1):
            for sub in _encodings_of_size(size):
                multisets(remaining - size, size, acc + [sub])

    multisets(n - 1, n - 1, [])
    return tuple(sorted(results))


def _rooted_tree_counts():
    """Yield a(1), a(2), ...: the number of rooted trees on n nodes (OEIS
    A000081), by m a(m+1) = sum_{k=1..m} s(k) a(m-k+1) with
    s(k) = sum_{d | k} d a(d).  No tree is built."""
    a = [0, 1]
    s = [0]
    yield 1
    for m in itertools.count(1):
        s.append(sum(d * a[d] for d in range(1, m + 1) if m % d == 0))
        a.append(sum(s[k] * a[m - k + 1] for k in range(1, m + 1)) // m)
        yield a[m + 1]


def enumerate_trees(max_nodes: int) -> list[FiniteTree]:
    """All rooted trees with 1..max_nodes nodes, by size then encoding."""
    out = []
    for n in range(1, max_nodes + 1):
        out.extend(tree_from_encoding(code) for code in _encodings_of_size(n))
    return out


def distinguish_trees(p: FiniteTree, q: FiniteTree,
                      budget: int) -> DistinguishResult:
    """First enumerated test tree with differing morphism counts into p, q.

    The tests are walked in `enumerate_trees` order, level by level.  Before
    a level is built the trees through it are counted against HOMCOUNT_CAP,
    so a witness found early never meets the cap."""
    for n in _capped_sizes(budget, _rooted_tree_counts(), "tree enumeration", "test trees"):
        for code in _encodings_of_size(n):
            test = tree_from_encoding(code)
            np_, nq = count_tree_morphisms(test, p), count_tree_morphisms(test, q)
            if np_ != nq:
                return DistinguishResult(test, (np_, nq), DISTINGUISHED)
    return DistinguishResult(None, None, PROFILES_EQUAL)
