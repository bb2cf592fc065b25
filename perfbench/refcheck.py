"""Reference answers computed without homcount's search engine.

Structures are read only through their public fields (signature, size,
relations) and built with homcount's Structure type; nothing here calls its
counting, search or canonical-form code.  Exhaustive listings come from the
repository's brute-force oracles (tests/oracles.py); larger counts use
closed forms (trace of adjacency powers, tree dynamic programming) or
variable elimination over relation factors, a different algorithm from the
engine's backtracking.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import factorial, gcd, prod

import oracles


def adjacency(a) -> list[list[int]]:
    rows = [[0] * a.size for _ in range(a.size)]
    for x, y in a.relations[0]:
        rows[x][y] = 1
    return rows


def _matmul(p, q):
    cols = list(zip(*q))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in p]


def trace_power(a, k: int) -> int:
    """trace(A^k): the number of closed k-walks, i.e. hom(C_k, a) for k >= 3."""
    adj = adjacency(a)
    power = adj
    for _ in range(k - 1):
        power = _matmul(power, adj)
    return sum(power[i][i] for i in range(a.size))


def tree_hom(edges, root: int, size: int, a) -> int:
    """hom(T, a) for a tree T given by undirected edges, by a bottom-up
    product over children of A times the child vectors."""
    adj = adjacency(a)
    nbrs = defaultdict(list)
    for x, y in edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    order, parent, stack = [], {root: None}, [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in nbrs[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if len(order) != size:
        raise ValueError("tree edges do not span the pattern")
    vec = {}
    for v in reversed(order):
        vals = [1] * a.size
        for w in nbrs[v]:
            if parent.get(w) == v:
                child = vec[w]
                vals = [vals[i] * sum(adj[i][j] * child[j] for j in range(a.size))
                        for i in range(a.size)]
        vec[v] = vals
    return sum(vec[root])


def ve_hom(c, a) -> int:
    """hom(c, a) by variable elimination: one factor per relation tuple of c,
    sparse dict tables, eliminating a variable of fewest neighbours first."""
    factors = []
    for rel_c, rel_a in zip(c.relations, a.relations):
        for t in rel_c:
            scope = tuple(dict.fromkeys(t))
            table = defaultdict(int)
            for u in rel_a:
                value = {}
                if all(value.setdefault(x, y) == y for x, y in zip(t, u)):
                    table[tuple(value[x] for x in scope)] += 1
            factors.append((scope, dict(table)))
    free = set(range(c.size)) - {x for scope, _ in factors for x in scope}
    total = a.size ** len(free)
    remaining = set(range(c.size)) - free
    while remaining:
        def degree(v):
            return len({x for scope, _ in factors if v in scope for x in scope})
        v = min(remaining, key=lambda x: (degree(x), x))
        remaining.discard(v)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        joined = touching[0]
        for other in touching[1:]:
            joined = _join(joined, other)
        scope, table = joined
        pos = scope.index(v)
        out_scope = scope[:pos] + scope[pos + 1:]
        summed = defaultdict(int)
        for key, val in table.items():
            summed[key[:pos] + key[pos + 1:]] += val
        factors.append((out_scope, dict(summed)))
    for scope, table in factors:
        total *= table.get((), 0)
    return total


def _join(f, g):
    (sf, tf), (sg, tg) = f, g
    shared = [x for x in sg if x in sf]
    extra = [x for x in sg if x not in sf]
    fpos = [sf.index(x) for x in shared]
    gpos = [sg.index(x) for x in shared]
    epos = [sg.index(x) for x in extra]
    index = defaultdict(list)
    for key, val in tg.items():
        index[tuple(key[i] for i in gpos)].append((tuple(key[i] for i in epos), val))
    out = {}
    for key, val in tf.items():
        for ext, val2 in index.get(tuple(key[i] for i in fpos), ()):
            out[key + ext] = val * val2
    return sf + tuple(extra), out


def collapse(c, partition):
    """c with each block merged to one element (blocks in the given order)."""
    block = {x: i for i, b in enumerate(partition) for x in b}
    rels = tuple(frozenset(tuple(block[x] for x in t) for t in rel)
                 for rel in c.relations)
    return type(c)(c.signature, len(partition), rels)


def induced(a, elements):
    """The substructure of a on the given elements, relabelled 0..k-1."""
    index = {x: i for i, x in enumerate(elements)}
    rels = tuple(frozenset(tuple(index[x] for x in t) for t in rel
                           if all(x in index for x in t))
                 for rel in a.relations)
    return type(a)(a.signature, len(elements), rels)


def mono_count(c, a) -> int:
    """Injective homs by Moebius inversion over the partition lattice:
    sum over partitions p of mu(0, p) * hom(c/p, a)."""
    total = 0
    for partition in oracles.partitions_of_set(c.size):
        mu = prod((-1) ** (len(b) - 1) * factorial(len(b) - 1) for b in partition)
        total += mu * ve_hom(collapse(c, partition), a)
    return total


def surjection_count(c, a) -> int:
    """Inclusion-exclusion over the image: sum over S of (-1)^{|a|-|S|} hom(c, a[S])."""
    total = 0
    for k in range(a.size + 1):
        for subset in itertools.combinations(range(a.size), k):
            total += (-1) ** (a.size - k) * ve_hom(c, induced(a, subset))
    return total


def strong_mono_count(c, a) -> int:
    """Injective maps preserving and reflecting every relation: for each
    c.size-subset of a with the right tuple count, try every bijection."""
    n = c.size
    tuples = c.total_tuples()
    total = 0
    for subset in itertools.combinations(range(a.size), n):
        if sum(len(r) for r in induced(a, subset).relations) != tuples:
            continue
        for f in itertools.permutations(subset):
            if oracles.satisfies(f, c, a, oracles.MorphismClass.STRONG_MONO):
                total += 1
    return total


def homs_by_kernel(c, a, key):
    """Bucket every hom c -> a (exhaustive listing) by key(f)."""
    buckets = defaultdict(int)
    for f in oracles.all_maps(c, a):
        if oracles.is_hom(f, c, a):
            buckets[key(f)] += 1
    return buckets


def kernel_of(f) -> tuple[tuple[int, ...], ...]:
    blocks = {}
    for x, y in enumerate(f):
        blocks.setdefault(y, []).append(x)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def pulled_back(f, c, a, partition):
    """Relations of a pulled back along the image of f, on the blocks of
    partition (the E_SM quotient class f factors through)."""
    images = [f[b[0]] for b in partition]
    return tuple(
        frozenset(t for t in itertools.product(range(len(partition)), repeat=arity)
                  if tuple(images[x] for x in t) in a.relations[i])
        for i, (_, arity) in enumerate(c.signature.symbols)
    )


def cyclic_product_homs(factors, n: int) -> int:
    """|hom(Z_a1 x ... x Z_ak, Z_n)| = prod gcd(a_i, n)."""
    return prod(gcd(f, n) for f in factors)


def tree_morphisms(r_parent, p_parent) -> int:
    """Root- and cover-preserving maps r -> p, bottom-up without recursion."""
    def kids(parent):
        out = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p != -1:
                out[p].append(v)
        return out

    def post_order(parent, children):
        root = parent.index(-1)
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children[v])
        return root, order[::-1]

    rk, pk = kids(r_parent), kids(p_parent)
    r_root, r_order = post_order(r_parent, rk)
    p_root, _ = post_order(p_parent, pk)
    ways = {}
    for u in r_order:
        row = []
        for x in range(len(p_parent)):
            total = 1
            for cu in rk[u]:
                total *= sum(ways[cu][cx] for cx in pk[x])
                if not total:
                    break
            row.append(total)
        ways[u] = row
    return ways[r_root][p_root]
