"""Independent brute-force oracles used to derive and freeze expected values.

Everything here enumerates exhaustively with itertools and knows nothing about
the pruned search paths it is used to check.
"""

import itertools

from homcount.lovasz import _catalogue
from homcount.sigstruct import E_SM, SE_M, Morphism, MorphismClass, Signature, Structure


def all_maps(c, a):
    return itertools.product(range(a.size), repeat=c.size)


def is_hom(f, c, a):
    for rel_c, rel_a in zip(c.relations, a.relations):
        for t in rel_c:
            if tuple(f[x] for x in t) not in rel_a:
                return False
    return True


def reflects(f, c, a):
    range_f = set(f)
    for rel_c, rel_a in zip(c.relations, a.relations):
        images = {tuple(f[x] for x in t) for t in rel_c}
        for t in rel_a:
            if all(x in range_f for x in t) and t not in images:
                return False
    return True


def satisfies(f, c, a, cls, system=SE_M):
    if not is_hom(f, c, a):
        return False
    if cls is MorphismClass.HOM:
        return True
    if cls is MorphismClass.MONO:
        return len(set(f)) == c.size
    if cls is MorphismClass.STRONG_MONO:
        return len(set(f)) == c.size and reflects(f, c, a)
    if cls is MorphismClass.SURJECTION:
        return len(set(f)) == a.size
    if cls is MorphismClass.QUOTIENT:
        if system is E_SM:
            return len(set(f)) == a.size
        return len(set(f)) == a.size and reflects(f, c, a)
    raise ValueError(cls)


def naive_count(c, a, cls=MorphismClass.HOM, system=SE_M):
    """Count morphisms by enumerating every total map."""
    return sum(1 for f in all_maps(c, a) if satisfies(f, c, a, cls, system))


def naive_morphisms(c, a, cls=MorphismClass.HOM, system=SE_M):
    return [tuple(f) for f in all_maps(c, a) if satisfies(f, c, a, cls, system)]


def identity_morphism(a):
    return Morphism.build(a, a, tuple(range(a.size)))


def brute_isomorphic(a, b):
    """Try every bijection, requiring hom both ways."""
    if a.size != b.size:
        return False
    inverse = [0] * a.size
    for f in itertools.permutations(range(a.size)):
        for x, y in enumerate(f):
            inverse[y] = x
        if is_hom(f, a, b) and is_hom(inverse, b, a):
            return True
    return False


def gaifman_edges(a):
    edges = set()
    for rel in a.relations:
        for t in rel:
            for x, y in itertools.combinations(sorted(set(t)), 2):
                edges.add((x, y))
    return edges


def brute_treewidth(a):
    """Minimum over all elimination orderings of the maximum fill degree,
    simulated literally on the Gaifman graph."""
    n = a.size
    if n == 0:
        return 0
    adj = {v: set() for v in range(n)}
    for x, y in gaifman_edges(a):
        adj[x].add(y)
        adj[y].add(x)
    best = n
    for order in itertools.permutations(range(n)):
        g = {v: set(ns) for v, ns in adj.items()}
        width = 0
        for v in order:
            width = max(width, len(g[v]))
            if width >= best:
                break
            for u, w in itertools.combinations(g[v], 2):
                g[u].add(w)
                g[w].add(u)
            for u in g[v]:
                g[u].discard(v)
            del g[v]
        best = min(best, width)
    return best


def is_valid_decomposition(a, td):
    """Element coverage, joint tuple coverage, and subtree connectivity."""
    if a.size == 0:
        return td.bags == ()
    covered = set().union(*td.bags) if td.bags else set()
    if covered != set(range(a.size)):
        return False
    for rel in a.relations:
        for t in rel:
            if not any(set(t) <= bag for bag in td.bags):
                return False
    adj = {i: set() for i in range(len(td.bags))}
    for i, j in td.tree:
        adj[i].add(j)
        adj[j].add(i)
    if len(td.bags) > 1:
        seen = {0}
        stack = [0]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != len(td.bags):
            return False
    for x in range(a.size):
        holding = set(i for i, b in enumerate(td.bags) if x in b)
        first = min(holding)
        seen = {first}
        stack = [first]
        while stack:
            for j in adj[stack.pop()]:
                if j in holding and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if holding != seen:
            return False
    return max(len(b) for b in td.bags) - 1 == td.width


def naive_tree_morphisms(r, p):
    """All maps of rooted trees preserving root and the covering relation."""
    if r.size == 0:
        return [()]
    if p.size == 0:
        return []
    results = []
    for f in itertools.product(range(p.size), repeat=r.size):
        if f[r.root] != p.root:
            continue
        if all(f[r.parent[v]] == p.parent[f[v]]
               for v in range(r.size) if v != r.root):
            results.append(f)
    return results


def naive_group_homs(g, c):
    """All total maps that respect the Cayley tables."""
    homs = []
    for f in itertools.product(range(c.order), repeat=g.order):
        if all(f[g.table[x][y]] == c.table[f[x]][f[y]]
               for x in range(g.order) for y in range(g.order)):
            homs.append(f)
    return homs


def tree_encoding(t):
    """Canonical rooted-tree code: recursively sorted tuples of child codes.
    Equal encodings iff isomorphic as rooted trees; the code round-trips
    through `trees.tree_from_encoding`."""
    if t.size == 0:
        return None
    children = t.children()
    codes: list = [None] * t.size
    for v in reversed(t._topological()):
        codes[v] = tuple(sorted(codes[c] for c in children[v]))
    return codes[t.root]


def partitions_of_set(n):
    """All set partitions of 0..n-1, naive recursive growth."""
    if n == 0:
        return [[]]
    result = []
    for smaller in partitions_of_set(n - 1):
        for i in range(len(smaller)):
            result.append(smaller[:i] + [smaller[i] + [n - 1]] + smaller[i + 1:])
        result.append(smaller + [[n - 1]])
    return result


def naive_stirling(n, m):
    return sum(1 for p in partitions_of_set(n) if len(p) == m)


def naive_realized_quotients(c, a):
    """E_SM quotient classes of c realized in a, by definition: a kernel
    partition and an injection of its blocks into a that carries the
    collapsed relations of c into a; the class's relations are a's pulled
    back along the injection.  Keyed like stirling._realized_quotients."""
    out = {}
    for blocks in partitions_of_set(c.size):
        part = tuple(sorted(tuple(sorted(b)) for b in blocks))
        block_of = {x: i for i, b in enumerate(part) for x in b}
        image = [{tuple(block_of[x] for x in t) for t in rel} for rel in c.relations]
        for emb in itertools.permutations(range(a.size), len(part)):
            rels = tuple(
                frozenset(t for t in itertools.product(range(len(part)), repeat=arity)
                          if tuple(emb[x] for x in t) in rel)
                for (_, arity), rel in zip(c.signature.symbols, a.relations)
            )
            if all(img <= rel for img, rel in zip(image, rels)):
                out[(part, rels)] = Structure(c.signature, len(part), rels)
    return out


def naive_is_generic(h, c, a, system=SE_M):
    """h factors through no proper quotient of c, tested against every proper
    collapse (image relations) and, under E_SM, every identity-kernel
    quotient that adds a single tuple."""
    for blocks in partitions_of_set(c.size):
        if len(blocks) == c.size:
            continue
        if any(h[x] != h[b[0]] for b in blocks for x in b):
            continue
        block_of = {x: i for i, b in enumerate(blocks) for x in b}
        induced = [h[b[0]] for b in blocks]
        collapsed = [{tuple(block_of[x] for x in t) for t in rel} for rel in c.relations]
        if all(tuple(induced[x] for x in t) in rel_a
               for rel, rel_a in zip(collapsed, a.relations) for t in rel):
            return False
    if system is E_SM:
        for (_, arity), rel_c, rel_a in zip(c.signature.symbols, c.relations, a.relations):
            for t in itertools.product(range(c.size), repeat=arity):
                if t not in rel_c and tuple(h[x] for x in t) in rel_a:
                    return False
    return True


def partition_refines(p, q, n):
    """Every block of p lies inside a block of q."""
    block_of_q = [0] * n
    for bi, block in enumerate(q):
        for x in block:
            block_of_q[x] = bi
    return all(len({block_of_q[x] for x in block}) == 1 for block in p)


def quotient_class_leq(x_key, y_key):
    """The order on E_SM quotient classes keyed (kernel partition, relations),
    tested pair by pair: x <= y when y's partition refines x's and y's
    relations, sent along the merge of y's blocks into x's, lie in x's."""
    (p1, r1), (p2, r2) = x_key, y_key
    block_of_1 = {}
    for bi, block in enumerate(p1):
        for el in block:
            block_of_1[el] = bi
    coarsen = []
    for block in p2:
        targets = {block_of_1[el] for el in block}
        if len(targets) != 1:
            return False
        coarsen.append(targets.pop())
    return all(
        tuple(coarsen[x] for x in t) in rel1
        for rel2, rel1 in zip(r2, r1)
        for t in rel2
    )


def gaifman_connected(a):
    """Connectivity of the Gaifman graph by repeated edge relaxation; the
    empty structure is not connected."""
    if a.size == 0:
        return False
    reached = {0}
    edges = gaifman_edges(a)
    grown = True
    while grown:
        grown = False
        for x, y in edges:
            if (x in reached) != (y in reached):
                reached |= {x, y}
                grown = True
    return len(reached) == a.size


def all_candidates(signature, n, undirected=False):
    """Every candidate structure on n elements: each relation any set of
    tuples, or, when undirected (one binary symbol), any symmetric loopless
    set of arcs."""
    if undirected:
        grids = [[((x, y), (y, x)) for x, y in itertools.combinations(range(n), 2)]]
    else:
        grids = [[(t,) for t in itertools.product(range(n), repeat=arity)]
                 for _, arity in signature.symbols]
    for choice in itertools.product(*(itertools.product((0, 1), repeat=len(g))
                                      for g in grids)):
        rels = tuple(frozenset(t for slot, bit in zip(g, bits) if bit for t in slot)
                     for g, bits in zip(grids, choice))
        yield Structure(signature, n, rels)


def all_candidates_level(signature, n, undirected=False):
    """Catalogue level n built by canonicalising every candidate."""
    return _catalogue(all_candidates(signature, n, undirected))


def filter_first_tw_lt_k(signature, k, max_size, undirected=False):
    """Connected structures of tree-width < k on 1..max_size elements, built
    filter first: every candidate relation (symmetric and loopless when
    undirected, for one binary symbol) that is connected with tree-width < k
    is kept, then the survivors of each size are canonicalised, deduplicated
    and sorted by descending tuple count, then canonical code."""
    from homcount.sigstruct import canonical_form, canonical_representative

    out = []
    for n in range(1, max_size + 1):
        seen = {}
        for s in all_candidates(signature, n, undirected):
            if gaifman_connected(s) and brute_treewidth(s) < k:
                seen.setdefault(canonical_form(s), canonical_representative(s))
        out.extend(sorted(seen.values(), key=lambda s: (-s.total_tuples(), canonical_form(s))))
    return tuple(out)


# The reference canonical form: `sigstruct`'s profile-pruned permutation
# search as it was written tuple by tuple, copied verbatim apart from the
# `lru_cache` and the size cap on `_canonical`.  The library's codes must
# equal these byte for byte, since catalogue order and printed witnesses
# follow them.


def _element_profile(a: Structure, x: int):
    """Permutation-invariant local profile of x: per symbol and position, how
    often x occurs there, plus its count of constant (all-x) tuples."""
    prof = []
    for rel in a.relations:
        counts = {}
        diag = 0
        for t in rel:
            for j, y in enumerate(t):
                if y == x:
                    counts[j] = counts.get(j, 0) + 1
            if all(y == x for y in t):
                diag += 1
        prof.append((tuple(sorted(counts.items())), diag))
    return tuple(prof)


def _candidate_permutations(a: Structure):
    """Permutations that respect the profile classes: elements of each class
    may only be sent to that class's designated block of positions.  Minimising
    over these is exact because profiles are isomorphism-invariant."""
    classes = {}
    for x in range(a.size):
        classes.setdefault(_element_profile(a, x), []).append(x)
    ordered = [classes[k] for k in sorted(classes.keys())]
    positions = []
    start = 0
    for members in ordered:
        positions.append(range(start, start + len(members)))
        start += len(members)
    for assignment in itertools.product(
        *(itertools.permutations(pos) for pos in positions)
    ):
        perm = [0] * a.size
        for members, images in zip(ordered, assignment):
            for x, y in zip(members, images):
                perm[x] = y
        yield perm


def _serialize(signature: Signature, size: int, sorted_rels) -> bytes:
    parts = [str(size)]
    for (name, arity), tuples in zip(signature.symbols, sorted_rels):
        body = ",".join(".".join(str(x) for x in t) for t in tuples)
        parts.append(f"{name}/{arity}:{body}")
    return "|".join(parts).encode("ascii")


def _canonical(a: Structure):
    best = None
    for perm in _candidate_permutations(a):
        rels = tuple(
            tuple(sorted(tuple(perm[x] for x in t) for t in rel))
            for rel in a.relations
        )
        if best is None or rels < best:
            best = rels
    return best


def reference_canonical(a):
    """The reference code of a and its canonical representative."""
    rels = _canonical(a)
    return (_serialize(a.signature, a.size, rels),
            Structure(a.signature, a.size, tuple(frozenset(r) for r in rels)))
