import itertools
import time

import pytest

from homcount.errors import CapExceededError
from homcount.lovasz import DISTINGUISHED, PROFILES_EQUAL
from homcount import trees
from homcount.trees import (
    FiniteTree,
    TRUNCATION_NODE_CAP,
    RationalTreeSpec,
    chain_tree,
    count_tree_morphisms,
    distinguish_trees,
    enumerate_trees,
    tree_from_encoding,
    truncate,
)
from homcount.trees import _encodings_of_size, _rooted_tree_counts
from oracles import naive_tree_morphisms, tree_encoding


def full_binary(depth):
    """Full binary tree with levels 0..depth."""
    parents = [-1]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for _ in range(2):
                parents.append(node)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return FiniteTree(len(parents), tuple(parents))


def brute_tree_isomorphic(a, b):
    if a.size != b.size:
        return False
    if a.size == 0:
        return True
    for f in itertools.permutations(range(a.size)):
        if f[a.root] != b.root:
            continue
        if all(f[a.parent[v]] == b.parent[f[v]] for v in range(a.size)
               if v != a.root):
            return True
    return False


def test_tree_validation():
    with pytest.raises(ValueError):
        FiniteTree(2, (-1, -1))  # two roots
    with pytest.raises(ValueError):
        FiniteTree(2, (1, 0))  # cycle
    with pytest.raises(ValueError, match="cycle"):
        FiniteTree(4, (-1, 0, 3, 2))
    FiniteTree(0, ())


def test_refused_specs_and_depths():
    with pytest.raises(ValueError, match="child state out of range"):
        RationalTreeSpec(("s",), ((1,),), 0)
    with pytest.raises(ValueError, match="depth must be non-negative"):
        truncate(RationalTreeSpec(("s",), ((0,),), 0), -1)


def test_single_node_count():
    one = chain_tree(1)
    assert count_tree_morphisms(one, full_binary(2)) == 1


def test_chain_into_binary():
    assert count_tree_morphisms(chain_tree(2), full_binary(1)) == 2
    assert count_tree_morphisms(chain_tree(3), full_binary(2)) == 4


def test_empty_tree_conventions():
    empty = chain_tree(0)
    assert count_tree_morphisms(empty, full_binary(1)) == 1
    assert count_tree_morphisms(empty, empty) == 1
    assert count_tree_morphisms(chain_tree(1), empty) == 0
    assert empty.root is None
    assert tree_from_encoding(None) == empty


def test_counts_match_naive_enumeration():
    trees = enumerate_trees(4)
    for r in trees:
        for p in trees[:12]:
            assert count_tree_morphisms(r, p) == len(naive_tree_morphisms(r, p))


def test_morphisms_preserve_depth():
    for r in enumerate_trees(4):
        for p in [full_binary(2), chain_tree(4)]:
            dr, dp = r.depths(), p.depths()
            for f in naive_tree_morphisms(r, p):
                assert all(dp[f[v]] == dr[v] for v in range(r.size))


def test_chain_counts_nodes_at_depth():
    for p in enumerate_trees(6):
        depths = p.depths()
        for n in range(1, 5):
            expected = sum(1 for d in depths if d == n - 1)
            assert count_tree_morphisms(chain_tree(n), p) == expected


def test_truncate_self_chain():
    spec = RationalTreeSpec(("s",), ((0,),), 0)
    t = truncate(spec, 3)
    assert t.size == 4
    assert tree_encoding(t) == tree_encoding(chain_tree(4))


def test_truncate_binary():
    spec = RationalTreeSpec(("s",), ((0, 0),), 0)
    t = truncate(spec, 2)
    assert t.size == 7
    assert tree_encoding(t) == tree_encoding(full_binary(2))


def test_truncate_depth_zero():
    spec = RationalTreeSpec(("a", "b"), ((1, 1), (0,)), 0)
    assert truncate(spec, 0).size == 1


def test_truncate_stops_when_the_unfolding_ends():
    # a -> b b, b -> c, c -> nothing: the unfolding is a 5-node tree of height 2.
    spec = RationalTreeSpec(("a", "b", "c"), ((1, 1), (2,), ()), 0)
    start = time.process_time()
    deep = truncate(spec, 10**7)
    elapsed = time.process_time() - start
    assert deep == truncate(spec, 2) and deep.size == 5
    assert elapsed < 0.2


def test_deep_chain_counts_and_encodes():
    # 601 levels is deeper than the interpreter's default recursion limit
    chain = chain_tree(601)
    assert count_tree_morphisms(chain, chain) == 1
    assert tree_from_encoding(tree_encoding(chain)) == chain


def test_chain_at_the_truncation_cap():
    chain = truncate(RationalTreeSpec(("s",), ((0,),), 0), TRUNCATION_NODE_CAP - 1)
    assert chain.size == TRUNCATION_NODE_CAP
    assert count_tree_morphisms(chain, chain) == 1
    assert count_tree_morphisms(chain_tree(3), chain) == 1


def test_truncate_cap():
    spec = RationalTreeSpec(("s",), ((0, 0),), 0)
    with pytest.raises(CapExceededError):
        truncate(spec, 30)


def test_truncation_grows_root_chain():
    # Koenig-style growth: one more depth level, one longer root chain.
    specs = [
        RationalTreeSpec(("s",), ((0, 0),), 0),
        RationalTreeSpec(("a", "b"), ((1,), (0, 1)), 0),
    ]
    for spec in specs:
        for d in range(5):
            assert max(truncate(spec, d).depths()) == d


def test_enumerate_trees_counts():
    # Rooted trees on 1..6 nodes: 1, 1, 2, 4, 9, 20.
    by_size = {}
    for t in enumerate_trees(6):
        by_size[t.size] = by_size.get(t.size, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20}


def test_tree_encoding_sound_up_to_6_nodes():
    trees = enumerate_trees(6)
    for a in trees:
        for b in trees:
            same = tree_encoding(a) == tree_encoding(b)
            if a.size <= 5 and b.size <= 5:
                assert same == brute_tree_isomorphic(a, b)
            elif same:
                assert brute_tree_isomorphic(a, b)


def test_tree_from_encoding_round_trip():
    for t in enumerate_trees(5):
        assert tree_encoding(tree_from_encoding(tree_encoding(t))) == tree_encoding(t)


def test_distinguish_trees_example():
    chain3 = chain_tree(3)
    cherry = FiniteTree(3, (-1, 0, 0))
    res = distinguish_trees(chain3, cherry, budget=3)
    assert res.verdict == DISTINGUISHED
    assert tree_encoding(res.witness) == tree_encoding(chain_tree(2))
    assert res.counts == (1, 2)


def test_distinguish_trees_self():
    t = full_binary(2)
    assert distinguish_trees(t, t, budget=4).verdict == PROFILES_EQUAL


def test_rooted_tree_counts_match_the_enumeration():
    counts = itertools.islice(_rooted_tree_counts(), 12)
    assert list(counts) == [len(_encodings_of_size(n)) for n in range(1, 13)]


def test_distinguish_trees_builds_no_level_past_its_witness(monkeypatch):
    built = []
    real = trees._encodings_of_size

    def recording(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(trees, "_encodings_of_size", recording)
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    res = distinguish_trees(chain_tree(2), chain_tree(3), budget=40)
    assert tree_encoding(res.witness) == tree_encoding(chain_tree(3))
    assert res.counts == (0, 1)
    assert max(built) == 3


def test_distinguish_trees_cap(monkeypatch):
    # 486 rooted trees through 9 nodes, 1,205 through 10
    t = full_binary(2)
    monkeypatch.setenv("HOMCOUNT_CAP", "1000")
    assert distinguish_trees(t, t, budget=9).verdict == PROFILES_EQUAL
    with pytest.raises(CapExceededError) as err:
        distinguish_trees(t, t, budget=10)
    assert err.value.count == 1205
    assert "through size 10 spans 1205 test trees, exceeding cap 1000" in str(err.value)


def test_distinguish_all_pairs_up_to_4_nodes():
    trees = enumerate_trees(4)
    for a in trees:
        for b in trees:
            res = distinguish_trees(a, b, budget=4)
            expected_iso = tree_encoding(a) == tree_encoding(b)
            assert (res.verdict == PROFILES_EQUAL) == expected_iso


def test_truncation_level_distinguishing():
    # Two finitely branching specs whose truncations differ are separated by
    # a finite witness tree at each depth where they differ.
    unary = RationalTreeSpec(("s",), ((0,),), 0)
    binary = RationalTreeSpec(("s",), ((0, 0),), 0)
    for d in range(1, 5):
        p, q = truncate(unary, d), truncate(binary, d)
        assert tree_encoding(p) != tree_encoding(q)
        res = distinguish_trees(p, q, budget=d + 1)
        assert res.verdict == DISTINGUISHED
