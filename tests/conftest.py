import itertools
import random

import pytest

from homcount.selftest import complete_sym, cycle_sym, no_relation
from homcount.sigstruct import GRAPH_SIGNATURE, Signature, Structure


def path_sym(n):
    arcs = set()
    for i in range(n - 1):
        arcs.add((i, i + 1))
        arcs.add((i + 1, i))
    return Structure.build(GRAPH_SIGNATURE, n, {"E": arcs})


def digraph(n, arcs):
    return Structure.build(GRAPH_SIGNATURE, n, {"E": arcs})


def random_looped(rng, signature, n, p):
    """Random tuples over n >= 1 elements, and one tuple on one element per
    symbol."""
    rels = []
    for _, arity in signature.symbols:
        rel = {t for t in itertools.product(range(n), repeat=arity) if rng.random() < p}
        rels.append(frozenset(rel | {(rng.randrange(n),) * arity}))
    return Structure(signature, n, tuple(rels))


MIXED_SIGNATURES = (Signature((("E", 2), ("R", 3))), Signature((("U", 1), ("T", 3))))


def random_mixed(rng, signature, n):
    """Random tuples over n >= 0 elements: per symbol of arity r, each tuple
    with probability d / n^(r - 1) for a density d drawn from 0.3 to 2, so
    about d n tuples, and on half the draws one tuple on one element."""
    rels = []
    for _, arity in signature.symbols:
        p = rng.uniform(0.3, 2.0) / n ** (arity - 1) if n else 0
        rel = {t for t in itertools.product(range(n), repeat=arity) if rng.random() < p}
        if n and rng.random() < 0.5:
            rel.add((rng.randrange(n),) * arity)
        rels.append(frozenset(rel))
    return Structure(signature, n, tuple(rels))


def mixed_cases(seed, per_size=3, sizes=range(8)):
    """`per_size` random structures of each size over each of the two mixed
    signatures, E/2 R/3 and U/1 T/3."""
    rng = random.Random(seed)
    return [random_mixed(rng, sig, n) for sig in MIXED_SIGNATURES for n in sizes
            for _ in range(per_size)]


@pytest.fixture(scope="session")
def k3():
    return complete_sym(3)


@pytest.fixture(scope="session")
def c6():
    return cycle_sym(6)


@pytest.fixture(scope="session")
def two_c3():
    from homcount.sigstruct import disjoint_union

    return disjoint_union(cycle_sym(3), cycle_sym(3))


@pytest.fixture(scope="session")
def point():
    return no_relation(1)


@pytest.fixture(scope="session")
def loop_point():
    return digraph(1, {(0, 0)})


@pytest.fixture(scope="session")
def single_arc():
    return digraph(2, {(0, 1)})
