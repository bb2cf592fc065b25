import itertools

import pytest

from homcount.selftest import complete_sym, cycle_sym, no_relation
from homcount.sigstruct import GRAPH_SIGNATURE, Structure


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
