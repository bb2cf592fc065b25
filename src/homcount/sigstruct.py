"""Finite relational structures, their morphisms, and basic constructions.

Universes are always initial segments of the naturals: a structure of size n
has elements 0..n-1.  All values are immutable after construction and every
operation is a pure function of its inputs.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache

from .errors import SignatureMismatchError, cap_exceeded

CANON_SIZE_CAP = 8


class FactorisationSystem(enum.Enum):
    """The two proper factorisation systems on finite relational structures.

    SE_M: quotients are surjections that reflect the relation symbols
          (every codomain tuple is an image of a domain tuple), embeddings
          are the injective homomorphisms.
    E_SM: quotients are the plain surjective homomorphisms, embeddings are
          injective homomorphisms that reflect the relation symbols.
    """

    SE_M = "se-m"
    E_SM = "e-sm"


SE_M = FactorisationSystem.SE_M
E_SM = FactorisationSystem.E_SM


class MorphismClass(enum.Enum):
    HOM = "hom"
    MONO = "mono"
    STRONG_MONO = "strong-mono"
    SURJECTION = "surjection"
    QUOTIENT = "quotient"


def embedding_class(system: FactorisationSystem) -> MorphismClass:
    """The embedding half of the given factorisation system."""
    return MorphismClass.MONO if system is SE_M else MorphismClass.STRONG_MONO


class _Frozen:
    """Base of the package's value records, in place of dataclasses, whose
    import and generated methods cost every process about 18 ms of start-up.

    A record names its fields in `__slots__`, in constructor order, and its
    `__init__` sets them with object.__setattr__ and then runs the record's
    checks, if it has any, in `__post_init__`; after that no field of any
    record can be assigned or deleted.  Two records are equal when they are
    of the same class and their `_key()` tuples, by default every field, are
    equal; the hash is the hash of that tuple.  Only `Signature` and
    `Structure`, whose hash and equality every lookup in the plan and
    canonical-form caches pays, write their `__eq__` and `__hash__` out on
    the field tuple: with the generic ones a `Structure` hash took 887 ns
    against 339 ns, and the lovasz-sweep benchmark ran 9% slower.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a record through its constructor and checks
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Signature(_Frozen):
    """Ordered relation symbols with arities; names unique, arity >= 1."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "symbols", symbols)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self):
        return hash((self.symbols,))

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation symbol in {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise ValueError(f"arity of {name!r} must be >= 1, got {arity}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise KeyError(name)

    def index(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise KeyError(name)


GRAPH_SIGNATURE = Signature((("E", 2),))


class Structure(_Frozen):
    """A finite structure: universe 0..size-1 plus one tuple-set per symbol.

    `relations` is aligned with `signature.symbols`.
    """

    __slots__ = ("signature", "size", "relations")

    def __init__(self, signature: Signature, size: int,
                 relations: tuple[frozenset[tuple[int, ...]], ...]):
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "relations", relations)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.signature, self.size, self.relations)
                    == (other.signature, other.size, other.relations))
        return NotImplemented

    def __hash__(self):
        return hash((self.signature, self.size, self.relations))

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be non-negative")
        if len(self.relations) != len(self.signature.symbols):
            raise ValueError("one relation per signature symbol required")
        universe = range(self.size)
        for (name, arity), tuples in zip(self.signature.symbols, self.relations):
            # One C-level pass over the lengths and one over the elements; only
            # a relation that fails it is walked tuple by tuple, so the first
            # offending tuple and its message stay those of the walk.
            if set(map(len, tuples)) <= {arity} and all(
                    map(universe.__contains__, set(itertools.chain.from_iterable(tuples)))):
                continue
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong arity for {name}/{arity}")
                if any(not (0 <= x < self.size) for x in t):
                    bounds = (f"0..{self.size - 1}" if self.size
                              else "(the structure has no elements)")
                    raise ValueError(f"tuple {t} of {name} out of range {bounds}")

    @staticmethod
    def build(signature: Signature, size: int, relations=None) -> Structure:
        """Build from a {symbol-name: iterable of tuples} mapping; omitted
        symbols denote empty relations."""
        relations = dict(relations or {})
        unknown = set(relations) - set(signature.names)
        if unknown:
            raise ValueError(f"unknown relation symbols {sorted(unknown)}")
        rels = tuple(
            frozenset(tuple(t) for t in relations.get(name, ()))
            for name, _ in signature.symbols
        )
        return Structure(signature, size, rels)

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[self.signature.index(name)]

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.relations)


def _gaifman(s: Structure) -> list[int]:
    """The Gaifman graph of s: for each element, the bitmask of the other
    elements it shares a tuple with."""
    near = [0] * s.size
    for rel in s.relations:
        for t in rel:
            bits = 0
            for x in t:
                bits |= 1 << x
            for x in t:
                near[x] |= bits
    return [bits & ~(1 << x) for x, bits in enumerate(near)]


def _non_tuples(s: Structure) -> list[list[tuple[int, ...]]]:
    """For each symbol, the tuples of s's elements outside its relation, in
    lexicographic order."""
    return [list(itertools.filterfalse(rel.__contains__,
                                       itertools.product(range(s.size), repeat=arity)))
            for (_, arity), rel in zip(s.signature.symbols, s.relations)]


def _check_same_signature(a: Structure, b: Structure):
    if a.signature != b.signature:
        raise SignatureMismatchError(
            f"signatures differ: {a.signature.symbols} vs {b.signature.symbols}"
        )


def is_homomorphism(f, c: Structure, a: Structure) -> bool:
    """Is the total map f (element i of c goes to f[i]) a homomorphism c -> a?"""
    for rel_c, rel_a in zip(c.relations, a.relations):
        for t in rel_c:
            if tuple(f[x] for x in t) not in rel_a:
                return False
    return True


def reflects_relations(f, c: Structure, a: Structure) -> bool:
    """Does f reflect every relation symbol?  For injective f: whenever the
    image of a tuple lies in a relation of a, the tuple lies in the relation
    of c.  For surjective f: every tuple of a is the image of a tuple of c."""
    range_f = set(f)
    for rel_c, rel_a in zip(c.relations, a.relations):
        images = {tuple(f[x] for x in t) for t in rel_c}
        for t in rel_a:
            if all(x in range_f for x in t) and t not in images:
                # For surjections this tuple has no preimage tuple; for
                # injections the (unique) preimage tuple is missing in c.
                return False
    return True


def _class_rules(cls: MorphismClass, system: FactorisationSystem):
    """(injective, surjective, reflects) for the class: its maps are the
    homomorphisms that are injective, surjective and reflect every relation
    symbol where the rule asks for it.  A class that is not a MorphismClass,
    or a system that is not a FactorisationSystem, raises ValueError."""
    injective = cls is MorphismClass.MONO or cls is MorphismClass.STRONG_MONO
    surjective = cls is MorphismClass.SURJECTION or cls is MorphismClass.QUOTIENT
    if not (injective or surjective or cls is MorphismClass.HOM):
        raise ValueError(f"unknown morphism class {cls}")
    if system is not SE_M and system is not E_SM:
        raise ValueError(f"unknown factorisation system {system}")
    reflects = (cls is MorphismClass.STRONG_MONO
                or (cls is MorphismClass.QUOTIENT and system is SE_M))
    return injective, surjective, reflects


def validate_morphism(f, c: Structure, a: Structure, cls: MorphismClass,
                      system: FactorisationSystem = SE_M) -> bool:
    """True iff f is a homomorphism c -> a satisfying the class predicate.

    mono: injective; strong-mono: injective and reflects every symbol;
    surjection: surjective; quotient: surjective and reflecting under SE_M,
    plain surjective under E_SM.
    """
    _check_same_signature(c, a)
    f = tuple(f)
    if len(f) != c.size or any(not (0 <= y < a.size) for y in f):
        raise ValueError("f must be a total map from the universe of c into a")
    injective, surjective, reflects = _class_rules(cls, system)
    return (is_homomorphism(f, c, a)
            and (not injective or len(set(f)) == c.size)
            and (not surjective or len(set(f)) == a.size)
            and (not reflects or reflects_relations(f, c, a)))


class Morphism(_Frozen):
    """A verified homomorphism; non-homomorphisms are rejected at
    construction."""

    __slots__ = ("domain", "codomain", "map")

    def __init__(self, domain: Structure, codomain: Structure, map: tuple[int, ...]):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "map", map)

    @staticmethod
    def build(domain: Structure, codomain: Structure, f) -> Morphism:
        f = tuple(f)
        if not validate_morphism(f, domain, codomain, MorphismClass.HOM):
            raise ValueError(f"{f} is not a homomorphism")
        return Morphism(domain, codomain, f)


def disjoint_union(a: Structure, b: Structure) -> Structure:
    """a + b on the shifted universe; no cross tuples."""
    _check_same_signature(a, b)
    rels = tuple(
        frozenset(ra) | frozenset(tuple(x + a.size for x in t) for t in rb)
        for ra, rb in zip(a.relations, b.relations)
    )
    return Structure(a.signature, a.size + b.size, rels)


def _image(s: Structure, proj, size: int) -> Structure:
    """The structure on 0..size-1 whose relations are the images of s's
    tuples along proj."""
    return Structure(s.signature, size, tuple(
        frozenset(tuple(proj[x] for x in t) for t in rel) for rel in s.relations))


def _merge_projection(n: int, pairs) -> list[int]:
    """Projection of 0..n-1 onto the classes of the equivalence relation
    generated by `pairs`, classes numbered in order of their least element."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            # the root of a class is its least element
            parent[max(rx, ry)] = min(rx, ry)
    reps = sorted({find(x) for x in range(n)})
    index = {r: i for i, r in enumerate(reps)}
    return [index[find(x)] for x in range(n)]


def pushout(f: Morphism, g: Morphism):
    """Pushout of the span f: c -> a, g: c -> b.

    Glues a + b along f(x) ~ g(x); relations are the images of the union of
    relations.  Returns (p, leg a -> p, leg b -> p).
    """
    if f.domain != g.domain:
        raise ValueError("pushout legs must share their domain")
    a, b, c = f.codomain, g.codomain, f.domain
    u = disjoint_union(a, b)
    proj = _merge_projection(
        u.size, ((f.map[x], a.size + g.map[x]) for x in range(c.size)))
    p = _image(u, proj, len(set(proj)))
    into_a = Morphism.build(a, p, tuple(proj[:a.size]))
    into_b = Morphism.build(b, p, tuple(proj[a.size:]))
    return p, into_a, into_b


def _element_profiles(a: Structure, columns) -> list[tuple]:
    """For each element x, its permutation-invariant local profile: per
    symbol, the (position, count) pairs of the positions where x occurs,
    with how often it occurs there, and its count of constant (all-x)
    tuples, at most one in a set.  `columns` holds each relation's tuples
    transposed, so each count is a C-level `count` of a column."""
    elements = range(a.size)
    profiles = [()] * a.size
    for (_, arity), rel, cols in zip(a.signature.symbols, a.relations, columns):
        at = zip(*[map(col.count, elements) for col in cols]) if cols else itertools.repeat(())
        profiles = [p + ((tuple(itertools.compress(enumerate(row), row)),
                          int((x,) * arity in rel)),)
                    for x, p, row in zip(elements, profiles, at)]
    return profiles


def _candidate_permutations(a: Structure, columns):
    """Permutations, as dicts from element to position, that respect the
    profile classes: elements of each class may only be sent to that class's
    designated block of positions.  Minimising over these is exact because
    profiles are isomorphism-invariant."""
    classes = {}
    for x, profile in enumerate(_element_profiles(a, columns)):
        classes.setdefault(profile, []).append(x)
    ordered = [classes[k] for k in sorted(classes)]
    ends = itertools.accumulate(map(len, ordered))
    blocks = [itertools.permutations(range(end - len(cls), end))
              for cls, end in zip(ordered, ends)]
    members = list(itertools.chain.from_iterable(ordered))
    for assignment in itertools.product(*blocks):
        yield dict(zip(members, itertools.chain.from_iterable(assignment)))


def _serialize(signature: Signature, size: int, sorted_rels) -> bytes:
    parts = [str(size)]
    for (name, arity), tuples in zip(signature.symbols, sorted_rels):
        body = ",".join([".".join(map(str, t)) for t in tuples])
        parts.append(f"{name}/{arity}:{body}")
    return "|".join(parts).encode("ascii")


@lru_cache(maxsize=65536)
def _canonical(a: Structure):
    """a's relations, each sorted, under the candidate permutation that
    makes them least.  One pass over each relation turns it into columns,
    which give every profile and which each candidate relabels."""
    if a.size > CANON_SIZE_CAP:
        raise cap_exceeded("CANON_SIZE_CAP", CANON_SIZE_CAP, "canonicalization of",
                           a.size, "elements")
    columns = [tuple(zip(*rel)) for rel in a.relations]
    return min(tuple(tuple(sorted(zip(*[map(perm.__getitem__, col) for col in cols])))
                     for cols in columns)
               for perm in _candidate_permutations(a, columns))


def canonical_form(a: Structure) -> bytes:
    """Canonical code: equal codes iff isomorphic.  Brute force over
    profile-pruned permutations, every element's profile read off one pass
    over the tuples; intended for size <= 8."""
    return _serialize(a.signature, a.size, _canonical(a))


def _representative_code(rep: Structure) -> bytes:
    """`canonical_form(rep)` for a canonical representative, read off its own
    labelling: a representative is its own canonical relabelling, so no
    permutation search is needed."""
    return _serialize(rep.signature, rep.size, [sorted(r) for r in rep.relations])


def canonical_representative(a: Structure) -> Structure:
    """The canonically relabeled copy of a (the one realising its code)."""
    rels = tuple(frozenset(r) for r in _canonical(a))
    return Structure(a.signature, a.size, rels)


def are_isomorphic(a: Structure, b: Structure) -> bool:
    """Decided by canonical code equality."""
    _check_same_signature(a, b)
    if a.size != b.size or a.total_tuples() != b.total_tuples():
        return False
    return _canonical(a) == _canonical(b)
