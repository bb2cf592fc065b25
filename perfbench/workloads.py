"""The four workloads: seeded inputs, the ops a round issues, and the
reference check of every op.

An op is a callable the runner times plus a check the runner calls after
the clock stops.  A check returns the bytes that go into the run's output
digest, raises Mismatch when the output is wrong, and raises KnownCrash for
the two in-cap inputs that crash the program today.  Every call into
homcount goes through a module attribute at call time, so the tracer's
patched bindings see it.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import homcount.cklogic as cklogic
import homcount.formats as formats
import homcount.homsearch as homsearch
import homcount.lovasz as lovasz
import homcount.quotposet as quotposet
import homcount.sigstruct as sigstruct
import homcount.stirling as stirling
from homcount.sigstruct import (E_SM, GRAPH_SIGNATURE, SE_M, MorphismClass,
                                Signature, Structure)

import oracles
import refcheck


class Mismatch(Exception):
    """The program's output differs from the reference."""


class KnownCrash(Exception):
    """A traceback on one of the inputs listed as crashing at this commit."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    baseline: str = ""   # the ROADMAP baseline call this op reproduces, if any
    long: bool = False   # takes over a second: runs in the first pass only


def expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


def ser(s: Structure) -> str:
    return f"{s.size}:" + ";".join(",".join(".".join(map(str, t)) for t in sorted(r))
                                   for r in s.relations)


# -- structure generators ----------------------------------------------------

def sym_graph(n: int, edges) -> Structure:
    arcs = {(x, y) for x, y in edges} | {(y, x) for x, y in edges}
    return Structure.build(GRAPH_SIGNATURE, n, {"E": arcs})


def cycle(n: int) -> Structure:
    return sym_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_edges(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def two_cycles(m: int) -> Structure:
    return sym_graph(2 * m, [(i, (i + 1) % m) for i in range(m)]
                     + [(m + i, m + (i + 1) % m) for i in range(m)])


def gnm(rng, n: int, p: float) -> Structure:
    """G(n, p) with the edge count fixed at round(p * n(n-1)/2), so that the
    cost of a count varies less from seed to seed."""
    pairs = list(itertools.combinations(range(n), 2))
    return sym_graph(n, rng.sample(pairs, round(p * len(pairs))))


def random_digraph(rng, n: int, p: float) -> Structure:
    arcs = {(x, y) for x in range(n) for y in range(n) if rng.random() < p}
    return Structure.build(GRAPH_SIGNATURE, n, {"E": arcs})


def relabel(rng, s: Structure) -> Structure:
    perm = list(range(s.size))
    rng.shuffle(perm)
    rels = tuple(frozenset(tuple(perm[x] for x in t) for t in r) for r in s.relations)
    return Structure(s.signature, s.size, rels)


def random_regular(rng, n: int, d: int) -> Structure:
    """A simple d-regular graph by the pairing model, retried until simple."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(edges) == n * d // 2 and all(x != y for x, y in edges):
            return sym_graph(n, sorted(edges))


def rook_4x4() -> Structure:
    cells = list(itertools.product(range(4), repeat=2))
    return sym_graph(16, [(i, j) for i, j in itertools.combinations(range(16), 2)
                          if cells[i][0] == cells[j][0] or cells[i][1] == cells[j][1]])


def shrikhande() -> Structure:
    cells = list(itertools.product(range(4), repeat=2))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return sym_graph(16, [(i, j) for i, j in itertools.combinations(range(16), 2)
                          if ((cells[j][0] - cells[i][0]) % 4,
                              (cells[j][1] - cells[i][1]) % 4) in steps])


MIXED_SIGNATURE = Signature((("E", 2), ("R", 3)))


def random_mixed(rng, n: int, p_e: float, p_r: float) -> Structure:
    arcs = {(x, y) for x in range(n) for y in range(n) if x != y and rng.random() < p_e}
    triples = {t for t in itertools.product(range(n), repeat=3)
               if len(set(t)) == 3 and rng.random() < p_r}
    return Structure.build(MIXED_SIGNATURE, n, {"E": arcs, "R": triples})


# -- workload base -----------------------------------------------------------

# The program's caches keyed by op inputs.  They are emptied before every op,
# so each pass over an op does the same work (see clear_caches).  The
# catalogue caches (lovasz._structures_of_size, trees._encodings_of_size)
# are set-up state and stay warm.
INPUT_CACHES = (homsearch._search_plan, sigstruct._canonical,
                stirling._factorization_candidates, stirling._generic_count_cached)


class Workload:
    name = ""
    setup_repeats = 9  # set-ups in an untraced run; setup_s is their median
    rounds = 1         # rounds an untraced run issues after the prologue
    min_passes = 1     # passes an untraced run makes at least
    trace_rounds = 1   # rounds a traced run issues after the prologue
    setup_baseline = ""  # the ROADMAP baseline step the set-up reproduces, if any

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.tracer = None    # set by a traced run

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{tag}")

    def setup(self):
        """Program-side set-up; the runner times it."""

    def reset(self):
        """Drop program caches so a repeated set-up starts cold."""

    def clear_caches(self):
        """Empty the per-input caches: every op starts from the set-up state."""
        for cache in INPUT_CACHES:
            cache.cache_clear()

    def prologue(self) -> list[Op]:
        return []

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def close(self):
        pass


# -- lovasz-sweep --------------------------------------------------------------

def _distinguish_check(a, b, budget, side, expect_iso):
    def check(res):
        iso = oracles.brute_isomorphic(a, b)
        expect(iso == expect_iso, "input pair is not what the workload picked")
        expect(iso == (sigstruct.canonical_form(a) == sigstruct.canonical_form(b)),
               "canonical codes disagree with brute-force isomorphism")
        if iso:
            expect(res.verdict == lovasz.PROFILES_EQUAL, "isomorphic pair distinguished")
            return res.verdict.encode()
        expect(res.verdict == lovasz.DISTINGUISHED, "non-isomorphic pair not distinguished")
        w = res.witness
        expect(w.size <= budget, "witness exceeds the budget")
        if side == lovasz.RIGHT:
            ref = (oracles.naive_count(w, a), oracles.naive_count(w, b))
        else:
            ref = (oracles.naive_count(a, w), oracles.naive_count(b, w))
        expect(tuple(res.counts) == ref and ref[0] != ref[1], "witness counts wrong")
        return f"{res.verdict}|{ser(w)}|{ref}".encode()
    return check


class LovaszSweep(Workload):
    """Isomorphism by counting over the size-4 binary catalogue."""

    name = "lovasz-sweep"
    min_passes = 3     # its ops are short, so more passes are cheap
    setup_baseline = "size-4 binary catalogue build"
    setup_repeats = 3
    rounds = 5
    trace_rounds = 10   # a round is only about half a second of ops

    def setup(self):
        self.catalogue = lovasz.enumerate_structures(GRAPH_SIGNATURE, 4)
        self.by_size = {n: [s for s in self.catalogue if s.size == n] for n in (3, 4)}
        # Subjects are loopless and of middle density.  A count's cost grows
        # with the subject's density, and a loop lets every test map onto it:
        # with loops allowed, one decision took anything from 0.14 to 1.5 s.
        def band(n, lo, hi):
            return [s for s in self.by_size[n] if lo <= s.total_tuples() <= hi
                    and all(x != y for x, y in s.relations[0])]
        self.mid3, self.mid4 = band(3, 3, 4), band(4, 5, 7)
        # The blocks where op_p50_ms (budget-3 distinguish on isomorphic
        # pairs) and op_tail_ms (decide-iso) fall take subjects whose cost
        # varies little with the seed: the directed 3-cycle, relabelled, and
        # size-4 classes with 6 tuples.
        self.cycle3 = Structure.build(GRAPH_SIGNATURE, 3, {"E": {(0, 1), (1, 2), (2, 0)}})
        self.iso4 = band(4, 6, 6)

    def reset(self):
        lovasz._structures_of_size.cache_clear()
        sigstruct._canonical.cache_clear()
        homsearch._search_plan.cache_clear()

    def _non_iso_pair(self, rng, n):
        pool = self.mid3 if n == 3 else self.mid4
        while True:
            a, b = rng.sample(pool, 2)
            if a.total_tuples() == b.total_tuples():
                return relabel(rng, a), relabel(rng, b)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for i in range(2):
            a, b = self._non_iso_pair(rng, 4)
            side = (lovasz.RIGHT, lovasz.LEFT)[i % 2]
            ops.append(Op(f"distinguish-{side}",
                          lambda a=a, b=b, side=side: lovasz.distinguish(a, b, 4, side),
                          _distinguish_check(a, b, 4, side, False)))
        for side in (lovasz.RIGHT, lovasz.LEFT) * 2:
            a = relabel(rng, self.cycle3)
            b = relabel(rng, a)
            ops.append(Op(f"distinguish-iso-{side}",
                          lambda a=a, b=b, side=side: lovasz.distinguish(a, b, 3, side),
                          _distinguish_check(a, b, 3, side, True)))
        for side in (lovasz.RIGHT, lovasz.LEFT):
            subject = relabel(rng, rng.choice(self.mid4))
            family = rng.sample(self.catalogue, 300)

            def check(res, subject=subject, family=family, side=side):
                for test, count in zip(family, res.counts):
                    ref = (oracles.naive_count(test, subject) if side == lovasz.RIGHT
                           else oracles.naive_count(subject, test))
                    expect(count == ref, "profile entry wrong")
                expect(len(res.counts) == len(family), "profile length wrong")
                return repr(res.counts).encode()
            ops.append(Op(f"hom_profile-{side}",
                          lambda s=subject, f=family, side=side: lovasz.hom_profile(s, f, side),
                          check))
        for _ in range(3):
            a = rng.choice(self.iso4)
            b = relabel(rng, a)

            def check_iso(res, a=a, b=b):
                expect(oracles.brute_isomorphic(a, b) and res is True,
                       "relabelled copy not recognised as isomorphic")
                return b"iso"
            ops.append(Op("decide-iso",
                          lambda a=a, b=b: lovasz.decide_isomorphic_by_counting(a, b),
                          check_iso))
        a, b = self._non_iso_pair(rng, 3)

        def check_non_iso(res, a=a, b=b):
            expect(not oracles.brute_isomorphic(a, b) and res is False,
                   "non-isomorphic pair decided isomorphic")
            return b"non-iso"
        ops.append(Op("decide-non-iso",
                      lambda a=a, b=b: lovasz.decide_isomorphic_by_counting(a, b),
                      check_non_iso))
        return ops


# -- large-target --------------------------------------------------------------

def _count_op(kind, c, a, cls, reference, baseline=""):
    def check(res):
        expect(res.count == reference(), f"{kind}: count differs from the reference")
        return f"{kind}|{res.count}".encode()
    return Op(kind, lambda: homsearch.count_morphisms(c, a, cls), check, baseline,
              long=bool(baseline))


def _ck_op(kind, a, b, k, budget, expect_equal):
    def check(verdict):
        wl = cklogic.wl_equivalent(a, b, k)
        expect(wl == expect_equal, f"{kind}: WL verdict is not the known one")
        expect(verdict.equivalent == expect_equal, f"{kind}: ck verdict differs from WL")
        if expect_equal:
            return f"{kind}|equal".encode()
        w = verdict.witness
        expect(w.size <= budget and oracles.brute_treewidth(w) < k,
               f"{kind}: witness outside the test class")
        ref = (refcheck.ve_hom(w, a), refcheck.ve_hom(w, b))
        expect(tuple(verdict.counts) == ref and ref[0] != ref[1],
               f"{kind}: witness counts wrong")
        return f"{kind}|{ser(w)}|{ref}".encode()
    return Op(kind, lambda: cklogic.ck_profile_equal(a, b, k, budget, True), check)


class LargeTarget(Workload):
    """A few big counts into seeded random targets, plus ck profiles."""

    name = "large-target"
    rounds = 2

    def setup(self):
        self.k3 = sym_graph(3, [(0, 1), (1, 2), (0, 2)])
        self.k4 = sym_graph(4, list(itertools.combinations(range(4), 2)))
        # tree-width 2: a diamond with a pendant vertex, and a 5-cycle with a chord
        self.tw2 = [sym_graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 3), (3, 4)]),
                    sym_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])]
        self.mixed = Structure.build(MIXED_SIGNATURE, 4, {"E": {(0, 1), (1, 2)},
                                                          "R": {(0, 2, 3), (1, 2, 3)}})
        self.srg = (rook_4x4(), shrikhande())
        # The ROADMAP baseline calls count into one fixed G(n, p) draw each,
        # the same for every seed, so that they time the same work.
        fixed = random.Random("roadmap-baseline")
        self.prologue_targets = (gnm(fixed, 30, 0.3), gnm(fixed, 20, 0.3))

    def prologue(self):
        g30, g20 = self.prologue_targets
        return [
            _count_op("hom-C5-G30", cycle(5), g30, MorphismClass.HOM,
                      lambda: refcheck.trace_power(g30, 5), "C5 into G(30, 0.3)"),
            _count_op("hom-C7-G20", cycle(7), g20, MorphismClass.HOM,
                      lambda: refcheck.trace_power(g20, 7), "C7 into G(20, 0.3)"),
        ]

    def round(self, r):
        rng = self.rng(r)
        hom = MorphismClass.HOM
        g32, g25, g25b = gnm(rng, 32, 0.2), gnm(rng, 25, 0.2), gnm(rng, 25, 0.3)
        g20 = gnm(rng, 20, 0.2)
        g20a, g20b, g16 = gnm(rng, 20, 0.5), gnm(rng, 20, 0.3), gnm(rng, 16, 0.3)
        colourable = gnm(rng, 18, 0.15)
        mixed_target = random_mixed(rng, 20, 0.3, 0.05)
        p5 = sym_graph(5, path_edges(5))
        spider = [(0, 1), (0, 2), (0, 3), (3, 4)]
        tw2 = self.tw2[r % 2]
        strong = (sym_graph(4, path_edges(4)), cycle(4))[r % 2]
        ops = [
            _count_op("hom-C4", cycle(4), g32, hom, lambda: refcheck.trace_power(g32, 4)),
            _count_op("hom-P5", p5, g25, hom,
                      lambda: refcheck.tree_hom(path_edges(5), 0, 5, g25)),
            _count_op("hom-tree", sym_graph(5, spider), g20, hom,
                      lambda: refcheck.tree_hom(spider, 0, 5, g20)),
            _count_op("hom-K4", self.k4, g20a, hom, lambda: refcheck.ve_hom(self.k4, g20a)),
            _count_op("hom-tw2", tw2, g25b, hom, lambda: refcheck.ve_hom(tw2, g25b)),
            _count_op("hom-mixed", self.mixed, mixed_target, hom,
                      lambda: refcheck.ve_hom(self.mixed, mixed_target)),
            _count_op("mono-C5", cycle(5), g20b, MorphismClass.MONO,
                      lambda: refcheck.mono_count(cycle(5), g20b)),
            _count_op("strong-mono", strong, g16, MorphismClass.STRONG_MONO,
                      lambda: refcheck.strong_mono_count(strong, g16)),
            _count_op("surjection-K3", colourable, self.k3, MorphismClass.SURJECTION,
                      lambda: refcheck.surjection_count(colourable, self.k3)),
        ]
        # Steady blocks where op_p50_ms and op_tail_ms fall in the sorted op
        # times.  Over two rounds there are 54 ops.  After the prologue, the
        # twelve k=3 profiles of C8 against 2.C4 are the costliest, and the
        # 11th largest op time (op_tail_ms) falls among them.  The median
        # falls among the sixteen C6 counts into 4-regular graphs, whose
        # cost varies little.  The C4 target is small enough to stay below
        # them.  The cycle pairs of the ck profiles have a fixed size and
        # are only relabelled, so their cost does not depend on the seed.
        for _ in range(8):
            g18 = random_regular(rng, 18, 4)
            ops.append(_count_op("hom-C6", cycle(6), g18, hom,
                                 lambda g18=g18: refcheck.trace_power(g18, 6)))
        ops.append(_ck_op("ck2-cycles", relabel(rng, cycle(10)),
                          relabel(rng, two_cycles(5)), 2, 6, True))
        ops.append(_ck_op("ck2-regular", random_regular(rng, 10, 3),
                          random_regular(rng, 10, 3), 2, 6, True))
        for _ in range(6):
            ops.append(_ck_op("ck3-cycles", relabel(rng, cycle(8)),
                              relabel(rng, two_cycles(4)), 3, 5, False))
        ops.append(_ck_op("ck3-srg", relabel(rng, self.srg[0]),
                          relabel(rng, self.srg[1]), 3, 4, True))
        return ops


# -- mobius-kernel -------------------------------------------------------------

def _partition_mu(coarse, fine) -> int:
    """mu(coarse, fine) in the quotient order (fine refines coarse)."""
    mu = 1
    for block in coarse:
        k = sum(1 for b in fine if b[0] in block)
        for j in range(1, k):
            mu *= -j
    return mu


def _kernel_check(c, a, system):
    def check(dec):
        if system is SE_M:
            buckets = refcheck.homs_by_kernel(c, a, refcheck.kernel_of)
            rows = {r.partition: r.generic for r in dec.rows}
            expect(len(rows) == len(oracles.partitions_of_set(c.size)),
                   "kernel: SE_M rows do not cover every partition")
            for part, generic in rows.items():
                expect(buckets.get(part, 0) == generic, "kernel: SE_M row count wrong")
        else:
            def key(f):
                part = refcheck.kernel_of(f)
                return part, refcheck.pulled_back(f, c, a, part)
            buckets = refcheck.homs_by_kernel(c, a, key)
            rows = {(r.partition, r.codomain.relations): r.generic for r in dec.rows}
            expect(rows == dict(buckets), "kernel: E_SM rows differ from the listing")
        total = sum(refcheck.homs_by_kernel(c, a, lambda f: 0).values())
        expect(dec.total == dec.homcount == total, "kernel: total differs from hom count")
        return f"kernel|{system.value}|{[r.generic for r in dec.rows]}".encode()
    return check


def _embedding_reference(c, a, system):
    return (refcheck.mono_count(c, a) if system is SE_M
            else refcheck.strong_mono_count(c, a))


def _poset_check(c, rng):
    def check(q):
        parts = [tuple(tuple(b) for b in e.partition) for e in q.elements]
        ref = {tuple(tuple(sorted(b)) for b in sorted(p)) for p in
               oracles.partitions_of_set(c.size)}
        expect(len(parts) == len(ref) and set(parts) == ref, "poset: partitions wrong")
        expect(len(parts[q.top]) == c.size, "poset: top is not the identity class")
        for i in rng.sample(range(len(parts)), 12):
            expect(q.poset.mobius(i, q.top) == _partition_mu(parts[i], parts[q.top]),
                   "poset: Moebius value wrong")
            expect(q.elements[i].codomain == refcheck.collapse(c, parts[i]),
                   "poset: quotient codomain wrong")
        return f"poset|{len(parts)}".encode()
    return check


def _amalgamation_op(rng, pool):
    """Pushout of a span c -> a, c -> b, checked against the universal
    property on a few targets: hom(p, t) is in bijection with the pairs
    (x, y) in hom(a, t) x hom(b, t) that agree on c."""
    while True:
        c, a, b = (rng.choice(pool) for _ in range(3))
        fs, gs = oracles.naive_morphisms(c, a), oracles.naive_morphisms(c, b)
        if fs and gs:
            fm, gm = rng.choice(fs), rng.choice(gs)
            break
    targets = [random_digraph(rng, 4, 0.6) for _ in range(3)]

    def run():
        f = sigstruct.Morphism.build(c, a, fm)
        g = sigstruct.Morphism.build(c, b, gm)
        p, la, lb = sigstruct.pushout(f, g)
        out = []
        for t in targets:
            exts = {(tuple(z[la.map[i]] for i in range(a.size)),
                     tuple(z[lb.map[j]] for j in range(b.size)))
                    for z in (m.map for m in homsearch.count_morphisms(
                        p, t, enumerate_witnesses=True).witnesses)}
            xs = homsearch.count_morphisms(a, t, enumerate_witnesses=True).witnesses
            ys = homsearch.count_morphisms(b, t, enumerate_witnesses=True).witnesses
            pairs = {(x.map, y.map) for x in xs for y in ys
                     if all(x.map[fm[i]] == y.map[gm[i]] for i in range(c.size))}
            out.append((len(exts), len(pairs), pairs <= exts))
        return out

    def check(out):
        for t, (n_ext, n_pairs, extends) in zip(targets, out):
            xs = oracles.naive_morphisms(a, t)
            ys = oracles.naive_morphisms(b, t)
            ref = sum(1 for x in xs for y in ys
                      if all(x[fm[i]] == y[gm[i]] for i in range(c.size)))
            expect(extends and n_pairs == ref == n_ext,
                   "amalgamation: pushout is not universal on a target")
        return f"amalgamation|{out}".encode()
    return Op("amalgamation", run, check)


class MobiusKernel(Workload):
    """Quotient posets, Moebius embedding counts, kernels, generic elements
    and pushout amalgamation: the listing side of homsearch."""

    name = "mobius-kernel"
    rounds = 6

    def setup(self):
        # As in large-target, the baseline calls use one fixed draw for every seed.
        fixed = random.Random("roadmap-baseline")
        self.c7 = random_digraph(fixed, 7, 0.25)
        self.c6, self.a7 = gnm(fixed, 6, 0.4), gnm(fixed, 7, 0.5)
        rng = self.rng("setup")
        self.small = [random_digraph(rng, n, 0.4) for n in (1, 1, 2, 2, 2, 3, 3, 3)]

    def prologue(self):
        rng = self.rng("prologue")
        c6, a7 = self.c6, self.a7
        ops = [Op("quotient_poset-7", lambda: quotposet.quotient_poset(self.c7),
                  _poset_check(self.c7, rng), "quotient_poset on 7 elements", long=True)]
        for system, label in ((E_SM, "E_SM"), (SE_M, "SE_M")):
            def check(n, system=system):
                expect(n == _embedding_reference(c6, a7, system),
                       "mobius: embedding count differs from the direct count")
                return f"mobius|{system.value}|{n}".encode()
            ops.append(Op(f"mobius-{label}-6-7",
                          lambda system=system: lovasz.embeddings_via_mobius(c6, a7, system),
                          check, f"{label} embeddings_via_mobius at sizes (6, 7)",
                          long=system is E_SM))
        return ops

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for system, (n, m) in ((SE_M, (6, 5)), (E_SM, (5, 5)), (SE_M, (5, 6))):
            c, a = random_digraph(rng, n, 0.3), random_digraph(rng, m, 0.5)
            ops.append(Op(f"kernel-{system.value}",
                          lambda c=c, a=a, s=system: stirling.kernel_decomposition(c, a, s),
                          _kernel_check(c, a, system)))
        # Three E_SM and eight SE_M Moebius counts.  Each kind costs nearly
        # the same for every input.  After the prologue, the E_SM ones are
        # the costliest block, where op_tail_ms (the 11th largest of 123)
        # falls; op_p50_ms falls among the SE_M ones.
        for system in (E_SM,) * 3 + (SE_M,) * 8:
            c, a = gnm(rng, 5, 0.4), random_regular(rng, 6, 3)

            def check(n, c=c, a=a, system=system):
                expect(n == _embedding_reference(c, a, system),
                       "mobius: embedding count differs from the direct count")
                return f"mobius|{system.value}|{n}".encode()
            ops.append(Op(f"mobius-{system.value}",
                          lambda c=c, a=a, s=system: lovasz.embeddings_via_mobius(c, a, s),
                          check))
        for system in (SE_M, E_SM):
            c, a = random_digraph(rng, 6, 0.3), random_digraph(rng, 6, 0.5)

            def check(n, c=c, a=a, system=system):
                cls = MorphismClass.MONO if system is SE_M else MorphismClass.STRONG_MONO
                expect(n == oracles.naive_count(c, a, cls, system),
                       "generic: count differs from the embedding count")
                return f"generic|{system.value}|{n}".encode()
            ops.append(Op(f"generic-{system.value}",
                          lambda c=c, a=a, s=system: stirling.generic_count(c, a, s), check))
        c6 = random_digraph(rng, 6, 0.3)
        ops.append(Op("quotient_poset-6", lambda: quotposet.quotient_poset(c6),
                      _poset_check(c6, rng)))
        for _ in range(3):
            ops.append(_amalgamation_op(rng, self.small))
        return ops


# -- cli-session ---------------------------------------------------------------

def _elementary_group(k: int) -> str:
    n = 2 ** k
    rows = " / ".join(" ".join(str(x ^ y) for y in range(n)) for x in range(n))
    return f"group E{k} order {n} table {rows} end\n"


def _cyclic_group(n: int, name: str) -> str:
    rows = " / ".join(" ".join(str((x + y) % n) for y in range(n)) for x in range(n))
    return f"group {name} order {n} table {rows} end\n"


def _z2_power_tower(k: int, name: str) -> str:
    """Z2, Z2^2, ..., Z2^k; each step forgets the top coordinate."""
    text = "".join(_elementary_group(i) for i in range(1, k + 1))
    text += f"tower {name} levels " + " ".join(f"E{i}" for i in range(1, k + 1)) + "\n"
    for i in range(1, k):
        text += "connect " + " ".join(str(x & (2 ** i - 1)) for x in range(2 ** (i + 1))) + "\n"
    return text + "end\n"


def _cyclic_tower(k: int, name: str) -> str:
    """Z2, Z4, ..., Z(2^k) with reduction maps."""
    text = "".join(_cyclic_group(2 ** i, f"C{i}") for i in range(1, k + 1))
    text += f"tower {name} levels " + " ".join(f"C{i}" for i in range(1, k + 1)) + "\n"
    for i in range(1, k):
        text += "connect " + " ".join(str(x % 2 ** i) for x in range(2 ** (i + 1))) + "\n"
    return text + "end\n"


def _unfold(children, start, depth):
    """Breadth-first unfolding of a tree spec, numbered as it is unfolded."""
    parents, frontier = [-1], [(0, start)]
    for _ in range(depth):
        nxt = []
        for node, state in frontier:
            for child in children[state]:
                parents.append(node)
                nxt.append((len(parents) - 1, child))
        frontier = nxt
    return parents


def _tree_text(name, parents) -> str:
    body = " ".join("-" if p == -1 else str(p) for p in parents)
    return f"tree {name} size {len(parents)} parents {body} end\n"


def _spec_text(name, children, start) -> str:
    lines = [f"treespec {name} states {len(children)} start {start}"]
    lines += [f"children {i}: " + " ".join(map(str, kids)) for i, kids in enumerate(children)]
    return "\n".join(lines) + "\nend\n"


def _rgs_partitions(n: int):
    """Set partitions of 0..n-1 in restricted-growth-string order."""
    parts = []
    for rgs in itertools.product(range(n), repeat=n):
        if any(rgs[i] > max(rgs[:i], default=-1) + 1 for i in range(n)):
            continue
        blocks = {}
        for x, b in enumerate(rgs):
            blocks.setdefault(b, []).append(x)
        parts.append(tuple(tuple(blocks[b]) for b in sorted(blocks)))
    return parts


def _partition_text(p) -> str:
    return "|".join(".".join(map(str, b)) for b in p)


def _mobius_expected(n: int) -> bytes:
    """Exact `homcount mobius` output for an n-element source: the partition
    lattice in restricted-growth order, its covers and Moebius values."""
    parts = _rgs_partitions(n)

    def refines(p, q):  # p refines q
        return all(any(set(b) <= set(c) for c in q) for b in p)

    lines = [f"element\t{i}\t{_partition_text(p)}" for i, p in enumerate(parts)]
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if i != j and refines(q, p) and len(q) == len(p) + 1:
                lines.append(f"hasse\t{i}\t{j}")
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if refines(q, p):
                lines.append(f"mobius\t{i}\t{j}\t{_partition_mu(p, q)}")
    return ("\n".join(lines) + "\n").encode()


def _parse_code(code: str) -> Structure:
    """A canonical code as printed by `homcount profile` (one binary symbol)."""
    size, body = code.split("|", 1)
    tuples = [tuple(map(int, t.split("."))) for t in body.split(":", 1)[1].split(",") if t]
    return Structure.build(GRAPH_SIGNATURE, int(size), {"E": tuples})


SELFTEST_LINE = re.compile(rb"^PASS\tcriterion (\d)\t[^\t]+\t[^\t]*\t\d+\.\ds$")


@dataclass
class Call:
    args: list[str]
    check: Callable[[int, bytes, bytes], bytes]
    known_crash: bool = False
    long: bool = False


def _exact(expected: bytes, code: int = 0):
    def check(rc, out, err):
        expect(rc == code and out == expected,
               f"stdout/exit differ: rc={rc} stdout={out[:200]!r} stderr={err[-300:]!r}")
        return out
    return check


def _small_calls(rng, w, tag) -> dict:
    """The cheap calls of the script, on inputs of their own for each tag."""
    calls = {}
    c, a = gnm(rng, 4, 0.5), gnm(rng, 8, 0.4)
    fc = w(f"c{tag}.struct", formats.write_structure("c", c))
    fa = w(f"a{tag}.struct", formats.write_structure("a", a))

    def check_count(rc, out, err, c=c, a=a):
        lines = out.decode().splitlines()
        total = refcheck.ve_hom(c, a)
        maps = [tuple(map(int, ln.split("\t")[1].split()))
                for ln in lines[1:] if ln.startswith("map\t")]
        expect(rc == 0 and lines[0] == str(total), "count: wrong total")
        expect(len(maps) == min(5, total) == len(set(maps))
               and all(oracles.is_hom(f, c, a) for f in maps), "count: listed maps wrong")
        expect((lines[-1] == "truncated") == (total > 5), "count: truncation flag wrong")
        return out
    calls["count-limit" + tag] = Call(["count", "--limit", "5", fc, fa], check_count)

    x, y = random_digraph(rng, 5, 0.4), random_digraph(rng, 5, 0.4)
    if rng.random() < 0.5:
        y = relabel(rng, x)
    fx = w(f"x{tag}.struct", formats.write_structure("x", x))
    fy = w(f"y{tag}.struct", formats.write_structure("y", y))
    iso = oracles.brute_isomorphic(x, y)
    calls["iso" + tag] = Call(["iso", fx, fy], _exact(b"true\n" if iso else b"false\n"))
    calls["mobius" + tag] = Call(["mobius", fc], _exact(_mobius_expected(4)))

    kc, ka = random_digraph(rng, 4, 0.3), random_digraph(rng, 4, 0.5)
    fkc = w(f"kc{tag}.struct", formats.write_structure("kc", kc))
    fka = w(f"ka{tag}.struct", formats.write_structure("ka", ka))
    buckets = refcheck.homs_by_kernel(kc, ka, refcheck.kernel_of)
    text = "partition\tblocks\tgeneric\n" + "".join(
        f"{_partition_text(p)}\t{len(p)}\t{buckets.get(p, 0)}\n" for p in _rgs_partitions(4))
    text += f"total\t\t{sum(buckets.values())}\n"
    calls["kernel" + tag] = Call(["kernel", fkc, fka], _exact(text.encode()))

    t = gnm(rng, 7, 0.45)
    ft = w(f"t{tag}.struct", formats.write_structure("t", t))
    calls["treewidth" + tag] = Call(["treewidth", ft],
                                    _exact(f"{oracles.brute_treewidth(t)}\n".encode()))
    m = rng.randint(4, 7)
    f1 = w(f"cyc{tag}.struct", formats.write_structure("cyc", relabel(rng, cycle(2 * m))))
    f2 = w(f"two{tag}.struct", formats.write_structure("two", relabel(rng, two_cycles(m))))
    calls["ck-wl" + tag] = Call(["ck", "--k", "2", "--method", "wl", f1, f2],
                                _exact(b"wl-oracle\tequivalent\n"))
    n, k = rng.randint(6, 9), rng.randint(2, 5)
    calls["stirling" + tag] = Call(["stirling", str(n), str(k)],
                                   _exact(f"{oracles.naive_stirling(n, k)}\n".encode()))

    return calls


class CliSession(Workload):
    """A fixed script of `homcount` calls, each in a fresh interpreter."""

    name = "cli-session"
    min_passes = 2     # the short calls are cheap; the long ones run once

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def close(self):
        self.tmp.cleanup()

    def clear_caches(self):
        """Every call runs in a fresh interpreter, so there is nothing to clear."""

    def setup(self):
        """Write the round-independent input files."""
        d = Path(self.tmp.name)
        (d / "chain.tree").write_text(_tree_text("chain", [-1] + list(range(600))))
        path = sym_graph(1000, path_edges(1000))
        (d / "path1000.struct").write_text(formats.write_structure("path", path))
        (d / "k2.struct").write_text(formats.write_structure("k2", sym_graph(2, [(0, 1)])))

    def _call_op(self, kind, call: Call) -> Op:
        d = Path(self.tmp.name)

        def run():
            if self.tracer is not None:
                spans = d / f"spans-{len(self.tracer.spans)}.json"
                cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                       str(spans), self.tracer.op] + call.args
            else:
                cmd = [sys.executable, "-m", "homcount.cli"] + call.args
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=d, env=self.env, capture_output=True,
                                  timeout=170)
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.adopt_child(spans, t0, t1)
            return proc.returncode, proc.stdout, proc.stderr

        def check(result):
            rc, out, err = result
            if b"Traceback" in err:
                if call.known_crash and rc == 1 and b"RecursionError" in err and not out:
                    raise KnownCrash(kind)
                raise Mismatch(f"{kind}: traceback {err[-300:]!r}")
            return call.check(rc, out, err)
        return Op(kind, run, check, long=call.long)

    def round(self, r):
        rng = self.rng(r)
        d = Path(self.tmp.name)

        def w(name, text):
            (d / f"r{r}-{name}").write_text(text)
            return f"r{r}-{name}"
        calls = {}

        s = random_digraph(rng, 4, 0.35)
        fs = w("s.struct", formats.write_structure("s", s))

        def check_profile(rc, out, err, s=s):
            lines = out.decode().splitlines()
            expect(rc == 0 and len(lines) == 3160, "profile: wrong number of lines")
            codes = set()
            for ln in lines:
                code, count = ln.split("\t")
                codes.add(code)
                expect(int(count) == oracles.naive_count(_parse_code(code), s),
                       "profile: count wrong")
            expect(len(codes) == 3160, "profile: repeated test structure")
            return out
        calls["profile"] = Call(["profile", "--budget", "4", fs], check_profile, long=True)

        b = relabel(rng, s)
        fb = w("b.struct", formats.write_structure("b", b))
        calls["distinguish-iso"] = Call(["distinguish", "--budget", "4", fs, fb],
                                        _exact(b"profiles-equal-within-budget\n"), long=True)
        for tag in ("", "-b"):
            calls.update(_small_calls(rng, w, tag))

        # a finitely branching spec with two to four children per state
        children = [[rng.randrange(3) for _ in range(rng.randint(2, 3))] for _ in range(3)]
        children[0] = children[0][:2]
        depth = 7
        fspec = w("spec.tree", _spec_text("spec", children, 0))
        big = _unfold(children, 0, depth)
        calls["trees-truncate"] = Call(["trees", "truncate", "--depth", str(depth), fspec],
                                       _exact(_tree_text("spec", big).encode()))
        small = _unfold(children, 0, 3)
        fbig = w("big.tree", _tree_text("big", big))
        fsmall = w("small.tree", _tree_text("small", small))
        calls["trees-count"] = Call(["trees", "count", fsmall, fbig], _exact(
            f"{refcheck.tree_morphisms(small, big)}\n".encode()))
        other = [list(kids) for kids in children]
        other[0] = other[0] + [1]
        fother = w("other.tree", _tree_text("other", _unfold(other, 0, depth)))
        calls["trees-distinguish"] = Call(
            ["trees", "distinguish", "--budget", "5", fbig, fother],
            _exact(f"tree witness size 2 parents - 0 end\ncount\tbig\t{len(children[0])}\n"
                   f"count\tother\t{len(other[0])}\n".encode(), 1))

        k = rng.randint(3, 4)
        ftw = w("t.twr", _z2_power_tower(k, "T"))
        fcyc = w("cyc.twr", _cyclic_tower(k, "U"))
        n = rng.randint(2, 8)
        fgrp = w("c.grp", _cyclic_group(n, f"Z{n}"))
        count = refcheck.cyclic_product_homs([2] * k, n)
        stable = count == refcheck.cyclic_product_homs([2] * (k - 1), n)
        calls["tower-count"] = Call(["tower", "count", ftw, fgrp], _exact(
            f"{count}\t{'stabilized' if stable else 'unstabilized'}\n".encode()))
        fam = _cyclic_group(3, "Z3") + _cyclic_group(2, "Z2") + _cyclic_group(4, "Z4")
        ffam = w("fam.grp", fam)
        # Z3 cannot separate 2-groups; Z2 gives 2^k on E1..Ek against 2 on Z(2^k)
        calls["tower-distinguish"] = Call(
            ["tower", "distinguish", "--family", ffam, ftw, fcyc],
            _exact(f"witness\tZ2\ncount\tT\t{refcheck.cyclic_product_homs([2] * k, 2)}\n"
                   f"count\tU\t{refcheck.cyclic_product_homs([2 ** k], 2)}\n".encode(), 1))
        fsur = w("sur.grp", fam + _elementary_group(2).replace("E2", "V4"))
        # an elementary abelian 2-group surjects exactly onto elementary abelian
        # 2-groups of no larger rank
        calls["tower-surjections"] = Call(
            ["tower", "surjections", "--family", fsur, ftw],
            _exact(b"Z3\tfalse\nZ2\ttrue\nZ4\tfalse\nV4\ttrue\n"))

        def check_selftest(rc, out, err):
            lines = out.splitlines()
            expect(rc == 0 and len(lines) == 8 and all(
                (mt := SELFTEST_LINE.match(ln)) and mt.group(1) == str(i).encode()
                for i, ln in enumerate(lines, start=1)), "selftest: not 8 PASS lines")
            return re.sub(rb"\t\d+\.\ds\n", b"\n", out)
        calls["selftest-quick"] = Call(["selftest", "--level", "quick"], check_selftest,
                                       long=True)

        # in-cap inputs: a 601-node chain into itself (1 map) and a
        # 1000-element path into K2 (2 maps)
        calls["crash-trees-chain601"] = Call(["trees", "count", "chain.tree", "chain.tree"],
                                             _exact(b"1\n"), known_crash=True)
        ref = refcheck.tree_hom(path_edges(1000), 0, 1000, sym_graph(2, [(0, 1)]))
        calls["crash-count-path1000"] = Call(["count", "path1000.struct", "k2.struct"],
                                             _exact(f"{ref}\n".encode()), known_crash=True)
        return [self._call_op(kind, call) for kind, call in calls.items()]


WORKLOADS = {w.name: w for w in (LovaszSweep, LargeTarget, MobiusKernel, CliSession)}
