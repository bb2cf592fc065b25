"""Span tracing of homcount's layers from outside the program.

The tracer replaces every module binding of each public entry point (and a
few class attributes) with a wrapper that records a span: layer key, start,
end, parent span and op id.  Function bodies are never touched, so a name a
module imported with ``from .x import f`` is traced exactly like ``x.f``.
A layer's self time is the time its spans were busy minus the busy time of
their child spans.  Generator entry points are busy only while the consumer
is inside ``next()``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from math import comb, perm

LAYERS = ("homsearch", "sigstruct", "lovasz", "quotposet", "stirling",
          "cklogic", "trees", "profinite", "formats", "cli")

# (module, attribute, span key); the layer is the key's first component.
FUNCTIONS = (
    ("homcount.homsearch", "count_morphisms", "homsearch.count"),
    ("homcount.homsearch", "hom_count", "homsearch.count_shorthand"),
    ("homcount.homsearch", "iter_hom_maps", "homsearch.enum"),
    ("homcount.sigstruct", "canonical_form", "sigstruct.canon"),
    ("homcount.sigstruct", "canonical_representative", "sigstruct.canon"),
    ("homcount.sigstruct", "are_isomorphic", "sigstruct.canon"),
    ("homcount.sigstruct", "pushout", "sigstruct.pushout"),
    ("homcount.sigstruct", "disjoint_union", "sigstruct.union"),
    ("homcount.lovasz", "_structures_of_size", "lovasz.catalogue"),
    ("homcount.lovasz", "iter_structures", "lovasz.tests"),
    ("homcount.lovasz", "enumerate_structures", "lovasz.enumerate"),
    ("homcount.lovasz", "hom_profile", "lovasz.profile"),
    ("homcount.lovasz", "distinguish", "lovasz.distinguish"),
    ("homcount.lovasz", "decide_isomorphic_by_counting", "lovasz.decide"),
    ("homcount.lovasz", "embeddings_via_mobius", "lovasz.mobius"),
    ("homcount.lovasz", "mobius_invert_ints", "lovasz.mobius"),
    ("homcount.quotposet", "quotient_poset", "quotposet.poset"),
    ("homcount.quotposet", "set_partitions", "quotposet.partitions"),
    ("homcount.quotposet", "collapse_structure", "quotposet.collapse"),
    ("homcount.stirling", "_realized_quotients", "stirling.realized"),
    ("homcount.stirling", "generic_count", "stirling.generic"),
    ("homcount.stirling", "kernel_decomposition", "stirling.kernel"),
    ("homcount.stirling", "stirling_number", "stirling.number"),
    ("homcount.cklogic", "enumerate_tw_lt_k", "cklogic.enum"),
    ("homcount.cklogic", "treewidth", "cklogic.treewidth"),
    ("homcount.cklogic", "tree_decomposition", "cklogic.treewidth"),
    ("homcount.cklogic", "wl_equivalent", "cklogic.wl"),
    ("homcount.cklogic", "ck_profile_equal", "cklogic.profile"),
    ("homcount.trees", "count_tree_morphisms", "trees.count"),
    ("homcount.trees", "distinguish_trees", "trees.distinguish"),
    ("homcount.trees", "truncate", "trees.truncate"),
    ("homcount.trees", "enumerate_trees", "trees.enumerate"),
    ("homcount.profinite", "enumerate_group_homs", "profinite.count"),
    ("homcount.profinite", "count_group_homs", "profinite.count_shorthand"),
    ("homcount.profinite", "continuous_hom_count", "profinite.tower"),
    ("homcount.profinite", "distinguish_towers", "profinite.tower"),
    ("homcount.profinite", "surjection_profile", "profinite.tower"),
    ("homcount.formats", "parse_structures", "formats.parse"),
    ("homcount.formats", "parse_trees", "formats.parse"),
    ("homcount.formats", "parse_tree_specs", "formats.parse"),
    ("homcount.formats", "parse_groups_and_towers", "formats.parse"),
    ("homcount.formats", "write_structure", "formats.write"),
    ("homcount.formats", "write_tree", "formats.write"),
)

# (module, class, attribute, span key); patched on the class itself.
METHODS = (
    ("homcount.sigstruct", "Morphism", "build", "sigstruct.morphism_build"),
    ("homcount.quotposet", "FinitePoset", "mobius", "quotposet.mobius"),
    ("homcount.profinite", "FiniteGroup", "__post_init__", "profinite.group_check"),
    ("homcount.profinite", "GroupHom", "__post_init__", "profinite.group_check"),
    ("homcount.profinite", "Tower", "__post_init__", "profinite.group_check"),
)

# Span fields; WORK and WORK2 are the layer's work counters for that span.
KEY, START, END, PARENT, OP, BUSY, WORK, WORK2 = range(8)


def _enumerates(args, kwargs) -> bool:
    if "enumerate_witnesses" in kwargs:
        return bool(kwargs["enumerate_witnesses"])
    return len(args) > 4 and bool(args[4])


def _catalogue_candidates(signature, n) -> int:
    return 2 ** sum(n ** arity for _, arity in signature.symbols)


def _realized_candidates(c, a) -> int:
    """(partition, injection) pairs _realized_quotients tries for c, a."""
    n, m = c.size, a.size
    # Stirling numbers of the second kind by the explicit sum, not the program.
    def s2(nn, k):
        return sum((-1) ** j * comb(k, j) * (k - j) ** nn for j in range(k + 1)) // perm(k, k)
    return sum(s2(n, b) * perm(m, b) for b in range(1, min(n, m) + 1))


class Tracer:
    """Holds the spans of one process and the patches that produce them."""

    def __init__(self, op_id: str = ""):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = op_id
        self.enabled = False   # on only while the program works for an op or set-up
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _open(self, key: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([key, time.perf_counter(), 0.0, parent, self.op, 0.0, 0, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        self.stack.pop()

    def _wrap_function(self, fn, key: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_key = key
            if key == "homsearch.count" and _enumerates(args, kwargs):
                span_key = "homsearch.enum"
            if key == "quotposet.mobius" and tracer.stack and \
                    tracer.spans[tracer.stack[-1]][KEY] == key:
                return fn(*args, **kwargs)  # recursive step of one inversion
            cache = getattr(fn, "cache_info", None)
            misses = cache().misses if cache else 0
            idx = tracer._open(span_key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.spans[idx][WORK:] = _work(span_key, args, result,
                                             cache and cache().misses > misses)
            return result

        return wrapper

    def _wrap_generator(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.enabled:
                yield from inner
                return
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [key, time.perf_counter(), 0.0, parent, tracer.op, 0.0, 0, 0]
            tracer.spans.append(span)
            try:
                while True:
                    tracer.stack.append(idx)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[BUSY] += time.perf_counter() - t0
                        tracer.stack.pop()
                    span[WORK] += 1
                    yield item
            finally:
                span[END] = time.perf_counter()
                inner.close()

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        """Patch every binding of every entry point in loaded homcount modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "homcount" or name.startswith("homcount."))]
        for mod_name, attr, key in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap_function(original, key)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, name, wrapper)
        for mod_name, cls_name, attr, key in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap_function(raw.__func__, key)))
            else:
                self._set(cls, attr, self._wrap_function(raw, key))
        cli = sys.modules.get("homcount.cli")
        if cli is not None:
            for name, handler in list(cli._HANDLERS.items()):
                cli._HANDLERS[name] = self._wrap_function(handler, "cli.handler")

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        cli = sys.modules.get("homcount.cli")
        if cli is not None:
            for name, handler in list(cli._HANDLERS.items()):
                cli._HANDLERS[name] = getattr(handler, "__wrapped__", handler)
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    # -- output -----------------------------------------------------------
    def record(self, key: str, start: float, end: float):
        """Add a span measured by the caller (the parent's view of a child)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([key, start, end, parent, self.op, end - start, 0, 0])

    def adopt_child(self, path, start: float, end: float):
        """Record a child process as a cli.process span and append the spans
        it dumped (times in its own clock) with their roots under it."""
        self.record("cli.process", start, end)
        parent = len(self.spans) - 1
        try:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
        except FileNotFoundError:
            return
        base = len(self.spans)
        for span in child:
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + base
            self.spans.append(span)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _work(key, args, result, cache_missed) -> list[int]:
    """The two work counters a span contributes to its layer."""
    if key == "homsearch.count":
        return [result.count, 0]
    if key == "homsearch.enum":
        return [len(result.witnesses), 0]
    if key == "lovasz.catalogue" and cache_missed:
        return [_catalogue_candidates(*args), len(result)]
    if key in ("quotposet.poset", "cklogic.enum"):
        return [len(result), 0]
    if key == "stirling.realized":
        return [_realized_candidates(*args), len(result)]
    if key == "formats.parse":
        return [len(args[0].encode("utf-8")), 0]
    return [0, 0]


def self_times(spans) -> list[float]:
    """Self time per span: busy time minus the busy time of direct children."""
    own = [s[BUSY] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[BUSY]
    return own


def unit_of(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_count"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from one flat list of spans."""
    count = defaultdict(int)
    selfsum = defaultdict(float)
    busy = defaultdict(float)
    work = defaultdict(int)
    work2 = defaultdict(int)
    layer_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        key = s[KEY]
        count[key] += 1
        selfsum[key] += own
        busy[key] += s[BUSY]
        work[key] += s[WORK]
        work2[key] += s[WORK2]
        layer_self[key.split(".")[0]] += own
    catalogue_classes = work2["lovasz.catalogue"]
    m = {}
    n_count = count["homsearch.count"]
    m["homsearch.count_calls"] = n_count
    m["homsearch.count_self_s"] = selfsum["homsearch.count"] + selfsum["homsearch.count_shorthand"]
    m["homsearch.us_per_count"] = 1e6 * m["homsearch.count_self_s"] / n_count if n_count else 0.0
    m["homsearch.maps_counted"] = work["homsearch.count"]
    m["homsearch.enum_calls"] = count["homsearch.enum"]
    m["homsearch.enum_self_s"] = selfsum["homsearch.enum"]
    m["homsearch.maps_listed"] = work["homsearch.enum"]
    m["sigstruct.canon_calls"] = count["sigstruct.canon"]
    m["sigstruct.canon_self_s"] = selfsum["sigstruct.canon"]
    m["sigstruct.morphism_builds"] = count["sigstruct.morphism_build"]
    m["sigstruct.morphism_build_s"] = selfsum["sigstruct.morphism_build"]
    m["lovasz.catalogue_s"] = busy["lovasz.catalogue"]
    m["lovasz.catalogue_candidates"] = work["lovasz.catalogue"]
    m["lovasz.catalogue_classes"] = catalogue_classes
    m["lovasz.catalogue_kept_ratio"] = (catalogue_classes / work["lovasz.catalogue"]
                                        if work["lovasz.catalogue"] else 0.0)
    m["lovasz.tests_tried"] = work["lovasz.tests"]
    m["lovasz.mobius_self_s"] = selfsum["lovasz.mobius"]
    m["quotposet.calls"] = count["quotposet.poset"]
    m["quotposet.elements"] = work["quotposet.poset"]
    m["quotposet.self_s"] = layer_self["quotposet"]
    m["quotposet.mobius_s"] = selfsum["quotposet.mobius"]
    m["stirling.realized_s"] = selfsum["stirling.realized"]
    m["stirling.realized_tried"] = work["stirling.realized"]
    m["stirling.realized_kept"] = work2["stirling.realized"]
    m["stirling.generic_s"] = selfsum["stirling.generic"]
    m["stirling.kernel_self_s"] = selfsum["stirling.kernel"]
    m["cklogic.tests"] = work["cklogic.enum"]
    m["cklogic.enum_s"] = selfsum["cklogic.enum"]
    m["cklogic.treewidth_calls"] = count["cklogic.treewidth"]
    m["cklogic.treewidth_s"] = selfsum["cklogic.treewidth"]
    m["cklogic.wl_s"] = selfsum["cklogic.wl"]
    m["trees.count_calls"] = count["trees.count"]
    m["trees.count_s"] = selfsum["trees.count"]
    m["profinite.hom_calls"] = count["profinite.count"]
    m["profinite.count_s"] = selfsum["profinite.count"] + selfsum["profinite.count_shorthand"]
    m["profinite.group_check_s"] = selfsum["profinite.group_check"]
    m["formats.bytes"] = work["formats.parse"]
    m["formats.parse_s"] = selfsum["formats.parse"]
    m["formats.mb_per_s"] = (work["formats.parse"] / selfsum["formats.parse"] / 1e6
                             if selfsum["formats.parse"] > 0 else 0.0)
    m["cli.handler_s"] = busy["cli.handler"]
    m["cli.process_s"] = busy["cli.process"]
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m
