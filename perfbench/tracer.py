"""Spans around calls into grpd's public functions, recorded from outside grpd.

``Tracer.install`` rebinds each listed function everywhere grpd holds a
reference to it: module attributes (so calls through another module's
import see the wrapper) and module-level registry dicts such as
``search.CHECKS``, ``cli._VARIETIES`` and ``claims._TAG_CHECKS``, whose
values attribute patching alone would miss.  Per-cell helpers are not
wrapped.  Spans are kept in memory and aggregated when the pass ends.

A span's self time is its duration minus the durations of its direct
child spans.  A function's time (``s``) sums only the spans not nested
in another span of the same function or group, so recursion and nested
predicates are not counted twice.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter

from reference import catalan

# Variety predicates of grpd.terms, reported together as terms.variety.
VARIETY_PREDICATES = (
    "is_semigroup", "is_left_zero", "is_right_zero", "is_rect_band",
    "is_left_regular_band", "is_right_regular_band",
    "in_A", "in_B", "in_Cp", "in_D", "in_D_cap_A",
)

TRACED = {
    "cli": ("main",),
    "claims": ("run_claims",),
    "spectrum": ("spectrum", "nulla_satisfied"),
    "bracketings": ("enumerate_bracketings",),
    "search": ("search_tables",),
    "terms": ("satisfies_identity",) + VARIETY_PREDICATES,
    "nonassoc": ("ns_index",),
    "core": ("parse_groupoid", "find_isomorphism", "is_congruence"),
    "clone": ("binary_clone_part", "generates_basic", "find_relational_witness"),
}

GROUPS = {f"terms.{name}": "terms.variety" for name in VARIETY_PREDICATES}

# Registries of named checks whose values must be rebound too.
REGISTRIES = (("search", "CHECKS"), ("cli", "_VARIETIES"), ("claims", "_TAG_CHECKS"))

# Functions whose spans also record the rise of peak RSS.
RSS_TRACED = {"spectrum.spectrum", "search.search_tables", "nonassoc.ns_index", "terms.is_semigroup"}


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _groupoid(args, kwargs):
    return args[0] if args else kwargs["g"]


def _count_spectrum(counts, args, kwargs, report):
    size = _groupoid(args, kwargs).n
    for n, s in enumerate(report.values, start=1):
        counts["spectrum.bracketings"] += catalan(n)
        counts["spectrum.classes"] += s
        counts["spectrum.cells"] += catalan(n) * size ** n


def _count_search(counts, args, kwargs, summary):
    counts["search.tables"] += summary.total
    counts["search.survivors"] += summary.satisfying


def _count_ns(counts, args, kwargs, report):
    cube = _groupoid(args, kwargs).n ** 3
    counts["nonassoc.ns_index.cells"] += cube
    # t[t] and t[:, t] as int64 plus their comparison as bool
    counts["nonassoc.ns_index.bytes_computed"] += 17 * cube
    counts["nonassoc.defects"] += report.ns_count


def _count_clone(counts, args, kwargs, part):
    counts["clone.ops"] += len(part)
    counts["clone.pairs_composed"] += len(part) ** 2


def _count_iso(counts, args, kwargs, iso):
    counts["core.find_isomorphism.hits"] += iso is not None


def _count_claims(counts, args, kwargs, results):
    for r in results:
        counts[{"pass": "claims.passed", "fail": "claims.failed", "skipped": "claims.skipped"}[r.status]] += 1


COUNTERS = {
    "spectrum.spectrum": _count_spectrum,
    "search.search_tables": _count_search,
    "nonassoc.ns_index": _count_ns,
    "clone.binary_clone_part": _count_clone,
    "core.find_isomorphism": _count_iso,
    "claims.run_claims": _count_claims,
}


class Tracer:
    """Records spans for the functions in TRACED while installed.

    A span is ``[function, parent span index or -1, start, end, rise of
    ru_maxrss in KB]``.
    """

    def __init__(self):
        self._restore = []
        self.rebound = Counter()
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self):
        """Forget recorded spans and counts (in place: wrappers hold the lists)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, key: str, fn):
        count = COUNTERS.get(key)
        rss = key in RSS_TRACED
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = max_rss_kb() if rss else 0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                if rss:
                    span[4] = max_rss_kb() - rss0
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded grpd module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for modname, names in TRACED.items():
            mod = sys.modules[f"grpd.{modname}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{modname}.{name}", fn))

        def wrapper_for(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for modname, mod in sorted(sys.modules.items()):
            if modname != "grpd" and not modname.startswith("grpd."):
                continue
            for attr, value in list(vars(mod).items()):
                if wrapper_for(value) is not None:
                    self._rebind(vars(mod), attr, wrapper_for(value), f"{modname} attributes")
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if wrapper_for(v) is not None:
                            self._rebind(value, k, wrapper_for(v), f"{modname}.{attr}")
        missed = [f"grpd.{m}.{attr}" for m, attr in REGISTRIES if not any(
            hasattr(fn, "__wrapped__") for fn in getattr(sys.modules[f"grpd.{m}"], attr).values())]
        if missed:
            self.uninstall()
            raise RuntimeError(f"tracer did not rebind {missed}")

    def _rebind(self, namespace: dict, key, wrapper, where: str):
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = wrapper
        self.rebound[where] += 1

    def uninstall(self):
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original
        self.rebound.clear()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per function and group: calls, s, self_s, rss_rise_kb; plus counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0

        def has_ancestor(parent, match) -> bool:
            while parent >= 0:
                if match(spans[parent][0]):
                    return True
                parent = spans[parent][1]
            return False

        agg: dict[str, Counter] = {}
        for i, (key, parent, t0, t1, rss) in enumerate(spans):
            a = agg.setdefault(key, Counter())
            a["calls"] += 1
            a["self_s"] += t1 - t0 - child_time[i]
            if not has_ancestor(parent, lambda k: k == key):
                a["s"] += t1 - t0
                a["rss_rise_kb"] += rss
            group = GROUPS.get(key)
            if group is not None:
                g = agg.setdefault(group, Counter())
                g["calls"] += 1
                if not has_ancestor(parent, lambda k: GROUPS.get(k) == group):
                    g["s"] += t1 - t0
        return {"spans": agg, "counts": dict(self.counts), "nspans": len(spans)}
