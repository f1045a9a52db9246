"""Span and counter instrumentation of barspin, installed from outside.

A Tracer replaces selected public functions of barspin with thin wrappers,
under every module-level name they are bound to (``charvalues`` reaches
``symfunc.p_in_P_coefficient`` through its own name, ``charspace`` imports
``spin_removals`` from ``partitions``, and so on).  Span wrappers record
(name, start_ns, end_ns, parent index) in memory; count wrappers only bump
a counter.  ``restore`` puts every original object back.

Self-recursive memoized functions (``charvalues.chi``, ``symfunc.q_poly``,
``symfunc.h_poly``) are never wrapped: their work is read from
``cache_info()`` deltas instead.  Memoized enumerators such as
``partitions_of`` also recurse through their module-level name, so a span
wrapper passes a call straight through while the same function is already
open; only the outermost call gets a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# span name (module.function) -> per-layer metric its self time is charged to
SPAN_METRICS = {
    "symfunc.p_in_P_coefficient": "symfunc.p_in_P_s",
    "symfunc.schur_p_poly": "symfunc.schur_p_s",
    "charvalues.spin_brauer_table": "charvalues.spin_table_s",
    "charvalues.linear_brauer_table": "charvalues.linear_table_s",
    "charvalues.scan": "charvalues.pairing_s",
    # charged to the cache read or write metric by the caller, see layer_seconds
    "charvalues.load_or_build_tables": None,
    "charspace.apply_e": "charspace.apply_e_s",
    "charspace.apply_f": "charspace.apply_f_s",
    "charspace.runner_swap": "charspace.runner_swap_s",
    "charspace.quot_red": "charspace.quot_red_s",
    "charspace.interm": "charspace.interm_s",
    "charspace.interm_signed_sum": "charspace.interm_s",
    "charspace.b_sum": "charspace.interm_s",
    "charspace.b_closed": "charspace.interm_s",
    "partitions.partitions_of": "partitions.enum_s",
    "partitions.strict_partitions_of": "partitions.enum_s",
    "partitions.odd_partitions_of": "partitions.enum_s",
    "partitions.strict_partitions_upto": "partitions.enum_s",
    "partitions.spin_removals": "partitions.spin_moves_s",
    "partitions.spin_additions": "partitions.spin_moves_s",
}

# every public function of these modules gets a span charged to one metric
MODULE_METRICS = {"abacus": "abacus.s", "classify": "classify.s"}

# functions whose calls are only counted
COUNTED = ("charvalues.proportionality_ratio", "charvalues.spin_value",
           "partitions.rim_hooks")
# non-None results of the ratio test, counted where the test runs
RATIO_HITS = "charvalues.proportionality_ratio.hits"

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
SCALAR_COUNT = "scalars.Scalar.ops"


def _module(name):
    return importlib.import_module(f"barspin.{name}")


def memo_sizes():
    """Entries held by the lru caches of symfunc, and by charvalues.chi."""
    sf = _module("symfunc")
    sym = sum(
        obj.cache_info().currsize
        for obj in vars(sf).values()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == sf.__name__
    )
    return {
        "symfunc.memo_entries": sym,
        "charvalues.chi_memo_entries": _module("charvalues").chi.cache_info().currsize,
    }


def self_times(spans):
    """Self time in seconds per span name: each span's duration minus the
    durations of its direct children, summed over spans of that name."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += end - start - covered[i]
    return {name: ns / 1e9 for name, ns in out.items()}


def layer_seconds(spans, cache_metric=None):
    """Per-layer self time in seconds.  ``cache_metric`` receives the self
    time of ``load_or_build_tables``; without it that time is dropped (it
    is two memo lookups when no cache directory is used)."""
    out = Counter()
    for name, secs in self_times(spans).items():
        module = name.partition(".")[0]
        metric = SPAN_METRICS.get(name, MODULE_METRICS.get(module))
        if name == "charvalues.load_or_build_tables":
            metric = cache_metric
        if metric is not None:
            out[metric] += secs
    return dict(out)


class Tracer:
    """Installs the wrappers, collects spans and counts, restores on exit.
    Read ``result()`` after the ``with`` block, once originals are back."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self._memo_start = None

    def _span(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        open_ = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal open_
            counts[name] += 1
            if open_:
                return fn(*args, **kwargs)
            open_ = True
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                open_ = False

        return wrapper

    def _count(self, fn, name):
        counts = self.counts
        hits = RATIO_HITS if name == "charvalues.proportionality_ratio" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            out = fn(*args, **kwargs)
            if hits is not None and out is not None:
                counts[hits] += 1
            return out

        return wrapper

    def _targets(self):
        """(module, function, wrapper factory) for every wrapped function."""
        out = []
        for name in SPAN_METRICS:
            out.append((*name.split("."), self._span))
        for m in MODULE_METRICS:
            mod = _module(m)
            for f, obj in vars(mod).items():
                if (not f.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((m, f, self._span))
        for name in COUNTED:
            out.append((*name.split("."), self._count))
        return out

    def install(self):
        self._memo_start = memo_sizes()
        loaded = [mod for name, mod in list(sys.modules.items()) if name.startswith("barspin.")]
        for m, f, factory in self._targets():
            original = getattr(_module(m), f)
            wrapper = factory(original, f"{m}.{f}")
            for mod in loaded:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        scalar = _module("scalars").Scalar
        for op in SCALAR_OPS:
            original = scalar.__dict__[op]
            self._patched.append((scalar, op, original))
            setattr(scalar, op, self._count(original, SCALAR_COUNT))

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def result(self):
        """JSON-ready record of the run: spans, call counts, memo growth."""
        end = memo_sizes()
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "memo": {k: end[k] - self._memo_start[k] for k in end},
        }
