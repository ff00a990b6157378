"""Spans around the library's public functions, for the traced run.

The tracer replaces each listed function by a wrapper that records a span
(name, start, end, parent span, op id) in memory. Modules import
functions by name, so a function is replaced at every ``artifact.*``
module attribute that holds it; methods are replaced on their class.
Nothing in the library changes, and ``uninstall`` puts every original
back. Names that no longer exist are skipped and read as zero.

A span's self time is its duration minus the durations of its direct
children. A layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

# Laurent products at or above this many term pairs count as big calls
# (the library's own threshold for its packed routes is the same).
BIG_PAIRS = 1 << 15


def _nterms(x) -> int:
    terms = getattr(x, "terms", None)
    if terms is None:
        return 1 if x else 0
    return len(terms)


def _mul_hook(counts: Counter, args, kwargs, result) -> None:
    pairs = _nterms(args[0]) * _nterms(args[1])
    counts["laurent.mul.pairs"] += pairs
    counts["laurent.mul.big_calls"] += pairs >= BIG_PAIRS
    counts["laurent.terms_out"] += _nterms(result)


def _div_hook(counts: Counter, args, kwargs, result) -> None:
    divisor = args[1] if len(args) > 1 else kwargs["divisor"]
    counts["laurent.div.poly_calls"] += _nterms(divisor) > 1
    counts["laurent.terms_out"] += _nterms(result)


def _fit_hook(counts: Counter, args, kwargs, result) -> None:
    max_order = args[1] if len(args) > 1 else kwargs["max_order"]
    # orders are tried from 1 upwards until one fits
    counts["recurrences.fit.orders_tried"] += result.order if result is not None else max_order
    counts["recurrences.fit.found"] += result is not None


def _extend_hook(counts: Counter, args, kwargs, result) -> None:
    counts["frises.extend.cells"] += sum(len(row) for row in result.table)


Hook = Optional[Callable[[Counter, tuple, dict, Any], None]]

# (module, attribute, span name, counter hook)
SPANS: tuple[tuple[str, str, str, Hook], ...] = (
    ("recurrences", "find_min_recurrence", "recurrences.fit", _fit_hook),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _mul_hook),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul", _mul_hook),
    ("laurent", "LaurentPoly.__add__", "laurent.add", None),
    ("laurent", "LaurentPoly.__radd__", "laurent.add", None),
    ("laurent", "LaurentPoly.__pow__", "laurent.pow", None),
    ("laurent", "LaurentPoly.exact_div", "laurent.div", _div_hook),
    ("laurent", "products_differ_by_one", "laurent.minor", None),
    ("laurent", "step_matrix", "laurent.step_matrix", None),
    ("laurent", "row_times_mat", "laurent.row_times_mat", None),
    ("laurent", "vec_dot", "laurent.vec_dot", None),
    ("tilings", "Embedding.classify", "tilings.classify", None),
    ("tilings", "word_span", "tilings.word_span", None),
    ("tilings", "tile_value", "tilings.tile_value", None),
    ("tilings", "tile_grid", "tilings.tile_grid", None),
    ("tilings", "ray_values", "tilings.ray_values", None),
    ("frises", "frise_extend", "frises.extend", _extend_hook),
    ("frises", "frise_extend_vars", "frises.extend_vars", None),
    ("frises", "detect_period", "frises.detect_period", None),
    ("cluster", "enumerate_cluster_vars", "cluster.enumerate", None),
    ("cluster", "variable_tile_value", "cluster.tile_vars", None),
    ("cluster", "word_value_vars", "cluster.word_value_vars", None),
    ("correspondence", "probe_conjecture", "correspondence.probe", None),
    ("diagrams", "classify", "diagrams.classify", None),
)

LAYERS = ("recurrences", "laurent", "tilings", "frises", "cluster", "correspondence", "diagrams")


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "artifact" or name.startswith("artifact."))]


class _Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self):
        self._undo: list[tuple[Any, str, Any]] = []

    def replace_everywhere(self, module: str, attr: str, make: Callable[[Any], Any]) -> bool:
        owner = sys.modules.get("artifact." + module)
        if owner is None:
            return False
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                return False
            self._set(cls, attr, make(original))
            return True
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        wrapper = make(original)
        for mod in _library_modules():
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; ``op_id`` is set by the caller per op."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, op id)
        self.spans: list[Optional[tuple[str, int, int, int, int]]] = []
        # per pass: (first span, end of its spans, counter values)
        self.passes: list[tuple[int, int, dict]] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._pass_start = 0
        self._patcher = _Patcher()

    def _wrap(self, name: str, fn, hook: Hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        return traced

    def begin_pass(self) -> None:
        self.counts = Counter()
        self._pass_start = len(self.spans)

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.spans), dict(self.counts)))

    def install(self) -> list[str]:
        """Wrap every listed function; return the names that were missing."""
        missing = []
        for module, attr, name, hook in SPANS:
            if not self._patcher.replace_everywhere(
                    module, attr, lambda fn, name=name, hook=hook: self._wrap(name, fn, hook)):
                missing.append("%s.%s" % (module, attr))
        return missing

    def uninstall(self) -> None:
        self._patcher.restore()


class CallCounter:
    """Count-only wrapper for a function called too often to span."""

    def __init__(self, module: str, attr: str):
        self.calls = 0
        self._patcher = _Patcher()
        self.present = self._patcher.replace_everywhere(module, attr, self._wrap)

    def _wrap(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def uninstall(self) -> None:
        self._patcher.restore()


def summarize(spans: list, lo: int, hi: int) -> dict:
    """Per-name and per-layer totals for spans[lo:hi] (one pass).

    Returns {"names": {name: {"calls", "incl_ns", "self_ns"}},
    "layers": {layer: self_ns}, "min_self_ns": int, "self_total_ns": int}.
    incl_ns sums only spans with no ancestor of the same name, so
    recursion through mirror() is not counted twice.
    """
    child_ns = defaultdict(int)
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    layers: dict[str, int] = defaultdict(int)
    min_self = None
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        own = dur - child_ns[i]
        min_self = own if min_self is None else min(min_self, own)
        agg = names[name]
        agg["calls"] += 1
        agg["self_ns"] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["incl_ns"] += dur
        layers[name.split(".")[0]] += own
    return {
        "names": dict(names),
        "layers": dict(layers),
        "min_self_ns": 0 if min_self is None else min_self,
        "self_total_ns": sum(layers.values()),
    }
