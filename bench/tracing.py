"""Per-layer tracing of the ghn package, installed from outside the program.

The tracer rebinds the public functions of every layer module with wrappers
that record one span per call (name, start, end, parent span).  Spans are kept
in memory and summarised when the pass ends; a layer's self time is its span
time minus the time of its child spans.  ``registry`` and ``cli`` bind kernels
with ``from ... import``, so every ``ghn.*`` module that holds a wrapped object
gets the wrapper.  ``binom_int`` and ``stirling2`` are called hundreds of
thousands of times per ledger, so they get a counter instead of a span.

Fraction arithmetic is counted by ``FractionCounter`` in a pass of its own,
because its wrappers would otherwise dominate the span timings.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("cli", "verifier", "registry", "closed_forms", "transforms", "sequences", "polyseries", "exact")

# Functions called too often for a span; they get a call counter only.
COUNT_ONLY = {("exact", "binom_int"), ("sequences", "stirling2")}

# Methods that get spans: (module, class, attribute, span name).
METHODS = (
    ("polyseries", "TruncSeries", "__mul__", "polyseries.TruncSeries.mul"),
    ("polyseries", "TruncSeries", "__rmul__", "polyseries.TruncSeries.mul"),
    ("polyseries", "TruncSeries", "compose", "polyseries.TruncSeries.compose"),
    ("polyseries", "PolyQ", "__mul__", "polyseries.PolyQ.mul"),
    ("polyseries", "PolyQ", "__rmul__", "polyseries.PolyQ.mul"),
    ("verifier", "VerdictReport", "to_json", "verifier.VerdictReport.to_json"),
)


def _tri(length: int) -> int:
    """Multiply-adds of a dense lower-triangular sum over `length` terms."""
    return length * (length + 1) // 2


def _series_mul_ops(args) -> int:
    self, other = args[0], args[1]
    if hasattr(other, "order") and hasattr(other, "coeffs"):
        return _tri(min(self.order, other.order) + 1)
    return len(self.coeffs)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work counters derived from call arguments: span name -> (counter, function).
TERMS = {
    "transforms.binomial_transform": (
        "transforms.binomial_transform.terms",
        lambda a, k: _tri(len(_first_arg(a, k, "a"))),
    ),
    "transforms.inverse_binomial_transform": (
        "transforms.inverse_binomial_transform.terms",
        lambda a, k: _tri(len(_first_arg(a, k, "b"))),
    ),
    "sequences.harmonic_p": ("sequences.harmonic_p.terms", lambda a, k: max(int(_first_arg(a, k, "n")), 0)),
    "polyseries.TruncSeries.mul": ("polyseries.TruncSeries.mul.coeff_ops", lambda a, k: _series_mul_ops(a)),
}


def _ghn_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "ghn" or name.startswith("ghn."))]


def _rebind_everywhere(original, replacement) -> list:
    """Rebind every ghn module global that is `original`; return undo records."""
    undo = []
    for mod in _ghn_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def patch_function(module: str, name: str, replacement) -> list:
    """Replace ghn.<module>.<name> in every ghn module that imported it."""
    original = getattr(sys.modules[f"ghn.{module}"], name)
    return _rebind_everywhere(original, replacement)


def undo_patches(undo: list) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)


def public_functions(layer: str):
    mod = importlib.import_module(f"ghn.{layer}")
    for name, value in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == mod.__name__:
            yield name, value


class Tracer:
    """Span recorder; `install` wraps the layers, `uninstall` restores them."""

    ROOT = -1

    def __init__(self):
        self.spans: list = []  # (name, tag, start, end, parent index)
        self.stack: list[int] = [self.ROOT]
        self.counts: dict[str, int] = defaultdict(int)
        self.entry_cells: dict[str, tuple[int, int]] = {}
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, tag: str = ""):
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts
        terms = TERMS.get(name)

        def wrapper(*args, **kwargs):
            if terms is not None:
                counts[terms[0]] += terms[1](args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, tag, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_build_registry(self, fn):
        traced = self.span("registry.build_registry", fn)
        counts = self.counts

        def build_registry(*args, **kwargs):
            entries = traced(*args, **kwargs)
            for e in entries:
                counts["registry.grid_cells"] += len(e.cells)
                e.lhs = self.span("registry.entry.lhs", e.lhs, e.id)
                e.rhs = self.span("registry.entry.rhs", e.rhs, e.id)
                if e.certify is not None:
                    e.certify = self.span("registry.entry.certify", e.certify, e.id)
            return entries

        return build_registry

    def _wrap_run_entry(self, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        cells = self.entry_cells

        def run_entry(entry, *args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(entry, *args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = ("verifier.run_entry", entry.id, start, end, parent)
            done, skipped = cells.get(entry.id, (0, 0))
            cells[entry.id] = (done + result.cells, skipped + result.skipped)
            return result

        return run_entry

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            for name, fn in list(public_functions(layer)):
                full = f"{layer}.{name}"
                if (layer, name) in COUNT_ONLY:
                    wrapped = self.counter(f"{full}.calls", fn)
                elif full == "registry.build_registry":
                    wrapped = self._wrap_build_registry(fn)
                elif full == "verifier.run_entry":
                    wrapped = self._wrap_run_entry(fn)
                else:
                    wrapped = self.span(full, fn)
                self._undo += _rebind_everywhere(fn, wrapped)
        for layer, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[f"ghn.{layer}"], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.span(span_name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        undo_patches(self._undo)
        self._undo = []

    # -- summary -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per (name, tag): calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent in self.spans:
            if parent != self.ROOT:
                child[parent] += end - start
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, tag, start, end, parent) in enumerate(self.spans):
            rec = out[(name, tag)]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line: index, parent, name, tag, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\ttag\tstart_s\tend_s\n")
            for i, (name, tag, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{tag}\t{start:.9f}\t{end:.9f}\n")


class FractionCounter:
    """Exact counts of fractions.Fraction construction and arithmetic calls."""

    OPS = {
        "new": ("__new__",),
        "add": ("__add__", "__radd__"),
        "mul": ("__mul__", "__rmul__"),
        "div": ("__truediv__", "__rtruediv__"),
    }

    def __init__(self):
        self.counts = {op: 0 for op in self.OPS}
        self._saved: dict[str, object] = {}

    def install(self) -> None:
        counts = self.counts
        for op, attrs in self.OPS.items():
            for attr in attrs:
                raw = Fraction.__dict__[attr]
                self._saved[attr] = raw
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw

                def wrapper(*args, _fn=fn, _op=op, **kwargs):
                    counts[_op] += 1
                    return _fn(*args, **kwargs)

                setattr(Fraction, attr, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def uninstall(self) -> None:
        for attr, raw in self._saved.items():
            setattr(Fraction, attr, raw)
        self._saved = {}
