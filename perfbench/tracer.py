"""Span tracing of the package's layers, installed from outside.

The package binds many functions by name (``from .rack import i2``), so a
wrapper on the defining module alone would miss most calls.  ``install``
wraps each target once and then rebinds every reference to the original
object found in any loaded ``leibrack`` module; ``scipy.linalg.expm`` is
patched on the ``scipy.linalg`` module, which is how the package calls it.

Spans are kept in memory as (name, start, end, parent, report) tuples and
written out by ``dump``.  Self time is a span's duration minus the time its
child spans cover.  ``Cochain.evaluate``, ``nilpotency_index`` and
``sample_group_element`` are counted, not timed, because they are called
too often for a span to stay cheap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name; the span name is "<layer>.<function>"
SPAN_TARGETS = {
    ("leibrack.fileio", "parse_algebra_file"): "fileio.parse_algebra_file",
    ("leibrack.algebra", "validate_leibniz"): "algebra.validate_leibniz",
    ("leibrack.algebra", "canonical_extension"): "algebra.canonical_extension",
    ("leibrack.algebra", "left_center"): "algebra.left_center",
    ("leibrack.algebra", "squares_ideal"): "algebra.squares_ideal",
    ("leibrack.linalg", "rref"): "linalg.rref",
    ("leibrack.linalg", "integrate_01"): "linalg.integrate_01",
    ("leibrack.linalg", "matrix_log"): "linalg.matrix_log",
    ("leibrack.cohomology", "leibniz_differential"): "cohomology.leibniz_differential",
    ("leibrack.cohomology", "hom_representation"): "cohomology.hom_representation",
    ("leibrack.rack", "build_rack_system"): "rack.build_rack_system",
    ("leibrack.rack", "i1"): "rack.i1",
    ("leibrack.rack", "i2"): "rack.i2",
    ("leibrack.rack", "rack_product"): "rack.rack_product",
    ("leibrack.rack", "log_coords"): "rack.log_coords",
    ("leibrack.rack", "iota2"): "rack.iota2",
    ("leibrack.rack", "lie_cocycle_defect"): "rack.lie_cocycle_defect",
    ("scipy.linalg", "expm"): "scipy.expm",
}
SUITES = ("rack_axiom_suite", "cocycle_suite", "augmented_action_suite",
          "roundtrip_suite", "tangent_suite", "quadrature_stability_suite",
          "lie_specialization_suite")
SPAN_TARGETS.update({("leibrack.suites", s): f"suites.{s}" for s in SUITES})

REPORT_SPAN = "cli.report"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.report = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.report)

    def _span_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _count_wrapper(self, name, fn, after=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def _suite_done(self, results, _args):
        self.counts["suites.samples"] += sum(r.samples for r in results)
        self.counts["suites.skipped"] += sum(r.skipped for r in results)

    def _nilpotency_done(self, result, _args):
        if result is None:
            self.counts["linalg.nilpotency_index.none"] += 1

    def _sample_done(self, g, args):
        chart = args[0].chart
        if chart.g0_dim and not (g - chart.identity()).any():
            self.counts["suites.identity_samples"] += 1

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modname, attr, wrapper):
        owner = importlib.import_module(modname)
        original = getattr(owner, attr)
        self._originals[id(original)] = f"{modname}.{attr}"
        self._set(owner, attr, wrapper(original))
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, getattr(owner, attr))

    def install(self) -> None:
        for (modname, attr), name in SPAN_TARGETS.items():
            after = self._suite_done if name.startswith("suites.") else None
            self._rebind(modname, attr,
                         lambda fn, name=name, after=after: self._span_wrapper(name, fn, after))
        self._rebind("leibrack.linalg", "nilpotency_index",
                     lambda fn: self._count_wrapper("linalg.nilpotency_index.calls", fn,
                                                    self._nilpotency_done))
        self._rebind("leibrack.suites", "sample_group_element",
                     lambda fn: self._count_wrapper("suites.sample_group_element.calls", fn,
                                                    self._sample_done))
        cochain = importlib.import_module("leibrack.cohomology").Cochain
        self._set(cochain, "evaluate",
                  self._count_wrapper("cohomology.Cochain.evaluate.calls", cochain.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still hold an original traced function."""
        found = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    found.append(f"{mod.__name__}.{key} -> {self._originals[id(value)]}")
        return found

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, inclusive seconds (.s) and self seconds (.self_s) per span
        name, plus the counters.  Inclusive time counts only the outermost
        span of a name, so a function that re-enters itself is not counted
        twice."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - covered[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
        out.update(self.counts)
        return out

    def dump(self, path, header: dict) -> None:
        """Write the spans as gzip'd JSON lines, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, report in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9),
                                     parent, report]) + "\n")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "leibrack" or name.startswith("leibrack."))]
