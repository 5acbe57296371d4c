"""Spans around every call into a layer's public functions, and the per-layer metrics.

The layers are the package's modules.  ``Tracer.install`` replaces each
public module-level function of a layer by a wrapper that records a span
(name, start, end, parent, attributes), in the defining module and in every
other module or module-level dict that bound the same function, so calls
from one layer into another are seen too.  The program's source is not
touched.  Methods (``Polynomial.__mul__``, ``PAdic`` arithmetic) and
generators are not wrapped: their time is self time of the calling span.

Spans are kept in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("sparsepoly", "padic", "kz", "solutions", "cartier", "asymptotic",
          "convergence", "cli")

# Per-term helpers called up to a million times per pass: wrapping them would
# multiply the run time, so their time stays self time of the calling span.
UNWRAPPED = {
    "asymptotic.index_class", "asymptotic.components_of_class", "asymptotic.u_monomial",
    "asymptotic.x_monomial", "asymptotic.coefficient_difference_bound",
    "padic.int_valuation", "padic.binom_half_fraction", "padic.legendre",
    "solutions.coefficient_vector", "solutions.solution_degree", "solutions.solution_sign",
}

# Counts recorded at the layer boundary, from a call's arguments and result.
ATTRS = {
    "sparsepoly.slice_size": lambda args, result: {"count": result},
    "solutions.master_component": lambda args, result: {"terms": len(result)},
    "asymptotic.truncated_expansion": lambda args, result: {"coeffs": len(result.coeffs)},
    "kz.verify_solution": lambda args, result: {
        "terms": sum(len(entry) for entry in args[0].entries)},
}

# Per-layer metrics with their units; ``layer_metrics`` computes them.
PER_LAYER = {
    "cli.emit_s": "s",
    "cli.load_s": "s",
    "cli.artifact_mb": "MB",
    "solutions.extract_s": "s",
    "solutions.extract_tuples": "count",
    "solutions.formula_s": "s",
    "solutions.oracle_s": "s",
    "solutions.oracle_terms": "count",
    "kz.verify_s": "s",
    "kz.verify_cpu_s": "s",
    "kz.verify_small_s": "s",
    "kz.verify_terms": "count",
    "kz.verify_terms_per_s": "1/s",
    "cartier.grading_s": "s",
    "asymptotic.factorization_s": "s",
    "asymptotic.truncation_s": "s",
    "asymptotic.truncation_coeffs": "count",
    "asymptotic.series_s": "s",
    "convergence.converge_s": "s",
    "convergence.eval_s": "s",
    "convergence.evals": "count",
    "convergence.probe_s": "s",
}

# The one solution whose verification dominates grid-verify.
LARGE_OP = "verify 5-2-5-l2"


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, id, parent, name, op, start):
        self.id, self.parent, self.name, self.op, self.start = id, parent, name, op, start
        self.end = start
        self.attrs = None

    def to_json(self) -> list:
        return [self.id, self.parent, self.name, self.op, self.start, self.end, self.attrs]


class Tracer:
    """Records spans; ``op`` labels the benchmark operation in progress."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        cpu = name == "kz.verify_solution"

        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread has no span of its own open: its work was caused by
            # the span open on the main thread (kz.verify_solution here).
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(next(self._ids), parent.id if parent else None, name, self.op,
                        time.perf_counter())
            stack.append(span)
            c0 = time.process_time() if cpu else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            extra = attrs(args, result) if attrs else {}
            if cpu:
                extra["cpu"] = time.process_time() - c0
            span.attrs = extra or None
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package: str = "kz_padic") -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and not inspect.isgeneratorfunction(obj)
                        and f"{layer}.{name}" not in UNWRAPPED):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules + [importlib.import_module(package)]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patched.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for namespace, name, fn in reversed(self._patched):
            namespace[name] = fn
        self._patched.clear()

    def take(self) -> list:
        """The spans recorded so far, leaving the tracer empty."""
        spans, self.spans = self.spans, []
        return spans


# -- per-layer metrics -------------------------------------------------------------


def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        kids = [(max(k.start, span.start), min(k.end, span.end))
                for k in children.get(span.id, ())]
        out[span.id] = (span.end - span.start) - _union(
            (a, b) for a, b in kids if b > a)
    return out


def covered(spans: list, names) -> float:
    """Time inside spans of the given names, each nested group counted once."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name in names:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += span.end - span.start
    return total


def _attr_sum(spans, name: str, key: str) -> float:
    return sum(span.attrs[key] for span in spans if span.name == name and span.attrs)


def layer_metrics(spans: list, artifact_bytes: int = 0) -> dict:
    """Every per-layer metric of one pass, from its spans."""
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)

    def has_ancestor(span, name):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    verify = [span for span in spans if span.name == "kz.verify_solution"]
    verify_s = covered(spans, {"kz.verify_solution"})
    verify_terms = _attr_sum(spans, "kz.verify_solution", "terms")
    return {
        "cli.emit_s": covered(spans, {"cli.emit", "sparsepoly.vector_to_json"}),
        "cli.load_s": sum(selfs[span.id] for span in spans if span.name == "cli.cmd_verify")
        + covered(spans, {"sparsepoly.vector_from_json"}),
        "cli.artifact_mb": artifact_bytes / 1e6,
        "solutions.extract_s": covered(spans, {"solutions.extract_solution"}),
        "solutions.extract_tuples": sum(
            span.attrs["count"] for span in spans
            if span.name == "sparsepoly.slice_size"
            and has_ancestor(span, "solutions.extract_solution")),
        "solutions.formula_s": covered(spans, {"solutions.solution_from_formula"}),
        "solutions.oracle_s": covered(spans, {"solutions.master_component"}),
        "solutions.oracle_terms": _attr_sum(spans, "solutions.master_component", "terms"),
        "kz.verify_s": verify_s,
        "kz.verify_cpu_s": _attr_sum(spans, "kz.verify_solution", "cpu"),
        "kz.verify_small_s": sum(span.end - span.start for span in verify
                                 if span.op != LARGE_OP),
        "kz.verify_terms": verify_terms,
        "kz.verify_terms_per_s": verify_terms / verify_s if verify_s else 0.0,
        "cartier.grading_s": covered(
            spans, {"cartier.verify_grading_relation", "cartier.verify_iterated_product"}),
        "asymptotic.factorization_s": covered(spans, {"asymptotic.factorization_report"}),
        "asymptotic.truncation_s": covered(spans, {"asymptotic.truncated_expansion"}),
        "asymptotic.truncation_coeffs": _attr_sum(
            spans, "asymptotic.truncated_expansion", "coeffs"),
        "asymptotic.series_s": covered(spans, {"asymptotic.limit_series", "asymptotic.q_series"}),
        "convergence.converge_s": covered(
            spans, {"convergence.converge_T_n3", "convergence.converge_Q_general"}),
        "convergence.eval_s": sum(
            selfs[span.id] for span in spans
            if span.name in ("convergence.converge_T_n3", "convergence.converge_Q_general",
                             "convergence.evaluate_poly_dict")),
        "convergence.evals": sum(1 for span in spans
                                 if span.name == "convergence.evaluate_poly_dict"),
        "convergence.probe_s": covered(spans, {"convergence.disjoint_domain_probe"}),
    }
