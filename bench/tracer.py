"""Span tracer that wraps the library's public functions from outside.

`Tracer.install()` replaces every public function of the twostate modules,
plus the arithmetic operators of OperatorExpr, FockVector and
BivariatePolynomial, by a wrapper that records a span (name, start, end,
parent). The modules import each other's functions by name, so every module
namespace that binds a wrapped function is patched, not only the defining
one. Spans live in flat arrays in memory and are written out at the end.

A layer is the module that defines the function. A layer's self time is the
total duration of its spans minus the time covered by their child spans. Size
counters are read from the values the wrapped calls return. In-process runs
trace the cache warm-up as well as the requests, so the cold enumeration of
exact-series shows in partitions.*.

Which end-to-end metric each layer should move, and where it should not:

    partitions         setup_s, peak_rss_mb on exact-series; latency_p90_s
                       on cli-cold; flat on fock-model
    cumulants          throughput_rps, latency_p50_s on exact-series and
                       cli-cold; flat on fock-model
    spectral           throughput_rps on exact-series; flat on fock-model
    variations         latency_p90_s (lemma-sum tail) on exact-series
    generator, poly    throughput_rps on exact-series; flat on fock-model
    fock               throughput_rps, latency_p90_s, peak_rss_mb on
                       fock-model; flat on exact-series
    rational, cli      latency_p50_s, setup_s on cli-cold; flat on
                       exact-series and fock-model
    trace.overhead_ratio  traced over untraced time of the same requests;
                       says how far the traced numbers can be trusted
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("partitions", "cumulants", "spectral", "variations", "generator", "poly", "fock", "rational", "cli")

# Operators and public methods wrapped on the library's value classes.
CLASS_METHODS = {
    ("fock", "OperatorExpr"): ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                               "__pow__", "scaled", "adjoint", "apply"),
    ("fock", "FockVector"): ("__add__", "__sub__", "scaled", "inner", "norm_squared"),
    ("poly", "BivariatePolynomial"): ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                                      "__rmul__", "__pow__", "d_dx", "d_dt", "substitute_t", "substitute_x",
                                      "evaluate", "x_coefficients"),
}
TABLE_SPANS = ("fock.phi_moment_table", "fock.psi_moment_table")
PRODUCT_SPANS = ("fock.OperatorExpr.__mul__", "fock.OperatorExpr.__rmul__", "fock.OperatorExpr.__pow__")


def _den_bits(value) -> int:
    """Largest denominator bit length among the Fractions in a returned value."""
    if isinstance(value, Fraction):
        return value.denominator.bit_length()
    if isinstance(value, (tuple, list)):
        return max((_den_bits(v) for v in value), default=0)
    coef = getattr(value, "coef", None) or getattr(value, "terms", None)
    if isinstance(coef, dict):
        return max((c.denominator.bit_length() for c in coef.values()), default=0)
    if hasattr(value, "phi_factors"):
        return _den_bits((value.psi_of_product, value.phi_of_product, value.phi_factors))
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {
            "partitions.items": 0, "partitions.nc_calls": 0, "partitions.nc_true": 0,
            "cumulants.den_bits_max": 0, "fock.vector_support_max": 0,
            "fock.expr_terms_max": 0, "fock.den_bits_max": 0,
        }
        self.import_times: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _observer(self, name: str):
        counters = self.counters
        if name == "partitions.is_noncrossing":
            def observe(result):
                counters["partitions.nc_calls"] += 1
                counters["partitions.nc_true"] += bool(result)
            return observe
        layer = name.split(".", 1)[0]
        if layer == "partitions":
            def observe(result):
                if isinstance(result, (list, tuple)):
                    counters["partitions.items"] += len(result)
                elif hasattr(result, "blocks"):
                    counters["partitions.items"] += 1
            return observe
        if layer == "cumulants":
            def observe(result):
                bits = _den_bits(result)
                if bits > counters["cumulants.den_bits_max"]:
                    counters["cumulants.den_bits_max"] = bits
            return observe
        if layer == "fock":
            def observe(result):
                coef = getattr(result, "coef", None)
                if coef is not None and len(coef) > counters["fock.vector_support_max"]:
                    counters["fock.vector_support_max"] = len(coef)
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > counters["fock.expr_terms_max"]:
                    counters["fock.expr_terms_max"] = len(terms)
                bits = _den_bits(result)
                if bits > counters["fock.den_bits_max"]:
                    counters["fock.den_bits_max"] = bits
            return observe
        return None

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        observe = self._observer(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            finally:
                span_end[idx] = clock()
                span_start[idx] = start
                stack.pop()

        return wrapper

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every public library function in every namespace binding it."""
        modules = {name: mod for name, mod in sys.modules.items() if name.startswith("twostate") and mod}
        wrappers: dict[int, object] = {}  # id of a library function -> its wrapper
        for modname, mod in modules.items():
            layer = modname.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == modname:
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for (cls_layer, cls_name), methods in CLASS_METHODS.items():
                cls = getattr(mod, cls_name, None) if cls_layer == layer else None
                if cls is None:
                    continue
                for method in methods:
                    self._patch(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ reporting

    def raw_summary(self) -> dict:
        """Per-layer calls and self time plus the size counters, mergeable."""
        count = len(self.span_start)
        child = [0.0] * count
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += durations[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = {f"{layer}.calls": 0 for layer in LAYERS}
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        out["fock.table_self_s"] = 0.0
        out["fock.product_self_s"] = 0.0
        table_ids = {self._name_ids[n] for n in TABLE_SPANS if n in self._name_ids}
        product_ids = {self._name_ids[n] for n in PRODUCT_SPANS if n in self._name_ids}
        for i in range(count):
            nid = self.span_name[i]
            layer = layer_of[nid]
            own = durations[i] - child[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += own
            if nid in table_ids:
                out["fock.table_self_s"] += own
            elif nid in product_ids:
                out["fock.product_self_s"] += own
        out.update(self.counters)
        out["cli.import_times"] = list(self.import_times)
        return out

    def spans_tsv(self) -> str:
        """One line per span: id, parent id (-1 for none), name, start, end."""
        return "".join(
            f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
            f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
            for i in range(len(self.span_start))
        )


SPANS_HEADER = "request\tid\tparent\tname\tstart\tend\n"


def merge(summaries: list[dict]) -> dict:
    """Combine raw summaries: maxima by max, import times by concatenation, rest by sum."""
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key == "cli.import_times":
                out.setdefault(key, []).extend(value)
            elif key.endswith("_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(raw: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from a merged raw summary."""
    units = {"calls": "count", "self_s": "s", "items": "count", "nc_kept_ratio": "ratio", "den_bits_max": "bits",
             "table_self_s": "s", "product_self_s": "s", "vector_support_max": "count",
             "expr_terms_max": "count", "import_s": "s", "overhead_ratio": "ratio"}
    values = {key: raw.get(key, 0) for key in (
        "partitions.calls", "partitions.self_s", "partitions.items",
        "cumulants.calls", "cumulants.self_s", "cumulants.den_bits_max",
        "spectral.calls", "spectral.self_s", "variations.calls", "variations.self_s",
        "generator.calls", "generator.self_s", "poly.calls", "poly.self_s",
        "fock.calls", "fock.self_s", "fock.table_self_s", "fock.product_self_s",
        "fock.vector_support_max", "fock.expr_terms_max", "fock.den_bits_max",
        "rational.calls", "rational.self_s", "cli.self_s",
    )}
    nc_calls = raw.get("partitions.nc_calls", 0)
    values["partitions.nc_kept_ratio"] = raw.get("partitions.nc_true", 0) / nc_calls if nc_calls else 0.0
    imports = raw.get("cli.import_times", [])
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return {key: {"value": value, "unit": units[key.split(".", 1)[1]]} for key, value in values.items()}
