"""Per-layer tracing of glq from outside, without editing its source.

Each traced function is replaced by a wrapper on every module-level binding
of the same object across the loaded glq modules (classcalc, for example,
imports modified_type_of by name), and on the class for ExpansionCache
methods.  Every wrapper counts calls and self time: its own duration minus
the time spent in traced functions it called.  Entry-level functions also
record a span (name, start, end, parent span, operation id); leaf functions
called once per class element are folded into counts and self time only, so
the trace stays small.  A function missing from glq is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

MODULES = ("field", "polyalg", "matfq", "gltype", "classcalc",
           "stablecenter", "store", "cli")

# (module, qualified name, records spans)
TARGETS = (
    ("field", "field_of_order", False),
    ("polyalg", "factor_monic", False),
    ("polyalg", "is_irreducible", False),
    ("polyalg", "parse_poly", False),
    ("matfq", "mat_mul", False),
    ("matfq", "rank", False),
    ("matfq", "kernel_dim", False),
    ("matfq", "inverse", False),
    ("matfq", "char_poly", False),
    ("matfq", "poly_at_matrix", False),
    ("matfq", "conjugacy_invariant", False),
    ("gltype", "type_of", False),
    ("gltype", "modified_type_of", False),
    ("gltype", "class_size", False),
    ("gltype", "parse_gltype", False),
    ("gltype", "format_gltype", False),
    ("classcalc", "enumerate_class", True),
    ("classcalc", "multiply_class_sums", True),
    ("classcalc", "structure_constant_at", True),
    ("classcalc", "stable_constant", True),
    ("classcalc", "stable_product", True),
    ("classcalc", "verify_stability", True),
    ("stablecenter", "check_case", True),
    ("store", "ExpansionCache.load", True),
    ("store", "ExpansionCache.save", True),
    ("store", "ExpansionCache.get", True),
    ("store", "ExpansionCache.put", True),
    ("cli", "main", True),
)

# counters and ratios measured where the work happens: (name, unit)
COUNTERS = (
    ("classcalc.enumerate_class.elements", "count"),
    ("classcalc.enumerate_class.distinct_args", "count"),
    ("classcalc.classify.useful_ratio", "ratio"),
    ("classcalc.structure_constant_at.per_stable_product", "calls/op"),
    ("store.load.records_accepted", "count"),
    ("store.load.records_skipped", "count"),
    ("store.bytes_read", "B"),
    ("store.bytes_written", "B"),
    ("store.get.hit_ratio", "ratio"),
)


def metric_units() -> dict:
    """Every per-layer metric a traced worker reports, with its unit, in
    report order."""
    units = {}
    for module, qualname, _ in TARGETS:
        units[f"{module}.{qualname}.calls"] = "count"
        units[f"{module}.{qualname}.self_s"] = "s"
    units.update((f"{module}.self_s", "s") for module in MODULES)
    units.update(COUNTERS)
    return units


def _record_lines(path: Path) -> int:
    with open(path, encoding="utf-8", errors="replace") as handle:
        return sum(1 for line in handle
                   if line.strip() and not line.startswith("#"))


class Tracer:
    """Wraps the TARGETS of an imported glq; install() and remove() pair."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.absent = []
        self.spans = []
        self._child = [0.0]      # traced time inside the open call, per level
        self._span_stack = [None]
        self._op = None
        self._restore = []
        # counters gathered by observers
        self._op_types = set()
        self.useful_types = 0
        self.elements = 0
        self.enum_args = set()
        self.accepted = 0
        self.skipped = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.get_hits = 0

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        observers = {
            "gltype.modified_type_of": self._see_type,
            "classcalc.enumerate_class": self._see_orbit,
            "store.ExpansionCache.load": self._see_load,
            "store.ExpansionCache.save": self._see_save,
            "store.ExpansionCache.get": self._see_get,
        }
        for module_name, qualname, spans in TARGETS:
            name = f"{module_name}.{qualname}"
            self.calls[name] = 0
            self.self_s[name] = 0.0
            try:
                owner = importlib.import_module(f"glq.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            module = owner
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, spans, observers.get(name))
            if owner is module:
                self._rebind_everywhere(original, wrapper)
            else:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "glq"
                                   or mod_name.startswith("glq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, spans, observe):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter
        if not spans and observe is None:
            def leaf(*args, **kwargs):
                child.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    self_s[name] += elapsed - child.pop()
                    calls[name] += 1
                    child[-1] += elapsed
            return leaf

        span_stack, span_log = self._span_stack, self.spans

        def entry(*args, **kwargs):
            child.append(0.0)
            if spans:
                span_id = len(span_log)
                span_log.append([name, 0.0, 0.0, span_stack[-1], self._op])
                span_stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                elapsed = end - start
                self_s[name] += elapsed - child.pop()
                calls[name] += 1
                if spans:
                    span_stack.pop()
                    span_log[span_id][1:3] = [start, end]
                if observe is not None and result is not None:
                    observe(args, kwargs, result)
                # observer time counts toward no function
                child[-1] += elapsed + (clock() - end)
        return entry

    # -- observers ----------------------------------------------------------

    def _see_type(self, args, kwargs, result) -> None:
        self._op_types.add(result)

    def _see_orbit(self, args, kwargs, result) -> None:
        self.elements += len(result)
        mu = args[0] if args else kwargs.get("mu")
        n = args[1] if len(args) > 1 else kwargs.get("n")
        self.enum_args.add((mu, n))

    def _see_load(self, args, kwargs, result) -> None:
        cache = args[0]
        path = args[1] if len(args) > 1 else kwargs.get("path")
        target = Path(path) if path is not None else cache.path
        if target is None or not target.exists():
            return
        self.accepted += result
        self.skipped += _record_lines(target) - result
        self.bytes_read += target.stat().st_size

    def _see_save(self, args, kwargs, result) -> None:
        self.bytes_written += os.path.getsize(result)

    def _see_get(self, args, kwargs, result) -> None:
        self.get_hits += 1

    # -- operations and results -------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self._op = op_id
        self._op_types = set()
        self._op_span = len(self.spans)
        self.spans.append(["operation", time.perf_counter(), 0.0, None, op_id])
        self._span_stack.append(self._op_span)

    def end_op(self) -> None:
        self.spans[self._op_span][2] = time.perf_counter()
        self._span_stack.pop()
        self.useful_types += len(self._op_types)
        self._op = None

    def _spans_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        count = 0
        for span in self.spans:
            parent = span[3] if span[0] == name else None
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent is not None
        return count

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                v for k, v in self.self_s.items()
                if k.split(".", 1)[0] == module)
        classify_calls = self.calls.get("gltype.modified_type_of", 0)
        get_calls = self.calls.get("store.ExpansionCache.get", 0)
        products = self.calls.get("classcalc.stable_product", 0)
        out.update({
            "classcalc.enumerate_class.elements": self.elements,
            "classcalc.enumerate_class.distinct_args": len(self.enum_args),
            "classcalc.classify.useful_ratio":
                self.useful_types / classify_calls if classify_calls else 0.0,
            "classcalc.structure_constant_at.per_stable_product":
                self._spans_under("classcalc.structure_constant_at",
                                  "classcalc.stable_product") / products
                if products else 0.0,
            "store.load.records_accepted": self.accepted,
            "store.load.records_skipped": self.skipped,
            "store.bytes_read": self.bytes_read,
            "store.bytes_written": self.bytes_written,
            "store.get.hit_ratio":
                self.get_hits / get_calls if get_calls else 0.0,
        })
        return out

    def dump(self, path: Path) -> None:
        """Write the spans and the per-function table once the run ends."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent,
                       "fields": ["name", "start", "end", "parent",
                                  "operation"],
                       "spans": self.spans,
                       "functions": {k: {"calls": self.calls[k],
                                         "self_s": self.self_s[k]}
                                     for k in self.calls}}, handle)
