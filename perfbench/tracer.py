"""Span tracer for the traced benchmark run.

It wraps public functions of the package from outside: every binding of
each listed function is replaced, i.e. the defining module's attribute,
every `from .x import f` alias in the other package modules, and the
class attribute for methods.  Patching only the defining module would
miss calls made through the aliases.

Each call made while the tracer is active records a span (name, start,
end, parent span, case id).  Per-name call counts, total time and self
time (duration minus the time covered by child spans) are aggregated as
the spans close, so every call counts even after the in-memory span log
reaches its cap.  Tracing is active only around the timed call of each
case, never during input generation.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter

PACKAGE = "functor_homology"

# (module, attribute, metric prefix); an attribute "Cls.meth" is a method.
TARGETS = (
    ("intlinalg", "snf", "intlinalg.snf"),
    ("intlinalg", "kernel_basis", "intlinalg.kernel_basis"),
    ("intlinalg", "solve", "intlinalg.solve"),
    ("fplinalg", "rref", "fplinalg.rref"),
    ("fplinalg", "solve", "fplinalg.solve"),
    ("fplinalg", "solve_matrix", "fplinalg.solve_matrix"),
    ("fplinalg", "kernel_basis", "fplinalg.kernel_basis"),
    ("fplinalg", "FpMatrix.mul_vec", "fplinalg.mul_vec"),
    ("modules", "ModMor.__init__", "modules.ModMor.init"),
    ("modules", "ModMor.__eq__", "modules.ModMor.eq"),
    ("modules", "ModuleObj.__eq__", "modules.ModuleObj.eq"),
    ("modules", "kernel", "modules.kernel"),
    ("modules", "cokernel", "modules.cokernel"),
    ("modules", "simplify", "modules.simplify"),
    ("modules", "free_cover", "modules.free_cover"),
    ("diagrams", "check_diagram", "diagrams.check_diagram"),
    ("diagrams", "Diagram.__init__", "diagrams.Diagram.init"),
    ("diagrams", "d_kernel", "diagrams.d_kernel"),
    ("diagrams", "d_cokernel", "diagrams.d_cokernel"),
    ("diagrams", "d_exactness_report", "diagrams.d_exactness_report"),
    ("functors", "exponent_apply", "functors.exponent_apply"),
    ("tensorops", "base_change_data", "tensorops.base_change_data"),
    ("complexes", "homology_at", "complexes.homology_at"),
    ("derived", "resolve", "derived.resolve"),
    ("derived", "les_data", "derived.les_data"),
    ("derived", "horseshoe", "derived.horseshoe"),
    ("bifunctor", "switched_row", "bifunctor.switched_row"),
    ("bifunctor", "diagram_ladder", "bifunctor.diagram_ladder"),
    ("bifunctor", "diagram_ladder_switched", "bifunctor.diagram_ladder_switched"),
    ("spectral", "ss_pages", "spectral.ss_pages"),
    ("spectral", "ce_grid", "spectral.ce_grid"),
    ("spectral", "grothendieck_ss", "spectral.grothendieck_ss"),
    ("dsl", "parse", "dsl.parse"),
    ("runner", "run", "runner.run"),
    ("runner", "emit", "runner.emit"),
)


class _BuildCounter:
    """A call is a build when it returns an object no earlier call
    returned, i.e. the object's cache held no entry for it."""

    def __init__(self, tracer, metric):
        self.tracer = tracer
        self.metric = metric
        self.seen = {}

    def after(self, args, result):
        ref = self.seen.get(id(result))
        if ref is not None and ref() is result:
            return
        self.seen[id(result)] = weakref.ref(result)
        self.tracer.extra[self.metric] += 1


def _snf_bits(tracer):
    def after(args, result):
        bits = max((abs(x).bit_length() for m in (result.U, result.V)
                    for row in m.data for x in row), default=0)
        if bits > tracer.extra["intlinalg.snf.max_bits"]:
            tracer.extra["intlinalg.snf.max_bits"] = bits
    return after


def _rref_cells(tracer):
    def before(args):
        tracer.extra["fplinalg.rref.cells"] += args[0].rows * args[0].cols
    return before


class Tracer:
    def __init__(self, max_spans):
        self.max_spans = max_spans
        self.prefixes = [t[2] for t in TARGETS]
        n = len(TARGETS)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.extra = {"intlinalg.snf.max_bits": 0, "fplinalg.rref.cells": 0,
                      "derived.resolve.builds": 0, "derived.les_data.builds": 0}
        self.bindings = {}  # prefix -> number of bindings replaced
        self.missing = []  # prefixes whose function no longer exists
        self.active = False
        self.case = -1
        self.stack = []  # open spans: [span id, time covered by children]
        self.next_id = 0
        self.dropped = 0
        self.sp_id = array("q")
        self.sp_name = array("i")
        self.sp_parent = array("q")
        self.sp_case = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]
        hooks = {"intlinalg.snf": (None, _snf_bits(self)),
                 "fplinalg.rref": (_rref_cells(self), None),
                 "derived.resolve": (None, _BuildCounter(
                     self, "derived.resolve.builds").after),
                 "derived.les_data": (None, _BuildCounter(
                     self, "derived.les_data.builds").after)}
        for idx, (modname, attr, prefix) in enumerate(TARGETS):
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            before, after = hooks.get(prefix, (None, None))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    self.missing.append(prefix)
                    continue
                setattr(cls, meth, self._wrap(vars(cls)[meth], idx, before, after))
                self.bindings[prefix] = 1
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                self.missing.append(prefix)
                continue
            wrapper = self._wrap(orig, idx, before, after)
            count = 0
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        count += 1
            self.bindings[prefix] = count
        return self

    def unpatched_references(self):
        """Places that still hold an original (unwrapped) target function:
        containers at module level and default arguments.  Such a
        reference would escape the tracer."""
        originals = {}
        for (modname, attr, prefix) in TARGETS:
            if "." in attr or prefix in self.missing:
                continue
            wrapped = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr)
            originals[id(wrapped.__wrapped__)] = prefix
        found = []
        for name, m in sorted(sys.modules.items()):
            if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in vars(m).items():
                items = []
                if isinstance(value, dict):
                    items = list(value.values())
                elif isinstance(value, (list, tuple, set, frozenset)):
                    items = list(value)
                elif callable(value):
                    items = list(getattr(value, "__defaults__", None) or ())
                    items += list((getattr(value, "__kwdefaults__", None) or {}).values())
                for item in items:
                    if id(item) in originals:
                        found.append(f"{name}.{key} -> {originals[id(item)]}")
        return found

    def _wrap(self, fn, idx, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.total_s[idx] += dur
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer._record(sid, idx, parent, start, end)
            if after is not None:
                t_hook = perf_counter()
                after(args, result)
                if stack:
                    # keep the hook's own cost out of the caller's self time
                    stack[-1][1] += perf_counter() - t_hook
            return result

        return wrapper

    def _record(self, sid, idx, parent, start, end):
        if len(self.sp_id) >= self.max_spans:
            self.dropped += 1
            return
        self.sp_id.append(sid)
        self.sp_name.append(idx)
        self.sp_parent.append(parent)
        self.sp_case.append(self.case)
        self.sp_start.append(start)
        self.sp_end.append(end)

    # -- results ------------------------------------------------------------

    def stats(self):
        """Every aggregated figure, keyed `<module>.<function>.<stat>`."""
        out = {}
        for idx, prefix in enumerate(self.prefixes):
            out[f"{prefix}.calls"] = self.calls[idx]
            out[f"{prefix}.self_s"] = self.self_s[idx]
            out[f"{prefix}.total_s"] = self.total_s[idx]
        out.update(self.extra)
        for fn in ("resolve", "les_data"):
            calls = out[f"derived.{fn}.calls"]
            builds = out[f"derived.{fn}.builds"]
            out[f"derived.{fn}.hit_ratio"] = (calls - builds) / calls if calls else 0.0
        return out

    def spans(self):
        """The span log in columns, plus what the columns mean."""
        return {"names": self.prefixes,
                "columns": ["id", "name", "parent", "case", "start_s", "end_s"],
                "id": self.sp_id.tolist(), "name": self.sp_name.tolist(),
                "parent": self.sp_parent.tolist(), "case": self.sp_case.tolist(),
                "start_s": self.sp_start.tolist(), "end_s": self.sp_end.tolist(),
                "kept": len(self.sp_id), "dropped": self.dropped}
