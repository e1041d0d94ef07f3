"""Span tracing around prymsplit's layer boundaries, from outside the package.

The package imports functions by name, so each traced function is rebound in
its defining module and in every module that imported it.  ``install`` and
``uninstall`` swap the bindings, which lets the benchmark trace every other
op and time the rest untraced in the same process.  Spans stay in memory:
``[name, start, end, parent index, op index, info]``, where op index -1
marks set-up.  A span's self time is its duration minus its direct
children's.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

# (span name, defining module, attribute, other modules that import it by name)
SITES = (
    ("cli.main", "cli", "main", ()),
    ("prym.validate", "prym", "validate", ("zeta", "cli")),
    ("prym.split", "prym", "split", ("zeta", "cli")),
    ("prym.deform", "prym", "deform", ("cli",)),
    ("resultants.disc_ternary_quartic", "resultants", "disc_ternary_quartic", ("prym", "cli")),
    ("linalg.rank_in_field", "linalg", "rank_in_field", ("resultants",)),
    ("linalg.det_in_field", "linalg", "det_in_field", ("resultants",)),
    ("counting.count_plane_quartic", "counting", "count_plane_quartic", ("zeta",)),
    ("counting.count_weighted", "counting", "count_weighted", ("zeta",)),
    ("counting.count_bruin_cover", "counting", "count_bruin_cover", ("zeta",)),
    ("zeta.verify_split", "zeta", "verify_split", ()),
    ("zeta.verify_bruin", "zeta", "verify_bruin", ()),
    ("zeta.lpoly_from_counts", "zeta", "lpoly_from_counts", ()),
    # resultants._lifted_field imports it from fields at call time
    ("fields.build_extension", "fields", "build_extension", ("zeta", "cli")),
)

# position of the counting field among each kernel's positional arguments
_FIELD_ARG = {
    "counting.count_plane_quartic": 1,
    "counting.count_weighted": 2,
    "counting.count_bruin_cover": 3,
}
KERNEL_DEGREES = {"counting.count_plane_quartic": (1, 2, 3),
                  "counting.count_bruin_cover": (1, 2, 3, 4, 5)}
SHARE_LAYERS = ("counting.count_plane_quartic", "counting.count_bruin_cover",
                "resultants.disc_ternary_quartic")


def _module(name):
    return importlib.import_module(f"prymsplit.{name}")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._bindings = []  # (owner, attribute, original, traced)
        self._built_fields = {}  # id -> field, every field build_extension returned
        for name, home, attr, importers in SITES:
            original = getattr(_module(home), attr)
            traced = self._traced(name, original)
            for owner in (home,) + importers:
                module = _module(owner)
                if getattr(module, attr, None) is original:
                    self._bindings.append((module, attr, original, traced))
        fields = _module("fields")
        owner = fields._FiniteField
        original = owner._build_square_tables
        self._bindings.append((owner, "_build_square_tables", original,
                               self._traced("fields.square_tables", original)))

    def install(self) -> None:
        for owner, attr, _, traced in self._bindings:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _traced(self, name, fn):
        spans, stack = self.spans, self._stack
        field_arg = _FIELD_ARG.get(name)
        built = self._built_fields

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if field_arg is not None:
                field = args[field_arg] if len(args) > field_arg else kwargs.get("field")
                if field is not None:
                    span[5] = {"k": field.k, "q": field.q}
            elif name == "fields.build_extension":
                # a field object not returned before was built by this call
                span[5] = {"k": result.k, "q": result.q, "cold": id(result) not in built}
                built[id(result)] = result
            elif name == "fields.square_tables":
                span[5] = {"q": args[0].q}
            return result

        return traced

    def layer_metrics(self, traced_times, untraced_times) -> dict:
        """Per-layer metrics; times are per traced op unless named cold_*."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op, info in spans:
            if parent >= 0:
                child[parent] += end - start
        n_ops = len(traced_times)
        op_total = sum(traced_times)
        incl, calls, self_by_name, work = {}, {}, {}, {}
        cold_s = square_s = 0.0
        cold_calls = entries = hits = lookups = 0
        for index, (name, start, end, parent, op, info) in enumerate(spans):
            dur = end - start
            if info is None and name.startswith("fields."):
                continue  # the call raised
            if name == "fields.square_tables":
                square_s += dur
                entries += 2 * info["q"]
                continue
            if name == "fields.build_extension" and info["cold"]:
                cold_s += dur
                cold_calls += 1
                entries += 3 * info["q"] if info["k"] > 1 else 0
            if op < 0:
                continue
            if name == "fields.build_extension":
                lookups += 1
                hits += not info["cold"]
            keys = [name]
            if name in KERNEL_DEGREES and info:
                keys.append(f"{name}.m{info['k']}")
            for key in keys:
                incl[key] = incl.get(key, 0.0) + dur
                calls[key] = calls.get(key, 0) + 1
            self_by_name[name] = self_by_name.get(name, 0.0) + dur - child[index]
            if info and name in _FIELD_ARG:
                q = info["q"]
                work[name] = work.get(name, 0) + (q * q + q + 1 if name.endswith("bruin_cover") else q)

        def per_op(value):
            return value / n_ops if n_ops else 0.0

        def rate(name):
            return work.get(name, 0) / incl[name] if incl.get(name) else 0.0

        def layer_self(prefix):
            return per_op(sum(v for k, v in self_by_name.items() if k.startswith(prefix + ".")))

        m = {}
        pq, wt, bc = ("counting.count_plane_quartic", "counting.count_weighted",
                      "counting.count_bruin_cover")
        m[f"{pq}.s"] = per_op(incl.get(pq, 0.0))
        m[f"{pq}.calls"] = per_op(calls.get(pq, 0))
        m[f"{pq}.rows_per_s"] = rate(pq)
        m[f"{wt}.s"] = per_op(incl.get(wt, 0.0))
        m[f"{wt}.evals_per_s"] = rate(wt)
        m[f"{bc}.s"] = per_op(incl.get(bc, 0.0))
        m[f"{bc}.calls"] = per_op(calls.get(bc, 0))
        m[f"{bc}.points_per_s"] = rate(bc)
        for name, degrees in KERNEL_DEGREES.items():
            for k in degrees:
                m[f"{name}.m{k}.s"] = per_op(incl.get(f"{name}.m{k}", 0.0))
        disc = "resultants.disc_ternary_quartic"
        m[f"{disc}.s"] = per_op(incl.get(disc, 0.0))
        m[f"{disc}.calls"] = per_op(calls.get(disc, 0))
        for layer in ("resultants", "zeta"):
            m[f"{layer}.self_s"] = layer_self(layer)
        for name in ("linalg.rank_in_field", "linalg.det_in_field", "zeta.lpoly_from_counts"):
            m[f"{name}.s"] = per_op(incl.get(name, 0.0))
        for name in ("prym.validate", "prym.split", "prym.deform", "cli.main"):
            m[f"{name}.self_s"] = per_op(self_by_name.get(name, 0.0))
        for name in SHARE_LAYERS:
            m[f"{name}.share"] = incl.get(name, 0.0) / op_total if op_total else 0.0
        m["fields.build_extension.cold_s"] = cold_s
        m["fields.build_extension.cold_calls"] = cold_calls
        m["fields.build_extension.hit_ratio"] = hits / lookups if lookups else 0.0
        m["fields.square_tables.cold_s"] = square_s
        m["fields.table_entries"] = entries
        m["op.traced_ms"] = 1000 * statistics.fmean(traced_times) if traced_times else 0.0
        m["trace.overhead"] = (statistics.fmean(traced_times) / statistics.fmean(untraced_times)
                               if traced_times and untraced_times else 0.0)
        return m
