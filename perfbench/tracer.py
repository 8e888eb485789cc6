"""Outside-in tracer for the traced benchmark run.

It replaces lievessiot's public functions and methods with wrappers that
record a span per call: name, start, end and the enclosing span.  Spans
stay in memory, grouped by case, and are written out when the run ends.
A name is patched wherever it is looked up: every lievessiot module that
holds the same function object (``homspace.gauge_transform`` as well as
``automorphic.gauge_transform``), and every class attribute that holds
the same method (``RatFunc.__radd__`` as well as ``RatFunc.__add__``).

Per span name it keeps calls, busy time (the union of its spans, so a
recursive call is not counted twice) and self time (duration minus the
part its child spans cover).  Operations too small for a span, such as
Q(i) scalar arithmetic, are only counted.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

# (module, attribute, span name): module-level functions
FUNCTIONS = [
    ("automorphic", "log_deriv", "automorphic.log_deriv"),
    ("automorphic", "adjoint", "automorphic.adjoint"),
    ("automorphic", "gauge_transform", "automorphic.gauge_transform"),
    ("homspace", "reduce_by_flag", "homspace.reduce_by_flag"),
    ("homspace", "reduce_by_plane", "homspace.reduce_by_plane"),
    ("homspace", "flag_coords", "homspace.flag_coords"),
    ("homspace", "plucker_coords", "homspace.plucker_coords"),
    ("homspace", "flag_check_solution", "homspace.flag_check_solution"),
    ("homspace", "riccati_check_solution", "homspace.riccati_check_solution"),
    ("homspace", "flag_table", "homspace.flag_table"),
    ("homspace", "riccati_table", "homspace.riccati_table"),
    ("darboux", "so3_pushforward_check", "darboux.so3_pushforward_check"),
    ("elliptic", "chord_tangent_add", "elliptic.chord_tangent_add"),
    ("elliptic", "pendulum_normal_form", "elliptic.pendulum_normal_form"),
    ("parsing", "parse_matrix", "parsing.parse_matrix"),
    ("parsing", "parse_ratfunc", "parsing.parse_ratfunc"),
    ("parsing", "format_ratfunc", "parsing.format_ratfunc"),
    ("parsing", "format_matrix", "parsing.format_matrix"),
]

# (module, class, methods, span name): each method and its aliases share one name
METHODS = [
    ("ratfunc", "Poly", ("gcd",), "ratfunc.Poly.gcd"),
    ("ratfunc", "Poly", ("__mul__", "__rmul__"), "ratfunc.Poly.mul"),
    ("ratfunc", "Poly", ("divmod",), "ratfunc.Poly.divmod"),
    ("ratfunc", "RatFunc", ("__add__", "__sub__", "__rsub__"), "ratfunc.RatFunc.add"),
    ("ratfunc", "RatFunc", ("__mul__",), "ratfunc.RatFunc.mul"),
    ("ratfunc", "RatFunc", ("derive",), "ratfunc.RatFunc.derive"),
    ("matrix", "MatK", ("__mul__", "__rmul__"), "matrix.MatK.mul"),
    ("matrix", "MatK", ("inverse",), "matrix.MatK.inverse"),
    ("matrix", "MatK", ("det",), "matrix.MatK.det"),
    ("matrix", "MatK", ("lu_flag_decompose",), "matrix.MatK.lu_flag_decompose"),
]

# (module, class, methods, counter name): counted, no span
COUNTED = [
    ("scalars", "GaussianRational",
     ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__neg__"),
     "scalars.GaussianRational.ops"),
    ("automorphic", "GroupElement", ("__init__",), "automorphic.GroupElement.det_checks"),
]

SPAN_NAMES = [name for *_, name in FUNCTIONS] + [name for *_, name in METHODS]
GCD_HIGH_DEGREE = 16


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, busy, self
        self.counts = {name: 0 for *_, name in COUNTED}
        self.counts.update({"ratfunc.Poly.gcd.coprime": 0, "ratfunc.Poly.gcd.calls.deg_ge16": 0})
        self.cases = []  # (case id, wall seconds, top-level seconds, spans)
        self._stack = []  # open frames: [span id, seconds covered by children]
        self._spans = []
        self._top = 0.0
        self._ids = itertools.count(1)
        self._depth = {name: [0] for name in SPAN_NAMES}  # open spans per name
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stats = self.stats[name]
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        depth = self._depth[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                dur = end - start
                stats[0] += 1
                stats[2] += dur - frame[1]
                if not depth[0]:
                    stats[1] += dur
                if parent is None:
                    self._top += dur
                else:
                    parent[1] += dur
                self._spans.append((frame[0], name, parent and parent[0], start, end))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_gcd(self, args, result):
        if result.degree == 0:
            self.counts["ratfunc.Poly.gcd.coprime"] += 1
        if max(args[0].degree, args[1].degree) >= GCD_HIGH_DEGREE:
            self.counts["ratfunc.Poly.gcd.calls.deg_ge16"] += 1

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "lievessiot" or k.startswith("lievessiot."))]
        for mod, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"lievessiot.{mod}"], attr)
            wrapper = self._span(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)
        for mod, cls_name, attrs, name in METHODS + COUNTED:
            cls = getattr(sys.modules[f"lievessiot.{mod}"], cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                if name in self.counts:
                    wrapper = self._counter(name, original)
                else:
                    observe = self._observe_gcd if name == "ratfunc.Poly.gcd" else None
                    wrapper = self._span(name, original, observe)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        self._set(cls, key, wrapper)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- cases -----------------------------------------------------------

    def begin_case(self):
        self._spans = []
        self._top = 0.0

    def end_case(self, case_id, wall):
        self.cases.append((case_id, wall, self._top, self._spans))

    def summary(self):
        """JSON-able totals: per-name [calls, busy, self], counters, per-case coverage."""
        return {"stats": self.stats, "counts": self.counts,
                "coverage": [top / wall for _, wall, top, _ in self.cases if wall > 0]}

    def write(self, path):
        """One JSON line per case: its wall time and spans [id, name, parent, start, end]."""
        with open(path, "w", encoding="utf-8") as fh:
            for case_id, wall, top, spans in self.cases:
                fh.write(json.dumps({"case": case_id, "wall_s": wall, "top_s": top,
                                     "spans": spans}, separators=(",", ":")) + "\n")
