"""Span tracing of qweights from outside the package.

`install()` wraps the public functions and methods of each layer and
replaces every reference to the original in every loaded qweights module
and class.  The modules import each other's functions by name (`lusztig`
imports `weyl_elements`, `orbit` and `dominant_representative`; `cli` and
`identities` import `lusztig_q_analogue` and `character`), so patching only
the defining module would miss the calls that matter.

Spans (name, start, end, parent, request id) are kept in flat arrays with
integer nanosecond clocks, so a self time (duration minus the durations of
the direct children) can never come out negative by rounding.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (module, attribute, span name)
FUNCTIONS = (
    ("qweights.root_system", "build_root_system", "root_system.build"),
    ("qweights.weyl", "weyl_elements", "weyl.elements"),
    ("qweights.weyl", "dominant_representative", "weyl.dominant_rep"),
    ("qweights.weyl", "orbit", "weyl.orbit"),
    ("qweights.lusztig", "lusztig_q_analogue", "lusztig.q_analogue"),
    ("qweights.lusztig", "character", "lusztig.character"),
    ("qweights.lusztig", "klimyk_decompose", "lusztig.klimyk"),
    ("qweights.lusztig", "q_analogue_by_induction", "lusztig.induction"),
    ("qweights.lusztig", "q_analogue_via_kernel", "lusztig.via_kernel"),
    ("qweights.identities", "verify_adjoint", "identities.adjoint"),
    ("qweights.identities", "verify_little_adjoint", "identities.little_adjoint"),
    ("qweights.identities", "verify_main_identity", "identities.main"),
    ("qweights.identities", "verify_minuscule", "identities.minuscule"),
    ("qweights.identities", "verify_coxeter_identity", "identities.coxeter"),
    ("qweights.identities", "verify_height_duality", "identities.height_duality"),
    ("qweights.identities", "verify_induction_lemma", "identities.induction"),
    ("qweights.identities", "verify_subregular_identity", "identities.subregular"),
    ("qweights.cli", "main", "cli.main"),
)

# (module, class, method, span name); class aliases such as
# QPoly.__rmul__ = __mul__ are replaced too.
METHODS = (
    ("qweights.root_system", "RootSystem", "weight_to_root_coords",
     "root_system.to_root_coords"),
    ("qweights.weyl", "WeylElement", "act", "weyl.act"),
    ("qweights.qkostant", "PartitionEngine", "compute", "qkostant.compute"),
    ("qweights.poly", "QPoly", "__mul__", "poly.mul"),
    ("qweights.poly", "QPoly", "exact_div", "poly.exact_div"),
)

# Generators get a counter instead of a span: a span around a generator
# call would close before the elements are produced.
COUNTED_GENERATORS = (
    ("qweights.weyl", "enumerate_weyl", "weyl.elements.count"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.request_id = 0
        self.counts = dict.fromkeys((n for *_, n in COUNTED_GENERATORS), 0)
        self._originals = []

    def span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def counted(self, key, gen_fn):
        counts = self.counts

        def traced(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counts[key] += 1
                yield item

        traced.__wrapped__ = gen_fn
        return traced

    def install(self):
        """Wrap every layer and re-point every reference to the originals."""
        for mod, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(mod), attr)
            self._replace_everywhere(orig, self.span(name, orig))
        for mod, attr, key in COUNTED_GENERATORS:
            orig = getattr(importlib.import_module(mod), attr)
            self._replace_everywhere(orig, self.counted(key, orig))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod), cls_name)
            orig = cls.__dict__[attr]
            wrapped = self.span(name, orig)
            for key, value in list(vars(cls).items()):
                if value is orig:
                    setattr(cls, key, wrapped)
            self._originals.append(orig)
        self.check_installed()

    def _replace_everywhere(self, orig, wrapped):
        for module in _qweights_modules():
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
        self._originals.append(orig)

    def check_installed(self):
        """Raise if any loaded qweights module or class still holds an original."""
        originals = {id(o) for o in self._originals}
        for module in _qweights_modules():
            holders = [module] + [v for v in vars(module).values()
                                  if isinstance(v, type)
                                  and v.__module__ == module.__name__]
            for holder in holders:
                for key, value in vars(holder).items():
                    if id(value) in originals:
                        raise RuntimeError(
                            f"{holder.__name__}.{key} escaped the tracer")

    def layers(self):
        """Per span name: calls, total and self nanoseconds, leaf calls."""
        n = len(self.name_id)
        child_ns = [0] * n
        has_child = bytearray(n)
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
                has_child[p] = 1
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0,
                      "leaf_calls": 0, "min_self_ns": 0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            self_ns = dur - child_ns[i]
            if row["calls"] == 0 or self_ns < row["min_self_ns"]:
                row["min_self_ns"] = self_ns
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += self_ns
            row["leaf_calls"] += not has_child[i]
        return out

    def summary(self):
        return {"layers": self.layers(), "counts": dict(self.counts),
                "spans": len(self.name_id),
                "requests": len(set(self.request))}


def _qweights_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qweights" or name.startswith("qweights."))]
