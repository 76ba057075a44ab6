"""Per-layer counters and timers for the traced benchmark passes.

Installed from outside: ``Tracer.installed()`` swaps anifield's public
functions (in every anifield module that imported them), the ``CHECKS``
entries, ``numpy.einsum`` and three methods of ``TensorField`` and
``ConicDomain`` for timing wrappers, and puts every original back on exit.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time of the spans it
encloses; ``.s`` metrics are the time spent inside the outermost span of a
layer, so nested stencils are not counted twice.
"""

import contextlib
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

# layer name -> (module, attribute) of the public function to wrap
FUNCTIONS = {
    "fields.stencil": ("anifield.fields", "_stencil"),
    "fields.pivot_inverse": ("anifield.fields", "pivot_inverse"),
    "connections.geodesic_integrate": ("anifield.connections",
                                       "geodesic_integrate"),
    "atlas.coherence_defect": ("anifield.atlas", "coherence_defect"),
    "functionals.evaluate_action": ("anifield.functionals",
                                    "evaluate_action"),
    "catalog.get_example": ("anifield.catalog", "get_example"),
    "cli.canonical_json": ("anifield.cli", "canonical_json"),
}

CHECK_NAMES = ("canonical_spray_oracle", "cocycle_coherence", "euler",
               "functional_laws", "geodesic_conservation", "ladder_roundtrip",
               "landsberg_kernel", "legendre_residue", "linear_roundtrip",
               "signature_table", "torsion_residue", "wick_identity")

# metric name -> unit, in the order they are printed
METRICS = {
    "fields.call.count": "count",
    "fields.call.top_count": "count",
    "fields.call.per_top": "ratio",
    "fields.call.self_s": "s",
    "fields.memo.hit_rate": "ratio",
    "fields.node.built": "count",
    "fields.node.self_s": "s",
    "fields.einsum.count": "count",
    "fields.einsum.self_s": "s",
    "fields.stencil.count": "count",
    "fields.stencil.s": "s",
    "fields.stencil.depth_max": "depth",
    "fields.pivot_inverse.count": "count",
    "fields.pivot_inverse.s": "s",
    "fields.sample.count": "count",
    "fields.sample.s": "s",
    **{f"checks.{name}.s": "s" for name in CHECK_NAMES},
    "connections.geodesic_integrate.s": "s",
    "atlas.coherence_defect.s": "s",
    "functionals.evaluate_action.count": "count",
    "functionals.evaluate_action.s": "s",
    "catalog.get_example.s": "s",
    "cli.canonical_json.s": "s",
}

# Counts that must repeat exactly between runs with the same seed.
EXACT = ("fields.call.count", "fields.call.top_count", "fields.memo.hit_rate",
         "fields.node.built", "fields.einsum.count", "fields.stencil.count",
         "fields.stencil.depth_max", "fields.pivot_inverse.count",
         "fields.sample.count", "functionals.evaluate_action.count")


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.depth_max = defaultdict(int)
        self.stack = []        # child time of every open span
        self.computed = []     # per open TensorField call: did fn run?
        self.hits = 0
        self.built = 0

    def span(self, layer, fn, *args, **kwargs):
        depth = self.depth[layer] + 1
        self.depth[layer] = depth
        if depth > self.depth_max[layer]:
            self.depth_max[layer] = depth
        self.stack.append(0.0)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = _perf() - t0
            self.self_s[layer] += spent - self.stack.pop()
            if self.stack:
                self.stack[-1] += spent
            self.depth[layer] = depth - 1
            if depth == 1:
                self.outer_s[layer] += spent
            self.count[layer] += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, fn):
        span = self.span

        def traced(*args, **kwargs):
            return span(layer, fn, *args, **kwargs)
        return traced

    def _tensor_call(self, original):
        tracer = self

        def __call__(field, x, y):
            if not tracer.depth["fields.call"]:
                tracer.count["fields.call.top"] += 1
            tracer.computed.append(False)
            try:
                return tracer.span("fields.call", original, field, x, y)
            finally:
                if not tracer.computed.pop():
                    tracer.hits += 1
        return __call__

    def _tensor_init(self, original):
        tracer = self

        def __init__(field, *args, **kwargs):
            original(field, *args, **kwargs)
            tracer.built += 1
            fn = getattr(field, "_fn", None)
            if fn is not None:
                field._fn = tracer._node_fn(fn)
        return __init__

    def _node_fn(self, fn):
        tracer = self

        def node(*args, **kwargs):
            tracer.computed[-1] = True
            return tracer.span("fields.node", fn, *args, **kwargs)
        return node

    def _einsum(self, original):
        tracer = self

        def einsum(*args, **kwargs):
            if tracer.depth["fields.call"]:
                return tracer.span("fields.einsum", original, *args, **kwargs)
            return original(*args, **kwargs)
        return einsum

    @contextlib.contextmanager
    def installed(self):
        import numpy
        from anifield.checks import CHECKS
        from anifield.fields import ConicDomain, TensorField

        undo = []

        def swap(owner, name, value):
            undo.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

        for layer, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "anifield" and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            swap(mod, key, wrapped)
        checks = dict(CHECKS)
        CHECKS.update({name: self._wrap(f"checks.{name}", fn)
                       for name, fn in checks.items()})
        swap(numpy, "einsum", self._einsum(numpy.einsum))
        swap(TensorField, "__call__", self._tensor_call(TensorField.__call__))
        swap(TensorField, "__init__", self._tensor_init(TensorField.__init__))
        swap(ConicDomain, "sample",
             self._wrap("fields.sample", ConicDomain.sample))
        try:
            yield self
        finally:
            for owner, name, value in reversed(undo):
                setattr(owner, name, value)
            CHECKS.update(checks)

    def metrics(self):
        calls = self.count["fields.call"]
        top = self.count["fields.call.top"]
        out = {
            "fields.call.count": calls,
            "fields.call.top_count": top,
            "fields.call.per_top": calls / top if top else 0.0,
            "fields.call.self_s": self.self_s["fields.call"],
            "fields.memo.hit_rate": self.hits / calls if calls else 0.0,
            "fields.node.built": self.built,
            "fields.node.self_s": self.self_s["fields.node"],
            "fields.einsum.count": self.count["fields.einsum"],
            "fields.einsum.self_s": self.self_s["fields.einsum"],
            "fields.stencil.count": self.count["fields.stencil"],
            "fields.stencil.s": self.outer_s["fields.stencil"],
            "fields.stencil.depth_max": self.depth_max["fields.stencil"],
            "fields.pivot_inverse.count": self.count["fields.pivot_inverse"],
            "fields.pivot_inverse.s": self.outer_s["fields.pivot_inverse"],
            "fields.sample.count": self.count["fields.sample"],
            "fields.sample.s": self.outer_s["fields.sample"],
        }
        for name in CHECK_NAMES:
            out[f"checks.{name}.s"] = self.outer_s[f"checks.{name}"]
        for layer in ("connections.geodesic_integrate",
                      "atlas.coherence_defect", "functionals.evaluate_action",
                      "catalog.get_example", "cli.canonical_json"):
            out[f"{layer}.s"] = self.outer_s[layer]
        out["functionals.evaluate_action.count"] = (
            self.count["functionals.evaluate_action"])
        return {name: out[name] for name in METRICS}
