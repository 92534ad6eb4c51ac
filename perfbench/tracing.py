"""Span tracing of tilealg's public functions, installed from outside.

`Tracer.install()` replaces every public function of the eight layer
modules (and the class members named in METHODS) by a wrapper that
records one span per call: name, layer, start, end, parent span and op
id.  The replacement is made in every tilealg namespace that holds the
function, so calls from one layer into another (homs -> strings,
oracle -> artheory, cli -> everything) get their own spans.  The
program's source is not touched.

Spans are kept in memory as parallel arrays and written out once, by
`write()`.  Per-layer self time (span time minus the time covered by
child spans of other layers) and the layer counters are accumulated
while the spans close.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("algebra", "strings", "artheory", "homs", "oracle", "surface",
          "arcs", "cli")

# Public methods, properties and constructors that other layers call.
# The arrow-list accessors are where the algebra layer's work happens
# when artheory, strings or oracle walk a presentation.
METHODS = {
    "algebra": ("Quiver.from_arrows", "Quiver.arrows", "Quiver.arrows_from",
                "Quiver.arrows_into", "GentlePresentation.from_data",
                "GentlePresentation.vertices", "GentlePresentation.arrows",
                "GentlePresentation.arrows_from", "GentlePresentation.arrows_into"),
    "strings": ("Band.from_letters",),
    "surface": ("Tiling.parse", "Tiling.from_data"),
}

# Per-letter predicates called millions of times from inside the other
# string functions.  Wrapping them would make the tracer the dominant
# cost and hold millions of spans; their time stays with the caller.
UNWRAPPED = frozenset({"strings.valid_pair", "strings.letter_source",
                       "strings.letter_target"})

# Counters reported per layer, besides <layer>.calls/self_s/share.
COUNTERS = (
    "algebra.arrows",
    "strings.enumerated", "strings.validations",
    "artheory.hooks_calls", "artheory.ar_nodes",
    "homs.queries", "homs.pairs_matched", "homs.nonzero_ratio",
    "oracle.realize_s", "oracle.solve_s", "oracle.unknowns", "oracle.equations",
    "surface.tilings", "surface.tiles", "surface.complete_s", "surface.collapse_s",
    "arcs.arcs_built", "arcs.crossings", "arcs.geom_hom_s",
)


def _count_arrows(c, dur, args, result):
    c["algebra.arrows"] += len(result.quiver.sources)


def _count_enumerated(c, dur, args, result):
    c["strings.enumerated"] += len(result)


def _count_ar_nodes(c, dur, args, result):
    c["artheory.ar_nodes"] += len(result.nodes)


def _count_hom(c, dur, args, result):
    c["homs.pairs_matched"] += result.dim
    c["homs.nonzero"] += result.dim > 0


def _count_realize(c, dur, args, result):
    c["oracle.realize_s"] += dur


def _count_oracle(c, dur, args, result):
    p, m, n = args[:3]
    mdim = {v: m.dims.get(v, 0) for v in p.quiver.vertices}
    ndim = {v: n.dims.get(v, 0) for v in p.quiver.vertices}
    c["oracle.solve_s"] += dur
    c["oracle.unknowns"] += sum(mdim[v] * ndim[v] for v in mdim)
    c["oracle.equations"] += sum(ndim[p.quiver.targets[a]] * mdim[p.quiver.sources[a]]
                                 for a in p.quiver.sources)


def _count_tiling(c, dur, args, result):
    c["surface.tilings"] += 1
    c["surface.tiles"] += len(result.tiles)


def _count_complete(c, dur, args, result):
    c["surface.complete_s"] += dur


def _count_collapse(c, dur, args, result):
    c["surface.collapse_s"] += dur


def _count_arc(c, dur, args, result):
    darts = getattr(result, "darts", None)
    if darts is not None:
        c["arcs.arcs_built"] += 1
        c["arcs.crossings"] += len(darts)   # arcs.intersection_number


def _count_geom_hom(c, dur, args, result):
    c["arcs.geom_hom_s"] += dur


# Calls counted on entry, whether they return or raise.
ENTRY_COUNTS = {
    "strings.is_valid_string": "strings.validations",
    "strings.validate_string": "strings.validations",
    "artheory.hooks": "artheory.hooks_calls",
    "homs.hom_dim_detailed": "homs.queries",
}

# Counters read from the arguments and result of a call that returned.
EXIT_HOOKS = {
    "algebra.GentlePresentation.from_data": _count_arrows,
    "strings.enumerate_strings": _count_enumerated,
    "artheory.build_ar_quiver": _count_ar_nodes,
    "homs.hom_dim_detailed": _count_hom,
    "oracle.realize_string_module": _count_realize,
    "oracle.realize_band_module": _count_realize,
    "oracle.hom_dim_oracle": _count_oracle,
    "surface.Tiling.parse": _count_tiling,
    "surface.Tiling.from_data": _count_tiling,
    "surface.complete_to_triangulation": _count_complete,
    "surface.collapse_presentation": _count_collapse,
    "arcs.string_to_arc": _count_arc,
    "arcs.pivot_move": _count_arc,
    "arcs.tau_inverse_arc": _count_arc,
    "arcs.band_to_closed_curve": _count_arc,
    "arcs.hom_dim_geometric": _count_geom_hom,
}


class Tracer:
    def __init__(self):
        self.names = []                  # span name table
        self.name_layer = []             # name id -> layer index
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.stack = []                  # [span id, child time]
        self.op = -1
        self.enabled = False
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counters["homs.nonzero"] = 0
        self.children = []               # span tables of traced child processes
        self._installed = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module."""
        modules = [importlib.import_module(f"tilealg.{m}") for m in LAYERS]
        targets = [importlib.import_module("tilealg")] + modules
        targets += [sys.modules[n] for n in list(sys.modules)
                    if n.startswith("tilealg.") and sys.modules[n] not in targets]
        replace = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNWRAPPED):
                    continue
                replace[fn] = self._wrap(fn, qual, LAYERS.index(layer))
            for dotted in METHODS.get(layer, ()):
                cls_name, meth = dotted.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                qual, index = f"{layer}.{dotted}", LAYERS.index(layer)
                if isinstance(raw, property):
                    wrapped = property(self._wrap(raw.fget, qual, index))
                elif isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, qual, index))
                else:
                    wrapped = self._wrap(raw, qual, index)
                self._installed.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, replace[value])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def _wrap(self, fn, qual, layer):
        name_id = len(self.names)
        self.names.append(qual)
        self.name_layer.append(layer)
        entry_counter = ENTRY_COUNTS.get(qual)
        exit_hook = EXIT_HOOKS.get(qual)
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            span = len(tracer.s_name)
            tracer.s_name.append(name_id)
            tracer.s_parent.append(stack[-1][0] if stack else -1)
            tracer.s_op.append(tracer.op)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            if entry_counter is not None:
                tracer.counters[entry_counter] += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.s_start[span] = start
                tracer.s_end[span] = end
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if exit_hook is not None:
                exit_hook(tracer.counters, dur, args, result)
                if stack:
                    # keep the counting out of the caller's self time
                    stack[-1][1] += clock() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- results -------------------------------------------------------------

    def merge(self, summary):
        """Add the summary() of a tracer that ran in another process."""
        for i, layer in enumerate(LAYERS):
            self.calls[i] += summary["calls"][layer]
            self.self_s[i] += summary["self_s"][layer]
        for k, v in summary["counters"].items():
            self.counters[k] += v

    def summary(self):
        return {"calls": dict(zip(LAYERS, self.calls)),
                "self_s": dict(zip(LAYERS, self.self_s)),
                "counters": dict(self.counters)}

    def metrics(self, traced_wall_s):
        """The per-layer metric values, by name."""
        out = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[i]
            out[f"{layer}.self_s"] = self.self_s[i]
            out[f"{layer}.share"] = self.self_s[i] / traced_wall_s if traced_wall_s else 0.0
        c = self.counters
        for k in COUNTERS:
            out[k] = c[k]
        queries = c["homs.queries"]
        out["homs.nonzero_ratio"] = c["homs.nonzero"] / queries if queries else 0.0
        return out

    def spans(self):
        return {"names": self.names, "layers": list(LAYERS),
                "name_layer": self.name_layer,
                "name": self.s_name.tolist(), "start": self.s_start.tolist(),
                "end": self.s_end.tolist(), "parent": self.s_parent.tolist(),
                "op": self.s_op.tolist(), "children": self.children}

    def write(self, path, extra=None):
        """Write every span, column by column, as gzipped JSON."""
        doc = self.spans()
        doc.update(extra or {})
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
