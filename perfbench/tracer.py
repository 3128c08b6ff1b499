"""Layer spans and counters for a traced benchmark run.

The tracer wraps the public functions of the six measured layers from the
benchmark's side; the library itself is not modified.  A module-level
function is rebound in every module that bound it with ``from .x import
y``; a method is replaced on its class.  ``uninstall`` restores every name.

Each call records a span (op, id, parent id, name, start, end, self time).
Self time is the span's duration minus the durations of its child spans.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("hahn", "valpoly", "apprtype", "envelope", "reldeg", "tamegal")

# Methods of the layers' public classes that carry the work, with their span
# names.  Cheap accessors (val, coeff, tail) stay unwrapped: their cost shows
# in the self time of their callers.
METHODS = {
    "hahn": {
        "Series": {
            "make": "make",
            "__add__": "add",
            "__sub__": "sub",
            "__neg__": "neg",
            "__mul__": "mul",
            "__pow__": "pow",
            "scale": "scale",
            "shift": "shift",
            "truncate": "truncate",
        }
    },
    "valpoly": {
        "ValPoly": {
            "make": "make",
            "__add__": "add",
            "__sub__": "sub",
            "__mul__": "mul",
            "scale": "scale",
            "__call__": "horner",
            "compose": "compose",
        }
    },
    "apprtype": {
        "ApproxType": {
            "__init__": "build",
            "gamma": "gamma",
            "gammas": "gammas",
            "distance": "distance",
            "taylor_intercepts": "intercepts",
            "fixes_value": "fixes_value",
        }
    },
    "envelope": {},
    "reldeg": {},
    "tamegal": {
        "TameCyclic": {"make": "group"},
        "GaloisElem": {"__call__": "act"},
    },
}

# Short span names of module-level functions; any other public function of
# a layer module is wrapped under its own name.
FUNCTIONS = {
    ("valpoly", "taylor_coefficients"): "taylor",
    ("valpoly", "formal_derivative"): "derivative",
    ("apprtype", "pushed_forward"): "push",
    ("envelope", "eventual_order"): "order",
    ("envelope", "eventual_argmin"): "argmin",
    ("reldeg", "sampled_law"): "sampled",
    ("reldeg", "approx_coefficient"): "approx_coeff",
    ("reldeg", "reduced_factor_shape"): "factor_shape",
    ("reldeg", "check_multiplicativity"): "mult",
    ("tamegal", "valuation_independence_witness"): "witness",
}

# Per-layer metrics reported by a traced run, in report order.  ``calls``
# and ``self_s`` refer to the span of that name; ``<layer>.self_s`` is the
# self time of every span of the layer.
CALLS = (
    "hahn.add", "hahn.mul", "hahn.make", "hahn.invert",
    "valpoly.horner", "valpoly.taylor", "valpoly.compose", "valpoly.derivative",
    "apprtype.build", "apprtype.gamma", "apprtype.intercepts", "apprtype.push",
    "envelope.order", "envelope.argmin",
    "reldeg.rel_degree", "reldeg.sampled",
    "tamegal.witness",
)
SELF = (
    "hahn.add", "hahn.mul", "hahn.make", "hahn.invert",
    "valpoly.horner", "valpoly.taylor", "valpoly.compose",
    "apprtype.build", "apprtype.intercepts", "apprtype.push",
    "envelope.order",
    "reldeg.rel_degree", "reldeg.sampled", "reldeg.approx_coeff",
    "reldeg.factor_shape", "reldeg.mult",
    "tamegal.witness",
)


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in SELF:
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "hahn.mul.pairs": "count",
        "hahn.mul.kept_per_pair": "ratio",
        "envelope.items": "count",
        "reldeg.sampled.refused": "count",
        "reldeg.refused": "count",
        "trace.wall_s": "s",
        "trace.uncovered_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


class EscapedCall(Exception):
    """A layer call ran without passing through its span."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.next_id = 0
        self.op = -1
        self.counts = Counter()
        self.refused = Counter()
        self.patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layer = name.split(".", 1)[0]
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._raised(name, layer, parent, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                spans.append((
                    tracer.op, sid, -1 if parent is None else parent[0],
                    name, start, end, dur - frame[1],
                ))
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return wrapper

    def _raised(self, name, layer, parent, exc):
        if name == "reldeg.sampled" and type(exc).__name__ == "InsufficientPrecision":
            self.counts["reldeg.sampled.refused"] += 1
        if layer == "reldeg" and (parent is None or parent[2] != "reldeg"):
            self.refused[type(exc).__name__] += 1

    def install(self, lib):
        """Wrap the layers of ``lib`` (a namespace of apxval modules)."""
        originals = {}
        for layer in LAYERS:
            mod = getattr(lib, layer)
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                span = f"{layer}.{FUNCTIONS.get((layer, attr), attr)}"
                originals[obj] = self._wrap(span, obj)
            for cls_name, methods in METHODS[layer].items():
                cls = getattr(mod, cls_name)
                for attr, short in methods.items():
                    raw = cls.__dict__[attr]
                    static = isinstance(raw, staticmethod)
                    w = self._wrap(f"{layer}.{short}", raw.__func__ if static else raw)
                    setattr(cls, attr, staticmethod(w) if static else w)
                    self.patches.append((cls, attr, raw))
        package = lib.hahn.__name__.rsplit(".", 1)[0]
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])
                    self.patches.append((mod, attr, obj))
        self.originals = originals
        self.package = package

    def uninstall(self):
        while self.patches:
            owner, attr, obj = self.patches.pop()
            setattr(owner, attr, obj)

    def check_no_escape(self):
        """Raise EscapedCall if a layer call bypassed its span."""
        for name, mod in list(sys.modules.items()):
            if name == self.package or name.startswith(self.package + "."):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj in self.originals:
                        raise EscapedCall(f"{name}.{attr} is still unwrapped")
        names = {sid: name for _, sid, _, name, _, _, _ in self.spans}
        inner = Counter(
            (names.get(parent), name) for _, _, parent, name, _, _, _ in self.spans
        )
        # taylor_intercepts builds one Taylor table per tail approximant
        seen = inner[("apprtype.intercepts", "valpoly.taylor")]
        if seen != self.counts["expected_taylor"]:
            raise EscapedCall(
                f"valpoly.taylor ran {seen} times inside apprtype.intercepts, "
                f"expected {self.counts['expected_taylor']} (tail lengths)"
            )
        # eventual_argmin reads the order through eventual_order
        seen = inner[("envelope.argmin", "envelope.order")]
        if seen != self.counts["argmin_returned"]:
            raise EscapedCall(
                f"envelope.order ran {seen} times inside envelope.argmin, "
                f"expected {self.counts['argmin_returned']}"
            )

    # -- results ------------------------------------------------------------

    def metrics(self, op_walls):
        """Per-layer metrics; ``op_walls`` are the traced ops' wall times."""
        calls = Counter()
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        top = defaultdict(float)
        for op, _, parent, name, start, end, own in self.spans:
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if parent == -1:
                top[op] += end - start
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        pairs = self.counts["hahn.mul.pairs"]
        out["hahn.mul.pairs"] = pairs
        out["hahn.mul.kept_per_pair"] = (
            self.counts["hahn.mul.kept"] / pairs if pairs else 0.0
        )
        out["envelope.items"] = self.counts["envelope.items"]
        out["reldeg.sampled.refused"] = self.counts["reldeg.sampled.refused"]
        out["reldeg.refused"] = sum(self.refused.values())
        out["trace.wall_s"] = sum(op_walls)
        out["trace.uncovered_s"] = sum(
            wall - top[op] for op, wall in enumerate(op_walls)
        )
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\tself\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _mul_hook(counts, args, result):
    a, b = args
    counts["hahn.mul.pairs"] += len(a.terms) * len(b.terms)
    counts["hahn.mul.kept"] += len(result.terms)


def _order_hook(counts, args, result):
    counts["envelope.items"] += len(args[0].items)


def _intercepts_hook(counts, args, result):
    A = args[0]
    counts["expected_taylor"] += min(len(A.approximants), A.tail_depth)


def _argmin_hook(counts, args, result):
    counts["argmin_returned"] += 1


_HOOKS = {
    "hahn.mul": _mul_hook,
    "envelope.order": _order_hook,
    "apprtype.intercepts": _intercepts_hook,
    "envelope.argmin": _argmin_hook,
}
