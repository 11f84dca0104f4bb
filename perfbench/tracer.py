"""Span tracing for the traced benchmark run.

`Tracer.install()` wraps every public function, public method and operator
dunder of the layer modules (the skewcodes modules named in LAYERS), plus a
few private functions that per-layer metrics need by name. It rebinds every
name that points at a wrapped function in every skewcodes module, so that
`from .x import y` copies (`cli.min_distance`, `codes.right_divmod`, ...) are
traced too, and it wraps aliased operators (`__radd__ = __add__`) under
each of their names.

Each call is a span. Spans are folded into per-function totals as they
close (calls, inclusive time, self time = duration minus child spans), so a
run that makes millions of field operations keeps a table of a few hundred
rows in memory; the table is written out once, at the end of the run.
`Tracer.uninstall()` puts every original back.

Properties (`is_zero`, `degree`, ...) and generator functions are not
wrapped: their time is charged to the calling span.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

from workloads import WORKLOADS

LAYERS = ("gf", "ring4", "skewpoly", "distance", "linalg", "codes", "gray", "decomp", "serial", "cli")

OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__pow__", "__eq__",
})

# private functions that a per-layer metric names
PRIVATE_SPANS = {
    "distance": ("_bounded_weight_sweep",),
    "skewpoly": ("_monic_right_factors",),
}

# functions whose return value is added up: label -> measure
RESULT_MEASURES = {
    "distance.min_distance": lambda r: r.candidates_swept,
    "skewpoly.right_divisor_search": len,
    "skewpoly._monic_right_factors": len,
}

DIVISOR_SEARCHES = ("skewpoly.right_divisor_search", "skewpoly._monic_right_factors")
# calls of this function are counted per calling span: candidates tried
CANDIDATE_TEST = "skewpoly.right_divmod"

# Counted in their metric but not required to record a call: reflected
# operators and the commutative product, which a workload may never reach.
OPTIONAL = frozenset({
    "gf.FieldElement.__radd__", "gf.FieldElement.__rmul__",
    "ring4.RingElement.__rmul__", "skewpoly.c_mul",
})

ALL = WORKLOADS

# name, unit, better, value, workloads on which every function behind the
# value (except OPTIONAL ones) must record a call. A value is ("self",
# layer): the layer's self time; ("calls", labels); ("time", labels):
# inclusive time; ("setup", labels): inclusive time during the set-up's
# warm-ups, which build each field's tables cold; or the name of a value
# computed in Tracer._derived.
METRICS = (
    ("gf.self_s", "s", "lower", ("self", "gf"), ALL),
    ("gf.mul_calls", "count", "lower", ("calls", ("gf.FieldElement.__mul__", "gf.FieldElement.__rmul__")), ALL),
    ("gf.add_calls", "count", "lower", ("calls", ("gf.FieldElement.__add__", "gf.FieldElement.__radd__")), ALL),
    ("gf.frob_calls", "count", "lower", ("calls", ("gf.FieldElement.frob",)), ALL),
    ("gf.inverse_calls", "count", "lower", ("calls", ("gf.FieldElement.inverse",)), ALL),
    ("gf.make_field_s", "s", "lower", ("setup", ("gf.make_field",)), ALL),
    ("ring4.self_s", "s", "lower", ("self", "ring4"), ALL),
    ("ring4.mul_calls", "count", "lower", ("calls", ("ring4.RingElement.__mul__", "ring4.RingElement.__rmul__")), ALL),
    ("ring4.crt_calls", "count", "lower", ("calls", ("ring4.RingElement.crt",)), ALL),
    ("ring4.inverse_calls", "count", "lower", ("calls", ("ring4.RingElement.inverse",)), ALL),
    ("skewpoly.self_s", "s", "lower", ("self", "skewpoly"), ALL),
    ("skewpoly.right_divmod_calls", "count", "lower", ("calls", ("skewpoly.right_divmod",)), ALL),
    ("skewpoly.mul_calls", "count", "lower", ("calls", ("skewpoly.SkewPoly.__mul__", "skewpoly.c_mul")), ALL),
    ("skewpoly.divisor_candidates", "count", "lower", "divisor_candidates", ("search", "verify")),
    ("skewpoly.divisor_hit_ratio", "ratio", "higher", "divisor_hit_ratio", ("search", "verify")),
    ("distance.self_s", "s", "lower", ("self", "distance"), ("audit",)),
    ("distance.sweep_s", "s", "lower", ("time", ("distance._bounded_weight_sweep",)), ("audit",)),
    ("distance.field_tables_s", "s", "lower", ("setup", ("distance.field_tables",)), ALL),
    ("distance.candidates_swept", "count", "lower", "candidates_swept", ("audit",)),
    ("linalg.self_s", "s", "lower", ("self", "linalg"), ALL),
    ("linalg.rref_calls", "count", "lower", ("calls", ("linalg.rref",)), ALL),
    ("codes.self_s", "s", "lower", ("self", "codes"), ("audit", "verify")),
    ("codes.contains_calls", "count", "lower", ("calls", ("codes.SkewCode.contains",)), ("audit", "verify")),
    ("gray.self_s", "s", "lower", ("self", "gray"), ("audit", "verify")),
    ("gray.gray_map_calls", "count", "lower", ("calls", ("gray.gray_map",)), ("audit", "verify")),
    ("decomp.self_s", "s", "lower", ("self", "decomp"), ("audit", "verify")),
    ("serial.self_s", "s", "lower", ("self", "serial"), ALL),
    ("cli.self_s", "s", "lower", ("self", "cli"), ALL),
)
OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def _is_setup(value):
    return not isinstance(value, str) and value[0] == "setup"


class Tracer:
    def __init__(self):
        self.stats = {}  # label -> [calls, inclusive s, self s]
        self.candidates = collections.Counter()  # caller label -> CANDIDATE_TEST calls
        self.results = collections.Counter()  # label -> sum of RESULT_MEASURES
        self._stack = []  # open spans: [label, child s]
        self._originals = {}  # id(original) -> wrapper; the wrapper keeps the original alive
        self._patches = []  # (owner, name, previous value), in the order they were made

    # --- wrapping ---

    def _wrap(self, label, fn):
        stat = self.stats.setdefault(label, [0, 0.0, 0.0])
        stack, results, candidates = self._stack, self.results, self.candidates
        measure = RESULT_MEASURES.get(label)
        by_caller = label == CANDIDATE_TEST
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    if by_caller:
                        candidates[parent[0]] += 1
            if measure is not None:
                results[label] += measure(out)
            return out

        functools.update_wrapper(span, fn)
        self._originals[id(fn)] = span
        return span

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name not in OPERATORS and name.startswith("_"):
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                self._patch(cls, name, type(raw)(self._wrap(label, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, name, self._wrap(label, raw))

    def install(self):
        """Wrap the layer modules, then rebind every copied name."""
        import skewcodes  # noqa: F401  (imports every layer module)

        for layer in LAYERS:
            mod = sys.modules[f"skewcodes.{layer}"]
            private = PRIVATE_SPANS.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if name.startswith("_") and name not in private:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    self._patch(mod, name, self._wrap(f"{layer}.{name}", obj))
                elif hasattr(obj, "cache_info"):  # functools.lru_cache
                    self._patch(mod, name, self._wrap(f"{layer}.{name}", obj))
        for mod in self._package_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = self._originals.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        """Put back every original that install() replaced."""
        while self._patches:
            owner, name, previous = self._patches.pop()
            setattr(owner, name, previous)

    @staticmethod
    def _package_modules():
        return [m for n, m in sys.modules.items() if n == "skewcodes" or n.startswith("skewcodes.")]

    def unbound_copies(self):
        """Names in skewcodes modules that still point at an unwrapped original."""
        left = []
        for mod in self._package_modules():
            for name, obj in vars(mod).items():
                if id(obj) in self._originals and obj is not self._originals[id(obj)]:
                    left.append(f"{mod.__name__}.{name}")
        return left

    def reset(self):
        """Start every count and time again from zero."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.candidates.clear()
        self.results.clear()

    # --- results ---

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(s[2] for label, s in self.stats.items() if label.startswith(prefix))

    def _calls(self, labels):
        return sum(self.stats[label][0] for label in labels)

    def _derived(self, key):
        if key == "candidates_swept":
            return self.results["distance.min_distance"]
        tried = sum(self.candidates[p] for p in DIVISOR_SEARCHES)
        if key == "divisor_candidates":
            return tried
        found = sum(self.results[p] for p in DIVISOR_SEARCHES)
        return found / tried if tried else 0.0

    def metrics(self, rounds):
        """Every METRICS value but the set-up ones; counts and times per round."""
        return {name: self._value(value) / (1 if unit == "ratio" else rounds)
                for name, unit, _better, value, _on in METRICS if not _is_setup(value)}

    def setup_metrics(self):
        """The set-up METRICS values, from a tracer installed before the warm-ups."""
        return {name: sum(self.stats[label][1] for label in value[1])
                for name, _unit, _better, value, _on in METRICS if _is_setup(value)}

    def _value(self, value):
        if isinstance(value, str):
            return self._derived(value)
        kind, arg = value
        if kind == "self":
            return self.layer_self(arg)
        if kind == "calls":
            return self._calls(arg)
        return sum(self.stats[label][1] for label in arg)

    def missing_setup(self, workload):
        """Set-up functions that recorded no call on `workload`."""
        return [f"{name}: {label} recorded no call during set-up"
                for name, _unit, _better, value, on in METRICS
                if _is_setup(value) and workload in on
                for label in value[1] if not self.stats.get(label, [0])[0]]

    def missing(self, workload):
        """What the run should have traced on `workload` but did not."""
        gaps = [f"unwrapped copy {name}" for name in self.unbound_copies()]
        for name, _unit, _better, value, on in METRICS:
            if workload not in on or _is_setup(value):
                continue
            if isinstance(value, str):
                labels = {
                    "candidates_swept": ("distance.min_distance",),
                    "divisor_candidates": DIVISOR_SEARCHES,
                    "divisor_hit_ratio": DIVISOR_SEARCHES,
                }[value]
                if not any(self.stats[label][0] for label in labels):
                    gaps.append(f"{name}: no call to any of {', '.join(labels)}")
            elif value[0] == "self":
                if not any(s[0] for label, s in self.stats.items() if label.startswith(value[1] + ".")):
                    gaps.append(f"{name}: no call into layer {value[1]}")
            else:
                for label in value[1]:
                    if label not in self.stats:
                        gaps.append(f"{name}: {label} was not wrapped")
                    elif not self.stats[label][0] and label not in OPTIONAL:
                        gaps.append(f"{name}: {label} recorded no call")
        return gaps

    def table(self, rounds):
        """Per-function totals per round, slowest self time first."""
        rows = [
            {"function": label, "calls": s[0] / rounds, "inclusive_s": s[1] / rounds, "self_s": s[2] / rounds}
            for label, s in self.stats.items() if s[0]
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
