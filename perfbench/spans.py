"""Spans recorded from the benchmark around calls into rentlab's layers.

The tracer replaces a public function with a timing wrapper in every
namespace where rentlab looks it up: the defining module, every module that
imported the name (``rentlab.cli.first_fit``, ``rentlab.analysis.first_fit``,
...), the package root and module-level dicts such as ``cli._ALGORITHMS``.
Patching the defining module alone would miss those call sites.  All
wrappers are removed again by :meth:`Tracer.uninstall`.

Each span records its name, its layer (the module), start and end, the span
that caused it and the benchmark item it belongs to.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

LAYERS = ("model", "algorithms", "optimal", "generators", "analysis", "cli")

# Public functions wrapped per layer.  Leaf helpers called once per field
# (as_rational, parse_rational, format_rational) stay unwrapped: their time
# lands in the calling span, and wrapping them would mostly time the tracer.
TRACED = {
    "model": (
        "validate", "utilization", "span", "mu", "arrival_mass",
        "arrival_mass_at", "event_times", "load", "active_count", "cost",
        "active_count_integral", "make_instance", "make_schedule",
        "check_schedule", "scale_time", "parse_instance", "format_instance",
        "read_instance", "write_instance", "schedule_to_dict",
        "schedule_from_dict", "read_schedule", "write_schedule",
    ),
    "algorithms": ("next_fit", "first_fit", "server_type_partition"),
    "optimal": (
        "lower_bounds", "brute_force_opt", "active_ceil_bound",
        "verify_certificate",
    ),
    "generators": (
        "ggu_extended", "long_uniform", "nf_nemesis", "random_two_arrival",
        "random_equal_duration",
    ),
    "analysis": (
        "weight_w1", "weight_w2", "classify_servers", "verify_weights",
        "layer_profile", "check_layer_inequalities", "util_ratio_bound",
        "multiplier_sequences", "find_uniform_two_arrival", "ratio_report",
    ),
    "cli": ("main",),
}


@dataclass
class Span:
    id: int
    parent: int | None
    item: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers, keeps every span in memory, removes the wrappers."""

    def __init__(self, modules: dict):
        self.modules = modules  # layer name -> module object
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._observers: dict[str, object] = {}

    def observe(self, name: str, callback) -> None:
        """Call ``callback(span, args, kwargs, result)`` when ``name`` returns."""
        self._observers[name] = callback

    def _wrap(self, name: str, layer: str, fn):
        spans = self.spans
        stack = self._stack
        observer = self._observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(
                len(spans), parent.id if parent else None, self.item,
                name, layer, clock(),
            )
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if observer is not None:
                observer(span, args, kwargs, result)
            return result

        return wrapper

    def _namespaces(self):
        for module in {id(m): m for m in self.modules.values()}.values():
            yield module.__dict__
            for value in list(module.__dict__.values()):
                if type(value) is dict:
                    yield value

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = self.modules[layer]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", layer, fn))
        for namespace in self._namespaces():
            for key, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._patches.append((namespace, key, value))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()


def summarize(spans: list[Span], wall_s: float) -> dict:
    """Self time per layer and per function, plus the harness's own time.

    The harness's time is the traced wall time not covered by any top-level
    span, so the layer self times and the harness time add up to ``wall_s``.
    """
    layer_self = {layer: 0.0 for layer in LAYERS}
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    top_level = 0.0
    for span in spans:
        layer_self[span.layer] += span.self_s
        fn_self[span.name] = fn_self.get(span.name, 0.0) + span.self_s
        fn_calls[span.name] = fn_calls.get(span.name, 0) + 1
        if span.parent is None:
            top_level += span.duration
    return {
        "layer_self_s": layer_self,
        "fn_self_s": fn_self,
        "fn_calls": fn_calls,
        "harness_self_s": wall_s - top_level,
        "spans": len(spans),
    }
