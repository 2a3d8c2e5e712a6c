"""Spans around permlab's public functions, installed from outside the program.

A :class:`Tracer` replaces every public function of each layer module, and
the arithmetic methods of the series engine, with a wrapper that records a
span (name, start, end, parent) in memory.  The module attribute is swapped
wherever another permlab module imported the same function, so calls across
layers and within a layer both pass through the wrapper.  Nothing in
permlab changes; :meth:`Tracer.traced` installs the wrappers for one
segment of work and takes them out again.

:meth:`Tracer.summarize` turns one segment into the per-layer metrics named
in ``BENCHMARK.json``.  A span's self time is its duration minus the time
its child spans cover; a layer's self time sums the self times of its spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from reference import SYSTEMS

#: The layers, named after permlab's modules.
LAYERS = (
    "kernels", "perms", "catalog", "recurrences", "series",
    "closedforms", "systems", "bijection", "schroeder",
)

#: The series engine's arithmetic.  Accessors such as ``is_zero`` and
#: ``total_degree`` are left out: they run millions of times per round inside
#: these operations, and wrapping them would cost more than it shows.
SERIES_METHODS = {
    "PolyAux": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "__pow__", "divexact", "compose", "evaluate"),
    "XSeries": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                "__rmul__", "__pow__", "shift", "reciprocal", "divide_exact", "sqrt",
                "substitute"),
}

#: The XSeries operations counted by ``series.xseries_ops.calls``.
XSERIES_OPS = ("mul", "reciprocal", "divide_exact", "sqrt", "substitute")

NAME, START, END, PARENT, LAYER = range(5)


@dataclass(frozen=True)
class Segment:
    """One traced stretch of work: a slice of the span and walk lists."""

    tag: str
    lo: int
    hi: int
    calls: dict[str, int]
    walks: list[tuple[int, int, tuple | None, int]]


def _method_name(attr: str) -> str:
    # __rmul__ multiplies just as __mul__ does, so both count as "mul"
    name = attr.strip("_")
    return name[1:] if name in ("radd", "rsub", "rmul") else name


def _walk_record(args, out) -> tuple[int, tuple | None, int]:
    """(n, pattern pair, leaves) of one kernel call, read from its output."""
    pair = tuple(tuple(int(v) for v in p) for p in args[1:3]) if len(args) >= 3 else None
    counts = out[0] if isinstance(out, tuple) else out
    leaves = int(counts.sum()) if hasattr(counts, "sum") else int(counts)
    return int(args[0]), pair, leaves


class Tracer:
    """Span recorder for the permlab modules in `modules` (layer -> module)."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.walks: list[tuple[int, int, tuple | None, int]] = []
        self.segments: list[Segment] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules.get(layer)
            if mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or id(obj) in wrapped):
                    continue
                wrapped[id(obj)] = self._wrap(
                    obj, f"{layer}.{attr}", layer,
                    label_by_arg=(layer == "systems" and attr == "verify_system"),
                )
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if id(obj) in wrapped and not attr.startswith("__"):
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))
        series = modules.get("series")
        for cls_name, methods in SERIES_METHODS.items() if series else ():
            cls = getattr(series, cls_name)
            for attr in methods:
                orig = cls.__dict__[attr]
                wrapper = self._wrap(orig, f"series.{cls_name}.{_method_name(attr)}",
                                     "series", outermost_only=True)
                self._patches.append((cls, attr, orig, wrapper))

    def _wrap(self, fn, name: str, layer: str, outermost_only: bool = False,
              label_by_arg: bool = False):
        """A wrapper recording a span per call of `fn`.

        With `outermost_only`, a call made while a span of the same layer is
        open is counted but gets no span of its own; its time stays in the
        enclosing span, which keeps the series layer's span count small.
        """
        spans, stack, calls = self.spans, self._stack, self.calls
        walks = self.walks if layer == "kernels" else None
        clock = time.perf_counter
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if outermost_only and stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            idx = len(spans)
            label = f"{name}:{args[0]}" if label_by_arg and args else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, layer]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if walks is not None:
                walks.append((idx, *_walk_record(args, out)))
            return out

        return wrapper

    @contextmanager
    def traced(self, tag: str):
        """Record spans for the work done inside the block as one segment."""
        before = dict(self.calls)
        lo, walks_lo = len(self.spans), len(self.walks)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)
            self.segments.append(Segment(
                tag, lo, len(self.spans),
                {k: v - before.get(k, 0) for k, v in self.calls.items()},
                self.walks[walks_lo:],
            ))

    def write_csv(self, path) -> None:
        """All spans as gzipped CSV: id, parent, segment, name, start_s, end_s."""
        seg_of = {}
        for seg in self.segments:
            for i in range(seg.lo, seg.hi):
                seg_of[i] = seg.tag
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "segment", "name", "start_s", "end_s"))
            for i, rec in enumerate(self.spans):
                out.writerow((i, rec[PARENT], seg_of.get(i, ""), rec[NAME],
                              f"{rec[START]:.7f}", f"{rec[END]:.7f}"))

    def summarize(self, seg: Segment) -> dict[str, float]:
        """Per-layer metrics of one segment."""
        spans = self.spans[seg.lo:seg.hi]
        dur = [rec[END] - rec[START] for rec in spans]
        child = [0.0] * len(spans)
        under_bijection = [False] * len(spans)
        under_enumerate = [False] * len(spans)
        for i, rec in enumerate(spans):
            p = rec[PARENT] - seg.lo
            if p >= 0:
                child[p] += dur[i]
                parent = spans[p]
                under_bijection[i] = under_bijection[p] or parent[LAYER] == "bijection"
                under_enumerate[i] = (under_enumerate[p]
                                      or parent[NAME] == "perms.enumerate_avoiders")
        self_by_name: dict[str, float] = defaultdict(float)
        incl_by_name: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        kernel_busy = bijection_s = domain_check_s = 0.0
        enumerate_walks = 0
        for i, rec in enumerate(spans):
            own = dur[i] - child[i]
            self_by_name[rec[NAME]] += own
            incl_by_name[rec[NAME]] += dur[i]
            self_by_layer[rec[LAYER]] += own
            if rec[LAYER] == "kernels":
                kernel_busy += dur[i]
                enumerate_walks += under_enumerate[i]
            elif rec[LAYER] == "bijection" and not under_bijection[i]:
                bijection_s += dur[i]
            elif rec[NAME] == "perms.contains" and under_bijection[i]:
                domain_check_s += dur[i]
        calls_by_layer: dict[str, int] = defaultdict(int)
        for name, count in seg.calls.items():
            calls_by_layer[name.split(".", 1)[0]] += count
        leaves = sum(w[3] for w in seg.walks)
        enumerate_calls = seg.calls.get("perms.enumerate_avoiders", 0)

        m: dict[str, float] = {}
        for kernel in ("census_pair", "active_census", "fill_avoiders", "inv021_census"):
            m[f"kernels.{kernel}.s"] = self_by_name[f"kernels.{kernel}"]
        m["kernels.leaves"] = leaves
        m["kernels.leaves_per_s"] = leaves / kernel_busy if kernel_busy else 0.0
        m["perms.self_s"] = self_by_layer["perms"]
        m["perms.contains.calls"] = seg.calls.get("perms.contains", 0)
        m["perms.contains.s"] = self_by_name["perms.contains"]
        m["perms.enumerate_avoiders.kernel_walks"] = (
            enumerate_walks / enumerate_calls if enumerate_calls else 0.0
        )
        m["bijection.forward.s"] = (self_by_name["bijection.forward"]
                                    + self_by_name["bijection.forward_trace"])
        m["bijection.inverse.s"] = self_by_name["bijection.inverse"]
        m["bijection.s"] = bijection_s
        m["bijection.domain_check_s"] = domain_check_s
        m["bijection.domain_check_share"] = domain_check_s / bijection_s if bijection_s else 0.0
        m["recurrences.s"] = self_by_layer["recurrences"]
        m["series.xseries_ops.calls"] = sum(
            seg.calls.get(f"series.XSeries.{op}", 0) for op in XSERIES_OPS
        )
        m["series.polyaux_mul.calls"] = seg.calls.get("series.PolyAux.mul", 0)
        m["series.s"] = self_by_layer["series"]
        m["closedforms.build.s"] = incl_by_name["closedforms.build_closed_form"]
        m["closedforms.expand.s"] = incl_by_name["closedforms.expand"]
        m["closedforms.verify_cleared.s"] = incl_by_name["closedforms.verify_cleared"]
        for name in SYSTEMS:
            m[f"systems.{name}.s"] = incl_by_name[f"systems.verify_system:{name}"]
        for layer in ("kernels", "catalog", "closedforms", "systems", "bijection", "schroeder"):
            m[f"{layer}.self_s"] = self_by_layer[layer]
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls_by_layer[layer]
        m["trace.spans"] = len(spans)
        return m
