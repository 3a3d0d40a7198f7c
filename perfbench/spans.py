"""Tracing for the benchmark's traced run, from outside the program.

Tracer.install() wraps every public function of the knotforge modules, plus
the methods in METHODS, by rebinding each module and class attribute that
refers to it (so `catalog.dehn_twist`, imported by name from torus, is
wrapped as well as `torus.dehn_twist`); uninstall() puts the originals
back.  Functions reached only through other references, such as the base
constructors held in plumbing._BASES, are not seen.

Every call becomes a span (name, start, end, parent, request id) kept in
arrays and written out by write() when the run ends; truncate() bounds
their memory.  Per-name call counts,
inclusive time and self time are summed as spans close.  Calls of the
generator maps.enumerate_maps are timed across their next() calls, one span
each, and also summed per (V, E) cell.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter_ns

MODULES = ("cli", "maps", "torus", "bounds", "catalog", "plumbing", "pants")
METHODS = {"maps": ("CombinatorialMap.is_connected",), "plumbing": ("MarkedPair.trace",)}
ROOT = "bench.request"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.layer_of: list[str] = []
        # layer -> inclusive ns of its spans not nested in a span of the same layer
        self.layer_ns: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.stack: list[list[int]] = []
        self.request = -1
        self.counters: dict[str, int] = {}
        # (V, E) -> [enumerate_maps ns, classes yielded]
        self.cells: dict[tuple[int, int], list[int]] = {}
        # one (V, E, candidates built) per enumerate_maps call
        self.cell_runs: list[tuple[int, int, int]] = []
        self.origin_ns = perf_counter_ns()
        self._rebound: list[tuple[object, str, object]] = []
        self.name_id(ROOT)

    # --- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.layer_of.append(name.split(".", 1)[0])
        return self.ids[name]

    def enter(self, nid: int) -> None:
        t = perf_counter_ns()
        self.stack.append([len(self.span_name), nid, t, 0])
        self.span_parent.append(self.stack[-2][0] if len(self.stack) > 1 else -1)
        self.span_name.append(nid)
        self.span_start.append(t)
        self.span_end.append(0)
        self.span_request.append(self.request)

    def exit(self) -> None:
        t = perf_counter_ns()
        sid, nid, start, child_ns = self.stack.pop()
        self.span_end[sid] = t
        dur = t - start
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child_ns
        layer = self.layer_of[nid]
        if self.stack:
            self.stack[-1][3] += dur
            if self.layer_of[self.stack[-1][1]] == layer:
                return
        self.layer_ns[layer] = self.layer_ns.get(layer, 0) + dur

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # --- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        if name == "maps.enumerate_maps":
            return self._wrap_enumerate(fn, nid)
        enter, exit_ = self.enter, self.exit
        hook = _HOOKS.get(name)
        if hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_()
                self.count(*hook(args, kwargs, result))
                return result

        return wrapper

    def _wrap_enumerate(self, fn, nid: int):
        enter, exit_ = self.enter, self.exit
        connected = self.name_id("maps.is_connected")

        @functools.wraps(fn)
        def wrapper(V, E, *args, **kwargs):
            cell = self.cells.setdefault((V, E), [0, 0])
            built_before = self.calls[connected]
            it = fn(V, E, *args, **kwargs)
            try:
                while True:
                    sid = len(self.span_name)
                    enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                        cell[0] += self.span_end[sid] - self.span_start[sid]
                    cell[1] += 1
                    yield item
            finally:
                self.cell_runs.append((V, E, self.calls[connected] - built_before))

        return wrapper

    def install(self) -> None:
        modules = [getattr(self.package, m) for m in MODULES]
        targets = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    targets[value] = self._wrap(value, f"{layer}.{attr}")
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._rebind(cls, meth, original, self._wrap(original, f"{layer}.{meth}"))
        for mod in [self.package] + modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in targets:
                    self._rebind(mod, attr, value, targets[value])

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._rebound.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    # --- results -----------------------------------------------------------

    def stat(self, name: str) -> tuple[int, int, int]:
        """(calls, inclusive ns, self ns) summed over spans named `name`."""
        nid = self.ids.get(name)
        if nid is None:
            return 0, 0, 0
        return self.calls[nid], self.total_ns[nid], self.self_ns[nid]

    def layer_calls(self, layer: str) -> int:
        return sum(c for c, lay in zip(self.calls, self.layer_of) if lay == layer)

    def layer_self_ns(self, layer: str) -> int:
        """Time spent in the layer's own code: self time summed over its spans."""
        return sum(ns for ns, lay in zip(self.self_ns, self.layer_of) if lay == layer)

    def truncate(self, count: int) -> None:
        """Forget every span after the first `count`; call between requests."""
        for spans in (self.span_name, self.span_start, self.span_end, self.span_parent,
                      self.span_request):
            del spans[count:]

    def write(self, path: str) -> int:
        """Write every span as a gzipped csv row; returns the span count."""
        names, origin = self.names, self.origin_ns
        rows = (
            f"{sid},{names[nid]},{start - origin},{end - origin},{parent},{request}\n"
            for sid, (nid, start, end, parent, request) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent,
                    self.span_request)
            )
        )
        with gzip.open(path, "wt", compresslevel=1, newline="") as handle:
            handle.write("span,name,start_ns,end_ns,parent,request\n")
            handle.writelines(rows)
        return len(self.span_name)


def _plumb_copied(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return "plumbing.lineage_copied", len(a.lineage) + len(b.lineage)


def _render_bytes(args, kwargs, result):
    return "catalog.render.bytes", len(result)


_HOOKS = {
    "plumbing.plumb": _plumb_copied,
    "catalog.render_csv": _render_bytes,
    "catalog.render_txt": _render_bytes,
}
