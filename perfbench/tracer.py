"""In-memory span tracer for the modules of the skewpos package.

``Tracer.install`` wraps every public function of each module and every
public method of the classes a module defines. Modules import functions by
name (``membership`` is bound in ``variety``, ``cluster``, ``splicing``,
``cli`` and the package root), so every module-level binding of a wrapped
function is replaced, not only the defining one. ``uninstall`` restores the
originals. Dunder methods and properties are not wrapped; their time counts
as self time of the span that called them, as does the time of private
helpers such as ``linalg._echelon``.

A span is (name, start, end, parent span, op id). Spans are stored in flat
arrays and written out by ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("linalg", "diagram", "permutations", "braid", "variety", "cluster", "plabic", "splicing", "cli")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0  # outermost spans only, so recursion is not counted twice
    self_s: float = 0.0   # duration minus the time covered by child spans


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records one span called name."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = self.clock, self._stack
        names, starts, ends, parents, ops = self.name_id, self.start, self.end, self.parent, self.op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1

        return traced

    def install(self, package: str = "skewpos") -> None:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, (classmethod, staticmethod)):
                            self._rebind(obj, meth, type(raw)(self.wrap(name, raw.__func__)))
                        elif inspect.isfunction(raw):
                            self._rebind(obj, meth, self.wrap(name, raw))
        for ns in [importlib.import_module(package), *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(ns, attr, wrapped[obj])

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------------------

    def _replay(self):
        """Yield (span id, names open around it) in start order, ancestors included."""
        open_ids: list[int] = []
        active: dict[int, int] = defaultdict(int)
        for sid in range(len(self.name_id)):
            p = self.parent[sid]
            while open_ids and open_ids[-1] != p:
                active[self.name_id[open_ids.pop()]] -= 1
            yield sid, active
            open_ids.append(sid)
            active[self.name_id[sid]] += 1

    def stats(self) -> dict[str, SpanStats]:
        n = len(self.name_id)
        covered = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                covered[p] += self.end[sid] - self.start[sid]
        out = {name: SpanStats() for name in self.names}
        for sid, active in self._replay():
            nid = self.name_id[sid]
            s = out[self.names[nid]]
            dur = self.end[sid] - self.start[sid]
            s.calls += 1
            s.self_s += dur - covered[sid]
            if active[nid] == 0:
                s.total_s += dur
        return out

    def calls_within(self, inner: str, outer: str) -> int:
        """The number of ``inner`` spans that run inside an ``outer`` span."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        i, o = self._ids[inner], self._ids[outer]
        return sum(1 for sid, active in self._replay() if self.name_id[sid] == i and active[o] > 0)

    def direct_children(self, child: str, parent: str) -> int:
        if child not in self._ids or parent not in self._ids:
            return 0
        c, p = self._ids[child], self._ids[parent]
        return sum(
            1 for sid in range(len(self.name_id))
            if self.name_id[sid] == c and self.parent[sid] >= 0
            and self.name_id[self.parent[sid]] == p
        )

    def dump(self, path, meta: dict) -> None:
        """Write every span as [name, start, end, parent, op] to a gzipped JSON file."""
        spans = [
            [self.name_id[s], self.start[s], self.end[s], self.parent[s], self.op[s]]
            for s in range(len(self.name_id))
        ]
        doc = dict(meta, names=self.names, fields=["name", "start", "end", "parent", "op"], spans=spans)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
